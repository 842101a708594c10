//! The non-blocking BST: `Search`, `Find`, `Insert`, `Delete` and the
//! helping routines, line-for-line against the paper's Figures 8 and 9,
//! with multi-entry leaves (DESIGN.md §13).
//!
//! Each CAS step of the protocol has one function here (`iflag`, `ichild`,
//! `iunflag`, `dflag`, `mark`, `dchild`, `dunflag`, `backtrack`). `Insert`
//! and `Delete` are one step machine, [`Update`], which chains them; the
//! public operations step it to completion and the drivers in
//! [`crate::raw`] step it under test control, so tests run the shipped
//! protocol. The helping routines call the same step functions.
//!
//! Each public operation pins the epoch collector once per *attempt* (the
//! paper's retry loop iterations), so every pointer read during an attempt
//! — including Info records published by other threads — stays live for
//! the whole attempt. Nodes are retired at the child CAS that unlinks
//! them, as the paper's Section 6 prescribes. An Info record is retired
//! later than Section 6 suggests: not at its unflag or backtrack CAS but
//! at the flag or mark CAS that displaces it from the Clean update word it
//! is left in (`retire_displaced`), so its address cannot be reused while
//! any attempt that read the word is pinned (DESIGN.md §2).

use crate::node::{
    internal_ptr, DInfo, Edit, IInfo, Info, Internal, Leaf, NodePtr, NodePtrExt, NodeRef,
    UpdateRef, UpdateWordExt, LEAF_CAPACITY,
};
use crate::state::State;
use crate::stats::{StatsSnapshot, TreeStats};
use nbbst_dictionary::{real_vs_node, ConcurrentMap, SentinelKey};
use nbbst_reclaim::{Collector, Guard, Owned, Shared};
use std::cmp::Ordering as CmpOrdering;
use std::fmt;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

/// The non-blocking binary search tree of Ellen, Fatourou, Ruppert and
/// van Breugel (PODC 2010).
///
/// A linearizable, lock-free dictionary built from single-word CAS:
///
/// * `Find` only reads shared memory;
/// * `Insert` completes after flagging **one** node; `Delete` after
///   flagging/marking **two** — so updates to different parts of the tree
///   run fully concurrently;
/// * any number of threads may crash (stop taking steps) at any point and
///   the remaining threads still make progress, because every flag carries
///   an *Info record* that lets others finish the stalled operation.
///
/// # Type parameters
///
/// `K: Ord + Clone` — keys are cloned into routing nodes (the paper's
/// internal nodes duplicate leaf keys). `V: Clone` — leaves are immutable,
/// so every update builds a copy of the leaf it replaces (Figure 1's new
/// sibling, generalised), cloning the entries it keeps.
///
/// # Leaves
///
/// A leaf holds up to 32 sorted entries (the paper's tree has one key per
/// leaf). An Insert into a leaf with room, and a Delete from a leaf with
/// at least two entries, replace the leaf with an edited copy through the
/// paper's `iflag → ichild → iunflag` circuit; an Insert into a full leaf
/// installs an internal node over two half leaves, as Figure 1 does at
/// capacity 1. Only a Delete that would empty its leaf runs the paper's
/// `dflag → mark → dchild → dunflag` circuit. Leaves are never merged.
/// See DESIGN.md §13.
///
/// # Examples
///
/// ```
/// use nbbst_core::NbBst;
/// use nbbst_dictionary::ConcurrentMap;
///
/// let tree = NbBst::new();
/// assert!(tree.insert(10u64, "ten"));
/// assert!(tree.insert(20, "twenty"));
/// assert!(!tree.insert(10, "TEN"));
/// assert_eq!(tree.get(&10), Some("ten"));
/// assert!(tree.remove(&10));
/// assert!(!tree.contains(&10));
/// ```
///
/// Concurrent use — the tree is `Sync`; share it by reference:
///
/// ```
/// use nbbst_core::NbBst;
/// use nbbst_dictionary::ConcurrentMap;
///
/// let tree: NbBst<u64, u64> = NbBst::new();
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let tree = &tree;
///         s.spawn(move || {
///             for i in 0..100 {
///                 tree.insert(t * 100 + i, i);
///             }
///         });
///     }
/// });
/// assert_eq!(tree.quiescent_len(), 400);
/// ```
pub struct NbBst<K, V> {
    /// "The shared variable Root is a pointer to the root of the tree, and
    /// this pointer is never changed" (Section 4.1).
    root: Box<Internal<K, V>>,
    collector: Collector,
    stats: Option<Arc<TreeStats>>,
    /// Entries per leaf: `LEAF_CAPACITY`, or 1 for the paper's tree
    /// ([`NbBst::one_key_leaves`]).
    leaf_capacity: usize,
}

/// What the paper's `Search(k)` returns (Figure 8 lines 23–35): the leaf
/// reached, the last two internal nodes on the path, and copies of their
/// update words.
pub(crate) struct SearchResult<'g, K, V> {
    /// Grandparent of `l`; `None` when the search took a single step (which
    /// only happens when `l` is the root's left child, a leaf holding `∞1`).
    pub(crate) gp: Option<&'g Internal<K, V>>,
    /// Parent of `l`.
    pub(crate) p: &'g Internal<K, V>,
    /// The leaf reached.
    pub(crate) leaf: &'g Leaf<K, V>,
    /// Copy of `p`'s update word read during the traversal.
    pub(crate) pupdate: UpdateRef<'g, K, V>,
    /// Copy of `gp`'s update word read during the traversal (null without
    /// a grandparent).
    pub(crate) gpupdate: UpdateRef<'g, K, V>,
}

impl<K, V> NbBst<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Creates the initial tree of Figure 6(a): an internal root keyed
    /// `∞2` whose children are the `∞1` and `∞2` sentinel leaves.
    pub fn new() -> NbBst<K, V> {
        let left = Leaf::sentinel(&SentinelKey::Inf1).into_ptr();
        let right = Leaf::sentinel(&SentinelKey::Inf2).into_ptr();
        NbBst {
            root: Box::new(Internal::new(SentinelKey::Inf2, left, right)),
            collector: Collector::new(),
            stats: None,
            leaf_capacity: LEAF_CAPACITY,
        }
    }

    /// Like [`NbBst::new`], with Figure-4 CAS counters attached
    /// (see [`NbBst::stats`]).
    pub fn with_stats() -> NbBst<K, V> {
        let mut t = NbBst::new();
        t.stats = Some(Arc::new(TreeStats::default()));
        t
    }

    /// Like [`NbBst::new`], but retiring into `collector` instead of a
    /// fresh private one — the constructor path for *sharded* frontends,
    /// where every shard clones one collector so that any thread pinned on
    /// any shard can steal and free garbage published by all of them (the
    /// evictable-bag registry is collector-global; DESIGN.md §10/§11).
    ///
    /// Sharing a collector is purely a reclamation-domain choice: trees
    /// never see each other's nodes, so the protocol is unaffected. The
    /// final teardown runs when the **last** clone of `collector` drops.
    pub fn with_collector(collector: Collector) -> NbBst<K, V> {
        let mut t = NbBst::new();
        t.collector = collector;
        t
    }

    /// [`NbBst::with_collector`] with Figure-4 counters attached
    /// (see [`NbBst::stats`]).
    pub fn with_stats_and_collector(collector: Collector) -> NbBst<K, V> {
        let mut t = NbBst::with_collector(collector);
        t.stats = Some(Arc::new(TreeStats::default()));
        t
    }

    /// Like [`NbBst::new`], but **leaking** every removed node and Info
    /// record instead of reclaiming them — the paper's literal
    /// fresh-allocations memory model (Section 4.1), provided for the
    /// reclamation-overhead ablation (experiment T8). Memory use grows
    /// without bound under update workloads.
    pub fn new_leaky() -> NbBst<K, V> {
        let mut t = NbBst::new();
        t.collector = Collector::new_leaky();
        t
    }

    /// Turns a freshly built, empty tree into the paper's tree: one key
    /// per leaf, so every Insert runs Figure 1 and every Delete Figure 2.
    /// For the figure binaries and the tests that pin the paper's shapes
    /// and schedules; the protocol code is the same.
    ///
    /// # Panics
    ///
    /// Panics if the tree already holds keys.
    #[doc(hidden)]
    #[must_use]
    pub fn one_key_leaves(mut self) -> NbBst<K, V> {
        assert_eq!(self.len_slow(), 0, "one_key_leaves() needs an empty tree");
        self.leaf_capacity = 1;
        self
    }

    /// Entries a leaf may hold (1 for the paper's tree).
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// A snapshot of the CAS/helping counters, if this tree was built with
    /// [`NbBst::with_stats`].
    pub fn stats(&self) -> Option<StatsSnapshot> {
        self.stats.as_ref().map(|s| s.snapshot())
    }

    /// The tree's epoch collector (exposed for tests and reclamation
    /// experiments).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    #[inline]
    fn bump(&self, f: impl FnOnce(&TreeStats) -> &crate::stats::Counter) {
        if let Some(s) = &self.stats {
            f(s).fetch_add(1, AtomicOrdering::Relaxed);
        }
    }

    /// Pins the collector for one operation attempt.
    pub(crate) fn pin(&self) -> Guard {
        self.collector.pin()
    }

    /// The root node (never changes; Section 4.1).
    pub(crate) fn root(&self) -> &Internal<K, V> {
        &self.root
    }

    // ------------------------------------------------------------------
    // Search (Figure 8, lines 23–35)
    // ------------------------------------------------------------------

    /// Traverses one branch from the root to a leaf, recording the last two
    /// internal nodes and their update words.
    pub(crate) fn search<'g>(&'g self, key: &K, guard: &'g Guard) -> SearchResult<'g, K, V> {
        self.bump(|s| &s.searches);
        let mut gp = None;
        let mut p: &'g Internal<K, V> = &self.root;
        let mut gpupdate = UpdateRef::null();
        let mut pupdate = p.load_update(guard);
        let mut l = p.load_child(real_vs_node(key, &p.key) == CmpOrdering::Less, guard);
        loop {
            // SAFETY: `l` was read (under `guard`) from a child word of a
            // node reached from the root.
            match unsafe { l.node() } {
                NodeRef::Leaf(leaf) => {
                    // Nothing of the leaf has been read yet: start all of
                    // its lines now, before `Leaf::get` or
                    // `Leaf::replacement` probes them one by one.
                    leaf.prefetch();
                    return SearchResult {
                        gp,
                        p,
                        leaf,
                        pupdate,
                        gpupdate,
                    };
                }
                NodeRef::Internal(node) => {
                    gp = Some(p); //                           line 28
                    p = node; //                               line 29
                    gpupdate = pupdate; //                     line 30
                    pupdate = node.load_update(guard); //      line 31
                    let go_left = real_vs_node(key, &node.key) == CmpOrdering::Less;
                    l = node.load_child(go_left, guard); //    line 32
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Find (Figure 8, lines 36–40)
    // ------------------------------------------------------------------

    /// The paper's `Find(k)`: `true` iff `k` is in the dictionary.
    ///
    /// Performs only reads of shared memory.
    pub fn contains_key(&self, key: &K) -> bool {
        let guard = self.pin();
        let s = self.search(key, &guard);
        self.bump(|st| &st.finds);
        s.leaf.get(key).is_some()
    }

    /// Like [`NbBst::contains_key`], returning a clone of the stored value.
    pub fn get_cloned(&self, key: &K) -> Option<V> {
        let guard = self.pin();
        let s = self.search(key, &guard);
        self.bump(|st| &st.finds);
        s.leaf.get(key).cloned()
    }

    // ------------------------------------------------------------------
    // Insert and Delete (Figure 8 lines 41–62, Figure 9 lines 69–89)
    // ------------------------------------------------------------------

    /// Adds `key` with `value`; on duplicate, returns ownership of both.
    ///
    /// # Errors
    ///
    /// `Err((key, value))` if the key was already present (the paper's
    /// `Insert` returns `False`; we additionally hand the inputs back).
    pub fn insert_entry(&self, key: K, value: V) -> Result<(), (K, V)> {
        match self.update(Edit::Insert(&key, &value), |_| ()) {
            Some(()) => Ok(()),
            None => Err((key, value)),
        }
    }

    /// Removes `key`; returns `true` iff it was present.
    pub fn remove_key(&self, key: &K) -> bool {
        self.update(Edit::Remove(key), |_| ()).is_some()
    }

    /// Removes `key`, returning a clone of its value if it was present.
    pub fn remove_entry(&self, key: &K) -> Option<V> {
        self.update(Edit::Remove(key), |leaf| leaf.get(key).cloned())
            .flatten()
    }

    /// Steps one update machine until it is done, pinning once per
    /// attempt: the paper's retry loop. On success, `extract` runs on the
    /// leaf the final Search reached while the guard still protects it.
    fn update<R>(&self, edit: Edit<'_, K, V>, extract: impl FnOnce(&Leaf<K, V>) -> R) -> Option<R> {
        let mut op = Update::new();
        loop {
            let guard = self.pin();
            loop {
                // SAFETY: `guard` was pinned before this attempt's Search
                // and serves all of its steps.
                unsafe { op.step(self, edit, &guard) };
                match op.next() {
                    Step::Search => break,
                    Step::Done(false) => return None,
                    // SAFETY: as above; the Search has run.
                    Step::Done(true) => return Some(extract(unsafe { op.found(&guard) }.leaf)),
                    _ => {}
                }
            }
        }
    }

    /// Counts an attempt that returns to its Search.
    fn count_retry(&self, edit: Edit<'_, K, V>) {
        match edit {
            Edit::Insert(..) => self.bump(|st| &st.insert_retries),
            Edit::Remove(_) => self.bump(|st| &st.delete_retries),
        }
    }

    /// Counts a completed Insert or Delete call and, if it succeeded, how.
    fn count_done(&self, edit: Edit<'_, K, V>, result: bool, by_copy: bool) {
        if matches!(edit, Edit::Insert(..)) {
            self.bump(|st| &st.inserts);
            if result {
                self.bump(|st| &st.inserts_true);
            }
        } else {
            self.bump(|st| &st.deletes);
            if result {
                self.bump(|st| &st.deletes_true);
            }
            if by_copy {
                self.bump(|st| &st.deletes_by_copy);
            }
        }
    }

    // ------------------------------------------------------------------
    // The CAS steps (Figure 8 lines 56, 66–67; Figure 9 lines 81, 91, 98,
    // 105–106), one function each. The update machine and the helping
    // routines both call these.
    // ------------------------------------------------------------------

    /// The iflag CAS (line 56): publishes a fresh IInfo record replacing
    /// `s.leaf` by `new`. Returns the flagged word, or, after freeing the
    /// unpublished `new`, the word that blocked the CAS.
    fn iflag<'g>(
        &self,
        s: &SearchResult<'g, K, V>,
        new: NodePtr<'_, K, V>,
        guard: &'g Guard,
    ) -> Result<UpdateRef<'g, K, V>, UpdateRef<'g, K, V>> {
        let op = Owned::new(Info::Insert(IInfo {
            p: s.p,
            l: s.leaf,
            new: new.into_data(),
        }))
        .with_tag(State::IFlag.tag());
        self.bump(|st| &st.iflag_attempts);
        // AcqRel: Release publishes the fresh IInfo record (and the
        // replacement it points to) to helpers; failure is Acquire because
        // the observed word is helped (dereferenced) next, and a failed
        // CAS must not synchronize more than a successful one, so success
        // carries the Acquire too (enforced by nbbst-lint).
        match s.p.update.compare_exchange(
            s.pupdate,
            op,
            AtomicOrdering::AcqRel,
            AtomicOrdering::Acquire,
            guard,
        ) {
            Ok(op_word) => {
                self.bump(|st| &st.iflag_success);
                // SAFETY: our iflag displaced `pupdate` from `p`.
                unsafe { self.retire_displaced(s.pupdate, guard) };
                Ok(op_word)
            }
            Err(e) => {
                // SAFETY: the replacement was never published.
                unsafe { new.free_subtree() };
                drop(e.new); // the unpublished IInfo record
                Err(e.current)
            }
        }
    }

    /// The dflag CAS (line 81): publishes a fresh DInfo record on the
    /// grandparent. Returns the flagged word or the word that blocked it.
    fn dflag<'g>(
        &self,
        s: &SearchResult<'g, K, V>,
        guard: &'g Guard,
    ) -> Result<UpdateRef<'g, K, V>, UpdateRef<'g, K, V>> {
        // A leaf holding a real key sits below the root's children, so it
        // has a grandparent.
        let gp = s.gp.expect("a real key's leaf has a grandparent");
        let op = Owned::new(Info::Delete(DInfo {
            gp,
            p: s.p,
            l: s.leaf,
            pupdate: s.pupdate.into_data(),
        }))
        .with_tag(State::DFlag.tag());
        self.bump(|st| &st.dflag_attempts);
        // AcqRel: Release publishes the fresh DInfo record; failure is
        // Acquire because the observed word is helped (dereferenced) next,
        // and success must be at least as strong on the read side as
        // failure (enforced by nbbst-lint).
        match gp.update.compare_exchange(
            s.gpupdate,
            op,
            AtomicOrdering::AcqRel,
            AtomicOrdering::Acquire,
            guard,
        ) {
            Ok(op_word) => {
                self.bump(|st| &st.dflag_success);
                // SAFETY: our dflag displaced `gpupdate` from `gp`.
                unsafe { self.retire_displaced(s.gpupdate, guard) };
                Ok(op_word)
            }
            Err(e) => {
                drop(e.new); // the unpublished DInfo record
                Err(e.current)
            }
        }
    }

    /// The mark CAS (line 91) on the parent named by the DInfo word `op`,
    /// expecting the `pupdate` word the deleter's Search read. `Ok` also
    /// when a helper of the same deletion marked it first; otherwise
    /// returns the word that blocked it.
    fn mark<'g>(
        &self,
        op: UpdateRef<'g, K, V>,
        guard: &'g Guard,
    ) -> Result<(), UpdateRef<'g, K, V>> {
        let info = record(op).as_delete();
        let expected = info.pupdate_word(guard);
        let mark_word = op.with_tag(State::Mark.tag());
        self.bump(|st| &st.mark_attempts);
        // AcqRel: Release publishes the Mark (pointing at the already-
        // published DInfo); failure is Acquire because the observed word is
        // helped (dereferenced) before the backtrack, and success must be
        // at least as strong on the read side as failure (enforced by
        // nbbst-lint).
        match info.nodes().1.update.compare_exchange(
            expected,
            mark_word,
            AtomicOrdering::AcqRel,
            AtomicOrdering::Acquire,
            guard,
        ) {
            Ok(_) => {
                self.bump(|st| &st.mark_success);
                // SAFETY: our mark displaced `expected` from `p`.
                unsafe { self.retire_displaced(expected, guard) };
                Ok(())
            }
            Err(e) if e.current == mark_word => Ok(()),
            Err(e) => Err(e.current),
        }
    }

    /// The backtrack CAS (line 98): after a failed mark, removes the DInfo
    /// word `op`'s flag from the grandparent so the Delete can retry.
    /// Returns whether this call performed it.
    fn backtrack(&self, op: UpdateRef<'_, K, V>, guard: &Guard) -> bool {
        let gp = record(op).as_delete().nodes().0;
        // Release pairs with the Acquire loads of helpers that observe
        // Clean; the failure value is ignored.
        let won = gp
            .update
            .compare_exchange(
                op.with_tag(State::DFlag.tag()),
                op.with_tag(State::Clean.tag()),
                AtomicOrdering::Release,
                AtomicOrdering::Relaxed,
                guard,
            )
            .is_ok();
        if won {
            self.bump(|st| &st.backtrack_success);
        }
        won
    }

    /// The ichild CAS (line 66, via CAS-Child): swings the flagged parent
    /// named by the IInfo word `op` from its leaf to the replacement. The
    /// unique winner retires the leaf. Returns whether this call won.
    fn ichild(&self, op: UpdateRef<'_, K, V>, guard: &Guard) -> bool {
        let info = record(op).as_insert();
        let l = info.leaf_word();
        let won = self.cas_child(info.parent(), l, info.new_word(), guard);
        if won {
            self.bump(|st| &st.ichild_success);
            self.bump(|st| &st.nodes_retired);
            // SAFETY: `l` has just been unlinked by our CAS and is retired
            // exactly once (only the successful CASer reaches this).
            unsafe { l.retire(guard) };
        }
        won
    }

    /// The iunflag CAS (line 67). The record stays in the Clean word as a
    /// comparand until the next flag of the parent displaces and retires
    /// it. Returns whether this call performed it.
    fn iunflag(&self, op: UpdateRef<'_, K, V>, guard: &Guard) -> bool {
        let p = record(op).as_insert().parent();
        // Release: a thread that Acquire-loads the Clean word must also see
        // the ichild splice that preceded it. The failure value is ignored.
        let won = p
            .update
            .compare_exchange(
                op.with_tag(State::IFlag.tag()),
                op.with_tag(State::Clean.tag()),
                AtomicOrdering::Release,
                AtomicOrdering::Relaxed,
                guard,
            )
            .is_ok();
        if won {
            self.bump(|st| &st.iunflag_success);
        }
        won
    }

    /// The dchild CAS (line 105, via CAS-Child): splices the marked parent
    /// named by the DInfo word `op` out of the tree, replacing it by the
    /// sibling of the deleted leaf (lines 103–104). The unique winner
    /// retires the parent and the leaf. Returns whether this call won.
    fn dchild(&self, op: UpdateRef<'_, K, V>, guard: &Guard) -> bool {
        let info = record(op).as_delete();
        let (gp, p) = info.nodes();
        let l = info.leaf_word();
        // `p` is marked, so its child words are frozen; both loads see
        // final values.
        let right = p.load_child(false, guard);
        let other = if right == l {
            p.load_child(true, guard)
        } else {
            right
        };
        let p_word = internal_ptr(p);
        let won = self.cas_child(gp, p_word, other, guard);
        if won {
            self.bump(|st| &st.dchild_success);
            self.bump(|st| &st.nodes_retired);
            self.bump(|st| &st.nodes_retired);
            // SAFETY: our CAS unlinked `p` (and with it the leaf `l`);
            // unique retirement as only one dchild per circuit succeeds.
            unsafe {
                p_word.retire(guard);
                l.retire(guard);
            }
        }
        won
    }

    /// The dunflag CAS (line 106). Returns whether this call performed it.
    fn dunflag(&self, op: UpdateRef<'_, K, V>, guard: &Guard) -> bool {
        let gp = record(op).as_delete().nodes().0;
        // Release: a thread that Acquire-loads the Clean word must also see
        // the dchild splice that preceded it. The failure value is ignored.
        let won = gp
            .update
            .compare_exchange(
                op.with_tag(State::DFlag.tag()),
                op.with_tag(State::Clean.tag()),
                AtomicOrdering::Release,
                AtomicOrdering::Relaxed,
                guard,
            )
            .is_ok();
        if won {
            self.bump(|st| &st.dunflag_success);
        }
        won
    }

    /// `CAS-Child(parent, old, new)` (lines 113–118): pick the left or
    /// right child slot by comparing keys, then CAS it.
    fn cas_child(
        &self,
        parent: &Internal<K, V>,
        old: NodePtr<'_, K, V>,
        new: NodePtr<'_, K, V>,
        guard: &Guard,
    ) -> bool {
        // SAFETY: `new` is either a freshly built (unpublished) replacement
        // named by a live IInfo, or a node read under `guard`.
        let slot = if unsafe { new.node() }.goes_left_of(&parent.key) {
            &parent.left //                                line 115
        } else {
            &parent.right //                               line 117
        };
        // Release publishes the spliced node's initialization (for ichild,
        // the whole fresh replacement) to Acquire-loading traversals; the
        // failure value is ignored (a helper already did the splice).
        slot.compare_exchange(
            old,
            new,
            AtomicOrdering::Release,
            AtomicOrdering::Relaxed,
            guard,
        )
        .is_ok()
    }

    /// Retires the Info record of `word`, a Clean update word the caller's
    /// successful flag or mark CAS just replaced.
    ///
    /// Retiring here, not at the record's own unflag or backtrack, keeps
    /// the record allocated for as long as its pointer sits in an update
    /// word. An attempt that read the word is pinned from before the
    /// displacement, so the address cannot be reused under it, and its
    /// flag CAS cannot succeed against a recycled record: the Info-record
    /// ABA of DESIGN.md §2. A DInfo also stays in its marked parent's
    /// word, but that parent was unlinked before the DInfo's grandparent
    /// word could be displaced, and no CAS ever expects a Mark word.
    ///
    /// # Safety
    ///
    /// The caller's CAS displaced `word`, so it retires the record once.
    unsafe fn retire_displaced(&self, word: UpdateRef<'_, K, V>, guard: &Guard) {
        if !word.is_null() {
            self.bump(|st| &st.infos_retired);
            // SAFETY: per the contract: displaced once, by the caller.
            unsafe { guard.defer_destroy(word.with_tag(0)) };
        }
    }

    // ------------------------------------------------------------------
    // Helping (Figure 8 lines 63–68, Figure 9 lines 90–112)
    // ------------------------------------------------------------------

    /// `Help(u)` (lines 107–112): dispatch on the state packed in `u`.
    fn help(&self, u: UpdateRef<'_, K, V>, guard: &Guard) {
        self.bump(|st| &st.helps);
        match u.state() {
            State::IFlag => self.help_insert(u, guard),
            State::Mark => self.help_marked(u, guard),
            State::DFlag => self.help_delete(u, guard),
            State::Clean => {}
        }
    }

    /// `HelpInsert(op)` (lines 63–68): the ichild and iunflag steps of
    /// another thread's leaf replacement.
    fn help_insert(&self, op: UpdateRef<'_, K, V>, guard: &Guard) {
        self.bump(|st| &st.help_insert_calls);
        self.ichild(op, guard);
        self.iunflag(op, guard);
    }

    /// `HelpDelete(op)` (lines 90–99): mark the parent and complete the
    /// deletion, or help whoever blocked the mark (line 97) and backtrack.
    fn help_delete(&self, op: UpdateRef<'_, K, V>, guard: &Guard) {
        self.bump(|st| &st.help_delete_calls);
        match self.mark(op, guard) {
            Ok(()) => self.help_marked(op, guard),
            Err(current) => {
                self.help(current, guard);
                self.backtrack(op, guard);
            }
        }
    }

    /// `HelpMarked(op)` (lines 100–106): the dchild and dunflag steps.
    fn help_marked(&self, op: UpdateRef<'_, K, V>, guard: &Guard) {
        self.bump(|st| &st.help_marked_calls);
        self.dchild(op, guard);
        self.dunflag(op, guard);
    }
}

/// The Info record an update word names.
fn record<'g, K, V>(op: UpdateRef<'g, K, V>) -> &'g Info<K, V> {
    // SAFETY: every caller passes a word read (or installed) under the
    // guard `'g` while it was flagged or marked with this record, which
    // is retired only once a later flag displaces it from a Clean word,
    // after that read.
    unsafe { op.with_tag(0).deref() }
}

/// The step an [`Update`] takes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// `Search` (lines 49–51, 75–78).
    Search,
    /// `Help` the operation whose update word blocked the last step (lines
    /// 51, 61, 77, 78, 85 and 97).
    Help,
    /// The iflag CAS (line 56), or the dflag CAS (line 81).
    Flag,
    /// The mark CAS (line 91).
    Mark,
    /// The ichild CAS (line 66), or the dchild CAS (line 105).
    Child,
    /// The iunflag CAS (line 67), or the dunflag CAS (line 106).
    Unflag,
    /// The backtrack CAS (line 98).
    Backtrack,
    /// Finished, with the operation's result.
    Done(bool),
}

/// One `Insert` or `Delete`, as a machine that takes one [`Step`] at a
/// time: the only implementation of the paper's update control flow.
///
/// The public operations step it to completion; the drivers in
/// [`crate::raw`] step it under test control. An Insert, and a Delete
/// whose leaf keeps other entries, run `Flag → Child → Unflag` as iflag,
/// ichild and iunflag; a Delete that would empty its leaf runs `Flag →
/// Mark → Child → Unflag` as dflag, mark, dchild and dunflag. A failed
/// flag or mark is followed by a `Help` step over the word that blocked
/// it, then by a new `Search` or the `Backtrack`.
///
/// The machine stores the words its steps read as plain bits, valid only
/// under the guard of the attempt that read them (see [`Update::step`]).
pub(crate) struct Update<K, V> {
    next: Step,
    /// Whether this attempt runs the deletion circuit.
    splice: bool,
    // What the last Search found (`SearchResult`, as plain words).
    gp: *const Internal<K, V>,
    p: *const Internal<K, V>,
    leaf: *const Leaf<K, V>,
    pupdate: usize,
    gpupdate: usize,
    /// The update word the `Help` step helps.
    blocker: usize,
    /// This attempt's flagged Info word; 0 before its flag and after a
    /// backtrack.
    info: usize,
}

impl<K, V> Update<K, V> {
    /// An update whose first step is its Search.
    pub(crate) fn new() -> Update<K, V> {
        Update {
            next: Step::Search,
            splice: false,
            gp: std::ptr::null(),
            p: std::ptr::null(),
            leaf: std::ptr::null(),
            pupdate: 0,
            gpupdate: 0,
            blocker: 0,
            info: 0,
        }
    }

    /// The step [`Update::step`] takes next.
    pub(crate) fn next(&self) -> Step {
        self.next
    }

    /// Whether this attempt runs the deletion circuit (a Delete that
    /// empties its leaf) rather than a leaf replacement.
    pub(crate) fn splices(&self) -> bool {
        self.splice
    }

    /// Whether this attempt's flag CAS succeeded (and no backtrack has
    /// undone it).
    pub(crate) fn is_flagged(&self) -> bool {
        self.info != 0
    }

    /// What the last Search found.
    ///
    /// # Safety
    ///
    /// A Search has run, and `guard` is the guard of the current attempt
    /// (see [`Update::step`]).
    pub(crate) unsafe fn found<'g>(&self, _guard: &'g Guard) -> SearchResult<'g, K, V> {
        // SAFETY: per the contract, this attempt's Search read these words
        // under `guard`, so every node and record they name is live.
        unsafe {
            SearchResult {
                gp: self.gp.as_ref(),
                p: &*self.p,
                leaf: &*self.leaf,
                pupdate: Shared::from_data(self.pupdate),
                gpupdate: Shared::from_data(self.gpupdate),
            }
        }
    }

    /// The update word the pending `Help` step helps.
    ///
    /// # Safety
    ///
    /// As for [`Update::found`].
    pub(crate) unsafe fn blocker<'g>(&self, _guard: &'g Guard) -> UpdateRef<'g, K, V> {
        // SAFETY: per the contract, read under `guard` by a step of this
        // attempt.
        unsafe { Shared::from_data(self.blocker) }
    }
}

impl<K: Ord + Clone, V: Clone> Update<K, V> {
    /// Takes the next step of `edit` on `tree`. Returns whether the step's
    /// CAS succeeded (`true` for a Search or a Help step).
    ///
    /// # Safety
    ///
    /// `guard` is the guard of the current attempt: pinned before the
    /// attempt's Search step and passed to every step since.
    pub(crate) unsafe fn step(
        &mut self,
        tree: &NbBst<K, V>,
        edit: Edit<'_, K, V>,
        guard: &Guard,
    ) -> bool {
        // SAFETY: this attempt's flag installed the word under `guard`
        // (or it is null), per the contract.
        let op: UpdateRef<'_, K, V> = unsafe { Shared::from_data(self.info) };
        let mut won = true;
        self.next = match self.next {
            Step::Search => {
                let s = tree.search(edit.key(), guard);
                self.gp = s.gp.map_or(std::ptr::null(), |gp| gp as *const _);
                self.p = s.p;
                self.leaf = s.leaf;
                self.pupdate = s.pupdate.into_data();
                self.gpupdate = s.gpupdate.into_data();
                let inserting = matches!(edit, Edit::Insert(..));
                if s.leaf.get(edit.key()).is_some() == inserting {
                    // Line 50: a duplicate key; line 76: an absent one.
                    tree.count_done(edit, false, false);
                    Step::Done(false)
                } else {
                    // Only a Delete that empties its leaf flags the
                    // grandparent (lines 77–78); the others flag only the
                    // parent (line 51).
                    self.splice = !inserting && s.leaf.len() == 1;
                    let blocker = if self.splice && s.gpupdate.state() != State::Clean {
                        s.gpupdate
                    } else {
                        s.pupdate
                    };
                    self.blocker = blocker.into_data();
                    if blocker.state() == State::Clean {
                        Step::Flag
                    } else {
                        Step::Help
                    }
                }
            }
            Step::Help => {
                // SAFETY: per the contract.
                tree.help(unsafe { self.blocker(guard) }, guard);
                if self.is_flagged() {
                    Step::Backtrack
                } else {
                    tree.count_retry(edit);
                    Step::Search
                }
            }
            Step::Flag => {
                // SAFETY: per the contract; the Search has run.
                let s = unsafe { self.found(guard) };
                let flagged = if self.splice {
                    tree.dflag(&s, guard)
                } else {
                    tree.iflag(&s, s.leaf.replacement(edit, tree.leaf_capacity), guard)
                };
                match flagged {
                    Ok(info) => {
                        self.info = info.into_data();
                        if self.splice {
                            Step::Mark
                        } else {
                            // A flagged leaf replacement always completes
                            // (Section 3), so it counts as done now.
                            tree.count_done(edit, true, matches!(edit, Edit::Remove(_)));
                            Step::Child
                        }
                    }
                    Err(current) => {
                        won = false;
                        self.blocker = current.into_data();
                        Step::Help
                    }
                }
            }
            Step::Mark => match tree.mark(op, guard) {
                Ok(()) => {
                    // Once marked, the deletion always completes.
                    tree.count_done(edit, true, false);
                    Step::Child
                }
                Err(current) => {
                    won = false;
                    self.blocker = current.into_data();
                    Step::Help
                }
            },
            Step::Child => {
                won = if self.splice {
                    tree.dchild(op, guard)
                } else {
                    tree.ichild(op, guard)
                };
                Step::Unflag
            }
            Step::Unflag => {
                won = if self.splice {
                    tree.dunflag(op, guard)
                } else {
                    tree.iunflag(op, guard)
                };
                Step::Done(true)
            }
            Step::Backtrack => {
                won = tree.backtrack(op, guard);
                self.info = 0;
                tree.count_retry(edit);
                Step::Search
            }
            done @ Step::Done(_) => done,
        };
        won
    }
}

#[cfg(test)]
impl NbBst<u64, u64> {
    /// A tree whose root's left child is `left` (owned, unpublished) and
    /// whose leaves hold up to `leaf_capacity` entries: test trees built
    /// directly instead of through the protocol.
    pub(crate) fn from_root_left(
        left: NodePtr<'_, u64, u64>,
        leaf_capacity: usize,
    ) -> NbBst<u64, u64> {
        let inf2 = Leaf::sentinel(&SentinelKey::Inf2).into_ptr();
        NbBst {
            root: Box::new(Internal::new(SentinelKey::Inf2, left, inf2)),
            collector: Collector::new(),
            stats: None,
            leaf_capacity,
        }
    }

    /// Builds, in O(n) time, exactly the one-key-leaf tree that
    /// `insert_entry(0, 0) .. insert_entry(n-1, n-1)` produces on
    /// `NbBst::new().one_key_leaves()`: a right-leaning path of depth
    /// `n + 1` under the sentinel spine (the tree is never rebalanced, so
    /// ascending inserts degenerate).
    ///
    /// Test-only: the public-API build walks the whole existing path per
    /// insert and is therefore Θ(n²) — minutes of wall clock at the
    /// 100 000-key scale the stack-overflow regression tests need.
    /// `degenerate_constructor_matches_real_inserts` locks this
    /// constructor against the real insert path shape-for-shape.
    pub(crate) fn degenerate_ascending(n: u64) -> NbBst<u64, u64> {
        assert!(n >= 1, "a degenerate path needs at least one key");
        let leaf = |k: u64| Leaf::with_entries([(k, k)]).into_ptr();
        let internal = |key, left, right| Internal::new(key, left, right).into_ptr();
        // Innermost: the deepest leaf holds the largest key. Each wrap
        // `internal(k) { left: leaf(k-1), right: <deeper chain> }`
        // mirrors one ascending insert (routing key = the larger key).
        let mut cur = leaf(n - 1);
        for k in (1..n).rev() {
            cur = internal(SentinelKey::Key(k), leaf(k - 1), cur);
        }
        let inf1 = Leaf::sentinel(&SentinelKey::Inf1).into_ptr();
        NbBst::from_root_left(internal(SentinelKey::Inf1, cur, inf1), 1)
    }
}

impl<K, V> Default for NbBst<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    fn default() -> Self {
        NbBst::new()
    }
}

impl<K, V> ConcurrentMap<K, V> for NbBst<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn insert(&self, key: K, value: V) -> bool {
        self.insert_entry(key, value).is_ok()
    }

    fn remove(&self, key: &K) -> bool {
        self.remove_key(key)
    }

    fn contains(&self, key: &K) -> bool {
        self.contains_key(key)
    }

    fn get(&self, key: &K) -> Option<V> {
        self.get_cloned(key)
    }

    fn quiescent_len(&self) -> usize {
        self.len_slow()
    }
}

impl<K, V> fmt::Debug for NbBst<K, V>
where
    K: Ord + Clone + fmt::Debug,
    V: Clone,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NbBst")
            .field("len", &self.len_slow())
            .field("leaf_capacity", &self.leaf_capacity)
            .finish_non_exhaustive()
    }
}

impl<K, V> Drop for NbBst<K, V> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent operations. Free (1) every Info record
        // still in a reachable update word (a record is retired only when
        // a later flag displaces it, so the last record of every node, and
        // any record of a "crashed" stepped operation, is still there),
        // (2) for stalled leaf replacements, the replacement that was never
        // installed, and (3) every node still reachable from the root.
        //
        // Displaced Info records were retired by their displacer and are
        // freed by the collector, not here.
        use std::collections::HashSet;

        // SAFETY: teardown-only, single-threaded.
        let guard = unsafe { nbbst_reclaim::unprotected() };
        let mut reachable: HashSet<usize> = HashSet::new();
        let mut infos: HashSet<*mut Info<K, V>> = HashSet::new();
        let mut stalled_inserts = Vec::new();
        let mut stack: Vec<&Internal<K, V>> = vec![&self.root];
        while let Some(node) = stack.pop() {
            // Relaxed: teardown holds exclusive access.
            let u = node.update.load(AtomicOrdering::Relaxed, &guard);
            if !u.is_null()
                && infos.insert(u.as_raw() as *mut Info<K, V>)
                && u.state() == State::IFlag
            {
                stalled_inserts.push(u);
            }
            for child in [&node.left, &node.right] {
                let word = child.load(AtomicOrdering::Relaxed, &guard);
                reachable.insert(word.as_raw() as usize);
                // SAFETY: reachable children are live until freed below.
                if let NodeRef::Internal(n) = unsafe { word.node() } {
                    stack.push(n);
                }
            }
        }
        for u in stalled_inserts {
            // SAFETY: collected above and not freed yet.
            let new = unsafe { u.deref() }.as_insert().new_word();
            if !reachable.contains(&(new.as_raw() as usize)) {
                // SAFETY: a replacement that was never spliced in is
                // owned only by its (stalled) IInfo record.
                unsafe { new.free_subtree() };
            }
        }
        for info in infos {
            // SAFETY: records still in an update word were never retired
            // (retirement happens only on displacement), so we own them.
            unsafe { drop(Box::from_raw(info)) };
        }
        // SAFETY: every reachable node is freed exactly once; the root Box
        // frees itself.
        unsafe {
            self.root
                .left
                .load(AtomicOrdering::Relaxed, &guard)
                .free_subtree();
            self.root
                .right
                .load(AtomicOrdering::Relaxed, &guard)
                .free_subtree();
        }
        // The collector (dropped after this) frees everything that was
        // retired during normal operation.
    }
}
