//! The non-blocking BST: `Search`, `Find`, `Insert`, `Delete` and the
//! helping routines, line-for-line against the paper's Figures 8 and 9,
//! with multi-entry leaves (DESIGN.md §13).
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
use nbbst_reclaim::{Collector, Guard, Owned};
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

    /// Counter access for the stepped drivers in [`crate::raw`], which
    /// perform the same CAS steps outside the normal code paths.
    #[inline]
    pub(crate) fn bump_stat(&self, f: impl FnOnce(&TreeStats) -> &crate::stats::Counter) {
        self.bump(f);
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
                    return SearchResult {
                        gp,
                        p,
                        leaf,
                        pupdate,
                        gpupdate,
                    }
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
    // Insert (Figure 8, lines 41–68)
    // ------------------------------------------------------------------

    /// Adds `key` with `value`; on duplicate, returns ownership of both.
    ///
    /// # Errors
    ///
    /// `Err((key, value))` if the key was already present (the paper's
    /// `Insert` returns `False`; we additionally hand the inputs back).
    pub fn insert_entry(&self, key: K, value: V) -> Result<(), (K, V)> {
        loop {
            let guard = self.pin();
            let s = self.search(&key, &guard); //                       line 49
            if s.leaf.get(&key).is_some() {
                // Line 50: cannot insert a duplicate key.
                self.bump(|st| &st.inserts);
                return Err((key, value));
            }
            if s.pupdate.state() != State::Clean {
                // Line 51: help the operation blocking the parent, retry.
                self.help(s.pupdate, &guard);
                self.bump(|st| &st.insert_retries);
                continue;
            }
            // Lines 52–54: build the replacement of Figure 1.
            let new = s
                .leaf
                .replacement(Edit::Insert(&key, &value), self.leaf_capacity);
            if self.replace_leaf(&s, new, &guard) {
                self.bump(|st| &st.inserts);
                self.bump(|st| &st.inserts_true);
                return Ok(());
            }
            self.bump(|st| &st.insert_retries);
        }
    }

    /// Lines 55–61 of `Insert`, shared by every update that replaces a
    /// leaf: publish a fresh IInfo record with the iflag CAS and finish it
    /// with `HelpInsert`. If the iflag fails, frees the unpublished
    /// replacement, helps whoever holds the flag and returns `false`, so
    /// the caller retries from `Search`.
    fn replace_leaf(
        &self,
        s: &SearchResult<'_, K, V>,
        new: NodePtr<'_, K, V>,
        guard: &Guard,
    ) -> bool {
        // Line 55: fresh IInfo record.
        let op = Owned::new(Info::Insert(IInfo {
            p: s.p,
            l: s.leaf,
            new: new.into_data(),
        }))
        .with_tag(State::IFlag.tag());

        // Line 56: the iflag CAS.
        self.bump(|st| &st.iflag_attempts);
        // AcqRel: Release publishes the fresh IInfo record (and the
        // replacement it points to) to helpers; failure is Acquire because
        // the observed word is helped (dereferenced) below, and a failed
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
                // Lines 57–59: flag won; finish.
                self.bump(|st| &st.iflag_success);
                // SAFETY: our iflag displaced `pupdate` from `p`.
                unsafe { self.retire_displaced(s.pupdate, guard) };
                self.help_insert(op_word, guard);
                true
            }
            Err(e) => {
                // Line 61: help whoever holds the flag.
                // SAFETY: the replacement was never published.
                unsafe { new.free_subtree() };
                drop(e.new); // the unpublished IInfo record
                self.help(e.current, guard);
                false
            }
        }
    }

    // ------------------------------------------------------------------
    // Delete (Figure 9, lines 69–89)
    // ------------------------------------------------------------------

    /// Removes `key`; returns `true` iff it was present.
    pub fn remove_key(&self, key: &K) -> bool {
        self.remove_and(key, |_| ()).is_some()
    }

    /// Removes `key`, returning a clone of its value if it was present.
    pub fn remove_entry(&self, key: &K) -> Option<V> {
        self.remove_and(key, V::clone)
    }

    /// Shared deletion driver; `extract` runs on the deleted entry's value
    /// while it is still guard-protected.
    fn remove_and<R>(&self, key: &K, extract: impl FnOnce(&V) -> R) -> Option<R> {
        loop {
            let guard = self.pin();
            let s = self.search(key, &guard); //                        line 75
            let Some(value) = s.leaf.get(key) else {
                // Line 76: key not in the tree.
                self.bump(|st| &st.deletes);
                return None;
            };
            if s.leaf.len() > 1 {
                // The leaf keeps other entries: replace it by a copy
                // without `key` through the insertion circuit, which only
                // needs the parent Clean.
                if s.pupdate.state() != State::Clean {
                    self.help(s.pupdate, &guard);
                    self.bump(|st| &st.delete_retries);
                    continue;
                }
                let new = s.leaf.replacement(Edit::Remove(key), self.leaf_capacity);
                if self.replace_leaf(&s, new, &guard) {
                    self.bump(|st| &st.deletes);
                    self.bump(|st| &st.deletes_true);
                    self.bump(|st| &st.deletes_by_copy);
                    return Some(extract(value));
                }
                self.bump(|st| &st.delete_retries);
                continue;
            }
            if s.gpupdate.state() != State::Clean {
                // Line 77: grandparent busy; help, retry.
                self.help(s.gpupdate, &guard);
                self.bump(|st| &st.delete_retries);
                continue;
            }
            if s.pupdate.state() != State::Clean {
                // Line 78: parent busy; help, retry.
                self.help(s.pupdate, &guard);
                self.bump(|st| &st.delete_retries);
                continue;
            }

            // Line 80: fresh DInfo record. A leaf holding a real key sits
            // below the root's children, so it has a grandparent.
            let gp = s.gp.expect("a real key's leaf has a grandparent");
            let op = Owned::new(Info::Delete(DInfo {
                gp,
                p: s.p,
                l: s.leaf,
                pupdate: s.pupdate.into_data(),
            }))
            .with_tag(State::DFlag.tag());

            // Line 81: the dflag CAS.
            self.bump(|st| &st.dflag_attempts);
            // AcqRel: Release publishes the fresh DInfo record; failure is
            // Acquire because the observed word is helped (dereferenced)
            // below, and success must be at least as strong on the read
            // side as failure (enforced by nbbst-lint).
            match gp.update.compare_exchange(
                s.gpupdate,
                op,
                AtomicOrdering::AcqRel,
                AtomicOrdering::Acquire,
                &guard,
            ) {
                Ok(op_word) => {
                    self.bump(|st| &st.dflag_success);
                    // SAFETY: our dflag displaced `gpupdate` from `gp`.
                    unsafe { self.retire_displaced(s.gpupdate, &guard) };
                    if self.help_delete(op_word, &guard) {
                        // Line 83: deletion completed. The guard keeps the
                        // retired leaf, and so `value`, readable.
                        self.bump(|st| &st.deletes);
                        self.bump(|st| &st.deletes_true);
                        return Some(extract(value));
                    }
                    self.bump(|st| &st.delete_retries);
                }
                Err(e) => {
                    // Line 85: dflag failed; help the blocker and retry.
                    drop(e.new); // unpublished DInfo
                    self.help(e.current, &guard);
                    self.bump(|st| &st.delete_retries);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Helping (Figure 8 lines 63–68, Figure 9 lines 90–118)
    // ------------------------------------------------------------------

    /// `Help(u)` (lines 107–112): dispatch on the state packed in `u`.
    pub(crate) fn help(&self, u: UpdateRef<'_, K, V>, guard: &Guard) {
        self.bump(|st| &st.helps);
        match u.state() {
            State::IFlag => self.help_insert(u, guard),
            State::Mark => self.help_marked(u, guard),
            State::DFlag => {
                let _ = self.help_delete(u, guard);
            }
            State::Clean => {}
        }
    }

    /// `HelpInsert(op)` (lines 63–68): perform the ichild and iunflag CAS
    /// steps described by an IInfo record.
    pub(crate) fn help_insert(&self, op: UpdateRef<'_, K, V>, guard: &Guard) {
        self.bump(|st| &st.help_insert_calls);
        let op = op.with_tag(0);
        // SAFETY: `op` was read from (or just installed into) a flagged
        // update word under `guard`; Info records are retired only once a
        // later flag displaces them from a Clean word, so it is live here.
        let info = unsafe { op.deref() }.as_insert();
        // SAFETY: `p` cannot be unlinked while flagged, and the replacement
        // is unlinked only after the iunflag, both after our read of the
        // flagged word; `l` is only compared, never dereferenced.
        let p = unsafe { &*info.p };
        let l = info.leaf_word();

        // Line 66: the ichild CAS (via CAS-Child). At most one helper's CAS
        // succeeds; that helper retires the replaced leaf.
        if self.cas_child(p, l, info.new_word(), guard) {
            self.bump(|st| &st.ichild_success);
            self.bump(|st| &st.nodes_retired);
            // SAFETY: `l` has just been unlinked by our CAS and is retired
            // exactly once (only the successful CASer reaches this).
            unsafe { l.retire(guard) };
        }

        // Line 67: the iunflag CAS. The record stays in the Clean word as
        // a comparand until the next flag of `p` displaces and retires it.
        let expected = op.with_tag(State::IFlag.tag());
        let clean = op.with_tag(State::Clean.tag());
        // Release: a thread that Acquire-loads the Clean word must also see
        // the ichild splice that preceded it. The failure value is ignored.
        if p.update
            .compare_exchange(
                expected,
                clean,
                AtomicOrdering::Release,
                AtomicOrdering::Relaxed,
                guard,
            )
            .is_ok()
        {
            self.bump(|st| &st.iunflag_success);
        }
    }

    /// `HelpDelete(op)` (lines 90–99): try to mark the parent; on success
    /// complete via [`NbBst::help_marked`], otherwise help the blocker and
    /// backtrack. Returns whether the deletion completed.
    pub(crate) fn help_delete(&self, op: UpdateRef<'_, K, V>, guard: &Guard) -> bool {
        self.bump(|st| &st.help_delete_calls);
        let op = op.with_tag(0);
        // SAFETY: as in `help_insert` — read from a flagged or marked word
        // under `guard`, and retired only once displaced later.
        let info = unsafe { op.deref() }.as_delete();
        // SAFETY: as above — named by a live Info record.
        let (p, gp) = unsafe { (&*info.p, &*info.gp) };

        // Line 91: the mark CAS, expecting the pupdate word the deleter's
        // Search observed.
        let expected = info.pupdate_word(guard);
        let mark_word = op.with_tag(State::Mark.tag());
        self.bump(|st| &st.mark_attempts);
        // AcqRel: Release publishes the Mark (pointing at the already-
        // published DInfo); failure is Acquire because the observed word is
        // helped (dereferenced) in the backtrack arm below, and success
        // must be at least as strong on the read side as failure
        // (enforced by nbbst-lint).
        let outcome = p.update.compare_exchange(
            expected,
            mark_word,
            AtomicOrdering::AcqRel,
            AtomicOrdering::Acquire,
            guard,
        );

        let current = match outcome {
            Ok(_) => {
                self.bump(|st| &st.mark_success);
                // SAFETY: our mark displaced `expected` from `p`.
                unsafe { self.retire_displaced(expected, guard) };
                None
            }
            // A helper of this same operation already marked `p`.
            Err(e) if e.current == mark_word => None,
            Err(e) => Some(e.current),
        };
        let Some(current) = current else {
            // Line 92: `op→p` is successfully marked; complete the deletion.
            self.help_marked(op, guard); //                line 93
            return true; //                                line 94
        };
        // Line 97: help the operation that caused the failure.
        self.help(current, guard);
        // Line 98: the backtrack CAS removes our flag so the Delete can
        // retry from scratch.
        let dflag = op.with_tag(State::DFlag.tag());
        let clean = op.with_tag(State::Clean.tag());
        // Release pairs with the Acquire loads of helpers that observe
        // Clean; the failure value is ignored.
        if gp
            .update
            .compare_exchange(
                dflag,
                clean,
                AtomicOrdering::Release,
                AtomicOrdering::Relaxed,
                guard,
            )
            .is_ok()
        {
            self.bump(|st| &st.backtrack_success);
        }
        false //                                           line 99
    }

    /// `HelpMarked(op)` (lines 100–106): splice the marked parent out of
    /// the tree (dchild CAS) and unflag the grandparent (dunflag CAS).
    pub(crate) fn help_marked(&self, op: UpdateRef<'_, K, V>, guard: &Guard) {
        self.bump(|st| &st.help_marked_calls);
        let op = op.with_tag(0);
        // SAFETY: `op` is a live, guard-protected DInfo record (retired
        // only once displaced from its grandparent's Clean word, after we
        // read it marked or flagged), and the nodes it names outlive it.
        let info = unsafe { op.deref() }.as_delete();
        // SAFETY: as above — named by a live Info record.
        let (p, gp) = unsafe { (&*info.p, &*info.gp) };
        let l = info.leaf_word();

        // Lines 103–104: `other` := the sibling of the leaf being deleted.
        // `p` is marked, so its child pointers are frozen; both loads see
        // final values.
        let right = p.load_child(false, guard);
        let other = if right == l {
            p.load_child(true, guard)
        } else {
            right
        };

        // Line 105: the dchild CAS. The unique winner retires the two
        // removed nodes (the marked parent and the deleted leaf).
        let p_word = internal_ptr(info.p);
        if self.cas_child(gp, p_word, other, guard) {
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

        // Line 106: the dunflag CAS.
        let dflag = op.with_tag(State::DFlag.tag());
        let clean = op.with_tag(State::Clean.tag());
        // Release: a thread that Acquire-loads the Clean word must also see
        // the dchild splice that preceded it. The failure value is ignored.
        if gp
            .update
            .compare_exchange(
                dflag,
                clean,
                AtomicOrdering::Release,
                AtomicOrdering::Relaxed,
                guard,
            )
            .is_ok()
        {
            self.bump(|st| &st.dunflag_success);
        }
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
    pub(crate) unsafe fn retire_displaced(&self, word: UpdateRef<'_, K, V>, guard: &Guard) {
        if !word.is_null() {
            self.bump(|st| &st.infos_retired);
            // SAFETY: per the contract: displaced once, by the caller.
            unsafe { guard.defer_destroy(word.with_tag(0)) };
        }
    }

    /// `CAS-Child(parent, old, new)` (lines 113–118): pick the left or
    /// right child slot by comparing keys, then CAS it.
    pub(crate) fn cas_child(
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
