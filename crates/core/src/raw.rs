//! Stepped operation drivers: run `Insert`/`Delete`/`Find` **one CAS step
//! at a time**, under test control.
//!
//! The paper's proof reasons about interleavings of individual CAS steps
//! (`iflag`, `ichild`, `iunflag`, `dflag`, `mark`, `dchild`, `dunflag`,
//! `backtrack`). These drivers expose exactly those steps so tests and
//! experiment binaries can construct the paper's scenarios
//! deterministically:
//!
//! * **Figure 3** — the races that single-CAS updates would suffer, and the
//!   EFRB protocol's immunity to the same schedules;
//! * **Figure 5** — a snapshot with a doomed `Delete` and a winning
//!   `Insert` in flight simultaneously;
//! * **crash tolerance (T6)** — flag a node, then *abandon* the operation
//!   (the thread "crashes"); other threads help it to completion;
//! * **Section 6's adversarial schedule (T7)** — a `Find` forever chased
//!   down a growing-and-shrinking path.
//!
//! The paper's scenarios need the paper's tree (one key per leaf; see
//! `NbBst::one_key_leaves`). On a tree with multi-entry leaves a Delete
//! whose leaf keeps other entries replaces the leaf through the insertion
//! circuit, and [`RawDelete`] steps that circuit instead (its `mark` step
//! is then empty).
//!
//! Each driver holds its own epoch [`Guard`] for its whole lifetime, so
//! every pointer it caches stays valid however long the test pauses it —
//! this mimics a stalled thread, which in EBR likewise blocks reclamation.
//!
//! The step methods update the same [stats](crate::TreeStats) counters as
//! the normal paths, so Figure-4 identities keep holding in stepped tests.
//!
//! # Examples
//!
//! Crash a flagged insert and let a helper finish it:
//!
//! ```
//! use nbbst_core::{raw::RawInsert, NbBst};
//!
//! let tree: NbBst<u64, u64> = NbBst::new();
//! tree.insert_entry(10, 0).unwrap();
//!
//! let mut ins = RawInsert::new(&tree, 20, 0);
//! assert!(ins.search().is_ready());
//! assert!(ins.flag());      // iflag done ...
//! ins.abandon();            // ... and the "thread" crashes here.
//!
//! // Another operation on the same neighborhood helps the stalled insert.
//! assert!(tree.insert_entry(20, 1).is_err()); // duplicate: 20 IS present
//! assert!(tree.contains_key(&20));
//! tree.check_invariants().unwrap();
//! ```

use crate::node::{
    internal_ptr, DInfo, Edit, IInfo, Info, Internal, Leaf, NodePtr, NodePtrExt, NodeRef,
    UpdateRef, UpdateWordExt,
};
use crate::state::State;
use crate::tree::NbBst;
use nbbst_reclaim::{Guard, Owned, Shared};
use std::fmt;
use std::sync::atomic::Ordering;

/// Result of a stepped insert's `Search` phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertSearch {
    /// The key is already present; the insert would return `false`.
    Duplicate,
    /// The parent's update word is not `Clean`; a real insert would help
    /// (the blocking state is given) and retry.
    Busy(State),
    /// Ready to attempt the iflag CAS.
    Ready,
}

impl InsertSearch {
    /// `true` for [`InsertSearch::Ready`].
    pub fn is_ready(&self) -> bool {
        matches!(self, InsertSearch::Ready)
    }
}

/// Result of a stepped delete's `Search` phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteSearch {
    /// The key is not present; the delete would return `false`.
    NotFound,
    /// Grandparent or parent busy (the blocking state is given).
    Busy(State),
    /// Ready to attempt the flag CAS.
    Ready,
}

impl DeleteSearch {
    /// `true` for [`DeleteSearch::Ready`].
    pub fn is_ready(&self) -> bool {
        matches!(self, DeleteSearch::Ready)
    }
}

/// Result of a stepped delete's mark CAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkOutcome {
    /// The mark CAS succeeded (or a helper of this same operation already
    /// marked the parent, or the delete replaces its leaf and has no mark
    /// step): the deletion can no longer fail.
    Marked,
    /// The mark CAS failed; the paper's `HelpDelete` would help the blocker
    /// and perform a backtrack CAS.
    Failed,
}

/// The stepped leaf-replacement circuit (`iflag → ichild → iunflag`) of
/// one attempt, shared by [`RawInsert`] and the copy-deletes of
/// [`RawDelete`]: the parent and leaf its search found, and, once flagged,
/// its IInfo record.
struct Circuit<K, V> {
    p: *const Internal<K, V>,
    leaf: *const Leaf<K, V>,
    pupdate_bits: usize,
    /// Published Info record (null until the flag CAS succeeds).
    op: *const Info<K, V>,
}

impl<K, V> Circuit<K, V> {
    fn new() -> Circuit<K, V> {
        Circuit {
            p: std::ptr::null(),
            leaf: std::ptr::null(),
            pupdate_bits: 0,
            op: std::ptr::null(),
        }
    }

    /// The parent's update word as the search read it.
    fn pupdate<'g>(&self) -> UpdateRef<'g, K, V> {
        // SAFETY: read by the owning driver's search under its still-held
        // guard, so any Info record it tags is protected.
        unsafe { Shared::from_data(self.pupdate_bits) }
    }

    /// The published Info record's word.
    fn op_word<'g>(&self) -> UpdateRef<'g, K, V> {
        // SAFETY: published by this driver's flag CAS; the record and the
        // nodes it names are protected by the driver's guard.
        unsafe { Shared::from_data(self.op as usize) }
    }
}

impl<K: Ord + Clone, V: Clone> Circuit<K, V> {
    /// Records what `search` found for this attempt.
    fn searched(&mut self, p: &Internal<K, V>, leaf: &Leaf<K, V>, pupdate: UpdateRef<'_, K, V>) {
        self.p = p;
        self.leaf = leaf;
        self.pupdate_bits = pupdate.into_data();
    }

    /// The **iflag** CAS (line 56), publishing an IInfo whose replacement
    /// comes from the same builder as the real operations.
    fn flag(&mut self, tree: &NbBst<K, V>, guard: &Guard, edit: Edit<'_, K, V>) -> bool {
        // SAFETY: the leaf and parent are guard-protected since our search
        // read them.
        let (leaf, p_ref) = unsafe { (&*self.leaf, &*self.p) };
        let new = leaf.replacement(edit, tree.leaf_capacity());
        let op = Owned::new(Info::Insert(IInfo {
            p: self.p,
            l: self.leaf,
            new: new.into_data(),
        }))
        .with_tag(State::IFlag.tag());
        tree.bump_stat(|s| &s.iflag_attempts);
        // Release publishes the fresh IInfo record; the stepped driver does
        // not help on failure, so the failed value needs no Acquire.
        match p_ref.update.compare_exchange(
            self.pupdate(),
            op,
            Ordering::Release,
            Ordering::Relaxed,
            guard,
        ) {
            Ok(word) => {
                tree.bump_stat(|s| &s.iflag_success);
                // SAFETY: our iflag displaced `pupdate` from `p`.
                unsafe { tree.retire_displaced(self.pupdate(), guard) };
                self.op = word.as_raw();
                true
            }
            Err(e) => {
                // SAFETY: the replacement was never published.
                unsafe { new.free_subtree() };
                drop(e.new);
                false
            }
        }
    }

    /// The **ichild** CAS (line 66 / 115 / 117).
    fn execute_child(&self, tree: &NbBst<K, V>, guard: &Guard) -> bool {
        // SAFETY: see `op_word`.
        let info = unsafe { self.op_word().deref() }.as_insert();
        // SAFETY: as in `NbBst::help_insert`: `p` cannot be unlinked while
        // flagged by our record, which our guard has seen flagged.
        let p = unsafe { &*info.p };
        let l = info.leaf_word();
        let won = tree.cas_child(p, l, info.new_word(), guard);
        if won {
            tree.bump_stat(|s| &s.ichild_success);
            tree.bump_stat(|s| &s.nodes_retired);
            // SAFETY: we unlinked `l`; unique retirement.
            unsafe { l.retire(guard) };
        }
        won
    }

    /// The **iunflag** CAS (line 67).
    fn unflag(&self, tree: &NbBst<K, V>, guard: &Guard) -> bool {
        let op_word = self.op_word();
        // SAFETY: see `op_word`.
        let p = unsafe { &*op_word.deref().as_insert().p };
        let expected = op_word.with_tag(State::IFlag.tag());
        let clean = op_word.with_tag(State::Clean.tag());
        // Release: observers of Clean must also see the ichild splice.
        let won = p
            .update
            .compare_exchange(expected, clean, Ordering::Release, Ordering::Relaxed, guard)
            .is_ok();
        if won {
            tree.bump_stat(|s| &s.iunflag_success);
        }
        won
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InsertPhase {
    Created,
    Searched,
    Flagged,
    ChildDone,
    Done,
}

/// A stepped `Insert` (Figure 8), driven one CAS at a time.
///
/// Step order: [`RawInsert::search`] → [`RawInsert::flag`] →
/// [`RawInsert::execute_child`] → [`RawInsert::unflag`], or
/// [`RawInsert::abandon`] at any point to simulate a crash.
pub struct RawInsert<'t, K, V> {
    tree: &'t NbBst<K, V>,
    key: K,
    value: V,
    guard: Guard,
    phase: InsertPhase,
    circuit: Circuit<K, V>,
}

impl<'t, K, V> RawInsert<'t, K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Prepares an insert of `(key, value)`.
    pub fn new(tree: &'t NbBst<K, V>, key: K, value: V) -> RawInsert<'t, K, V> {
        let guard = tree.pin();
        RawInsert {
            tree,
            key,
            value,
            guard,
            phase: InsertPhase::Created,
            circuit: Circuit::new(),
        }
    }

    /// Runs the `Search` (lines 49–51): locates the leaf to replace and
    /// records the parent and its update word.
    ///
    /// May be re-run (a fresh attempt) any time before [`RawInsert::flag`]
    /// succeeds.
    pub fn search(&mut self) -> InsertSearch {
        assert!(
            matches!(self.phase, InsertPhase::Created | InsertPhase::Searched),
            "search() after flag(); the paper restarts attempts from Search"
        );
        let s = self.tree.search(&self.key, &self.guard);
        if s.leaf.get(&self.key).is_some() {
            return InsertSearch::Duplicate;
        }
        self.circuit.searched(s.p, s.leaf, s.pupdate);
        self.phase = InsertPhase::Searched;
        if s.pupdate.state() != State::Clean {
            InsertSearch::Busy(s.pupdate.state())
        } else {
            InsertSearch::Ready
        }
    }

    /// Helps the operation blocking the parent (the paper's line 51) and
    /// restarts this attempt — call after [`RawInsert::search`] returned
    /// [`InsertSearch::Busy`].
    ///
    /// # Panics
    ///
    /// Panics unless the last step was a `search`.
    pub fn help_blocker(&mut self) {
        assert_eq!(
            self.phase,
            InsertPhase::Searched,
            "help_blocker() requires search()"
        );
        let word = self.circuit.pupdate();
        if word.state() != State::Clean {
            self.tree.help(word, &self.guard);
        }
        self.phase = InsertPhase::Created; // restart from Search
    }

    /// Attempts the **iflag** CAS (line 56). On success the insertion is
    /// guaranteed to complete (possibly via helpers).
    ///
    /// On failure, re-run [`RawInsert::search`] before flagging again.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`RawInsert::search`].
    pub fn flag(&mut self) -> bool {
        assert_eq!(
            self.phase,
            InsertPhase::Searched,
            "flag() requires search()"
        );
        let edit = Edit::Insert(&self.key, &self.value);
        if !self.circuit.flag(self.tree, &self.guard, edit) {
            self.phase = InsertPhase::Created;
            return false;
        }
        // Once flagged, the insertion is guaranteed to complete
        // (Section 3), so it counts as a successful Insert now.
        self.tree.bump_stat(|s| &s.inserts);
        self.tree.bump_stat(|s| &s.inserts_true);
        self.phase = InsertPhase::Flagged;
        true
    }

    /// Attempts the **ichild** CAS (line 66 / 115 / 117). Returns whether
    /// *this* call performed it (a helper may have beaten us; the insert
    /// still completes either way).
    ///
    /// # Panics
    ///
    /// Panics unless [`RawInsert::flag`] succeeded.
    pub fn execute_child(&mut self) -> bool {
        assert_eq!(
            self.phase,
            InsertPhase::Flagged,
            "execute_child() requires flag()"
        );
        self.phase = InsertPhase::ChildDone;
        self.circuit.execute_child(self.tree, &self.guard)
    }

    /// Attempts the **iunflag** CAS (line 67). Returns whether this call
    /// performed it.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawInsert::execute_child`] ran.
    pub fn unflag(&mut self) -> bool {
        assert_eq!(
            self.phase,
            InsertPhase::ChildDone,
            "unflag() requires execute_child()"
        );
        self.phase = InsertPhase::Done;
        self.circuit.unflag(self.tree, &self.guard)
    }

    /// Finishes the insert the way the real code would (`HelpInsert`).
    ///
    /// # Panics
    ///
    /// Panics unless [`RawInsert::flag`] succeeded.
    pub fn complete(mut self) {
        assert!(
            matches!(self.phase, InsertPhase::Flagged | InsertPhase::ChildDone),
            "complete() requires a successful flag()"
        );
        self.tree.help_insert(self.circuit.op_word(), &self.guard);
        self.phase = InsertPhase::Done;
    }

    /// Simulates a crash: stop taking steps forever. If the operation was
    /// already flagged, the published Info record lets any other thread
    /// finish it.
    pub fn abandon(self) {}
}

impl<K: fmt::Debug, V> fmt::Debug for RawInsert<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawInsert")
            .field("key", &self.key)
            .field("phase", &self.phase)
            .finish()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeletePhase {
    Created,
    Searched,
    Flagged,
    Marked,
    ChildDone,
    Done,
}

/// A stepped `Delete` (Figure 9), driven one CAS at a time.
///
/// Step order: [`RawDelete::search`] → [`RawDelete::flag`] →
/// [`RawDelete::mark`] → [`RawDelete::execute_child`] →
/// [`RawDelete::unflag`]; after a failed `mark`, [`RawDelete::backtrack`];
/// [`RawDelete::abandon`] anywhere simulates a crash.
///
/// When the search finds the key in a leaf that keeps other entries, the
/// attempt replaces that leaf instead: `flag` is an iflag, `mark` takes no
/// step, and `execute_child`/`unflag` are the ichild and iunflag CASes.
pub struct RawDelete<'t, K, V> {
    tree: &'t NbBst<K, V>,
    key: K,
    guard: Guard,
    phase: DeletePhase,
    /// Whether this attempt replaces its leaf by a copy.
    by_copy: bool,
    gp: *const Internal<K, V>,
    gpupdate_bits: usize,
    /// Parent, leaf, `pupdate` and (once flagged) the Info record.
    circuit: Circuit<K, V>,
}

impl<'t, K, V> RawDelete<'t, K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Prepares a delete of `key`.
    pub fn new(tree: &'t NbBst<K, V>, key: K) -> RawDelete<'t, K, V> {
        let guard = tree.pin();
        RawDelete {
            tree,
            key,
            guard,
            phase: DeletePhase::Created,
            by_copy: false,
            gp: std::ptr::null(),
            gpupdate_bits: 0,
            circuit: Circuit::new(),
        }
    }

    fn gpupdate<'g>(&self) -> UpdateRef<'g, K, V> {
        // SAFETY: read by our search under the still-held guard, so any
        // Info record it tags is protected.
        unsafe { Shared::from_data(self.gpupdate_bits) }
    }

    /// Runs the `Search` (lines 75–78).
    pub fn search(&mut self) -> DeleteSearch {
        assert!(
            matches!(self.phase, DeletePhase::Created | DeletePhase::Searched),
            "search() after flag(); restart semantics match the paper"
        );
        let s = self.tree.search(&self.key, &self.guard);
        if s.leaf.get(&self.key).is_none() {
            return DeleteSearch::NotFound;
        }
        self.by_copy = s.leaf.len() > 1;
        self.gp = s.gp.map_or(std::ptr::null(), |gp| gp as *const _);
        self.gpupdate_bits = s.gpupdate.into_data();
        self.circuit.searched(s.p, s.leaf, s.pupdate);
        self.phase = DeletePhase::Searched;
        // A copy-delete flags only the parent.
        if !self.by_copy && s.gpupdate.state() != State::Clean {
            DeleteSearch::Busy(s.gpupdate.state())
        } else if s.pupdate.state() != State::Clean {
            DeleteSearch::Busy(s.pupdate.state())
        } else {
            DeleteSearch::Ready
        }
    }

    /// Helps the operation blocking the grandparent or parent (the
    /// paper's lines 77–78) and restarts this attempt — call after
    /// [`RawDelete::search`] returned [`DeleteSearch::Busy`].
    ///
    /// # Panics
    ///
    /// Panics unless the last step was a `search`.
    pub fn help_blocker(&mut self) {
        assert_eq!(
            self.phase,
            DeletePhase::Searched,
            "help_blocker() requires search()"
        );
        let gpw = self.gpupdate();
        let pw = self.circuit.pupdate();
        if !self.by_copy && gpw.state() != State::Clean {
            self.tree.help(gpw, &self.guard);
        } else if pw.state() != State::Clean {
            self.tree.help(pw, &self.guard);
        }
        self.phase = DeletePhase::Created; // restart from Search
    }

    /// Attempts the **dflag** CAS (line 81), or the iflag of a copy-delete.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`RawDelete::search`].
    pub fn flag(&mut self) -> bool {
        assert_eq!(
            self.phase,
            DeletePhase::Searched,
            "flag() requires search()"
        );
        if self.by_copy {
            if !self
                .circuit
                .flag(self.tree, &self.guard, Edit::Remove(&self.key))
            {
                self.phase = DeletePhase::Created;
                return false;
            }
            // Certain to complete once flagged, like an Insert.
            self.tree.bump_stat(|s| &s.deletes);
            self.tree.bump_stat(|s| &s.deletes_true);
            self.tree.bump_stat(|s| &s.deletes_by_copy);
            self.phase = DeletePhase::Flagged;
            return true;
        }
        let op = Owned::new(Info::Delete(DInfo {
            gp: self.gp,
            p: self.circuit.p,
            l: self.circuit.leaf,
            pupdate: self.circuit.pupdate_bits,
        }))
        .with_tag(State::DFlag.tag());
        self.tree.bump_stat(|s| &s.dflag_attempts);
        // SAFETY: guard-protected since search; a leaf holding a real key
        // has a grandparent.
        let gp_ref = unsafe { &*self.gp };
        // Release publishes the fresh DInfo record; no helping on failure.
        match gp_ref.update.compare_exchange(
            self.gpupdate(),
            op,
            Ordering::Release,
            Ordering::Relaxed,
            &self.guard,
        ) {
            Ok(word) => {
                self.tree.bump_stat(|s| &s.dflag_success);
                // SAFETY: our dflag displaced `gpupdate` from `gp`.
                unsafe { self.tree.retire_displaced(self.gpupdate(), &self.guard) };
                self.circuit.op = word.as_raw();
                self.phase = DeletePhase::Flagged;
                true
            }
            Err(e) => {
                drop(e.new);
                self.phase = DeletePhase::Created;
                false
            }
        }
    }

    /// Attempts the **mark** CAS (line 91). A copy-delete has no mark step
    /// and reports [`MarkOutcome::Marked`] without one.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawDelete::flag`] succeeded.
    pub fn mark(&mut self) -> MarkOutcome {
        assert_eq!(self.phase, DeletePhase::Flagged, "mark() requires flag()");
        if self.by_copy {
            self.phase = DeletePhase::Marked;
            return MarkOutcome::Marked;
        }
        let op_word = self.circuit.op_word();
        // SAFETY: `op` was published by our flag CAS; the record and the
        // nodes it names are guard-protected until it is retired.
        let info = unsafe { op_word.deref() }.as_delete();
        // SAFETY: as above.
        let p = unsafe { &*info.p };
        let expected = info.pupdate_word(&self.guard);
        let mark_word = op_word.with_tag(State::Mark.tag());
        self.tree.bump_stat(|s| &s.mark_attempts);
        // Release publishes the Mark; the failed value is only compared
        // bit-for-bit against `mark_word`, never dereferenced, so Relaxed.
        let outcome = p.update.compare_exchange(
            expected,
            mark_word,
            Ordering::Release,
            Ordering::Relaxed,
            &self.guard,
        );
        match outcome {
            Ok(_) => {
                self.tree.bump_stat(|s| &s.mark_success);
                // SAFETY: our mark displaced `expected` from `p`.
                unsafe { self.tree.retire_displaced(expected, &self.guard) };
            }
            Err(e) if e.current == mark_word => {}
            Err(_) => return MarkOutcome::Failed,
        }
        // Once marked, the deletion is guaranteed to complete (Section 3),
        // so it counts as a successful Delete now.
        self.tree.bump_stat(|s| &s.deletes);
        self.tree.bump_stat(|s| &s.deletes_true);
        self.phase = DeletePhase::Marked;
        MarkOutcome::Marked
    }

    /// Attempts the **dchild** CAS (line 105), or a copy-delete's ichild.
    /// Returns whether this call performed it.
    ///
    /// # Panics
    ///
    /// Panics unless the parent was marked.
    pub fn execute_child(&mut self) -> bool {
        assert_eq!(
            self.phase,
            DeletePhase::Marked,
            "execute_child() requires mark()"
        );
        self.phase = DeletePhase::ChildDone;
        if self.by_copy {
            return self.circuit.execute_child(self.tree, &self.guard);
        }
        // SAFETY: `op` was published by our flag CAS under our guard, so
        // the record, and every node it names (`p`, `gp`, `l`), are
        // unlinked or displaced only after our guard pinned.
        let info = unsafe { self.circuit.op_word().deref() }.as_delete();
        // SAFETY: as above.
        let (p, gp) = unsafe { (&*info.p, &*info.gp) };
        let l = info.leaf_word();
        let right = p.load_child(false, &self.guard);
        let other = if right == l {
            p.load_child(true, &self.guard)
        } else {
            right
        };
        let p_word = internal_ptr(info.p);
        let won = self.tree.cas_child(gp, p_word, other, &self.guard);
        if won {
            self.tree.bump_stat(|s| &s.dchild_success);
            self.tree.bump_stat(|s| &s.nodes_retired);
            self.tree.bump_stat(|s| &s.nodes_retired);
            // SAFETY: we unlinked `p` and `l`; unique retirement.
            unsafe {
                p_word.retire(&self.guard);
                l.retire(&self.guard);
            }
        }
        won
    }

    /// Attempts the **dunflag** CAS (line 106), or a copy-delete's
    /// iunflag. Returns whether this call performed it.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawDelete::execute_child`] ran.
    pub fn unflag(&mut self) -> bool {
        assert_eq!(
            self.phase,
            DeletePhase::ChildDone,
            "unflag() requires execute_child()"
        );
        self.phase = DeletePhase::Done;
        if self.by_copy {
            return self.circuit.unflag(self.tree, &self.guard);
        }
        let won = self.clear_dflag();
        if won {
            self.tree.bump_stat(|s| &s.dunflag_success);
        }
        won
    }

    /// Attempts the **backtrack** CAS (line 98), abandoning this attempt
    /// after a failed mark. Returns whether this call performed it.
    ///
    /// The driver returns to the `Created` phase: re-run
    /// [`RawDelete::search`] to retry, as `Delete` does.
    ///
    /// # Panics
    ///
    /// Panics unless the delete is flagged and unmarked.
    pub fn backtrack(&mut self) -> bool {
        assert_eq!(
            self.phase,
            DeletePhase::Flagged,
            "backtrack() requires a flagged, unmarked delete"
        );
        assert!(!self.by_copy, "a copy-delete cannot fail once flagged");
        let won = self.clear_dflag();
        if won {
            self.tree.bump_stat(|s| &s.backtrack_success);
        }
        self.circuit.op = std::ptr::null();
        self.phase = DeletePhase::Created;
        won
    }

    /// The DFlag → Clean CAS on the grandparent shared by dunflag and
    /// backtrack.
    fn clear_dflag(&self) -> bool {
        let op_word = self.circuit.op_word();
        // SAFETY: `op` was published by our flag CAS; the record and the
        // nodes it names are guard-protected.
        let gp = unsafe { &*op_word.deref().as_delete().gp };
        let dflag = op_word.with_tag(State::DFlag.tag());
        let clean = op_word.with_tag(State::Clean.tag());
        // Release: observers of Clean must also see the dchild splice (for
        // dunflag) and pair with helpers' Acquire loads (for backtrack).
        gp.update
            .compare_exchange(
                dflag,
                clean,
                Ordering::Release,
                Ordering::Relaxed,
                &self.guard,
            )
            .is_ok()
    }

    /// Finishes via the real `HelpDelete` (or `HelpInsert` for a
    /// copy-delete); returns whether the deletion completed (`false`
    /// means it backtracked and must be retried).
    ///
    /// # Panics
    ///
    /// Panics unless [`RawDelete::flag`] succeeded.
    pub fn complete(mut self) -> bool {
        assert!(
            matches!(
                self.phase,
                DeletePhase::Flagged | DeletePhase::Marked | DeletePhase::ChildDone
            ),
            "complete() requires a successful flag()"
        );
        let op_word = self.circuit.op_word();
        let was_unmarked = self.phase == DeletePhase::Flagged;
        self.phase = DeletePhase::Done;
        if self.by_copy {
            self.tree.help_insert(op_word, &self.guard);
            return true;
        }
        let done = self.tree.help_delete(op_word, &self.guard);
        if done && was_unmarked {
            // `mark()` was never called by us, so the completion has not
            // been counted yet.
            self.tree.bump_stat(|s| &s.deletes);
            self.tree.bump_stat(|s| &s.deletes_true);
        }
        done
    }

    /// Simulates a crash: stop forever. Published state (the flag/mark and
    /// Info record) stays in the tree for others to help or for teardown to
    /// reclaim.
    pub fn abandon(self) {}
}

impl<K: fmt::Debug, V> fmt::Debug for RawDelete<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawDelete")
            .field("key", &self.key)
            .field("phase", &self.phase)
            .field("by_copy", &self.by_copy)
            .finish()
    }
}

/// A stepped `Find`: descends one edge per [`RawFind::step`], so a test
/// scheduler can interleave it with updates — exactly the adversarial
/// schedule of the paper's Section 6.
pub struct RawFind<'t, K, V> {
    tree: &'t NbBst<K, V>,
    key: K,
    guard: Guard,
    /// The child word under the cursor.
    cursor: usize,
    steps: u64,
}

impl<'t, K, V> RawFind<'t, K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Starts a find for `key` with the cursor at the root.
    pub fn new(tree: &'t NbBst<K, V>, key: K) -> RawFind<'t, K, V> {
        let guard = tree.pin();
        let cursor = internal_ptr(tree.root()).into_data();
        RawFind {
            tree,
            key,
            guard,
            cursor,
            steps: 0,
        }
    }

    fn node(&self) -> NodeRef<'_, K, V> {
        // SAFETY: the cursor is the root or was read from a child word
        // under our (still-held) guard.
        unsafe { NodePtr::from_data(self.cursor).node() }
    }

    /// Descends one edge. Returns `true` when the cursor now rests on a
    /// leaf (the traversal part of `Find` is complete).
    pub fn step(&mut self) -> bool {
        let NodeRef::Internal(cur) = self.node() else {
            return true;
        };
        let go_left =
            nbbst_dictionary::real_vs_node(&self.key, &cur.key) == std::cmp::Ordering::Less;
        let next = cur.load_child(go_left, &self.guard);
        self.cursor = next.into_data();
        self.steps += 1;
        next.is_leaf()
    }

    /// Whether the cursor is currently on an internal node keyed `key`.
    pub fn at_internal_keyed(&self, key: &K) -> bool {
        matches!(self.node(), NodeRef::Internal(cur) if cur.key.as_key() == Some(key))
    }

    /// Edges traversed so far (the starvation experiment's progress
    /// counter).
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// If the cursor is on a leaf, the `Find` result.
    pub fn result(&self) -> Option<bool> {
        match self.node() {
            NodeRef::Leaf(leaf) => Some(leaf.get(&self.key).is_some()),
            NodeRef::Internal(_) => None,
        }
    }

    /// Reference to the tree, for schedule code.
    pub fn tree(&self) -> &'t NbBst<K, V> {
        self.tree
    }
}

impl<K: fmt::Debug, V> fmt::Debug for RawFind<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawFind")
            .field("key", &self.key)
            .field("steps", &self.steps)
            .finish()
    }
}

/// What a [`Stepper`] did on its most recent step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The operation took one step and has more to do.
    Running,
    /// The operation completed with this boolean result.
    Finished(bool),
}

/// A uniform one-CAS-step-at-a-time driver over [`RawInsert`] /
/// [`RawDelete`], following the *real* algorithm's control flow (retry
/// after failed flags, help on busy searches, backtrack after failed
/// marks). This is the building block for schedule enumeration and
/// fuzzing: interleave several `Stepper`s by calling [`Stepper::step`]
/// in any order.
///
/// # Examples
///
/// ```
/// use nbbst_core::raw::{Stepper, StepOutcome};
/// use nbbst_core::NbBst;
///
/// let tree: NbBst<u64, u64> = NbBst::new();
/// let mut a = Stepper::insert(&tree, 1, 10);
/// let mut b = Stepper::insert(&tree, 2, 20);
/// // Round-robin the two inserts one CAS step at a time.
/// while !(a.is_finished() && b.is_finished()) {
///     a.step();
///     b.step();
/// }
/// assert_eq!(a.result(), Some(true));
/// assert_eq!(b.result(), Some(true));
/// assert!(tree.contains_key(&1) && tree.contains_key(&2));
/// ```
pub struct Stepper<'t, K, V> {
    inner: StepperInner<'t, K, V>,
}

enum StepperInner<'t, K, V> {
    Insert(RawInsert<'t, K, V>, InsStep),
    Delete(RawDelete<'t, K, V>, DelStep),
    Finished(bool),
}

#[derive(Clone, Copy)]
enum InsStep {
    Search,
    Flag,
    Child,
    Unflag,
}

#[derive(Clone, Copy)]
enum DelStep {
    Search,
    Flag,
    Mark,
    Child,
    Unflag,
    Backtrack,
}

impl<'t, K, V> Stepper<'t, K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// A stepped `Insert(key, value)`.
    pub fn insert(tree: &'t NbBst<K, V>, key: K, value: V) -> Stepper<'t, K, V> {
        Stepper {
            inner: StepperInner::Insert(RawInsert::new(tree, key, value), InsStep::Search),
        }
    }

    /// A stepped `Delete(key)`.
    pub fn delete(tree: &'t NbBst<K, V>, key: K) -> Stepper<'t, K, V> {
        Stepper {
            inner: StepperInner::Delete(RawDelete::new(tree, key), DelStep::Search),
        }
    }

    /// Whether the operation has completed.
    pub fn is_finished(&self) -> bool {
        matches!(self.inner, StepperInner::Finished(_))
    }

    /// The boolean result, once finished.
    pub fn result(&self) -> Option<bool> {
        match self.inner {
            StepperInner::Finished(r) => Some(r),
            _ => None,
        }
    }

    /// Takes exactly one step of the operation (a `Search`, one CAS, or
    /// one helping pass), following the paper's control flow. No-op once
    /// finished.
    pub fn step(&mut self) -> StepOutcome {
        let next = match std::mem::replace(&mut self.inner, StepperInner::Finished(false)) {
            StepperInner::Insert(mut ins, phase) => match phase {
                InsStep::Search => match ins.search() {
                    InsertSearch::Duplicate => StepperInner::Finished(false),
                    InsertSearch::Busy(_) => {
                        // Line 51: help the blocker, then retry from Search.
                        ins.help_blocker();
                        StepperInner::Insert(ins, InsStep::Search)
                    }
                    InsertSearch::Ready => StepperInner::Insert(ins, InsStep::Flag),
                },
                InsStep::Flag => {
                    if ins.flag() {
                        StepperInner::Insert(ins, InsStep::Child)
                    } else {
                        StepperInner::Insert(ins, InsStep::Search)
                    }
                }
                InsStep::Child => {
                    ins.execute_child();
                    StepperInner::Insert(ins, InsStep::Unflag)
                }
                InsStep::Unflag => {
                    ins.unflag();
                    StepperInner::Finished(true)
                }
            },
            StepperInner::Delete(mut del, phase) => match phase {
                DelStep::Search => match del.search() {
                    DeleteSearch::NotFound => StepperInner::Finished(false),
                    DeleteSearch::Busy(_) => {
                        del.help_blocker();
                        StepperInner::Delete(del, DelStep::Search)
                    }
                    DeleteSearch::Ready => StepperInner::Delete(del, DelStep::Flag),
                },
                DelStep::Flag => {
                    if del.flag() {
                        StepperInner::Delete(del, DelStep::Mark)
                    } else {
                        StepperInner::Delete(del, DelStep::Search)
                    }
                }
                DelStep::Mark => match del.mark() {
                    MarkOutcome::Marked => StepperInner::Delete(del, DelStep::Child),
                    MarkOutcome::Failed => StepperInner::Delete(del, DelStep::Backtrack),
                },
                DelStep::Backtrack => {
                    del.backtrack();
                    StepperInner::Delete(del, DelStep::Search)
                }
                DelStep::Child => {
                    del.execute_child();
                    StepperInner::Delete(del, DelStep::Unflag)
                }
                DelStep::Unflag => {
                    del.unflag();
                    StepperInner::Finished(true)
                }
            },
            finished => finished,
        };
        self.inner = next;
        match self.inner {
            StepperInner::Finished(r) => StepOutcome::Finished(r),
            _ => StepOutcome::Running,
        }
    }
}

impl<K: fmt::Debug, V> fmt::Debug for Stepper<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            StepperInner::Insert(i, _) => write!(f, "Stepper({i:?})"),
            StepperInner::Delete(d, _) => write!(f, "Stepper({d:?})"),
            StepperInner::Finished(r) => write!(f, "Stepper(Finished({r}))"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's tree (one key per leaf) holding `keys`.
    fn tree_with(keys: &[u64]) -> NbBst<u64, u64> {
        let t = NbBst::with_stats().one_key_leaves();
        for &k in keys {
            t.insert_entry(k, k * 10).unwrap();
        }
        t
    }

    #[test]
    fn stepped_insert_happy_path() {
        let t = tree_with(&[10, 30]);
        let mut ins = RawInsert::new(&t, 20, 200);
        assert_eq!(ins.search(), InsertSearch::Ready);
        assert!(ins.flag());
        assert!(ins.execute_child());
        assert!(ins.unflag());
        drop(ins);
        assert!(t.contains_key(&20));
        t.check_invariants().unwrap();
        t.stats().unwrap().check_figure4().unwrap();
    }

    #[test]
    fn stepped_insert_duplicate_detected() {
        let t = tree_with(&[10]);
        let mut ins = RawInsert::new(&t, 10, 0);
        assert_eq!(ins.search(), InsertSearch::Duplicate);
        drop(ins); // must free the speculative leaf
        t.check_invariants().unwrap();
    }

    #[test]
    fn stepped_delete_happy_path() {
        let t = tree_with(&[10, 20, 30]);
        let mut del = RawDelete::new(&t, 20);
        assert_eq!(del.search(), DeleteSearch::Ready);
        assert!(del.flag());
        assert_eq!(del.mark(), MarkOutcome::Marked);
        assert!(del.execute_child());
        assert!(del.unflag());
        assert!(!t.contains_key(&20));
        t.check_invariants().unwrap();
        t.stats().unwrap().check_figure4().unwrap();
    }

    #[test]
    fn stepped_delete_not_found() {
        let t = tree_with(&[10]);
        let mut del = RawDelete::new(&t, 99);
        assert_eq!(del.search(), DeleteSearch::NotFound);
    }

    #[test]
    fn flagged_insert_is_helped_by_concurrent_update() {
        let t = tree_with(&[10]);
        let mut ins = RawInsert::new(&t, 20, 200);
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        ins.abandon(); // crash after iflag

        // An unrelated update in the same neighborhood must help the
        // stalled insert before it can proceed.
        assert!(t.insert_entry(30, 300).is_ok());
        assert!(t.contains_key(&20), "helper completed the stalled insert");
        assert!(t.contains_key(&30));
        t.check_invariants().unwrap();
        let stats = t.stats().unwrap();
        assert!(stats.helps > 0, "helping must have occurred: {stats:?}");
    }

    #[test]
    fn flagged_delete_is_helped_by_concurrent_update() {
        let t = tree_with(&[10, 20, 30]);
        let mut del = RawDelete::new(&t, 20);
        assert!(del.search().is_ready());
        assert!(del.flag());
        del.abandon(); // crash after dflag, before mark

        // A conflicting update helps: it must finish the delete (mark,
        // dchild, dunflag) before its own flag can land on that node.
        assert!(t.remove_key(&30) || !t.contains_key(&30));
        assert!(!t.contains_key(&20), "helper completed the stalled delete");
        t.check_invariants().unwrap();
    }

    #[test]
    fn marked_delete_is_helped_to_completion() {
        let t = tree_with(&[10, 20, 30]);
        let mut del = RawDelete::new(&t, 20);
        assert!(del.search().is_ready());
        assert!(del.flag());
        assert_eq!(del.mark(), MarkOutcome::Marked);
        del.abandon(); // crash between mark and dchild

        assert!(t.insert_entry(25, 0).is_ok());
        assert!(!t.contains_key(&20));
        assert!(t.contains_key(&25));
        t.check_invariants().unwrap();
    }

    #[test]
    fn mark_fails_after_concurrent_insert_then_backtrack() {
        // The Figure 5 "doomed delete": flag gp, then let an insert change
        // p's update word; the mark CAS must fail and backtrack must
        // restore Clean.
        let t = tree_with(&[10, 20]);
        // Delete(10): p is the internal node directly above leaf 10.
        let mut del = RawDelete::new(&t, 10);
        assert!(del.search().is_ready());
        assert!(del.flag());

        // Concurrent Insert(15) flags p — the node the delete still has to
        // mark — and completes.
        let mut ins = RawInsert::new(&t, 15, 150);
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        assert!(ins.execute_child());
        assert!(ins.unflag());
        drop(ins);

        // The mark CAS now fails (pupdate is stale), and the delete
        // backtracks; the tree is unchanged and still contains 10 and 15.
        assert_eq!(del.mark(), MarkOutcome::Failed);
        assert!(del.backtrack());
        assert!(t.contains_key(&10));
        assert!(t.contains_key(&15));
        assert!(t.contains_key(&20));
        t.check_invariants().unwrap();
        let stats = t.stats().unwrap();
        assert_eq!(stats.backtrack_success, 1);
        stats.check_figure4().unwrap();
    }

    #[test]
    fn stepped_find_walks_to_leaf() {
        let t = tree_with(&[1, 2, 3]);
        let mut find = RawFind::new(&t, 2);
        let mut steps = 0;
        while !find.step() {
            steps += 1;
            assert!(steps < 64, "runaway find");
        }
        assert_eq!(find.result(), Some(true));
        assert!(find.steps_taken() >= 2);
    }

    #[test]
    fn raw_ops_update_figure4_counters() {
        let t = tree_with(&[]);
        let mut ins = RawInsert::new(&t, 1, 1);
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        ins.complete();
        let s = t.stats().unwrap();
        assert_eq!(s.iflag_success, 1);
        assert_eq!(s.ichild_success, 1);
        assert_eq!(s.iunflag_success, 1);
        s.check_figure4().unwrap();
    }

    #[test]
    fn abandoned_unflagged_insert_leaks_nothing_into_tree() {
        let t = tree_with(&[10]);
        let ins = RawInsert::new(&t, 20, 0);
        ins.abandon(); // never searched/flagged
        assert!(!t.contains_key(&20));
        assert_eq!(t.len_slow(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn stepper_round_robin_conflicting_ops() {
        let t = tree_with(&[10, 20, 30]);
        let mut a = Stepper::delete(&t, 20);
        let mut b = Stepper::insert(&t, 25, 25);
        let mut steps = 0;
        while !(a.is_finished() && b.is_finished()) {
            a.step();
            b.step();
            steps += 1;
            assert!(steps < 64, "steppers must terminate");
        }
        assert_eq!(a.result(), Some(true));
        assert_eq!(b.result(), Some(true));
        assert!(!t.contains_key(&20));
        assert!(t.contains_key(&25));
        t.check_invariants().unwrap();
        t.stats().unwrap().check_figure4().unwrap();
    }

    #[test]
    fn stepper_reports_false_outcomes() {
        let t = tree_with(&[10]);
        let mut dup = Stepper::insert(&t, 10, 0);
        while !dup.is_finished() {
            dup.step();
        }
        assert_eq!(dup.result(), Some(false));

        let mut missing = Stepper::delete(&t, 99);
        assert_eq!(missing.step(), StepOutcome::Finished(false));
    }

    #[test]
    fn tree_drop_reclaims_abandoned_flagged_operations() {
        // Covers the Drop paths for stalled IFlag (with speculative
        // subtree), DFlag and Mark states.
        let t = tree_with(&[10, 20, 30]);
        let mut ins = RawInsert::new(&t, 40, 0);
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        ins.abandon();

        let mut del = RawDelete::new(&t, 10);
        assert!(del.search().is_ready());
        assert!(del.flag());
        assert_eq!(del.mark(), MarkOutcome::Marked);
        del.abandon();

        t.check_invariants_allowing(true).unwrap();
        drop(t); // must free everything (verified under sanitizers)
    }

    /// A default (multi-entry leaf) tree holding `keys`.
    fn fat_tree_with(keys: &[u64]) -> NbBst<u64, u64> {
        let t = NbBst::with_stats();
        for &k in keys {
            t.insert_entry(k, k * 10).unwrap();
        }
        t
    }

    #[test]
    fn stepped_delete_from_a_fat_leaf_replaces_it_by_copy() {
        let t = fat_tree_with(&[10, 20, 30]);
        let mut del = RawDelete::new(&t, 20);
        assert_eq!(del.search(), DeleteSearch::Ready);
        assert!(del.flag(), "iflag on the leaf's parent");
        assert_eq!(del.mark(), MarkOutcome::Marked, "no mark step");
        assert!(del.execute_child());
        assert!(del.unflag());
        assert_eq!(t.keys_snapshot(), vec![10, 30]);
        t.check_invariants().unwrap();
        let s = t.stats().unwrap();
        assert_eq!(
            (s.deletes_by_copy, s.dflag_attempts, s.mark_attempts),
            (1, 0, 0)
        );
        s.check_figure4().unwrap();
    }

    #[test]
    fn copy_delete_parked_after_iflag_is_completed_by_a_helper() {
        let t = fat_tree_with(&[10, 20, 30]);
        let mut del = RawDelete::new(&t, 20);
        assert!(del.search().is_ready());
        assert!(del.flag());
        del.abandon();
        // Any update of the same leaf must first finish the parked one.
        assert!(t.insert_entry(25, 250).is_ok());
        assert_eq!(t.keys_snapshot(), vec![10, 25, 30]);
        t.check_invariants().unwrap();
        let s = t.stats().unwrap();
        assert!(s.helps > 0, "{s:?}");
        s.check_figure4().unwrap();
    }

    #[test]
    fn stepper_drives_fat_leaf_updates_to_completion() {
        let t = fat_tree_with(&[10, 20, 30]);
        let mut a = Stepper::delete(&t, 20);
        let mut b = Stepper::insert(&t, 25, 25);
        let mut steps = 0;
        while !(a.is_finished() && b.is_finished()) {
            a.step();
            b.step();
            steps += 1;
            assert!(steps < 64, "steppers must terminate");
        }
        assert_eq!((a.result(), b.result()), (Some(true), Some(true)));
        assert_eq!(t.keys_snapshot(), vec![10, 25, 30]);
        t.check_invariants().unwrap();
        t.stats().unwrap().check_figure4().unwrap();
    }

    #[test]
    fn dropping_a_tree_frees_a_parked_split() {
        // Fill one leaf, park the insert that splits it after its iflag,
        // and drop the tree: teardown frees the unspliced split subtree.
        let t = fat_tree_with(&(0..crate::node::LEAF_CAPACITY as u64).collect::<Vec<_>>());
        let mut ins = RawInsert::new(&t, 1_000, 0);
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        ins.abandon();
        t.check_invariants_allowing(true).unwrap();
        drop(t);
    }
}
