//! Stepped operation drivers: run `Insert`/`Delete`/`Find` **one step at
//! a time**, under test control.
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
//! The update drivers own no protocol code. [`Stepper`], [`RawInsert`] and
//! [`RawDelete`] hold one instance of the step machine behind
//! `NbBst::insert_entry` and `NbBst::remove_key`, and each call takes one
//! of its steps: a Search, one CAS, or one help pass over the word that
//! blocked the last flag, mark or Search. So every stepped schedule runs
//! the shipped CAS code, orderings, helping and Figure-4 counters.
//! [`RawInsert`] and [`RawDelete`] name the step the caller expects and
//! panic if the machine would take another.
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

use crate::node::{internal_ptr, Edit, NodePtr, NodePtrExt, NodeRef, UpdateWordExt};
use crate::state::State;
use crate::tree::{NbBst, Step, Update};
use nbbst_reclaim::Guard;
use std::fmt;

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
    /// The mark CAS failed; the next steps help the blocker and backtrack
    /// (see [`RawDelete::backtrack`]).
    Failed,
}

/// What a [`Stepper`] did on its most recent step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The operation took one step and has more to do.
    Running,
    /// The operation completed with this boolean result.
    Finished(bool),
}

/// A stepped `Insert` or `Delete` following the shipped control flow:
/// each [`Stepper::step`] takes one step of the same machine
/// `NbBst::insert_entry` and `NbBst::remove_key` run (a `Search`, one CAS,
/// or one help pass), including the help steps after failed flags and
/// marks and the retries after backtracks. This is the building block for
/// schedule enumeration and fuzzing: interleave several `Stepper`s by
/// calling [`Stepper::step`] in any order.
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
    tree: &'t NbBst<K, V>,
    key: K,
    /// `Some` for an Insert.
    value: Option<V>,
    guard: Guard,
    op: Update<K, V>,
}

impl<'t, K, V> Stepper<'t, K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// A stepped `Insert(key, value)`.
    pub fn insert(tree: &'t NbBst<K, V>, key: K, value: V) -> Stepper<'t, K, V> {
        Stepper::new(tree, key, Some(value))
    }

    /// A stepped `Delete(key)`.
    pub fn delete(tree: &'t NbBst<K, V>, key: K) -> Stepper<'t, K, V> {
        Stepper::new(tree, key, None)
    }

    fn new(tree: &'t NbBst<K, V>, key: K, value: Option<V>) -> Stepper<'t, K, V> {
        Stepper {
            tree,
            key,
            value,
            guard: tree.pin(),
            op: Update::new(),
        }
    }

    /// Whether the operation has completed.
    pub fn is_finished(&self) -> bool {
        self.result().is_some()
    }

    /// The boolean result, once finished.
    pub fn result(&self) -> Option<bool> {
        match self.op.next() {
            Step::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Takes exactly one step of the operation (a `Search`, one CAS, or
    /// one helping pass), following the paper's control flow. No-op once
    /// finished.
    pub fn step(&mut self) -> StepOutcome {
        self.advance();
        match self.result() {
            Some(r) => StepOutcome::Finished(r),
            None => StepOutcome::Running,
        }
    }

    /// Takes one step; returns whether its CAS succeeded.
    fn advance(&mut self) -> bool {
        let edit = match &self.value {
            Some(value) => Edit::Insert(&self.key, value),
            None => Edit::Remove(&self.key),
        };
        // SAFETY: the driver's one guard was pinned before its first
        // step, so before every attempt's Search.
        unsafe { self.op.step(self.tree, edit, &self.guard) }
    }

    /// Takes the next step, which must be `step` (`what` names the
    /// caller's precondition); returns whether its CAS succeeded.
    fn take(&mut self, step: Step, what: &str) -> bool {
        assert_eq!(self.op.next(), step, "{what}");
        self.advance()
    }

    /// Runs a Search, after the help step a failed flag or a busy Search
    /// left pending; returns the step that follows it.
    fn search(&mut self) -> Step {
        if self.op.next() == Step::Help && !self.op.is_flagged() {
            self.advance();
        }
        self.take(
            Step::Search,
            "search() starts a new attempt: not after a successful flag()",
        );
        self.op.next()
    }

    /// The state of the word a busy Search found.
    fn blocker_state(&self) -> State {
        // SAFETY: as in `advance`.
        unsafe { self.op.blocker(&self.guard) }.state()
    }

    /// Steps a flagged operation until it is done (`true`) or has
    /// backtracked to a new Search (`false`).
    fn complete(&mut self) -> bool {
        assert!(
            self.op.is_flagged(),
            "complete() requires a successful flag()"
        );
        loop {
            self.advance();
            match self.op.next() {
                Step::Done(r) => return r,
                Step::Search => return false,
                _ => {}
            }
        }
    }
}

impl<K: fmt::Debug, V> fmt::Debug for Stepper<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stepper")
            .field("key", &self.key)
            .field("insert", &self.value.is_some())
            .field("next", &self.op.next())
            .finish()
    }
}

/// A stepped `Insert` (Figure 8), driven one CAS at a time.
///
/// Step order: [`RawInsert::search`] → [`RawInsert::flag`] →
/// [`RawInsert::execute_child`] → [`RawInsert::unflag`], or
/// [`RawInsert::abandon`] at any point to simulate a crash.
pub struct RawInsert<'t, K, V>(Stepper<'t, K, V>);

impl<'t, K, V> RawInsert<'t, K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Prepares an insert of `(key, value)`.
    pub fn new(tree: &'t NbBst<K, V>, key: K, value: V) -> RawInsert<'t, K, V> {
        RawInsert(Stepper::insert(tree, key, value))
    }

    /// Runs the `Search` (lines 49–51): locates the leaf to replace and
    /// records the parent and its update word. After a failed
    /// [`RawInsert::flag`] or a `Busy` search, first takes the pending
    /// step that helps the blocker, as `Insert` does.
    ///
    /// # Panics
    ///
    /// Panics after a successful [`RawInsert::flag`].
    pub fn search(&mut self) -> InsertSearch {
        match self.0.search() {
            Step::Done(_) => InsertSearch::Duplicate,
            Step::Help => InsertSearch::Busy(self.0.blocker_state()),
            _ => InsertSearch::Ready,
        }
    }

    /// Helps the operation blocking the parent (the paper's line 51);
    /// the next step is a new `Search`.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawInsert::search`] returned [`InsertSearch::Busy`].
    pub fn help_blocker(&mut self) {
        self.0
            .take(Step::Help, "help_blocker() requires a Busy search()");
    }

    /// Attempts the **iflag** CAS (line 56). On success the insertion is
    /// guaranteed to complete (possibly via helpers).
    ///
    /// On failure, re-run [`RawInsert::search`], which first helps the
    /// operation that holds the flag.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawInsert::search`] returned [`InsertSearch::Ready`].
    pub fn flag(&mut self) -> bool {
        self.0.take(Step::Flag, "flag() requires search()")
    }

    /// Attempts the **ichild** CAS (line 66 / 115 / 117). Returns whether
    /// *this* call performed it (a helper may have beaten us; the insert
    /// still completes either way).
    ///
    /// # Panics
    ///
    /// Panics unless [`RawInsert::flag`] succeeded.
    pub fn execute_child(&mut self) -> bool {
        self.0.take(Step::Child, "execute_child() requires flag()")
    }

    /// Attempts the **iunflag** CAS (line 67). Returns whether this call
    /// performed it.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawInsert::execute_child`] ran.
    pub fn unflag(&mut self) -> bool {
        self.0
            .take(Step::Unflag, "unflag() requires execute_child()")
    }

    /// Takes the remaining steps of a flagged insert.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawInsert::flag`] succeeded.
    pub fn complete(mut self) {
        self.0.complete();
    }

    /// Simulates a crash: stop taking steps forever. If the operation was
    /// already flagged, the published Info record lets any other thread
    /// finish it.
    pub fn abandon(self) {}
}

impl<K: fmt::Debug, V> fmt::Debug for RawInsert<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
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
pub struct RawDelete<'t, K, V>(Stepper<'t, K, V>);

impl<'t, K, V> RawDelete<'t, K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Prepares a delete of `key`.
    pub fn new(tree: &'t NbBst<K, V>, key: K) -> RawDelete<'t, K, V> {
        RawDelete(Stepper::delete(tree, key))
    }

    /// Runs the `Search` (lines 75–78), after the pending help step of a
    /// failed [`RawDelete::flag`] or a `Busy` search.
    ///
    /// # Panics
    ///
    /// Panics while the delete is flagged.
    pub fn search(&mut self) -> DeleteSearch {
        match self.0.search() {
            Step::Done(_) => DeleteSearch::NotFound,
            Step::Help => DeleteSearch::Busy(self.0.blocker_state()),
            _ => DeleteSearch::Ready,
        }
    }

    /// Helps the operation blocking the grandparent or parent (the
    /// paper's lines 77–78); the next step is a new `Search`.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawDelete::search`] returned [`DeleteSearch::Busy`].
    pub fn help_blocker(&mut self) {
        self.0
            .take(Step::Help, "help_blocker() requires a Busy search()");
    }

    /// Attempts the **dflag** CAS (line 81), or the iflag of a copy-delete.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawDelete::search`] returned [`DeleteSearch::Ready`].
    pub fn flag(&mut self) -> bool {
        self.0.take(Step::Flag, "flag() requires search()")
    }

    /// Attempts the **mark** CAS (line 91). A copy-delete has no mark step
    /// and reports [`MarkOutcome::Marked`] without one.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawDelete::flag`] succeeded.
    pub fn mark(&mut self) -> MarkOutcome {
        if !self.0.op.splices() && self.0.op.next() == Step::Child {
            return MarkOutcome::Marked;
        }
        if self.0.take(Step::Mark, "mark() requires flag()") {
            MarkOutcome::Marked
        } else {
            MarkOutcome::Failed
        }
    }

    /// Attempts the **dchild** CAS (line 105), or a copy-delete's ichild.
    /// Returns whether this call performed it.
    ///
    /// # Panics
    ///
    /// Panics unless the parent was marked.
    pub fn execute_child(&mut self) -> bool {
        self.0.take(Step::Child, "execute_child() requires mark()")
    }

    /// Attempts the **dunflag** CAS (line 106), or a copy-delete's
    /// iunflag. Returns whether this call performed it.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawDelete::execute_child`] ran.
    pub fn unflag(&mut self) -> bool {
        self.0
            .take(Step::Unflag, "unflag() requires execute_child()")
    }

    /// After a failed mark, helps the operation that blocked it (line 97),
    /// then attempts the **backtrack** CAS (line 98). Returns whether this
    /// call performed the backtrack.
    ///
    /// The next step is a new `Search`: re-run [`RawDelete::search`] to
    /// retry, as `Delete` does.
    ///
    /// # Panics
    ///
    /// Panics unless [`RawDelete::mark`] failed.
    pub fn backtrack(&mut self) -> bool {
        self.0
            .take(Step::Help, "backtrack() requires a failed mark()");
        self.0
            .take(Step::Backtrack, "backtrack() requires a failed mark()")
    }

    /// Takes the remaining steps of a flagged delete; returns whether the
    /// deletion completed (`false` means it backtracked and must be
    /// retried from [`RawDelete::search`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`RawDelete::flag`] succeeded.
    pub fn complete(mut self) -> bool {
        self.0.complete()
    }

    /// Simulates a crash: stop forever. Published state (the flag/mark and
    /// Info record) stays in the tree for others to help or for teardown to
    /// reclaim.
    pub fn abandon(self) {}
}

impl<K: fmt::Debug, V> fmt::Debug for RawDelete<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
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
    fn stepped_delete_helps_the_blocker_of_its_mark_before_backtracking() {
        // HelpDelete line 97: a failed mark helps the operation that
        // blocked it before the backtrack CAS.
        let t = tree_with(&[10, 20]);
        let mut del = Stepper::delete(&t, 10);
        del.step(); // Search
        del.step(); // dflag on the grandparent
        assert_eq!(t.stats().unwrap().dflag_success, 1);

        // Insert(15) flags the parent the delete has yet to mark, and
        // crashes there.
        let mut ins = RawInsert::new(&t, 15, 150);
        assert!(ins.search().is_ready());
        assert!(ins.flag());
        ins.abandon();

        let mut steps = 0;
        while t.stats().unwrap().backtrack_success == 0 {
            del.step();
            steps += 1;
            assert!(steps < 64, "the delete must backtrack");
        }
        assert!(
            t.contains_key(&15),
            "the delete completed the insert that blocked its mark"
        );
        while !del.is_finished() {
            del.step();
        }
        assert_eq!(del.result(), Some(true));
        assert_eq!(t.keys_snapshot(), vec![15, 20]);
        t.check_invariants().unwrap();
        t.stats().unwrap().check_figure4().unwrap();
    }

    #[test]
    fn stepped_insert_helps_the_flag_holder_before_its_next_search() {
        // Insert line 61: a failed iflag helps whoever holds the flag
        // before the attempt restarts from Search.
        let t = tree_with(&[10, 20]);
        let mut ins = Stepper::insert(&t, 15, 150);
        assert_eq!(ins.step(), StepOutcome::Running); // Search

        // Insert(12) flags the same parent first, and crashes there.
        let mut winner = RawInsert::new(&t, 12, 120);
        assert!(winner.search().is_ready());
        assert!(winner.flag());
        winner.abandon();

        let before = t.stats().unwrap();
        ins.step(); // the iflag, which loses
        ins.step(); // the help step
        let after = t.stats().unwrap();
        assert_eq!(after.iflag_attempts, before.iflag_attempts + 1);
        assert_eq!(after.iflag_success, before.iflag_success);
        assert_eq!(after.searches, before.searches, "no new Search yet");
        assert!(
            t.contains_key(&12),
            "the loser completed the winner before searching again"
        );
        while !ins.is_finished() {
            ins.step();
        }
        assert_eq!(ins.result(), Some(true));
        assert_eq!(t.keys_snapshot(), vec![10, 12, 15, 20]);
        t.check_invariants().unwrap();
        t.stats().unwrap().check_figure4().unwrap();
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
