//! Exhaustive CAS-step interleaving exploration ("mini model checker").
//!
//! The paper's proof argues over interleavings of individual CAS steps.
//! Loom is not in the dependency budget, so this test enumerates — for
//! pairs of conflicting operations on small trees — **every** interleaving
//! of their CAS steps (search/flag/mark/child/unflag/backtrack, via the
//! stepped `raw` drivers), and asserts for each complete schedule:
//!
//! 1. both operations terminate (with bounded retries),
//! 2. the final key set equals the sequential result (for the commutative
//!    pairs tested, all linearization orders agree),
//! 3. the tree's structural invariants hold,
//! 4. the Figure-4 circuit identities hold.
//!
//! Each schedule is replayed from a fresh tree, driven by a decision
//! string: at step `i`, bit `i` of the schedule id says which operation
//! advances. Operations advance through the *real* algorithm's control
//! flow (retrying after failed flags, backtracking after failed marks).

use nbbst::core::raw::{DeleteSearch, InsertSearch, MarkOutcome, RawDelete, RawInsert};
use nbbst::NbBst;
use std::collections::BTreeSet;

/// One operation to interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Insert(u64),
    Delete(u64),
}

/// A stepped operation mid-flight.
enum Driver<'t> {
    Insert(RawInsert<'t, u64, u64>, InsPhase),
    Delete(RawDelete<'t, u64, u64>, DelPhase),
    /// Finished (the boolean outcome is not consulted by the checker;
    /// final-state validation covers it).
    Done(#[allow(dead_code)] bool),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // Need* mirrors the pending CAS step
enum InsPhase {
    NeedSearch,
    NeedFlag,
    NeedChild,
    NeedUnflag,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)]
enum DelPhase {
    NeedSearch,
    NeedFlag,
    NeedMark,
    NeedChild,
    NeedUnflag,
    NeedBacktrack,
}

impl<'t> Driver<'t> {
    fn new(tree: &'t NbBst<u64, u64>, op: Op) -> Driver<'t> {
        match op {
            Op::Insert(k) => Driver::Insert(RawInsert::new(tree, k, k), InsPhase::NeedSearch),
            Op::Delete(k) => Driver::Delete(RawDelete::new(tree, k), DelPhase::NeedSearch),
        }
    }

    fn is_done(&self) -> bool {
        matches!(self, Driver::Done(_))
    }

    /// Advances by exactly one step of the real algorithm. A `Busy` search
    /// outcome *re-searches* on the next step (the real code would help;
    /// with only two ops, the blocker either finishes by itself in this
    /// schedule or — if it crashed — helping is covered by other tests).
    fn step(&mut self) {
        let next = match std::mem::replace(self, Driver::Done(false)) {
            Driver::Insert(mut ins, phase) => match phase {
                InsPhase::NeedSearch => match ins.search() {
                    InsertSearch::Duplicate => Driver::Done(false),
                    InsertSearch::Busy(_) => {
                        // Line 51: help the blocker, restart the attempt.
                        ins.help_blocker();
                        Driver::Insert(ins, InsPhase::NeedSearch)
                    }
                    InsertSearch::Ready => Driver::Insert(ins, InsPhase::NeedFlag),
                },
                InsPhase::NeedFlag => {
                    if ins.flag() {
                        Driver::Insert(ins, InsPhase::NeedChild)
                    } else {
                        Driver::Insert(ins, InsPhase::NeedSearch)
                    }
                }
                InsPhase::NeedChild => {
                    ins.execute_child();
                    Driver::Insert(ins, InsPhase::NeedUnflag)
                }
                InsPhase::NeedUnflag => {
                    ins.unflag();
                    Driver::Done(true)
                }
            },
            Driver::Delete(mut del, phase) => match phase {
                DelPhase::NeedSearch => match del.search() {
                    DeleteSearch::NotFound => Driver::Done(false),
                    DeleteSearch::Busy(_) => {
                        // Lines 77-78: help the blocker, restart.
                        del.help_blocker();
                        Driver::Delete(del, DelPhase::NeedSearch)
                    }
                    DeleteSearch::Ready => Driver::Delete(del, DelPhase::NeedFlag),
                },
                DelPhase::NeedFlag => {
                    if del.flag() {
                        Driver::Delete(del, DelPhase::NeedMark)
                    } else {
                        Driver::Delete(del, DelPhase::NeedSearch)
                    }
                }
                DelPhase::NeedMark => match del.mark() {
                    MarkOutcome::Marked => Driver::Delete(del, DelPhase::NeedChild),
                    MarkOutcome::Failed => Driver::Delete(del, DelPhase::NeedBacktrack),
                },
                DelPhase::NeedBacktrack => {
                    del.backtrack();
                    Driver::Delete(del, DelPhase::NeedSearch)
                }
                DelPhase::NeedChild => {
                    del.execute_child();
                    Driver::Delete(del, DelPhase::NeedUnflag)
                }
                DelPhase::NeedUnflag => {
                    del.unflag();
                    Driver::Done(true)
                }
            },
            done => done,
        };
        *self = next;
    }
}

/// The sequential outcome: apply `a` then `b` (and `b` then `a`) to the
/// initial set; returns the set of admissible final key sets.
fn sequential_outcomes(initial: &[u64], a: Op, b: Op) -> Vec<BTreeSet<u64>> {
    let apply = |set: &mut BTreeSet<u64>, op: Op| match op {
        Op::Insert(k) => {
            set.insert(k);
        }
        Op::Delete(k) => {
            set.remove(&k);
        }
    };
    let mut outcomes = Vec::new();
    for order in [[a, b], [b, a]] {
        let mut set: BTreeSet<u64> = initial.iter().copied().collect();
        for op in order {
            apply(&mut set, op);
        }
        if !outcomes.contains(&set) {
            outcomes.push(set);
        }
    }
    outcomes
}

/// Runs one schedule (bit `i` of `schedule` picks which op moves at step
/// `i`) and validates the outcome. Returns the number of steps consumed.
fn run_schedule(initial: &[u64], a: Op, b: Op, schedule: u64) -> u32 {
    let tree: NbBst<u64, u64> = NbBst::with_stats().one_key_leaves();
    for &k in initial {
        tree.insert_entry(k, k).unwrap();
    }
    let mut da = Driver::new(&tree, a);
    let mut db = Driver::new(&tree, b);

    let mut steps = 0u32;
    while !(da.is_done() && db.is_done()) {
        assert!(
            steps < 64,
            "schedule {schedule:#b} for {a:?} || {b:?} did not terminate"
        );
        let pick_a = (schedule >> steps) & 1 == 0;
        if pick_a && !da.is_done() {
            da.step();
        } else if !db.is_done() {
            db.step();
        } else {
            da.step();
        }
        steps += 1;
    }
    drop(da);
    drop(db);

    // Validate: final keys must be one of the two sequential outcomes.
    let final_keys: BTreeSet<u64> = tree.keys_snapshot().into_iter().collect();
    let admissible = sequential_outcomes(initial, a, b);
    assert!(
        admissible.contains(&final_keys),
        "schedule {schedule:#b} for {a:?} || {b:?}: final {final_keys:?} not in {admissible:?}"
    );
    tree.check_invariants()
        .unwrap_or_else(|e| panic!("schedule {schedule:#b}: {e}"));
    tree.stats()
        .unwrap()
        .check_figure4()
        .unwrap_or_else(|e| panic!("schedule {schedule:#b}: {e}"));
    steps
}

/// Enumerates all `2^max_steps` decision strings. Distinct prefixes that
/// the run never consults collapse to the same execution, so this covers
/// every reachable interleaving (with redundancy, which is fine).
fn enumerate(initial: &[u64], a: Op, b: Op) {
    const MAX_DECISION_BITS: u32 = 14;
    for schedule in 0..(1u64 << MAX_DECISION_BITS) {
        run_schedule(initial, a, b, schedule);
    }
}

#[test]
fn all_interleavings_insert_vs_insert_same_leaf() {
    // Both inserts land next to the same leaf: maximal iflag conflict.
    enumerate(&[10], Op::Insert(20), Op::Insert(30));
}

#[test]
fn all_interleavings_insert_vs_insert_same_key() {
    // Exactly one may succeed.
    enumerate(&[10], Op::Insert(20), Op::Insert(20));
}

#[test]
fn all_interleavings_delete_vs_delete_adjacent() {
    // The Figure 3(b) pair, exhaustively.
    enumerate(&[10, 30, 50, 80], Op::Delete(30), Op::Delete(50));
}

#[test]
fn all_interleavings_delete_vs_delete_same_key() {
    enumerate(&[10, 30, 50], Op::Delete(30), Op::Delete(30));
}

#[test]
fn all_interleavings_insert_vs_delete_adjacent() {
    // The Figure 3(c)/Figure 5 pair, exhaustively.
    enumerate(&[10, 30, 50, 80], Op::Insert(60), Op::Delete(50));
}

#[test]
fn all_interleavings_insert_vs_delete_same_key() {
    enumerate(&[10, 30], Op::Insert(30), Op::Delete(30));
}

#[test]
fn all_interleavings_on_tiny_tree() {
    // Grandparent == root region; exercises the ∞-sentinel edge cases.
    enumerate(&[10], Op::Insert(5), Op::Delete(10));
}
