//! Exhaustive CAS-step interleaving exploration ("mini model checker").
//!
//! The paper's proof argues over interleavings of individual CAS steps.
//! The loom suite (`crates/core/tests/loom_protocol.rs`) explores
//! interleavings of the individual atomic accesses, for a few scenarios;
//! this test enumerates — for pairs of conflicting
//! operations on small trees — **every** interleaving of their protocol
//! steps (search/flag/mark/child/unflag/backtrack and help passes), and
//! asserts for each complete schedule:
//!
//! 1. both operations terminate (with bounded retries),
//! 2. the final key set equals the sequential result (for the commutative
//!    pairs tested, all linearization orders agree),
//! 3. the tree's structural invariants hold,
//! 4. the Figure-4 circuit identities hold.
//!
//! Each schedule is replayed from a fresh tree, driven by a decision
//! string: at step `i`, bit `i` of the schedule id says which operation
//! advances. Each operation is a `raw::Stepper`, which takes one step at a
//! time of the same machine `insert_entry` and `remove_key` run (helping
//! after failed flags and marks, backtracking, retrying).

use nbbst::core::raw::Stepper;
use nbbst::NbBst;
use std::collections::BTreeSet;

/// One operation to interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Insert(u64),
    Delete(u64),
}

/// The operation as a stepped driver of the shipped control flow.
fn stepper(tree: &NbBst<u64, u64>, op: Op) -> Stepper<'_, u64, u64> {
    match op {
        Op::Insert(k) => Stepper::insert(tree, k, k),
        Op::Delete(k) => Stepper::delete(tree, k),
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
    let mut da = stepper(&tree, a);
    let mut db = stepper(&tree, b);

    let mut steps = 0u32;
    while !(da.is_finished() && db.is_finished()) {
        assert!(
            steps < 64,
            "schedule {schedule:#b} for {a:?} || {b:?} did not terminate"
        );
        let pick_a = (schedule >> steps) & 1 == 0;
        if pick_a && !da.is_finished() {
            da.step();
        } else if !db.is_finished() {
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
