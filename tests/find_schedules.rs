//! Exhaustive interleavings of a stepped `Find` against one concurrent
//! update — the paper's Search lemma, mechanized:
//!
//! "we must ensure that searches do not go down a wrong path and miss the
//! element for which they are searching, when updates are happening
//! concurrently" (Section 1); the proof shows every node a Search visits
//! was on the search path for its key at some time during the Search, so
//! the reached leaf supports a legal linearization point.
//!
//! For every decision string, the Find's answer must be consistent with
//! the key's membership at SOME instant within the Find's execution
//! window: if the key's membership never changes during the window, the
//! answer must equal that constant; if a concurrent update flips it, both
//! answers are legal.

use nbbst::core::raw::{RawFind, Stepper};
use nbbst::NbBst;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Insert(u64),
    Delete(u64),
}

/// The update as a stepped driver of the shipped control flow.
fn stepper(tree: &NbBst<u64, u64>, op: Op) -> Stepper<'_, u64, u64> {
    match op {
        Op::Insert(k) => Stepper::insert(tree, k, k),
        Op::Delete(k) => Stepper::delete(tree, k),
    }
}

/// Runs one interleaving; returns the Find's answer.
fn run_schedule(initial: &[u64], find_key: u64, update: Op, schedule: u64) -> bool {
    let tree: NbBst<u64, u64> = NbBst::new();
    for &k in initial {
        tree.insert_entry(k, k).unwrap();
    }
    let mut find = RawFind::new(&tree, find_key);
    let mut upd = stepper(&tree, update);
    let mut find_done = false;
    let mut steps = 0u32;
    while !find_done || !upd.is_finished() {
        assert!(steps < 64, "schedule {schedule:#b} diverged");
        let pick_find = (schedule >> steps) & 1 == 0;
        if pick_find && !find_done {
            find_done = find.step();
        } else if !upd.is_finished() {
            upd.step();
        } else {
            find_done = find.step();
        }
        steps += 1;
    }
    let answer = find.result().expect("find reached a leaf");
    drop(find);
    drop(upd);
    tree.check_invariants().unwrap();
    answer
}

fn enumerate(initial: &[u64], find_key: u64, update: Op, legal: &[bool]) {
    for schedule in 0..(1u64 << 14) {
        let answer = run_schedule(initial, find_key, update, schedule);
        assert!(
            legal.contains(&answer),
            "schedule {schedule:#b}: Find({find_key}) returned {answer}, legal {legal:?} (update {update:?})"
        );
    }
}

#[test]
fn find_never_misses_a_stable_present_key() {
    // The key is present throughout; the concurrent update touches its
    // neighborhood. The Find must ALWAYS return true — this is exactly
    // the wrong-path hazard the flag/mark protocol prevents.
    enumerate(&[10, 30, 50], 30, Op::Delete(50), &[true]);
    enumerate(&[10, 30, 50], 30, Op::Insert(40), &[true]);
    enumerate(&[10, 30, 50], 10, Op::Delete(30), &[true]);
}

#[test]
fn find_never_conjures_a_stable_absent_key() {
    // The key is absent throughout: Find must ALWAYS return false.
    enumerate(&[10, 30, 50], 40, Op::Delete(30), &[false]);
    enumerate(&[10, 30, 50], 20, Op::Insert(25), &[false]);
}

#[test]
fn find_racing_insert_of_its_key_may_see_either() {
    // Both answers are linearizable; what is NOT allowed is a crash or a
    // third outcome, and the answer must be justified per-schedule:
    // deterministically, schedule 0 (find runs first) must say false and
    // the all-update-first schedule must say true.
    let all_find_first = 0u64; // zeros: find steps first until done
    assert!(!run_schedule(&[10, 30], 20, Op::Insert(20), all_find_first));
    let all_update_first = u64::MAX; // ones: update runs to completion first
    assert!(run_schedule(
        &[10, 30],
        20,
        Op::Insert(20),
        all_update_first
    ));
    enumerate(&[10, 30], 20, Op::Insert(20), &[true, false]);
}

#[test]
fn find_racing_delete_of_its_key_may_see_either() {
    let all_find_first = 0u64;
    assert!(run_schedule(
        &[10, 20, 30],
        20,
        Op::Delete(20),
        all_find_first
    ));
    let all_update_first = u64::MAX;
    assert!(!run_schedule(
        &[10, 20, 30],
        20,
        Op::Delete(20),
        all_update_first
    ));
    enumerate(&[10, 20, 30], 20, Op::Delete(20), &[true, false]);
}
