//! A census of ALL interleavings of two-phase naive operations: exactly
//! which schedules produce the Figure 3 anomalies, and how many.
//!
//! A naive (single-CAS) operation has two steps: *prepare* (search + build
//! against the current tree) and *commit* (the one CAS). Two concurrent
//! operations A and B therefore admit six interleavings of
//! `{pa, ca} x {pb, cb}` with per-op order. The census classifies each
//! outcome against the final states admissible given what each operation
//! *reported* — showing the anomaly is not an exotic corner but two
//! thirds of the overlapped schedule space for the Figure 3 pairs —
//! while the matching EFRB enumeration (`schedule_enumeration.rs`) shows
//! zero anomalous schedules for the same pairs.

use nbbst::baselines::naive::{CommitOutcome, NaiveBst};
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Insert(u64),
    Delete(u64),
}

/// All interleavings of two 2-step ops, as orderings of `[A, A, B, B]`
/// (first occurrence = prepare, second = commit).
const SCHEDULES: [[u8; 4]; 6] = [
    [0, 0, 1, 1], // A then B (sequential)
    [0, 1, 0, 1], // pa pb ca cb
    [0, 1, 1, 0], // pa pb cb ca
    [1, 0, 0, 1], // pb pa ca cb
    [1, 0, 1, 0], // pb pa cb ca
    [1, 1, 0, 0], // B then A (sequential)
];

enum Staged<'t> {
    NotPrepared(Op),
    PreparedIns(nbbst::baselines::naive::PreparedInsert<'t, u64, u64>),
    PreparedDel(nbbst::baselines::naive::PreparedDelete<'t, u64, u64>),
    /// Finished; `true` means the operation REPORTED success (its CAS
    /// applied) — the census holds it to that claim.
    Done(bool),
}

impl<'t> Staged<'t> {
    fn step(&mut self, tree: &'t NaiveBst<u64, u64>) {
        let cur = std::mem::replace(self, Staged::Done(false));
        *self = match cur {
            Staged::NotPrepared(Op::Insert(k)) => match tree.prepare_insert(k, k) {
                Some(p) => Staged::PreparedIns(p),
                None => Staged::Done(false), // duplicate: reported false
            },
            Staged::NotPrepared(Op::Delete(k)) => match tree.prepare_delete(&k) {
                Some(p) => Staged::PreparedDel(p),
                None => Staged::Done(false), // not found: reported false
            },
            Staged::PreparedIns(p) => {
                // The naive one-shot op would retry on CAS failure; for the
                // census each op commits at most once (failure = op lost,
                // reported as such).
                Staged::Done(matches!(p.commit(), CommitOutcome::Applied))
            }
            Staged::PreparedDel(p) => Staged::Done(matches!(p.commit(), CommitOutcome::Applied)),
            done => done,
        };
    }

    fn reported_success(&self) -> bool {
        matches!(self, Staged::Done(true))
    }
}

fn apply(set: &mut BTreeSet<u64>, op: Op) {
    match op {
        Op::Insert(k) => {
            set.insert(k);
        }
        Op::Delete(k) => {
            set.remove(&k);
        }
    }
}

/// The final states admissible given which operations REPORTED success:
/// every successful op must take effect, in some order; failed ops take
/// none.
fn admissible(initial: &[u64], applied: &[Op]) -> Vec<BTreeSet<u64>> {
    let mut out = Vec::new();
    let orders: Vec<Vec<Op>> = match applied {
        [] => vec![vec![]],
        [x] => vec![vec![*x]],
        [x, y] => vec![vec![*x, *y], vec![*y, *x]],
        _ => unreachable!("census is pairwise"),
    };
    for order in orders {
        let mut set: BTreeSet<u64> = initial.iter().copied().collect();
        for op in order {
            apply(&mut set, op);
        }
        if !out.contains(&set) {
            out.push(set);
        }
    }
    out
}

/// Runs the census; returns how many of the six schedules produced a
/// final state OUTSIDE everything any sequence of committed/failed ops
/// could produce — i.e. true lost-update anomalies.
fn census(initial: &[u64], a: Op, b: Op) -> usize {
    let mut anomalies = 0;
    for schedule in SCHEDULES {
        let tree: NaiveBst<u64, u64> = NaiveBst::new();
        for &k in initial {
            assert!(tree.insert(k, k));
        }
        let mut ops = [Staged::NotPrepared(a), Staged::NotPrepared(b)];
        for pick in schedule {
            ops[pick as usize].step(&tree);
        }
        // Which operations claim to have taken effect?
        let mut applied = Vec::new();
        if ops[0].reported_success() {
            applied.push(a);
        }
        if ops[1].reported_success() {
            applied.push(b);
        }
        let legal = admissible(initial, &applied);
        let final_keys: BTreeSet<u64> = tree.keys_snapshot().into_iter().collect();
        if !legal.contains(&final_keys) {
            anomalies += 1;
        }
    }
    anomalies
}

#[test]
fn figure3b_pair_is_anomalous_in_four_of_six_schedules() {
    // Delete(C=30) || Delete(E=50) on the Figure 3(a) tree: every
    // schedule in which both operations prepare before both have
    // committed loses one of the deletes — 4 of the 6 interleavings;
    // only the two fully sequential ones are safe.
    let anomalies = census(&[10, 30, 50, 80], Op::Delete(30), Op::Delete(50));
    assert_eq!(anomalies, 4, "all overlapped orders resurrect a key");
}

#[test]
fn figure3c_pair_is_anomalous_in_four_of_six_schedules() {
    // Delete(E=50) || Insert(F=60): the insert is lost (or the delete
    // resurrected) in every overlapped interleaving — 4 of 6.
    let anomalies = census(&[10, 30, 50, 80], Op::Delete(50), Op::Insert(60));
    assert_eq!(anomalies, 4, "all overlapped orders lose an update");
}

#[test]
fn same_leaf_inserts_are_honest_even_naively() {
    // Two inserts racing for the SAME leaf CAS the same slot: the loser's
    // CAS fails and it honestly reports failure, so no anomaly — the
    // Figure 3 bugs specifically need a *stale sibling/child snapshot*,
    // which inserts alone cannot create.
    assert_eq!(census(&[10, 30, 50, 80], Op::Insert(25), Op::Insert(35)), 0);
}

#[test]
fn disjoint_pairs_are_never_anomalous_even_naively() {
    // Operations on well-separated parts of the tree cannot interfere
    // even without flags — the anomaly needs overlapping neighborhoods
    // (shared parent/grandparent), exactly as the paper's Figure 3
    // geometry shows.
    assert_eq!(census(&[10, 20, 70, 80], Op::Delete(10), Op::Delete(80)), 0);
    assert_eq!(census(&[10, 20, 70, 80], Op::Insert(15), Op::Insert(75)), 0);
}

#[test]
fn sequential_schedules_are_always_clean() {
    // Schedules 0 and 5 are sequential; they can never be anomalous, for
    // any pair. (Guards the census machinery itself.)
    for (a, b) in [
        (Op::Delete(30), Op::Delete(50)),
        (Op::Delete(50), Op::Insert(60)),
        (Op::Insert(25), Op::Insert(35)),
    ] {
        for schedule in [SCHEDULES[0], SCHEDULES[5]] {
            let tree: NaiveBst<u64, u64> = NaiveBst::new();
            for k in [10, 30, 50, 80] {
                tree.insert(k, k);
            }
            let mut ops = [Staged::NotPrepared(a), Staged::NotPrepared(b)];
            for pick in schedule {
                ops[pick as usize].step(&tree);
            }
            let mut applied = Vec::new();
            if ops[0].reported_success() {
                applied.push(a);
            }
            if ops[1].reported_success() {
                applied.push(b);
            }
            let legal = admissible(&[10, 30, 50, 80], &applied);
            let final_keys: BTreeSet<u64> = tree.keys_snapshot().into_iter().collect();
            assert!(legal.contains(&final_keys), "{a:?}/{b:?} {schedule:?}");
        }
    }
}
