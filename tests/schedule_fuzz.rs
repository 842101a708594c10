//! Randomized CAS-step interleaving fuzzing for 3–4 concurrent stepped
//! operations (the exhaustive enumeration in `schedule_enumeration.rs`
//! covers pairs completely; triples/quadruples are sampled with seeded
//! RNG so failures replay deterministically).
//!
//! Validation per schedule: the final key set must equal the result of
//! applying the operations in SOME sequential order (since each stepped
//! op runs start-to-finish within the schedule, any permutation is an
//! admissible linearization), and the tree must satisfy its structural
//! and Figure-4 invariants.

use nbbst::core::raw::Stepper;
use nbbst::NbBst;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

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

/// Final key sets admissible under any sequential ordering of `ops`.
fn admissible_outcomes(initial: &[u64], ops: &[Op]) -> Vec<BTreeSet<u64>> {
    fn permutations(ops: &[Op]) -> Vec<Vec<Op>> {
        if ops.len() <= 1 {
            return vec![ops.to_vec()];
        }
        let mut out = Vec::new();
        for i in 0..ops.len() {
            let mut rest = ops.to_vec();
            let x = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, x);
                out.push(tail);
            }
        }
        out
    }
    let mut outcomes: Vec<BTreeSet<u64>> = Vec::new();
    for perm in permutations(ops) {
        let mut set: BTreeSet<u64> = initial.iter().copied().collect();
        for op in perm {
            match op {
                Op::Insert(k) => {
                    set.insert(k);
                }
                Op::Delete(k) => {
                    set.remove(&k);
                }
            }
        }
        if !outcomes.contains(&set) {
            outcomes.push(set);
        }
    }
    outcomes
}

fn run_random_schedule(initial: &[u64], ops: &[Op], seed: u64) {
    let tree: NbBst<u64, u64> = NbBst::with_stats();
    for &k in initial {
        tree.insert_entry(k, k).unwrap();
    }
    let mut drivers: Vec<Stepper<'_, u64, u64>> =
        ops.iter().map(|&op| stepper(&tree, op)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut steps = 0;
    while drivers.iter().any(|d| !d.is_finished()) {
        steps += 1;
        assert!(steps < 512, "seed {seed}: schedule did not terminate");
        let live: Vec<usize> = drivers
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_finished())
            .map(|(i, _)| i)
            .collect();
        let pick = live[rng.gen_range(0..live.len())];
        drivers[pick].step();
    }
    drop(drivers);

    let final_keys: BTreeSet<u64> = tree.keys_snapshot().into_iter().collect();
    let admissible = admissible_outcomes(initial, ops);
    assert!(
        admissible.contains(&final_keys),
        "seed {seed}: ops {ops:?} produced {final_keys:?}, admissible {admissible:?}"
    );
    tree.check_invariants()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    tree.stats()
        .unwrap()
        .check_figure4()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
}

#[test]
fn fuzz_three_ops_hot_neighborhood() {
    let initial = [10u64, 30, 50, 80];
    let ops = [Op::Insert(60), Op::Delete(50), Op::Delete(30)];
    for seed in 0..3_000 {
        run_random_schedule(&initial, &ops, seed);
    }
}

#[test]
fn fuzz_three_ops_same_key() {
    let initial = [10u64, 30];
    let ops = [Op::Insert(20), Op::Delete(20), Op::Insert(20)];
    for seed in 0..3_000 {
        run_random_schedule(&initial, &ops, seed);
    }
}

#[test]
fn fuzz_four_ops_mixed() {
    let initial = [10u64, 20, 30, 40, 50];
    let ops = [
        Op::Insert(25),
        Op::Delete(20),
        Op::Delete(30),
        Op::Insert(35),
    ];
    for seed in 0..2_000 {
        run_random_schedule(&initial, &ops, seed);
    }
}

#[test]
fn fuzz_four_deletes_of_adjacent_keys() {
    let initial = [10u64, 20, 30, 40, 50, 60];
    let ops = [
        Op::Delete(20),
        Op::Delete(30),
        Op::Delete(40),
        Op::Delete(50),
    ];
    for seed in 0..2_000 {
        run_random_schedule(&initial, &ops, seed);
    }
}

#[test]
fn fuzz_random_op_sets() {
    let mut rng = SmallRng::seed_from_u64(0xF00D);
    for round in 0..400 {
        let initial: Vec<u64> = (0..8u64).map(|i| i * 10).collect();
        let ops: Vec<Op> = (0..3)
            .map(|_| {
                let k = rng.gen_range(0..9u64) * 10 + if rng.gen() { 5 } else { 0 };
                if rng.gen() {
                    Op::Insert(k)
                } else {
                    Op::Delete(k)
                }
            })
            .collect();
        for seed in 0..40 {
            run_random_schedule(&initial, &ops, round * 1_000 + seed);
        }
    }
}
