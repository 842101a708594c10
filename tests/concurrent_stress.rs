//! Cross-crate concurrent stress: every structure under the same
//! workloads, validated with the same accounting, plus EFRB-specific
//! invariant and Figure-4 verification under stress.

use nbbst::harness::{prefill, run_for, run_ops, validate_after_run, OpMix, WorkloadSpec};
use nbbst::{ConcurrentMap, NbBst, ShardedNbBst};
use std::time::Duration;

type DynMap = Box<dyn ConcurrentMap<u64, u64>>;

fn all_structures() -> Vec<(&'static str, DynMap)> {
    vec![
        ("nbbst", Box::new(NbBst::new())),
        (
            "nbbst-one-key-leaves",
            Box::new(NbBst::new().one_key_leaves()),
        ),
        ("sharded", Box::new(ShardedNbBst::new())),
        ("coarse", Box::new(nbbst::baselines::CoarseLockBst::new())),
    ]
}

#[test]
fn every_structure_survives_a_balanced_run_with_exact_accounting() {
    let spec = WorkloadSpec {
        mix: OpMix::BALANCED,
        ..WorkloadSpec::read_heavy(512)
    };
    for (name, map) in all_structures() {
        prefill(&*map, &spec);
        let r = run_ops(&*map, &spec, 4, 5_000);
        validate_after_run(&*map, &spec, &r).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn every_structure_survives_update_only_contention() {
    let spec = WorkloadSpec {
        mix: OpMix::UPDATE_ONLY,
        ..WorkloadSpec::read_heavy(32)
    };
    for (name, map) in all_structures() {
        prefill(&*map, &spec);
        let r = run_ops(&*map, &spec, 8, 3_000);
        validate_after_run(&*map, &spec, &r).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn efrb_timed_run_preserves_figure4_and_invariants() {
    let tree: NbBst<u64, u64> = NbBst::with_stats();
    let spec = WorkloadSpec {
        mix: OpMix::BALANCED,
        ..WorkloadSpec::read_heavy(1 << 10)
    };
    prefill(&tree, &spec);
    let r = run_for(&tree, &spec, 8, Duration::from_millis(300));
    validate_after_run(&tree, &spec, &r).unwrap();
    tree.check_invariants().unwrap();
    tree.stats().unwrap().check_figure4().unwrap();
}

#[test]
fn efrb_zipf_skewed_contention() {
    let tree: NbBst<u64, u64> = NbBst::with_stats();
    let spec = WorkloadSpec {
        mix: OpMix::BALANCED,
        dist: nbbst::harness::KeyDist::Zipf { theta: 0.99 },
        ..WorkloadSpec::read_heavy(1 << 12)
    };
    prefill(&tree, &spec);
    let r = run_for(&tree, &spec, 8, Duration::from_millis(300));
    validate_after_run(&tree, &spec, &r).unwrap();
    tree.check_invariants().unwrap();
    tree.stats().unwrap().check_figure4().unwrap();
}

#[test]
fn efrb_hotspot_contention() {
    let tree: NbBst<u64, u64> = NbBst::with_stats();
    let spec = WorkloadSpec {
        mix: OpMix::UPDATE_ONLY,
        dist: nbbst::harness::KeyDist::Hotspot {
            hot_fraction: 0.05,
            hot_access: 0.95,
        },
        ..WorkloadSpec::read_heavy(1 << 10)
    };
    prefill(&tree, &spec);
    let r = run_for(&tree, &spec, 8, Duration::from_millis(300));
    validate_after_run(&tree, &spec, &r).unwrap();
    tree.check_invariants().unwrap();
    tree.stats().unwrap().check_figure4().unwrap();
}

#[test]
fn reclamation_keeps_up_under_stress() {
    let tree: NbBst<u64, u64> = NbBst::new();
    let spec = WorkloadSpec {
        mix: OpMix::UPDATE_ONLY,
        ..WorkloadSpec::read_heavy(1 << 10)
    };
    prefill(&tree, &spec);
    run_for(&tree, &spec, 4, Duration::from_millis(300));
    assert!(
        tree.collector().try_drain(10_000),
        "reclamation fell behind: {:?}",
        tree.collector().stats()
    );
    let s = tree.collector().stats();
    assert!(s.retired > 0, "updates must retire garbage");
    assert_eq!(s.freed, s.retired);
}

#[test]
fn trees_can_be_created_and_dropped_in_bulk() {
    // Teardown correctness across many short-lived trees (Drop paths,
    // collector teardown, TLS handle purging).
    for i in 0..200u64 {
        let tree: NbBst<u64, u64> = NbBst::new();
        for k in 0..(i % 40) {
            tree.insert(k, k);
        }
        for k in 0..(i % 17) {
            tree.remove(&k);
        }
    }
}
