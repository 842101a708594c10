//! Extra cross-module tests for the harness: runner/workload/linearize
//! interplay, exercised against an in-crate reference dictionary.
//!
//! (Separate file to keep each module's inline tests focused on its own
//! unit behaviour.)

#![cfg(test)]

use crate::{
    check_linearizable, prefill, record_history, run_for, run_ops, validate_after_run, CompletedOp,
    KeyDist, OpMix, WorkloadSpec,
};
use nbbst_dictionary::{ConcurrentMap, Operation, Response, SeqMap};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

#[derive(Default)]
struct Locked(Mutex<BTreeMap<u64, u64>>);
impl ConcurrentMap<u64, u64> for Locked {
    fn insert(&self, k: u64, v: u64) -> bool {
        SeqMap::insert(&mut *self.0.lock().unwrap(), k, v)
    }
    fn remove(&self, k: &u64) -> bool {
        SeqMap::remove(&mut *self.0.lock().unwrap(), k)
    }
    fn contains(&self, k: &u64) -> bool {
        SeqMap::contains(&*self.0.lock().unwrap(), k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        SeqMap::get(&*self.0.lock().unwrap(), k)
    }
    fn quiescent_len(&self) -> usize {
        self.0.lock().unwrap().len()
    }
}

#[test]
fn prefill_then_duration_run_accounts_exactly_for_every_mix() {
    for mix in [
        OpMix::READ_ONLY,
        OpMix::READ_HEAVY,
        OpMix::BALANCED,
        OpMix::UPDATE_ONLY,
    ] {
        let spec = WorkloadSpec {
            mix,
            ..WorkloadSpec::read_heavy(128)
        };
        let map = Locked::default();
        prefill(&map, &spec);
        let r = run_for(&map, &spec, 2, Duration::from_millis(30));
        validate_after_run(&map, &spec, &r).unwrap_or_else(|e| panic!("{mix}: {e}"));
        if mix == OpMix::READ_ONLY {
            assert_eq!(r.successful_inserts + r.successful_deletes, 0);
        }
    }
}

#[test]
fn zipf_workload_accounts_exactly() {
    let spec = WorkloadSpec {
        dist: KeyDist::Zipf { theta: 0.8 },
        mix: OpMix::BALANCED,
        ..WorkloadSpec::read_heavy(512)
    };
    let map = Locked::default();
    prefill(&map, &spec);
    let r = run_ops(&map, &spec, 3, 2_000);
    validate_after_run(&map, &spec, &r).unwrap();
}

#[test]
fn recorded_histories_have_coherent_timestamps() {
    let spec = WorkloadSpec {
        key_range: 8,
        mix: OpMix::BALANCED,
        dist: KeyDist::Uniform,
        prefill_fraction: 0.0,
        seed: 3,
    };
    let map = Locked::default();
    let history = record_history(&map, &spec, 3, 10);
    assert_eq!(history.len(), 30);
    let mut ticks: Vec<u64> = Vec::new();
    for op in &history {
        assert!(op.invoked < op.returned, "interval must be well-formed");
        ticks.push(op.invoked);
        ticks.push(op.returned);
    }
    ticks.sort_unstable();
    ticks.dedup();
    assert_eq!(ticks.len(), 60, "ticks are unique (one per counter bump)");
    check_linearizable(&history, &[]).expect("locked map is trivially linearizable");
}

#[test]
fn checker_rejects_tampered_history() {
    let spec = WorkloadSpec {
        key_range: 4,
        mix: OpMix::UPDATE_ONLY,
        dist: KeyDist::Uniform,
        prefill_fraction: 0.0,
        seed: 9,
    };
    let map = Locked::default();
    let mut history = record_history(&map, &spec, 2, 8);
    // Flip a successful insert's response: the history must now be
    // rejected (or, if that op's response was already False and flipping
    // makes it True while absent — either direction breaks something
    // given a full 16-op update history over 4 keys).
    let idx = history
        .iter()
        .position(|c| matches!(c.op, Operation::Insert(..)))
        .expect("some insert");
    let flipped = CompletedOp {
        response: Response::from(!history[idx].response.as_bool()),
        ..history[idx]
    };
    history[idx] = flipped;
    assert!(
        check_linearizable(&history, &[]).is_err(),
        "tampered history must be rejected"
    );
}

/// The sharded frontend reports `StatsSnapshot::merged` over per-shard
/// Figure-4 counters; these tests pin the algebra that makes the merged
/// snapshot meaningful.
mod snapshot_merge {
    use nbbst_core::StatsSnapshot;

    fn sample(scale: u64) -> StatsSnapshot {
        // A self-consistent per-shard snapshot: each identity in
        // `check_figure4` holds (they are all linear equalities).
        StatsSnapshot {
            finds: 10 * scale,
            inserts: 6 * scale,
            deletes: 5 * scale,
            inserts_true: 4 * scale,
            deletes_true: 3 * scale,
            searches: 30 * scale,
            iflag_attempts: 5 * scale,
            iflag_success: 4 * scale,
            ichild_success: 4 * scale,
            iunflag_success: 4 * scale,
            dflag_attempts: 5 * scale,
            dflag_success: 4 * scale,
            mark_attempts: 4 * scale,
            mark_success: 3 * scale,
            dchild_success: 3 * scale,
            dunflag_success: 3 * scale,
            backtrack_success: scale,
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (sample(1), sample(7), sample(100));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&StatsSnapshot::default()), a);
    }

    #[test]
    fn merged_preserves_totals_and_figure4() {
        let shards = [sample(1), sample(2), sample(3), sample(4)];
        for s in &shards {
            s.check_figure4().unwrap();
        }
        let merged = StatsSnapshot::merged(shards);
        assert_eq!(merged.finds, 10 * (1 + 2 + 3 + 4));
        assert_eq!(merged.inserts_true, 4 * (1 + 2 + 3 + 4));
        // Figure-4 identities are linear, so they survive summation —
        // the property the sharded map's `stats()` relies on.
        merged.check_figure4().unwrap();
    }
}
