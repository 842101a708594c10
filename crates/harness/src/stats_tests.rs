//! Extra cross-module tests for the harness: runner/workload/linearize
//! interplay, exercised against an in-crate reference dictionary.
//!
//! (Separate file to keep each module's inline tests focused on its own
//! unit behaviour.)

#![cfg(test)]

use crate::{
    check_linearizable, prefill, record_history, run_for, run_ops, validate_after_run, CompletedOp,
    Histogram, KeyDist, OpMix, WorkloadSpec,
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

#[test]
fn histogram_composes_with_runner() {
    let spec = WorkloadSpec::read_heavy(64);
    let map = Locked::default();
    prefill(&map, &spec);
    let r = run_for(&map, &spec, 2, Duration::from_millis(30));
    let h: &Histogram = &r.latency;
    assert!(h.count() > 0);
    assert!(h.percentile(50.0) <= h.percentile(99.9));
    assert!(h.min() <= h.max());
}

#[test]
fn fairness_is_one_for_equal_workers() {
    let spec = WorkloadSpec::read_heavy(64);
    let map = Locked::default();
    let r = run_ops(&map, &spec, 4, 100);
    assert_eq!(r.fairness(), 1.0, "run_ops gives every worker equal ops");
}

/// Merging partial histograms (per-thread or per-shard) must behave like
/// a commutative monoid over the recorded multiset: these tests pin the
/// properties the sharded frontend's merged reporting relies on.
mod histogram_merge {
    use super::Histogram;

    fn recorded(values: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h
    }

    fn same_summary(a: &Histogram, b: &Histogram) {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.mean(), b.mean());
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(a.percentile(p), b.percentile(p), "p{p}");
        }
    }

    #[test]
    fn merge_is_associative() {
        // Three per-shard partials with very different ranges; both
        // association orders must agree on every summary statistic
        // (bucket counts add, so this is exact, not approximate).
        let parts = || {
            [
                recorded((0..500).map(|v| v * 7 % 300)),
                recorded((0..500).map(|v| 1_000 + v * 13 % 5_000)),
                recorded((0..500).map(|v| 100_000 + v * 31)),
            ]
        };
        let [a1, b1, c1] = parts();
        let [a2, mut b2, c2] = parts();

        // (a ⊕ b) ⊕ c
        let mut left = a1.clone();
        left.merge(&b1);
        left.merge(&c1);
        // a ⊕ (b ⊕ c)
        b2.merge(&c2);
        let mut right = a2.clone();
        right.merge(&b2);

        same_summary(&left, &right);
    }

    #[test]
    fn merge_is_commutative_and_count_preserving() {
        let a = recorded((0..1_000).map(|v| v * 17 % 4_096));
        let b = recorded((0..250).map(|v| v * 97 % 65_536));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);

        same_summary(&ab, &ba);
        assert_eq!(ab.count(), a.count() + b.count());
    }

    #[test]
    fn empty_is_identity() {
        let a = recorded([5, 500, 50_000]);
        let mut merged = a.clone();
        merged.merge(&Histogram::new());
        same_summary(&merged, &a);

        let mut from_empty = Histogram::new();
        from_empty.merge(&a);
        same_summary(&from_empty, &a);
    }

    #[test]
    fn merged_quantile_error_stays_bounded() {
        // 1..=100_000 split round-robin across 4 "shards": after merging,
        // the documented ~6% relative quantile error bound (log buckets ×
        // 16 sub-buckets) must still hold — merging adds bucket counts and
        // never widens buckets, so the bound is unchanged.
        let mut shards = vec![Histogram::new(); 4];
        for v in 1..=100_000u64 {
            shards[(v % 4) as usize].record(v);
        }
        let mut merged = Histogram::new();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.count(), 100_000);
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = (p / 100.0 * 100_000.0) as u64;
            let approx = merged.percentile(p);
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.08, "p{p}: exact {exact} approx {approx} err {err}");
        }
    }
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
