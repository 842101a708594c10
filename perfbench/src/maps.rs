//! The maps the benchmark drives, behind one small interface, plus the
//! fault-injecting wrapper the oracle-soundness tests use.

use nbbst_baselines::CoarseLockBst;
use nbbst_core::{NbBst, StatsSnapshot};
use nbbst_dictionary::ConcurrentMap;
use nbbst_reclaim::Collector;
use nbbst_sharded::ShardedNbBst;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::SpanLog;
use crate::workload::{Kind, Op, SCAN_KEYS};

/// What the benchmark calls. Every key maps to itself as its value.
pub trait BenchMap: Sync {
    fn insert(&self, key: u64) -> bool;
    fn remove(&self, key: u64) -> bool;
    fn contains(&self, key: u64) -> bool;
    /// Entries with keys in `lo ..= hi`, ascending.
    fn scan(&self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
    /// The map's own structural check, at quiescence.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The result of one operation.
#[derive(Debug)]
pub enum Outcome {
    Point(bool),
    Scan(Vec<(u64, u64)>),
}

/// Runs `op` on `map`.
#[inline]
pub fn exec<M: BenchMap + ?Sized>(map: &M, op: Op) -> Outcome {
    match op.kind {
        Kind::Find => Outcome::Point(map.contains(op.key)),
        Kind::Insert => Outcome::Point(map.insert(op.key)),
        Kind::Delete => Outcome::Point(map.remove(op.key)),
        Kind::Scan => Outcome::Scan(map.scan(op.key, op.key + SCAN_KEYS - 1)),
    }
}

impl BenchMap for NbBst<u64, u64> {
    fn insert(&self, key: u64) -> bool {
        self.insert_entry(key, key).is_ok()
    }
    fn remove(&self, key: u64) -> bool {
        self.remove_key(&key)
    }
    fn contains(&self, key: u64) -> bool {
        self.contains_key(&key)
    }
    fn scan(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.range_snapshot(Bound::Included(&lo), Bound::Included(&hi))
    }
    fn check(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

impl BenchMap for ShardedNbBst<u64, u64> {
    fn insert(&self, key: u64) -> bool {
        self.insert_entry(key, key).is_ok()
    }
    fn remove(&self, key: u64) -> bool {
        self.remove_key(&key)
    }
    fn contains(&self, key: u64) -> bool {
        self.contains_key(&key)
    }
    fn scan(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.range_snapshot(Bound::Included(&lo), Bound::Included(&hi))
    }
    fn check(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

/// The lock-based reference: it has no ordered reads, so a scan reads
/// each key of the range; that is exact for the keys the calling worker
/// owns, which is all the oracle checks.
impl BenchMap for CoarseLockBst<u64, u64> {
    fn insert(&self, key: u64) -> bool {
        ConcurrentMap::insert(self, key, key)
    }
    fn remove(&self, key: u64) -> bool {
        ConcurrentMap::remove(self, &key)
    }
    fn contains(&self, key: u64) -> bool {
        ConcurrentMap::contains(self, &key)
    }
    fn scan(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        (lo..=hi)
            .filter_map(|k| ConcurrentMap::get(self, &k).map(|v| (k, v)))
            .collect()
    }
}

/// A fault the soundness tests inject (`--inject`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Report the opposite of the true result of every N-th insert or
    /// remove (the update itself still happens).
    Flip(u64),
    /// `abort()` the process when the N-th operation starts.
    Abort(u64),
    /// Panic in the worker when the N-th operation starts.
    Panic(u64),
}

impl Fault {
    /// Parses `flip:N`, `abort:N` or `panic:N` (N ≥ 1).
    pub fn parse(s: &str) -> Option<Fault> {
        let (kind, n) = s.split_once(':')?;
        let n: u64 = n.parse().ok().filter(|&n| n > 0)?;
        match kind {
            "flip" => Some(Fault::Flip(n)),
            "abort" => Some(Fault::Abort(n)),
            "panic" => Some(Fault::Panic(n)),
            _ => None,
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Flip(n) => write!(f, "flip:{n}"),
            Fault::Abort(n) => write!(f, "abort:{n}"),
            Fault::Panic(n) => write!(f, "panic:{n}"),
        }
    }
}

/// Wraps a map and injects one [`Fault`].
pub struct Injected<M> {
    inner: M,
    fault: Fault,
    ops: AtomicU64,
    updates: AtomicU64,
}

impl<M> Injected<M> {
    pub fn new(inner: M, fault: Fault) -> Injected<M> {
        Injected {
            inner,
            fault,
            ops: AtomicU64::new(0),
            updates: AtomicU64::new(0),
        }
    }

    fn start_op(&self) {
        // Relaxed: a count, publishing nothing.
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        match self.fault {
            Fault::Abort(at) if n == at => std::process::abort(),
            Fault::Panic(at) if n == at => panic!("injected panic at operation {n}"),
            _ => {}
        }
    }

    fn update_result(&self, result: bool) -> bool {
        self.start_op();
        let n = self.updates.fetch_add(1, Ordering::Relaxed) + 1;
        match self.fault {
            Fault::Flip(every) if n.is_multiple_of(every) => !result,
            _ => result,
        }
    }
}

impl<M: BenchMap> BenchMap for Injected<M> {
    fn insert(&self, key: u64) -> bool {
        self.update_result(self.inner.insert(key))
    }
    fn remove(&self, key: u64) -> bool {
        self.update_result(self.inner.remove(key))
    }
    fn contains(&self, key: u64) -> bool {
        self.start_op();
        self.inner.contains(key)
    }
    fn scan(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.start_op();
        self.inner.scan(lo, hi)
    }
    fn check(&self) -> Result<(), String> {
        self.inner.check()
    }
}

/// Span names, one per layer boundary the traced run times.
pub mod span {
    pub const PIN: &str = "reclaim.pin";
    pub const FIND: &str = "core.find";
    pub const INSERT: &str = "core.insert";
    pub const REMOVE: &str = "core.remove";
    pub const SHARD_OF: &str = "sharded.shard_of";
    /// A whole scan, as the workload runs it.
    pub const SCAN: &str = "scan";
    /// One per-tree `NbBst::range_snapshot` inside a scan.
    pub const SHARD_SCAN: &str = "core.range_snapshot";
}

fn core_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Find => span::FIND,
        Kind::Insert => span::INSERT,
        Kind::Delete => span::REMOVE,
        Kind::Scan => span::SCAN,
    }
}

/// A map whose layers the traced run can time from outside, through
/// public functions of `nbbst-core`, `nbbst-reclaim` and `nbbst-sharded`.
pub trait Layered: BenchMap {
    fn collector(&self) -> &Collector;
    /// Figure-4 counters (the map must be built with stats).
    fn tree_stats(&self) -> StatsSnapshot;
    /// Height of the tallest tree.
    fn height(&self) -> usize;
    /// `max / mean` of per-shard operation counts (1 for one tree).
    fn imbalance(&self) -> f64;
    /// Runs a point operation, logging a span per layer call.
    fn traced_point(&self, op: Op, log: &mut SpanLog, id: u64) -> bool;
    /// Runs a scan, logging the whole call and its per-tree parts.
    fn traced_scan(&self, lo: u64, log: &mut SpanLog, id: u64) -> Vec<(u64, u64)>;
}

fn tree_point(tree: &NbBst<u64, u64>, op: Op, log: &mut SpanLog, id: u64) -> bool {
    log.time(core_span(op.kind), id, || match exec(tree, op) {
        Outcome::Point(b) => b,
        Outcome::Scan(_) => unreachable!("point operations only"),
    })
}

impl Layered for NbBst<u64, u64> {
    fn collector(&self) -> &Collector {
        NbBst::collector(self)
    }
    fn tree_stats(&self) -> StatsSnapshot {
        self.stats().expect("traced maps are built with stats")
    }
    fn height(&self) -> usize {
        NbBst::height(self)
    }
    fn imbalance(&self) -> f64 {
        1.0
    }
    fn traced_point(&self, op: Op, log: &mut SpanLog, id: u64) -> bool {
        tree_point(self, op, log, id)
    }
    fn traced_scan(&self, lo: u64, log: &mut SpanLog, id: u64) -> Vec<(u64, u64)> {
        // One tree is its own only shard: the whole scan is the per-tree call.
        let got = log.time(span::SHARD_SCAN, id, || self.scan(lo, lo + SCAN_KEYS - 1));
        log.copy_last_as(span::SCAN);
        got
    }
}

impl Layered for ShardedNbBst<u64, u64> {
    fn collector(&self) -> &Collector {
        ShardedNbBst::collector(self)
    }
    fn tree_stats(&self) -> StatsSnapshot {
        self.stats().expect("traced maps are built with stats")
    }
    fn height(&self) -> usize {
        self.shards().iter().map(NbBst::height).max().unwrap_or(0)
    }
    fn imbalance(&self) -> f64 {
        self.shard_load_report()
            .expect("traced maps are built with stats")
            .imbalance()
    }
    fn traced_point(&self, op: Op, log: &mut SpanLog, id: u64) -> bool {
        let shard = log.time(span::SHARD_OF, id, || self.shard_of(&op.key));
        tree_point(&self.shards()[shard], op, log, id)
    }
    fn traced_scan(&self, lo: u64, log: &mut SpanLog, id: u64) -> Vec<(u64, u64)> {
        let hi = lo + SCAN_KEYS - 1;
        let got = log.time(span::SCAN, id, || self.scan(lo, hi));
        // The default route hashes, so every shard covers the range; the
        // per-shard snapshots are repeated here only to be timed.
        for tree in self.shards() {
            std::hint::black_box(log.time(span::SHARD_SCAN, id, || tree.scan(lo, hi)));
        }
        got
    }
}
