//! # nbbst-sharded — horizontal partitioning over the EFRB tree
//!
//! A single EFRB tree ([`NbBst`]) serializes nothing, but under
//! write-heavy traffic its throughput ceiling is *contention*: every
//! update must flag the parent (and for deletes, the grandparent) with a
//! CAS, and near the root those words are shared by most of the key
//! space. The literature shrinks the contention window per update
//! (Chatterjee et al.) or fans keys across wider nodes (ELB-trees); the
//! cheapest composable route to the same end is **horizontal**:
//! [`ShardedNbBst`] partitions the key space across a power-of-two array
//! of independent EFRB trees, so update CASes on different shards can
//! never contend, while each shard keeps the paper's lock-freedom and
//! linearizability untouched.
//!
//! ## Why the composition stays linearizable
//!
//! Routing is *pure* (see [`ShardRoute`]): a key maps to exactly one
//! shard for the lifetime of the map. Every dictionary operation touches
//! exactly one key, hence exactly one shard, and linearizability is a
//! **local** property (Herlihy & Wing, Theorem: a history is linearizable
//! iff its per-object subhistories are) — so the composition of
//! linearizable shards under pure per-key routing is linearizable. This
//! is also locked empirically by `tests/linearizability.rs`, including an
//! adversarial route that funnels every key through one shard.
//!
//! ## One reclamation domain
//!
//! All shards clone a single [`Collector`], so retirements from every
//! shard land in one evictable-bag registry (DESIGN.md §10): a thread
//! pinned while operating on shard 3 steals and frees garbage a parked
//! thread published while updating shard 5, and teardown of the whole
//! map drains everything when the last collector clone drops. Sharding
//! therefore adds **no** new stranded-garbage scenarios over the single
//! tree.
//!
//! ## Ordered reads across shards
//!
//! Per-shard trees are ordered, so the frontend offers global ordered
//! reads — [`ShardedNbBst::range_snapshot`], [`ShardedNbBst::min_key`],
//! [`ShardedNbBst::max_key`], [`ShardedNbBst::for_each_entry`]. A route
//! may send a key anywhere, so every shard may own keys in any interval:
//! the frontend takes all per-shard snapshots and **k-way-merges** them.
//! The result is weakly consistent (exact at quiescence), like the
//! per-shard snapshots it is built from. [`ShardedNbBst::shard_load_report`]
//! names the hot shard when a route or a skewed key distribution
//! concentrates traffic.
//!
//! ## What `size` means here
//!
//! [`ShardedNbBst::len_slow`] (and `quiescent_len`) sums per-shard
//! counts taken one shard at a time — a *non-atomic snapshot*. See the
//! method docs for the exact guarantee.
//!
//! ```
//! use nbbst_sharded::ShardedNbBst;
//! use nbbst_dictionary::ConcurrentMap;
//!
//! let map: ShardedNbBst<u64, &str> = ShardedNbBst::with_shards(8);
//! assert_eq!(map.shard_count(), 8);
//! assert!(map.insert(7, "seven"));
//! assert!(!map.insert(7, "SEVEN")); // duplicates rejected, per the paper
//! assert_eq!(map.get(&7), Some("seven"));
//! assert!(map.remove(&7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use nbbst_core::{NbBst, StatsSnapshot};
use nbbst_dictionary::{ConcurrentMap, FibonacciRoute, ShardRoute};
use nbbst_reclaim::Collector;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::hash::Hash;
use std::ops::Bound;

/// A dictionary sharded over independent EFRB trees.
///
/// Keys are split across `shard_count()` (a power of two) trees by a
/// pluggable [`ShardRoute`]; the default [`FibonacciRoute`] hash-mixes
/// keys so even adversarially sequential key streams spread evenly. All
/// shards share one reclamation [`Collector`].
///
/// The type implements [`ConcurrentMap`] end to end, so the workspace's
/// harness, benches, and linearizability checker drive it unchanged.
///
/// # Examples
///
/// Concurrent use — shards remove the root-CAS contention ceiling for
/// write-heavy mixes:
///
/// ```
/// use nbbst_sharded::ShardedNbBst;
/// use nbbst_dictionary::ConcurrentMap;
///
/// let map: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(4);
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let map = &map;
///         s.spawn(move || {
///             for i in 0..100 {
///                 map.insert(t * 100 + i, i);
///             }
///         });
///     }
/// });
/// assert_eq!(map.quiescent_len(), 400);
/// ```
pub struct ShardedNbBst<K, V, R = FibonacciRoute> {
    /// Declared before `collector` so shards (and their collector clones)
    /// drop first; the struct's own clone then drops last among fields.
    shards: Box<[NbBst<K, V>]>,
    /// `shard_count() - 1`; kept for the `Debug` impl and cheap asserts
    /// (routes receive the count, not the mask).
    mask: usize,
    route: R,
    collector: Collector,
}

/// The default shard count: `next_pow2(4 × available_parallelism)`.
///
/// Four shards per hardware thread keeps the probability that two
/// concurrent updates collide on one shard low (birthday bound) without
/// inflating per-shard fixed costs; rounding to a power of two lets
/// routes use shifts/masks.
pub fn default_shard_count() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (4 * hw).next_power_of_two()
}

impl<K, V> ShardedNbBst<K, V, FibonacciRoute>
where
    K: Ord + Clone + Hash,
    V: Clone,
{
    /// Creates a map with [`default_shard_count`] shards and the default
    /// [`FibonacciRoute`] splitter.
    pub fn new() -> Self {
        Self::with_shards(default_shard_count())
    }

    /// Creates a map with `shards` shards (rounded up to a power of two,
    /// minimum 1) and the default route.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_route_and_shards(FibonacciRoute, shards)
    }

    /// Like [`ShardedNbBst::new`], with Figure-4 counters attached to
    /// every shard (see [`ShardedNbBst::stats`]).
    pub fn with_stats() -> Self {
        Self::with_stats_and_shards(default_shard_count())
    }

    /// Like [`ShardedNbBst::with_shards`], with Figure-4 counters
    /// attached to every shard.
    pub fn with_stats_and_shards(shards: usize) -> Self {
        Self::with_stats_route_and_shards(FibonacciRoute, shards)
    }
}

impl<K, V, R> ShardedNbBst<K, V, R>
where
    K: Ord + Clone,
    V: Clone,
    R: ShardRoute<K>,
{
    /// Creates a map with a custom [`ShardRoute`] and `shards` shards
    /// (rounded up to a power of two, minimum 1).
    pub fn with_route_and_shards(route: R, shards: usize) -> Self {
        Self::build(route, shards, false)
    }

    /// [`ShardedNbBst::with_route_and_shards`] with Figure-4 counters
    /// attached to every shard.
    pub fn with_stats_route_and_shards(route: R, shards: usize) -> Self {
        Self::build(route, shards, true)
    }

    fn build(route: R, shards: usize, stats: bool) -> Self {
        let n = shards.max(1).next_power_of_two();
        let collector = Collector::new();
        let shards: Box<[NbBst<K, V>]> = (0..n)
            .map(|_| {
                if stats {
                    NbBst::with_stats_and_collector(collector.clone())
                } else {
                    NbBst::with_collector(collector.clone())
                }
            })
            .collect();
        ShardedNbBst {
            shards,
            mask: n - 1,
            route,
            collector,
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The index of the shard that owns `key`.
    pub fn shard_of(&self, key: &K) -> usize {
        let s = self.route.shard(key, self.shards.len());
        debug_assert!(s <= self.mask, "route returned out-of-range shard {s}");
        s & self.mask
    }

    /// The per-shard trees, in shard order (for tests and experiments;
    /// keys must still be routed via [`ShardedNbBst::shard_of`]).
    pub fn shards(&self) -> &[NbBst<K, V>] {
        &self.shards
    }

    /// The reclamation domain shared by every shard.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    #[inline]
    fn shard_for(&self, key: &K) -> &NbBst<K, V> {
        &self.shards[self.shard_of(key)]
    }

    /// Adds `key` with `value`; on duplicate, returns ownership of both
    /// (mirrors [`NbBst::insert_entry`]).
    ///
    /// # Errors
    ///
    /// `Err((key, value))` if the key was already present.
    pub fn insert_entry(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.shard_for(&key).insert_entry(key, value)
    }

    /// Removes `key`; returns `true` iff it was present.
    pub fn remove_key(&self, key: &K) -> bool {
        self.shard_for(key).remove_key(key)
    }

    /// Removes `key`, returning a clone of its value if it was present.
    pub fn remove_entry(&self, key: &K) -> Option<V> {
        self.shard_for(key).remove_entry(key)
    }

    /// `true` iff `key` is in the dictionary (the paper's `Find`, routed).
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_for(key).contains_key(key)
    }

    /// Like [`ShardedNbBst::contains_key`], returning a clone of the
    /// stored value.
    pub fn get_cloned(&self, key: &K) -> Option<V> {
        self.shard_for(key).get_cloned(key)
    }

    /// Total key count, summed shard by shard — a **non-atomic
    /// snapshot**.
    ///
    /// Each shard is counted at a different instant, so under concurrent
    /// updates the sum may correspond to no single point in time: an
    /// operation that moved the count on an already-counted shard while a
    /// later shard is being scanned is half-visible. The value is exact
    /// at quiescence (no update in flight), which is the only state the
    /// harness's validators read it in; treat it as an estimate
    /// otherwise. Keys never migrate between shards, so the error is
    /// bounded by the number of updates in flight during the scan.
    pub fn len_slow(&self) -> usize {
        self.shards.iter().map(NbBst::len_slow).sum()
    }

    /// Verifies every shard's BST + EFRB invariants (quiescent, for
    /// tests).
    ///
    /// # Errors
    ///
    /// Reports the first violating shard.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .check_invariants()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Merged Figure-4 counters over all shards, if the map was built
    /// with stats (see [`ShardedNbBst::with_stats`]).
    ///
    /// The merge is a field-wise sum ([`StatsSnapshot::merge`]); because
    /// every `check_figure4` identity is linear, identities that hold on
    /// each shard at quiescence hold on the merged snapshot too — locked
    /// by this crate's tests.
    pub fn stats(&self) -> Option<StatsSnapshot> {
        self.shard_stats().map(StatsSnapshot::merged)
    }

    /// Per-shard snapshots in shard order, if built with stats (for
    /// imbalance diagnostics: compare per-shard `searches`/`inserts`).
    pub fn shard_stats(&self) -> Option<Vec<StatsSnapshot>> {
        self.shards.iter().map(NbBst::stats).collect()
    }

    /// All `(key, value)` clones in `[lo, hi]`-style bounds, globally
    /// sorted by key. Weakly consistent (each shard is snapshotted at
    /// its own instant; exact at quiescence).
    ///
    /// Every shard is snapshotted and the results are k-way-merged.
    /// Inverted bounds yield an empty vector.
    ///
    /// # Examples
    ///
    /// ```
    /// use nbbst_sharded::ShardedNbBst;
    /// use std::ops::Bound;
    ///
    /// let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(4);
    /// for k in [5u64, 30, 55, 80] {
    ///     m.insert_entry(k, k).unwrap();
    /// }
    /// let mid = m.range_snapshot(Bound::Included(&30), Bound::Included(&55));
    /// assert_eq!(mid, vec![(30, 30), (55, 55)]);
    /// ```
    pub fn range_snapshot(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        merge_ordered(
            self.shards
                .iter()
                .map(|s| s.range_snapshot(lo, hi).into_iter())
                .collect(),
        )
    }

    /// The smallest key in the whole map (weakly consistent): the
    /// minimum over every shard's minimum.
    pub fn min_key(&self) -> Option<K> {
        self.shards.iter().filter_map(NbBst::min_key).min()
    }

    /// The largest key in the whole map (weakly consistent): the
    /// maximum over every shard's maximum.
    pub fn max_key(&self) -> Option<K> {
        self.shards.iter().filter_map(NbBst::max_key).max()
    }

    /// Applies `f` to every `(key, value)` in globally ascending key
    /// order (weakly consistent).
    ///
    /// Global order requires materializing and merging per-shard
    /// snapshots first, so entries are cloned and `f` receives
    /// references into the merged buffer.
    pub fn for_each_entry(&self, mut f: impl FnMut(&K, &V)) {
        for (k, v) in self.range_snapshot(Bound::Unbounded, Bound::Unbounded) {
            f(&k, &v);
        }
    }

    /// Per-shard load breakdown for hot-shard detection, if the map was
    /// built with stats (see [`ShardedNbBst::with_stats`]).
    ///
    /// A skewed key distribution or a custom route can concentrate
    /// traffic on one shard; this report is how you see it. Each
    /// [`ShardLoad`] carries the
    /// shard's completed operation count (finds + inserts + deletes from
    /// the Figure-4 counters) and its current key count; the report's
    /// [`ShardLoadReport::imbalance`] is `max / mean` of per-shard ops
    /// (`1.0` = perfectly even), and [`ShardLoadReport::hottest`] names
    /// the busiest shard.
    pub fn shard_load_report(&self) -> Option<ShardLoadReport> {
        let stats = self.shard_stats()?;
        let loads: Vec<ShardLoad> = stats
            .iter()
            .zip(self.shards.iter())
            .enumerate()
            .map(|(shard, (s, tree))| ShardLoad {
                shard,
                ops: s.finds + s.inserts + s.deletes,
                keys: tree.len_slow(),
            })
            .collect();
        Some(ShardLoadReport::new(loads))
    }
}

/// K-way merge of per-shard sorted snapshots into one sorted vector.
///
/// Routing is pure, so no key appears in two shards; ties are broken by
/// shard index anyway to keep the merge total without requiring
/// `V: Ord`.
fn merge_ordered<K: Ord, V>(mut iters: Vec<std::vec::IntoIter<(K, V)>>) -> Vec<(K, V)> {
    struct Entry<K, V> {
        key: K,
        value: V,
        shard: usize,
    }
    impl<K: Ord, V> PartialEq for Entry<K, V> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.shard == other.shard
        }
    }
    impl<K: Ord, V> Eq for Entry<K, V> {}
    impl<K: Ord, V> PartialOrd for Entry<K, V> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K: Ord, V> Ord for Entry<K, V> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want the smallest key.
            other
                .key
                .cmp(&self.key)
                .then_with(|| other.shard.cmp(&self.shard))
        }
    }

    let total: usize = iters.iter().map(|it| it.len()).sum();
    let mut heap = BinaryHeap::with_capacity(iters.len());
    for (shard, it) in iters.iter_mut().enumerate() {
        if let Some((key, value)) = it.next() {
            heap.push(Entry { key, value, shard });
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Entry { key, value, shard }) = heap.pop() {
        out.push((key, value));
        if let Some((key, value)) = iters[shard].next() {
            heap.push(Entry { key, value, shard });
        }
    }
    out
}

/// One shard's slice of the load, as reported by
/// [`ShardedNbBst::shard_load_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Completed dictionary operations (finds + inserts + deletes).
    pub ops: u64,
    /// Keys currently resident (quiescent estimate, like
    /// [`ShardedNbBst::len_slow`]).
    pub keys: usize,
}

/// Per-shard load summary for hot-shard detection.
///
/// # Examples
///
/// ```
/// use nbbst_sharded::ShardedNbBst;
/// use nbbst_dictionary::ShardRoute;
///
/// // A route that funnels every key to shard 0, which takes everything.
/// struct OneShard;
/// impl ShardRoute<u64> for OneShard {
///     fn shard(&self, _key: &u64, _shards: usize) -> usize {
///         0
///     }
/// }
/// let m: ShardedNbBst<u64, u64, _> = ShardedNbBst::with_stats_route_and_shards(OneShard, 4);
/// for k in 0u64..20 {
///     m.insert_entry(k, k).unwrap();
/// }
/// let report = m.shard_load_report().unwrap();
/// assert_eq!(report.hottest().unwrap().shard, 0);
/// assert!(report.imbalance() > 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLoadReport {
    loads: Vec<ShardLoad>,
    total_ops: u64,
}

impl ShardLoadReport {
    fn new(loads: Vec<ShardLoad>) -> Self {
        let total_ops = loads.iter().map(|l| l.ops).sum();
        ShardLoadReport { loads, total_ops }
    }

    /// Per-shard loads in shard order.
    pub fn loads(&self) -> &[ShardLoad] {
        &self.loads
    }

    /// Total completed operations across all shards.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// The shard with the most completed operations (`None` only for a
    /// zero-shard report, which cannot be produced by a real map).
    pub fn hottest(&self) -> Option<&ShardLoad> {
        self.loads.iter().max_by_key(|l| l.ops)
    }

    /// `max / mean` of per-shard operation counts: `1.0` is perfectly
    /// balanced, `shard_count` means one shard absorbed everything. `1.0`
    /// when no operations have completed.
    pub fn imbalance(&self) -> f64 {
        if self.total_ops == 0 || self.loads.is_empty() {
            return 1.0;
        }
        let mean = self.total_ops as f64 / self.loads.len() as f64;
        let max = self.hottest().map(|l| l.ops).unwrap_or(0) as f64;
        max / mean
    }

    /// `true` iff [`ShardLoadReport::imbalance`] is at most `tolerance`
    /// (e.g. `2.0` = no shard sees more than twice the mean load).
    pub fn is_balanced(&self, tolerance: f64) -> bool {
        self.imbalance() <= tolerance
    }
}

impl fmt::Display for ShardLoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard load: {} ops over {} shards (imbalance {:.2})",
            self.total_ops,
            self.loads.len(),
            self.imbalance()
        )?;
        for l in &self.loads {
            let share = if self.total_ops == 0 {
                0.0
            } else {
                100.0 * l.ops as f64 / self.total_ops as f64
            };
            writeln!(
                f,
                "  shard {:>3}: {:>10} ops ({share:5.1}%), {:>8} keys",
                l.shard, l.ops, l.keys
            )?;
        }
        Ok(())
    }
}

impl<K, V> Default for ShardedNbBst<K, V, FibonacciRoute>
where
    K: Ord + Clone + Hash,
    V: Clone,
{
    fn default() -> Self {
        ShardedNbBst::new()
    }
}

impl<K, V, R> ConcurrentMap<K, V> for ShardedNbBst<K, V, R>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    R: ShardRoute<K>,
{
    fn insert(&self, key: K, value: V) -> bool {
        self.insert_entry(key, value).is_ok()
    }

    fn remove(&self, key: &K) -> bool {
        self.remove_key(key)
    }

    fn contains(&self, key: &K) -> bool {
        self.contains_key(key)
    }

    fn get(&self, key: &K) -> Option<V> {
        self.get_cloned(key)
    }

    fn quiescent_len(&self) -> usize {
        self.len_slow()
    }
}

impl<K, V, R> fmt::Debug for ShardedNbBst<K, V, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedNbBst")
            .field("shards", &self.shards.len())
            .field("mask", &self.mask)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbbst_dictionary::SeqMap;
    use std::collections::BTreeMap;

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        for (requested, expect) in [(0usize, 1usize), (1, 1), (2, 2), (3, 4), (5, 8), (8, 8)] {
            let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(requested);
            assert_eq!(m.shard_count(), expect, "requested {requested}");
        }
        let d: ShardedNbBst<u64, u64> = ShardedNbBst::new();
        assert_eq!(d.shard_count(), default_shard_count());
        assert!(d.shard_count().is_power_of_two());
    }

    #[test]
    fn roundtrip_and_duplicate_semantics() {
        let m: ShardedNbBst<u64, String> = ShardedNbBst::with_shards(8);
        assert!(m.insert_entry(9, "nine".into()).is_ok());
        let (k, v) = m.insert_entry(9, "neuf".into()).unwrap_err();
        assert_eq!((k, v.as_str()), (9, "neuf"));
        assert_eq!(m.get_cloned(&9), Some("nine".to_string()));
        assert_eq!(m.remove_entry(&9), Some("nine".to_string()));
        assert!(!m.remove_key(&9));
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn every_shard_shares_one_collector() {
        let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(8);
        for s in m.shards() {
            assert!(s.collector().ptr_eq(m.collector()));
        }
        // And a fresh map gets a fresh domain.
        let other: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(2);
        assert!(!other.collector().ptr_eq(m.collector()));
    }

    #[test]
    fn keys_land_on_their_routed_shard_only() {
        let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(8);
        for k in 0..256u64 {
            m.insert_entry(k, k).unwrap();
        }
        let mut sum = 0;
        for (i, shard) in m.shards().iter().enumerate() {
            for k in shard.keys_snapshot() {
                assert_eq!(m.shard_of(&k), i, "key {k} on wrong shard");
            }
            sum += shard.len_slow();
        }
        assert_eq!(sum, 256);
        assert_eq!(m.len_slow(), 256);
    }

    #[test]
    fn matches_sequential_model_at_every_shard_count() {
        for shards in [1usize, 2, 8] {
            let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(shards);
            let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
            let script: Vec<(u8, u64)> = (0..600)
                .map(|i| ((i % 3) as u8, (i * 37 + 11) % 96))
                .collect();
            for (op, k) in script {
                match op {
                    0 => assert_eq!(
                        m.insert_entry(k, k).is_ok(),
                        SeqMap::insert(&mut oracle, k, k),
                        "insert {k} at {shards} shards"
                    ),
                    1 => assert_eq!(
                        m.remove_key(&k),
                        SeqMap::remove(&mut oracle, &k),
                        "remove {k} at {shards} shards"
                    ),
                    _ => assert_eq!(
                        m.contains_key(&k),
                        SeqMap::contains(&oracle, &k),
                        "find {k} at {shards} shards"
                    ),
                }
            }
            assert_eq!(m.len_slow(), oracle.len());
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn concurrent_mixed_workload_merged_figure4_holds() {
        // The acceptance check: merged per-shard Figure-4 identities hold
        // at quiescence after a genuinely multi-threaded mixed run.
        let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_stats_and_shards(4);
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let m = &m;
                s.spawn(move || {
                    let mut x = tid + 1;
                    for _ in 0..3_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 128;
                        match x % 3 {
                            0 => {
                                m.insert(k, k);
                            }
                            1 => {
                                m.remove(&k);
                            }
                            _ => {
                                m.contains(&k);
                            }
                        }
                    }
                });
            }
        });
        m.check_invariants().unwrap();
        // Per shard first (stronger), then merged (what callers see).
        for (i, s) in m.shard_stats().unwrap().iter().enumerate() {
            s.check_figure4()
                .unwrap_or_else(|e| panic!("shard {i}: {e}"));
        }
        let merged = m.stats().unwrap();
        merged.check_figure4().unwrap();
        assert!(merged.inserts > 0 && merged.deletes > 0 && merged.finds > 0);
    }

    #[test]
    fn adversarial_single_shard_route_still_correct() {
        let m: ShardedNbBst<u64, u64, _> = ShardedNbBst::with_route_and_shards(Funnel(0), 8);
        for k in 0..100u64 {
            m.insert_entry(k, k).unwrap();
        }
        assert_eq!(m.shards()[0].len_slow(), 100);
        assert!(m.shards()[1..].iter().all(|s| s.len_slow() == 0));
        assert_eq!(m.len_slow(), 100);
    }

    #[test]
    fn values_not_overwritten_under_contention() {
        let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(2);
        m.insert(1, 100);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        m.insert(1, 999);
                    }
                });
            }
        });
        assert_eq!(m.get_cloned(&1), Some(100));
    }

    #[test]
    fn drop_reclaims_across_shards() {
        let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(4);
        for k in 0..1_000u64 {
            m.insert(k, k);
        }
        for k in (0..1_000u64).step_by(2) {
            m.remove(&k);
        }
        let collector = m.collector().clone();
        drop(m);
        assert!(collector.try_drain(1_000), "{:?}", collector.stats());
        let s = collector.stats();
        assert_eq!(s.retired, s.freed, "{s:?}");
        assert_eq!(s.deferred_bytes, 0, "{s:?}");
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedNbBst<u64, u64>>();
    }

    use std::ops::Bound;

    /// Funnels every key to one shard, so the others stay empty.
    struct Funnel(usize);
    impl ShardRoute<u64> for Funnel {
        fn shard(&self, _key: &u64, _shards: usize) -> usize {
            self.0
        }
    }

    fn keyset() -> Vec<u64> {
        // Pseudorandom but deterministic, spanning [0, 96) with gaps.
        let mut x = 7u64;
        let mut ks: Vec<u64> = (0..60)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 96
            })
            .collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }

    fn assert_ordered_reads_match_oracle<R: ShardRoute<u64>>(m: &ShardedNbBst<u64, u64, R>) {
        let keys = keyset();
        let mut oracle = BTreeMap::new();
        for &k in &keys {
            m.insert_entry(k, k * 2).unwrap();
            oracle.insert(k, k * 2);
        }
        assert_eq!(m.min_key(), oracle.keys().next().copied());
        assert_eq!(m.max_key(), oracle.keys().next_back().copied());
        let all = m.range_snapshot(Bound::Unbounded, Bound::Unbounded);
        let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(all, want);
        for (lo, hi) in [(0u64, 96u64), (10, 40), (47, 48), (90, 96)] {
            let got = m.range_snapshot(Bound::Included(&lo), Bound::Excluded(&hi));
            let want: Vec<(u64, u64)> = oracle.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "range {lo}..{hi}");
        }
        // Inverted bounds: empty, no panic (BTreeMap::range would panic).
        assert!(m
            .range_snapshot(Bound::Included(&90), Bound::Excluded(&10))
            .is_empty());
        let mut visited = Vec::new();
        m.for_each_entry(|k, v| visited.push((*k, *v)));
        assert_eq!(visited, want_all(&oracle));
    }

    fn want_all(oracle: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
        oracle.iter().map(|(&k, &v)| (k, v)).collect()
    }

    #[test]
    fn ordered_reads_under_hash_route_use_kway_merge() {
        for shards in [1usize, 2, 8] {
            let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(shards);
            assert_ordered_reads_match_oracle(&m);
        }
    }

    #[test]
    fn empty_map_ordered_reads() {
        for shards in [1usize, 2, 8] {
            let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(shards);
            assert_eq!(m.min_key(), None);
            assert_eq!(m.max_key(), None);
            assert!(m
                .range_snapshot(Bound::Unbounded, Bound::Unbounded)
                .is_empty());
            let mut n = 0;
            m.for_each_entry(|_, _| n += 1);
            assert_eq!(n, 0);
        }
    }

    #[test]
    fn range_snapshot_is_safe_during_concurrent_updates() {
        let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(4);
        for k in 0..256u64 {
            m.insert_entry(k, k).unwrap();
        }
        std::thread::scope(|s| {
            let m = &m;
            let writer = s.spawn(move || {
                for i in 0..2_000u64 {
                    let k = (i * 37) % 256;
                    if i % 2 == 0 {
                        m.remove_key(&k);
                    } else {
                        m.insert_entry(k, k).ok();
                    }
                }
            });
            for _ in 0..50 {
                let r = m.range_snapshot(Bound::Included(&64), Bound::Excluded(&192));
                assert!(r.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
                assert!(r.iter().all(|(k, _)| (64..192).contains(k)), "in bounds");
            }
            writer.join().unwrap();
        });
        m.check_invariants().unwrap();
    }

    #[test]
    fn load_report_names_the_hot_shard_under_skew() {
        let m: ShardedNbBst<u64, u64, _> = ShardedNbBst::with_stats_route_and_shards(Funnel(2), 8);
        // Skewed traffic: the route sends every key to shard 2.
        for k in 256u64..384 {
            m.insert_entry(k, k).unwrap();
            m.contains_key(&k);
        }
        let report = m.shard_load_report().unwrap();
        assert_eq!(report.loads().len(), 8);
        let hot = report.hottest().unwrap();
        assert_eq!(hot.shard, 2);
        assert_eq!(hot.keys, 128);
        assert_eq!(report.total_ops(), 256);
        assert!(report.imbalance() > 4.0, "{}", report.imbalance());
        assert!(!report.is_balanced(2.0));
        let text = report.to_string();
        assert!(text.contains("shard   2"), "{text}");
    }

    #[test]
    fn load_report_balanced_under_hash_route() {
        let m: ShardedNbBst<u64, u64> = ShardedNbBst::with_stats_and_shards(8);
        for k in 0u64..4_096 {
            m.insert_entry(k, k).unwrap();
        }
        let report = m.shard_load_report().unwrap();
        assert!(report.is_balanced(2.0), "{report}");
        assert_eq!(report.total_ops(), 4_096);
        assert_eq!(report.loads().iter().map(|l| l.keys).sum::<usize>(), 4_096);
        // Maps built without stats have no counters to report.
        let plain: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(8);
        assert!(plain.shard_load_report().is_none());
    }
}
