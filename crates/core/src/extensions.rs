//! API extensions beyond the paper's three operations.
//!
//! The paper notes the dictionary "can also store auxiliary data with
//! each key"; these conveniences make that practical in Rust without
//! changing the algorithm: zero-clone guarded reads, bounded range
//! snapshots (using the BST order), min/max queries, streaming in-order
//! visitors, and the standard collection traits.
//!
//! All snapshot-style views are **weakly consistent** (exact at
//! quiescence), like the views in [`crate::view`], and — also like
//! [`crate::view`] — every traversal here is **iterative** (explicit
//! heap stack via the in-order cursor), so snapshots cost O(1) call
//! stack even on the degenerate O(n)-deep trees that ordered insertion
//! produces in this never-rebalanced structure. Point reads
//! ([`NbBst::get_with`], [`NbBst::min_key`], [`NbBst::max_key`]) are
//! linearizable: they are `Find`s (a min/max query is a `Search` steered
//! hard left/right, reaching a leaf that was on its search path).

use crate::node::{internal_ptr, NodePtrExt, NodeRef};
use crate::tree::NbBst;
use crate::view::InorderCursor;
use std::ops::Bound;

impl<K, V> NbBst<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Applies `f` to the value stored under `key` without cloning it.
    ///
    /// The reference is valid only inside `f` (it is protected by an
    /// epoch pin for the duration of the call).
    ///
    /// # Examples
    ///
    /// ```
    /// use nbbst_core::NbBst;
    ///
    /// let t: NbBst<u64, String> = NbBst::new();
    /// t.insert_entry(1, "payload".to_string()).unwrap();
    /// let len = t.get_with(&1, |v| v.len());
    /// assert_eq!(len, Some(7));
    /// ```
    pub fn get_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        let guard = self.pin();
        self.search(key, &guard).leaf.get(key).map(f)
    }

    /// The smallest real key (a leftmost `Search`). `None` when empty.
    pub fn min_key(&self) -> Option<K> {
        self.extreme_key(true)
    }

    /// The largest real key (a rightmost `Search` within the non-sentinel
    /// region). `None` when empty.
    pub fn max_key(&self) -> Option<K> {
        self.extreme_key(false)
    }

    fn extreme_key(&self, min: bool) -> Option<K> {
        let guard = self.pin();
        let mut word = internal_ptr(self.root());
        loop {
            // SAFETY: the root, or a child word read under the pin.
            let node = match unsafe { word.node() } {
                // Sentinels never share a leaf with real keys, so a
                // sentinel leaf here (no keys) means the dictionary is
                // empty (min and max both land on `[∞1]` then).
                NodeRef::Leaf(leaf) => {
                    let keys = leaf.keys();
                    return if min { keys.first() } else { keys.last() }.cloned();
                }
                NodeRef::Internal(node) => node,
            };
            // Min: always left. Max: right under real routing keys, but
            // left under sentinel routing keys — all real content is
            // strictly less than the sentinels.
            let go_left = min || node.key.is_sentinel();
            word = node.load_child(go_left, &guard);
        }
    }

    /// All `(key, value)` clones with `lo <= key < hi` style bounds, in
    /// order, pruning subtrees outside the range. Weakly consistent;
    /// O(1) call stack regardless of tree depth.
    ///
    /// # Examples
    ///
    /// ```
    /// use nbbst_core::NbBst;
    /// use std::ops::Bound;
    ///
    /// let t: NbBst<u64, u64> = NbBst::new();
    /// for k in [1u64, 3, 5, 7, 9] {
    ///     t.insert_entry(k, k * 10).unwrap();
    /// }
    /// let mid = t.range_snapshot(Bound::Included(&3), Bound::Excluded(&9));
    /// assert_eq!(mid, vec![(3, 30), (5, 50), (7, 70)]);
    /// ```
    pub fn range_snapshot(&self, lo: Bound<&K>, hi: Bound<&K>) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.for_each_in_range(lo, hi, |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// Applies `f` to every `(key, value)` in ascending key order without
    /// cloning or materializing the whole snapshot. Weakly consistent,
    /// O(1) call stack; the references are valid only inside `f` (the
    /// tree is pinned for the duration of the call).
    ///
    /// # Examples
    ///
    /// ```
    /// use nbbst_core::NbBst;
    ///
    /// let t: NbBst<u64, u64> = NbBst::new();
    /// for k in 0u64..5 {
    ///     t.insert_entry(k, k * k).unwrap();
    /// }
    /// let mut sum = 0;
    /// t.for_each_entry(|_, v| sum += *v);
    /// assert_eq!(sum, 0 + 1 + 4 + 9 + 16);
    /// ```
    pub fn for_each_entry(&self, mut f: impl FnMut(&K, &V)) {
        self.for_each_in_range(Bound::Unbounded, Bound::Unbounded, |k, v| f(k, v));
    }

    /// [`NbBst::for_each_entry`] restricted to `[lo, hi]`-style bounds,
    /// pruning subtrees outside the range during the descent. Keys come
    /// strictly ascending, each at most once, even under concurrent
    /// updates.
    pub fn for_each_in_range(&self, lo: Bound<&K>, hi: Bound<&K>, mut f: impl FnMut(&K, &V)) {
        let guard = self.pin();
        let mut cursor = InorderCursor::new(self.root(), &guard, lo, hi);
        while let Some((k, v)) = cursor.next_entry() {
            f(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(keys: &[u64]) -> NbBst<u64, u64> {
        let t = NbBst::new();
        for &k in keys {
            t.insert_entry(k, k * 10).unwrap();
        }
        t
    }

    #[test]
    fn get_with_avoids_clone() {
        let t: NbBst<u64, Vec<u64>> = NbBst::new();
        t.insert_entry(1, vec![1, 2, 3]).unwrap();
        assert_eq!(t.get_with(&1, |v| v.iter().sum::<u64>()), Some(6));
        assert_eq!(t.get_with(&2, |v| v.len()), None);
    }

    #[test]
    fn min_max_on_various_sizes() {
        let t = tree(&[]);
        assert_eq!(t.min_key(), None);
        assert_eq!(t.max_key(), None);

        let t = tree(&[5]);
        assert_eq!(t.min_key(), Some(5));
        assert_eq!(t.max_key(), Some(5));

        let t = tree(&[9, 2, 7, 4, 11, 3]);
        assert_eq!(t.min_key(), Some(2));
        assert_eq!(t.max_key(), Some(11));

        t.remove_key(&11);
        t.remove_key(&2);
        assert_eq!(t.min_key(), Some(3));
        assert_eq!(t.max_key(), Some(9));
    }

    #[test]
    fn range_snapshot_bounds() {
        let t = tree(&[1, 3, 5, 7, 9]);
        let all = t.range_snapshot(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(
            all.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![1, 3, 5, 7, 9]
        );

        let inc = t.range_snapshot(Bound::Included(&3), Bound::Included(&7));
        assert_eq!(inc, vec![(3, 30), (5, 50), (7, 70)]);

        let exc = t.range_snapshot(Bound::Excluded(&3), Bound::Excluded(&7));
        assert_eq!(exc, vec![(5, 50)]);

        let empty = t.range_snapshot(Bound::Included(&4), Bound::Excluded(&5));
        assert!(empty.is_empty());
    }

    #[test]
    fn for_each_visits_in_order_and_respects_bounds() {
        let t = tree(&[8, 2, 6, 4, 10]);
        let mut keys = Vec::new();
        t.for_each_entry(|k, v| {
            assert_eq!(*v, k * 10);
            keys.push(*k);
        });
        assert_eq!(keys, vec![2, 4, 6, 8, 10]);

        let mut ranged = Vec::new();
        t.for_each_in_range(Bound::Included(&4), Bound::Excluded(&10), |k, _| {
            ranged.push(*k)
        });
        assert_eq!(ranged, vec![4, 6, 8]);
    }

    #[test]
    fn range_matches_btreemap_on_random_data() {
        use std::collections::BTreeMap;
        let mut reference = BTreeMap::new();
        let t: NbBst<u64, u64> = NbBst::new();
        let mut x = 42u64;
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 128;
            t.insert_entry(k, k).ok();
            reference.entry(k).or_insert(k);
        }
        // (BTreeMap::range panics on inverted bounds; our snapshot just
        // returns empty — checked separately below.)
        assert!(t
            .range_snapshot(Bound::Included(&100), Bound::Excluded(&10))
            .is_empty());
        for (lo, hi) in [(0u64, 128u64), (10, 20), (64, 64)] {
            let got: Vec<u64> = t
                .range_snapshot(Bound::Included(&lo), Bound::Excluded(&hi))
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let want: Vec<u64> = reference.range(lo..hi).map(|(k, _)| *k).collect();
            assert_eq!(got, want, "range {lo}..{hi}");
        }
    }

    #[test]
    fn range_is_safe_during_concurrent_updates() {
        let t = tree(&(0..256).collect::<Vec<_>>());
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 0..2_000u64 {
                    let k = (i * 37) % 256;
                    if i % 2 == 0 {
                        t.remove_key(&k);
                    } else {
                        t.insert_entry(k, k).ok();
                    }
                }
            });
            for _ in 0..50 {
                let r = t.range_snapshot(Bound::Included(&64), Bound::Excluded(&192));
                // Weakly consistent but always well-formed: sorted,
                // deduplicated, within bounds.
                assert!(r.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(r.iter().all(|(k, _)| (64..192).contains(k)));
            }
            writer.join().unwrap();
        });
        t.check_invariants().unwrap();
    }

    #[test]
    fn sequential_insert_tree_snapshots_use_constant_stack() {
        // The honest (public-API) form of the degenerate regression: a
        // genuinely sequential-insert tree, sized so the quadratic build
        // stays cheap, traversed inside a 192 KiB stack that the old
        // recursive walks (hundreds of bytes × 10k frames) could not fit.
        const N: u64 = 10_000;
        std::thread::Builder::new()
            .stack_size(192 * 1024)
            .spawn(|| {
                let t: NbBst<u64, u64> = NbBst::new().one_key_leaves();
                for k in 0..N {
                    t.insert_entry(k, k).unwrap();
                }
                assert_eq!(t.height(), (N + 1) as usize, "path tree: depth n+1");
                t.check_invariants().unwrap();
                let all = t.range_snapshot(Bound::Unbounded, Bound::Unbounded);
                assert_eq!(all.len(), N as usize);
                assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
                assert_eq!(t.len_slow(), N as usize);
            })
            .expect("spawn small-stack thread")
            .join()
            .expect("snapshots on a sequential-insert tree must not overflow");
    }

    #[test]
    fn range_is_safe_on_degenerate_tree_during_concurrent_updates() {
        // Regression lock under *contention*: the tree starts as a
        // sequential-insert path (depth ≈ 4096), writers churn the deep
        // end while a small-stack reader keeps snapshotting. Before the
        // iterative rewrite the reader recursed once per level and
        // overflowed its 128 KiB stack deterministically.
        const N: u64 = 4_096;
        let t: NbBst<u64, u64> = NbBst::new().one_key_leaves();
        for k in 0..N {
            t.insert_entry(k, k).unwrap();
        }
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for i in 0..1_000u64 {
                    // Churn near the deep (large-key) end of the path.
                    let k = N - 1 - (i % 64);
                    if i % 2 == 0 {
                        t.remove_key(&k);
                    } else {
                        t.insert_entry(k, k).ok();
                    }
                }
            });
            let reader = std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn_scoped(s, || {
                    for _ in 0..30 {
                        let r = t.range_snapshot(Bound::Included(&0), Bound::Unbounded);
                        assert!(r.windows(2).all(|w| w[0].0 < w[1].0));
                        // Keys below the churn window are never touched.
                        assert!(r.len() >= (N - 64) as usize);
                        let _ = t.height();
                    }
                })
                .expect("spawn small-stack reader");
            reader
                .join()
                .expect("degenerate-tree snapshots must not overflow under contention");
            writer.join().unwrap();
        });
        t.check_invariants().unwrap();
    }
}
