//! The default tree's multi-entry leaves against a `BTreeMap` oracle.
//!
//! Every leaf goes through the same life: it fills by copies, splits into
//! two half leaves when an insert finds it full, drains by copies down to
//! one entry, and is spliced out by the paper's delete circuit when its
//! last entry goes. The tests drive leaves through each stage (the
//! sentinel leaves included: the first insert splits `[∞1]`) and compare
//! point reads, range snapshots with bounds falling inside leaves, and
//! min/max with the oracle after every step.

use nbbst::NbBst;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Checks every read against the oracle, then the structural invariants.
fn agrees(tree: &NbBst<u64, u64>, oracle: &BTreeMap<u64, u64>, probes: &[u64]) {
    for k in probes {
        assert_eq!(tree.get_cloned(k), oracle.get(k).copied(), "get {k}");
    }
    assert_eq!(tree.min_key(), oracle.keys().next().copied());
    assert_eq!(tree.max_key(), oracle.keys().last().copied());
    assert_eq!(tree.len_slow(), oracle.len());
    tree.check_invariants().unwrap();
}

fn range_agrees(tree: &NbBst<u64, u64>, oracle: &BTreeMap<u64, u64>, lo: u64, hi: u64) {
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    let want: Vec<(u64, u64)> = oracle.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
    assert_eq!(
        tree.range_snapshot(Bound::Included(&lo), Bound::Excluded(&hi)),
        want,
        "range {lo}..{hi}"
    );
    let want: Vec<(u64, u64)> = oracle
        .range((Bound::Excluded(lo), Bound::Included(hi)))
        .map(|(k, v)| (*k, *v))
        .collect();
    assert_eq!(
        tree.range_snapshot(Bound::Excluded(&lo), Bound::Included(&hi)),
        want,
        "range ({lo}, {hi}]"
    );
}

#[test]
fn one_leaf_fills_splits_drains_and_is_spliced_out() {
    let tree: NbBst<u64, u64> = NbBst::with_stats();
    let fresh = tree.render();
    let cap = tree.leaf_capacity() as u64;
    assert!(cap > 1, "the default tree has multi-entry leaves");
    let mut oracle = BTreeMap::new();

    // Fill: the first insert splits the `[∞1]` sentinel leaf (Figure 6);
    // the rest copy the real leaf until it is full.
    for k in 0..cap {
        assert!(tree.insert_entry(k * 10, k).is_ok());
        oracle.insert(k * 10, k);
        agrees(&tree, &oracle, &[0, 5, k * 10, k * 10 + 5]);
    }
    assert_eq!(tree.height(), 2, "one full leaf under ∞1");
    let s = tree.stats().unwrap();
    assert_eq!(s.ichild_success, cap, "one replacement per insert");

    // Split: the next insert finds the leaf full.
    assert!(tree.insert_entry(5, 99).is_ok());
    oracle.insert(5, 99);
    assert_eq!(tree.height(), 3, "an internal node over two half leaves");
    agrees(&tree, &oracle, &[5, 15]);
    for (lo, hi) in [(0, 7), (7, 43), (43, cap * 10), (15, 15)] {
        range_agrees(&tree, &oracle, lo, hi);
    }

    // Drain the left half leaf to one entry by copies, then splice it out.
    // The split shared `cap + 1` entries, the smaller half going left.
    let split = cap as usize + 1;
    let left: Vec<u64> = oracle.keys().copied().take(split / 2).collect();
    let before = tree.stats().unwrap();
    for (i, k) in left.iter().enumerate() {
        assert_eq!(tree.remove_entry(k), oracle.remove(k));
        agrees(&tree, &oracle, &[*k]);
        range_agrees(&tree, &oracle, 0, cap * 10);
        let s = tree.stats().unwrap().delta(&before);
        if i + 1 < left.len() {
            assert_eq!((s.deletes_by_copy, s.dchild_success), (i as u64 + 1, 0));
        } else {
            assert_eq!(s.dchild_success, 1, "the last entry leaves by dchild");
        }
    }
    assert_eq!(tree.height(), 2, "the split's internal node is gone");

    // Drain everything: back to Figure 6(a).
    for k in oracle.keys().copied().collect::<Vec<_>>() {
        assert!(tree.remove_key(&k));
        oracle.remove(&k);
        agrees(&tree, &oracle, &[k]);
    }
    assert_eq!(tree.render(), fresh);
    tree.stats().unwrap().check_figure4().unwrap();
}

proptest! {
    /// Arbitrary histories: a fill phase (inserts, so leaves split), a
    /// mixed phase, and a drain phase (deletes, so leaves shrink to one
    /// entry and are spliced out), with the oracle checked after every
    /// operation and ranges checked with bounds anywhere in the key space.
    #[test]
    fn fat_leaves_match_btreemap(
        fill in proptest::collection::vec(0u64..200, 0..120),
        mixed in proptest::collection::vec((0u8..3, 0u64..200), 0..150),
        drain in proptest::collection::vec(0u64..200, 0..200),
        bounds in proptest::collection::vec((0u64..210, 0u64..210), 1..6),
    ) {
        let tree: NbBst<u64, u64> = NbBst::with_stats();
        let mut oracle = BTreeMap::new();
        let ops = fill
            .iter()
            .map(|&k| (0u8, k))
            .chain(mixed.iter().copied())
            .chain(drain.iter().map(|&k| (1u8, k)));
        for (i, (op, k)) in ops.enumerate() {
            match op {
                0 => prop_assert_eq!(
                    tree.insert_entry(k, i as u64).is_ok(),
                    !oracle.contains_key(&k) && oracle.insert(k, i as u64).is_none()
                ),
                1 => prop_assert_eq!(tree.remove_entry(&k), oracle.remove(&k)),
                _ => prop_assert_eq!(tree.contains_key(&k), oracle.contains_key(&k)),
            }
            agrees(&tree, &oracle, &[k, k + 1]);
            if i % 16 == 0 {
                for &(lo, hi) in &bounds {
                    range_agrees(&tree, &oracle, lo, hi);
                }
            }
        }
        for &(lo, hi) in &bounds {
            range_agrees(&tree, &oracle, lo, hi);
        }
        prop_assert_eq!(tree.keys_snapshot(), oracle.keys().copied().collect::<Vec<_>>());
        tree.stats().unwrap().check_figure4().unwrap();
    }
}
