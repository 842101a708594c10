//! F1/F2 integration tests: the concurrent tree's update *shapes* match
//! the sequential model node-for-node (Figures 1 and 2), for scripted and
//! for arbitrary single-threaded histories; its ranges and values match a
//! `BTreeMap`.

use nbbst::model::LeafBst;
use nbbst::{NbBst, SeqMap};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

/// The model's entries inside `bounds`, in order (`BTreeMap::range`
/// panics on the inverted bounds that proptest generates).
fn model_range(model: &BTreeMap<u64, u64>, bounds: (Bound<&u64>, Bound<&u64>)) -> Vec<(u64, u64)> {
    model
        .iter()
        .filter(|(k, _)| bounds.contains(*k))
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// Both renderers print `(key)` internals and `[key]` leaves with the
/// same tree layout, so equal strings = equal shapes.
fn shapes_match(tree: &NbBst<u64, u64>, model: &LeafBst<u64, u64>) {
    assert_eq!(
        tree.render(),
        model.render(),
        "tree shape diverged from the model"
    );
}

#[test]
fn figure1_insert_shape() {
    let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    let mut model: LeafBst<u64, u64> = LeafBst::new();

    // B=20, D=40 exist; Insert(C=30) replaces leaf D with (40){[30],[40]}.
    for k in [20u64, 40] {
        tree.insert_entry(k, k).unwrap();
        SeqMap::insert(&mut model, k, k);
    }
    shapes_match(&tree, &model);

    tree.insert_entry(30, 30).unwrap();
    SeqMap::insert(&mut model, 30, 30);
    shapes_match(&tree, &model);

    let rendered = tree.render();
    // The figure's shape: an internal keyed by the larger key (40) with
    // the two leaves below it, smaller on the left.
    assert!(rendered.contains("(40)"), "{rendered}");
    assert!(rendered.contains("[30]"), "{rendered}");
    assert!(rendered.contains("[40]"), "{rendered}");
}

#[test]
fn figure2_delete_shape() {
    let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    let mut model: LeafBst<u64, u64> = LeafBst::new();
    for k in [20u64, 40, 30] {
        tree.insert_entry(k, k).unwrap();
        SeqMap::insert(&mut model, k, k);
    }
    // Delete(C=30): the leaf and its parent vanish; the sibling leaf [40]
    // is promoted to the grandparent.
    assert!(tree.remove_key(&30));
    assert!(SeqMap::remove(&mut model, &30));
    shapes_match(&tree, &model);
    let rendered = tree.render();
    assert!(!rendered.contains("[30]"), "{rendered}");
}

#[test]
fn empty_tree_is_figure_6a() {
    let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
    let model: LeafBst<u64, u64> = LeafBst::new();
    shapes_match(&tree, &model);
}

proptest! {
    /// Range snapshots agree with a `BTreeMap` for arbitrary
    /// histories and arbitrary bounds.
    #[test]
    fn ranges_match_model(
        ops in proptest::collection::vec((0u8..2, 0u64..64), 0..150),
        lo in 0u64..64,
        hi in 0u64..64,
    ) {
        let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, k) in ops {
            if op == 0 {
                tree.insert_entry(k, k).ok();
                SeqMap::insert(&mut model, k, k);
            } else {
                tree.remove_key(&k);
                SeqMap::remove(&mut model, &k);
            }
        }
        prop_assert_eq!(
            tree.range_snapshot(Bound::Included(&lo), Bound::Excluded(&hi)),
            model_range(&model, (Bound::Included(&lo), Bound::Excluded(&hi)))
        );
        prop_assert_eq!(
            tree.range_snapshot(Bound::Excluded(&lo), Bound::Included(&hi)),
            model_range(&model, (Bound::Excluded(&lo), Bound::Included(&hi)))
        );
        prop_assert_eq!(tree.min_key(), model.keys().next().copied());
        prop_assert_eq!(tree.max_key(), model.keys().next_back().copied());
    }

    /// For ANY single-threaded op sequence, the concurrent tree and the
    /// sequential model produce byte-identical shapes — i.e. Figures 1/2
    /// are the only transformations either ever applies.
    #[test]
    fn shapes_match_for_arbitrary_histories(
        ops in proptest::collection::vec((0u8..3, 0u64..48), 0..250)
    ) {
        let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
        let mut model: LeafBst<u64, u64> = LeafBst::new();
        for (op, k) in ops {
            match op {
                0 => {
                    prop_assert_eq!(
                        tree.insert_entry(k, k).is_ok(),
                        SeqMap::insert(&mut model, k, k)
                    );
                }
                1 => prop_assert_eq!(tree.remove_key(&k), SeqMap::remove(&mut model, &k)),
                _ => prop_assert_eq!(tree.contains_key(&k), SeqMap::contains(&model, &k)),
            }
        }
        prop_assert_eq!(tree.render(), model.render());
        tree.check_invariants().unwrap();
        model.check_invariants().unwrap();
    }

    /// Values ride along correctly under arbitrary histories.
    #[test]
    fn values_match_for_arbitrary_histories(
        ops in proptest::collection::vec((0u8..2, 0u64..32, 0u64..1000), 0..150)
    ) {
        let tree: NbBst<u64, u64> = NbBst::new().one_key_leaves();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0 => {
                    tree.insert_entry(k, v).ok();
                    SeqMap::insert(&mut model, k, v);
                }
                _ => {
                    tree.remove_key(&k);
                    SeqMap::remove(&mut model, &k);
                }
            }
            for probe in 0..32u64 {
                prop_assert_eq!(tree.get_cloned(&probe), SeqMap::get(&model, &probe));
            }
        }
    }
}
