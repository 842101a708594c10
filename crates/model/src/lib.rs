//! The sequential reference model for the `nbbst` workspace.
//!
//! [`LeafBst`] is the paper's leaf-oriented BST (Figures 1, 2 and 6) in
//! plain owned-box form. The concurrent EFRB tree must be
//! indistinguishable from this structure under any linearization, and its
//! update *shapes* must match this structure's node-for-node. It implements
//! [`nbbst_dictionary::SeqMap`]; where only the dictionary's answers
//! matter, tests compare against `std::collections::BTreeMap`, which
//! implements the same trait.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod leaf_bst;

pub use leaf_bst::LeafBst;

#[cfg(test)]
mod cross_check {
    use super::*;
    use nbbst_dictionary::{Operation, SeqMap};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn op_strategy() -> impl Strategy<Value = Operation<u8, u8>> {
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Operation::Insert(k % 32, v)),
            any::<u8>().prop_map(|k| Operation::Remove(k % 32)),
            any::<u8>().prop_map(|k| Operation::Contains(k % 32)),
        ]
    }

    proptest! {
        /// The paper-shaped tree and a `BTreeMap` agree on every response
        /// and on the final key set, for arbitrary op sequences.
        #[test]
        fn leaf_bst_equals_btreemap(ops in proptest::collection::vec(op_strategy(), 0..400)) {
            let mut bst: LeafBst<u8, u8> = LeafBst::new();
            let mut map: BTreeMap<u8, u8> = BTreeMap::new();
            for op in ops {
                prop_assert_eq!(op.apply_seq(&mut bst), op.apply_seq(&mut map));
            }
            prop_assert_eq!(bst.keys().collect::<Vec<_>>(), map.keys().copied().collect::<Vec<_>>());
            prop_assert_eq!(SeqMap::len(&bst), SeqMap::len(&map));
            bst.check_invariants().unwrap();
        }

        /// Values survive unrelated churn.
        #[test]
        fn values_are_stable(ops in proptest::collection::vec(op_strategy(), 0..200)) {
            let mut bst: LeafBst<u8, u8> = LeafBst::new();
            let mut map: BTreeMap<u8, u8> = BTreeMap::new();
            for op in ops {
                op.apply_seq(&mut bst);
                op.apply_seq(&mut map);
                for k in 0..32u8 {
                    prop_assert_eq!(SeqMap::get(&bst, &k), SeqMap::get(&map, &k));
                }
            }
        }
    }
}
