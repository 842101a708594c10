//! Comparator dictionaries for the `nbbst` evaluation.
//!
//! * [`CoarseLockBst`] — the sequential tree behind a global RwLock: a
//!   map that is trivially linearizable, on which `perfbench --map coarse`
//!   checks that the benchmark's oracle reports no false failures.
//! * [`naive::NaiveBst`] — the **deliberately broken** single-CAS BST of
//!   Figure 3, with two-phase prepared operations for deterministic
//!   anomaly replay.
//!
//! [`CoarseLockBst`] implements [`nbbst_dictionary::ConcurrentMap`]; the
//! naive strawman is an experimental control and runs under the same
//! epoch-reclamation substrate as the tree.

#![warn(missing_docs, missing_debug_implementations)]

mod coarse;
pub mod naive;

pub use coarse::CoarseLockBst;

#[cfg(test)]
mod equivalence {
    //! The coarse-lock baseline agrees with the sequential model on random
    //! single-threaded op sequences.
    use nbbst_dictionary::{ConcurrentMap, Operation, SeqMap};
    use nbbst_model::VecModel;
    use proptest::prelude::*;

    fn op_strategy() -> impl Strategy<Value = Operation<u8, u8>> {
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Operation::Insert(k % 24, v)),
            any::<u8>().prop_map(|k| Operation::Remove(k % 24)),
            any::<u8>().prop_map(|k| Operation::Contains(k % 24)),
        ]
    }

    proptest! {
        #[test]
        fn coarse_matches_model(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            let map: super::CoarseLockBst<u8, u8> = Default::default();
            let mut model: VecModel<u8, u8> = VecModel::new();
            for op in ops {
                prop_assert_eq!(op.apply(&map), op.apply_seq(&mut model), "{:?}", op);
            }
            prop_assert_eq!(map.quiescent_len(), SeqMap::len(&model));
            for k in 0..24u8 {
                prop_assert_eq!(
                    ConcurrentMap::get(&map, &k),
                    SeqMap::get(&model, &k)
                );
            }
        }
    }
}
