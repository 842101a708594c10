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
//! naive strawman is an experimental control, a single-threaded index
//! arena whose prepared operations replay the figure's schedules step by
//! step.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod coarse;
pub mod naive;

pub use coarse::CoarseLockBst;

#[cfg(test)]
mod equivalence {
    //! The coarse-lock baseline and the naive tree agree with a `BTreeMap`
    //! on random single-threaded op sequences.
    use nbbst_dictionary::{ConcurrentMap, Operation, Response, SeqMap};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
            let mut model: BTreeMap<u8, u8> = BTreeMap::new();
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

        #[test]
        fn naive_matches_model(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            let naive: super::naive::NaiveBst<u8, u8> = Default::default();
            let mut model: BTreeMap<u8, u8> = BTreeMap::new();
            for op in ops {
                let got = match op {
                    Operation::Insert(k, v) => naive.insert(k, v),
                    Operation::Remove(k) => naive.remove(&k),
                    Operation::Contains(k) => naive.contains(&k),
                };
                prop_assert_eq!(Response::from(got), op.apply_seq(&mut model), "{:?}", op);
            }
            prop_assert_eq!(naive.keys_snapshot(), model.keys().copied().collect::<Vec<_>>());
        }
    }
}
