//! Property tests: [`ShardedNbBst`] agrees with a sequential `BTreeMap`
//! oracle for arbitrary single-threaded histories, at every shard count
//! the frontend is expected to run at, for both *spread-out* key sets
//! (exercising every shard) and *adversarial* key sets whose every key
//! collides onto a single shard (exercising one tree through the routed
//! path, including its neighbours staying empty).

use nbbst::sharded::ShardedNbBst;
use nbbst::SeqMap;
use nbbst_dictionary::{FibonacciRoute, ShardRoute};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Keys that [`FibonacciRoute`] sends to shard 0 of an 8-way map — the
/// worst case for an 8-way split: all contention lands on one tree.
fn colliding_keys() -> Vec<u64> {
    let keys: Vec<u64> = (0..4_096u64)
        .filter(|k| FibonacciRoute.shard(k, 8) == 0)
        .take(64)
        .collect();
    assert!(keys.len() >= 32, "route too uniform to find collisions?");
    keys
}

/// Funnels every key to the last shard, so the k-way merge meets empty
/// shards before the one that holds everything.
struct LastShard;

impl ShardRoute<u64> for LastShard {
    fn shard(&self, _key: &u64, shards: usize) -> usize {
        shards - 1
    }
}

/// Replays `ops` against the sharded map and the oracle, asserting every
/// return value matches, then checks the quiescent aggregates.
fn replay_and_check(shards: usize, ops: &[(u8, u64)]) -> Result<(), proptest::TestCaseError> {
    let map: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(shards);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for &(op, k) in ops {
        match op {
            0 => prop_assert_eq!(
                map.insert_entry(k, k.wrapping_mul(3)).is_ok(),
                SeqMap::insert(&mut oracle, k, k.wrapping_mul(3)),
                "insert {} at {} shards",
                k,
                shards
            ),
            1 => prop_assert_eq!(
                map.remove_key(&k),
                SeqMap::remove(&mut oracle, &k),
                "remove {} at {} shards",
                k,
                shards
            ),
            2 => prop_assert_eq!(
                map.contains_key(&k),
                SeqMap::contains(&oracle, &k),
                "contains {} at {} shards",
                k,
                shards
            ),
            _ => prop_assert_eq!(
                map.get_cloned(&k),
                SeqMap::get(&oracle, &k),
                "get {} at {} shards",
                k,
                shards
            ),
        }
    }
    prop_assert_eq!(map.len_slow(), oracle.len());
    map.check_invariants().unwrap();
    // Shard-local containment: every surviving key sits exactly on its
    // routed shard.
    for (i, shard) in map.shards().iter().enumerate() {
        for k in shard.keys_snapshot() {
            prop_assert_eq!(map.shard_of(&k), i, "key {} on wrong shard", k);
        }
    }
    Ok(())
}

fn bound_of(kind: u8, k: u64) -> Bound<u64> {
    match kind {
        0 => Bound::Included(k),
        1 => Bound::Excluded(k),
        _ => Bound::Unbounded,
    }
}

/// `BTreeMap::range` panics on a decreasing range (or equal endpoints
/// both excluded); our `range_snapshot` just returns empty for those.
fn btreemap_accepts(lo: &Bound<u64>, hi: &Bound<u64>) -> bool {
    match (lo, hi) {
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            a < b || (a == b && !matches!((lo, hi), (Bound::Excluded(_), Bound::Excluded(_))))
        }
        _ => true,
    }
}

/// Replays an insert/remove history, then checks `range_snapshot`,
/// `min_key` and `max_key` against the `BTreeMap` oracle for each query.
fn replay_and_check_ranges<R: ShardRoute<u64>>(
    map: ShardedNbBst<u64, u64, R>,
    route_name: &str,
    shards: usize,
    ops: &[(u8, u64)],
    queries: &[(u8, u64, u8, u64)],
) -> Result<(), proptest::TestCaseError> {
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for &(op, k) in ops {
        if op == 0 {
            map.insert_entry(k, k.wrapping_mul(3)).ok();
            SeqMap::insert(&mut oracle, k, k.wrapping_mul(3));
        } else {
            map.remove_key(&k);
            SeqMap::remove(&mut oracle, &k);
        }
    }
    prop_assert_eq!(
        map.min_key(),
        oracle.keys().next().copied(),
        "min at {} shards ({})",
        shards,
        route_name
    );
    prop_assert_eq!(
        map.max_key(),
        oracle.keys().next_back().copied(),
        "max at {} shards ({})",
        shards,
        route_name
    );
    for &(lo_kind, lo_k, hi_kind, hi_k) in queries {
        let (lo, hi) = (bound_of(lo_kind, lo_k), bound_of(hi_kind, hi_k));
        let got = map.range_snapshot(lo.as_ref(), hi.as_ref());
        if btreemap_accepts(&lo, &hi) {
            let want: Vec<(u64, u64)> = oracle.range((lo, hi)).map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(
                got,
                want,
                "range {:?}..{:?} at {} shards ({})",
                lo,
                hi,
                shards,
                route_name
            );
        } else {
            prop_assert!(
                got.is_empty(),
                "inverted range {:?}..{:?} must be empty at {} shards ({}), got {:?}",
                lo,
                hi,
                shards,
                route_name,
                got
            );
        }
    }
    Ok(())
}

proptest! {
    /// Spread-out keys: the full 0..96 range, which lands on every shard
    /// of an 8-way map.
    #[test]
    fn sharded_matches_btreemap_spread_keys(
        ops in proptest::collection::vec((0u8..4, 0u64..96), 0..300)
    ) {
        for shards in SHARD_COUNTS {
            replay_and_check(shards, &ops)?;
        }
    }

    /// Colliding keys: every key routes to shard 0 of the 8-way map, so
    /// the whole history funnels through one tree while seven trees must
    /// stay untouched.
    #[test]
    fn sharded_matches_btreemap_single_shard_colliding_keys(
        ops in proptest::collection::vec(
            (0u8..4, proptest::sample::select(colliding_keys())),
            0..300,
        )
    ) {
        for shards in SHARD_COUNTS {
            replay_and_check(shards, &ops)?;
        }
        // The adversarial premise itself: at 8 shards, nothing leaks off
        // shard 0.
        let map: ShardedNbBst<u64, u64> = ShardedNbBst::with_shards(8);
        for &(_, k) in &ops {
            prop_assert_eq!(map.shard_of(&k), 0);
            map.insert_entry(k, k).ok();
        }
        prop_assert!(map.shards()[1..].iter().all(|s| s.len_slow() == 0));
    }

    /// `range_snapshot` / `min_key` / `max_key` vs the `BTreeMap` oracle
    /// at every shard count under the hash route, including inverted and
    /// degenerate bounds.
    #[test]
    fn sharded_range_snapshot_matches_btreemap(
        ops in proptest::collection::vec((0u8..2, 0u64..96), 0..250),
        queries in proptest::collection::vec((0u8..3, 0u64..100, 0u8..3, 0u64..100), 1..16),
    ) {
        for shards in SHARD_COUNTS {
            replay_and_check_ranges(
                ShardedNbBst::with_shards(shards),
                "fibonacci",
                shards,
                &ops,
                &queries,
            )?;
        }
    }

    /// All keys on one shard: the hash-route collision set funnels the
    /// 8-way map through shard 0, and the [`LastShard`] route funnels any
    /// key through shard 7 — both must still agree with the oracle (seven
    /// shards contribute nothing to the merge).
    #[test]
    fn sharded_range_snapshot_all_keys_one_shard(
        ops in proptest::collection::vec(
            (0u8..2, proptest::sample::select(colliding_keys())),
            0..250,
        ),
        low_ops in proptest::collection::vec((0u8..2, 0u64..12), 0..250),
        queries in proptest::collection::vec((0u8..3, 0u64..4_096, 0u8..3, 0u64..4_096), 1..16),
    ) {
        replay_and_check_ranges(
            ShardedNbBst::with_shards(8),
            "fibonacci-colliding",
            8,
            &ops,
            &queries,
        )?;
        let map = ShardedNbBst::with_route_and_shards(LastShard, 8);
        for &(_, k) in &low_ops {
            prop_assert_eq!(map.shard_of(&k), 7);
        }
        replay_and_check_ranges(map, "last-shard", 8, &low_ops, &queries)?;
    }
}
