//! T10 integration tests: recorded concurrent histories from the EFRB
//! tree, the sharded frontend and the coarse-lock baseline are
//! linearizable.

use nbbst::harness::{check_map_linearizable, KeyDist, OpMix, WorkloadSpec};
use nbbst::sharded::ShardedNbBst;
use nbbst::NbBst;
use nbbst_dictionary::ShardRoute;

fn spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        key_range: 8,
        mix: OpMix::new(20, 40, 40),
        dist: KeyDist::Uniform,
        prefill_fraction: 0.5,
        seed,
    }
}

#[test]
fn nbbst_histories_are_linearizable() {
    check_map_linearizable(NbBst::<u64, u64>::new, &spec(11), 4, 12, 60).unwrap();
}

#[test]
fn nbbst_update_heavy_histories_are_linearizable() {
    let s = WorkloadSpec {
        mix: OpMix::UPDATE_ONLY,
        key_range: 4, // maximal key collision
        ..spec(13)
    };
    check_map_linearizable(NbBst::<u64, u64>::new, &s, 4, 12, 60).unwrap();
}

#[test]
fn nbbst_read_heavy_histories_are_linearizable() {
    let s = WorkloadSpec {
        mix: OpMix::new(60, 20, 20),
        ..spec(17)
    };
    check_map_linearizable(NbBst::<u64, u64>::new, &s, 8, 8, 40).unwrap();
}

#[test]
fn sharded_histories_are_linearizable() {
    // The default hash route: the 8-key space spreads across 4 shards,
    // so histories interleave shard-local and cross-shard operations.
    check_map_linearizable(
        || ShardedNbBst::<u64, u64>::with_shards(4),
        &spec(37),
        4,
        12,
        60,
    )
    .unwrap();
}

#[test]
fn sharded_update_heavy_histories_are_linearizable() {
    let s = WorkloadSpec {
        mix: OpMix::UPDATE_ONLY,
        key_range: 4, // maximal key collision
        ..spec(41)
    };
    check_map_linearizable(|| ShardedNbBst::<u64, u64>::with_shards(8), &s, 4, 12, 60).unwrap();
}

#[test]
fn sharded_single_shard_adversarial_histories_are_linearizable() {
    // Adversarial route: every key funnels through shard 0 of an 8-way
    // map, so the composition degenerates to one tree behind the routing
    // layer — histories must stay linearizable with seven idle shards.
    #[derive(Debug)]
    struct OneShard;
    impl ShardRoute<u64> for OneShard {
        fn shard(&self, _key: &u64, _shards: usize) -> usize {
            0
        }
    }
    let s = WorkloadSpec {
        mix: OpMix::UPDATE_ONLY,
        ..spec(43)
    };
    check_map_linearizable(
        || ShardedNbBst::<u64, u64, OneShard>::with_route_and_shards(OneShard, 8),
        &s,
        4,
        12,
        60,
    )
    .unwrap();
}

#[test]
fn coarse_lock_histories_are_linearizable() {
    check_map_linearizable(
        nbbst::baselines::CoarseLockBst::<u64, u64>::new,
        &spec(31),
        4,
        12,
        40,
    )
    .unwrap();
}
