//! Chaos torture: every adversarial ingredient at once.
//!
//! Rounds of: plant crashed operations at random circuit points (the
//! paper's crash-failure model), then hammer the tree from worker threads
//! with mixed operations and whole-tree snapshots, and
//! finally validate structure, Figure-4 circuit identities (abandoned-
//! tolerant) and membership/snapshot agreement.

use nbbst::core::raw::{SearchOutcome, Stepper};
use nbbst::{ConcurrentMap, NbBst};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RANGE: u64 = 128;

/// Plants up to `n` crashed operations at randomized circuit points.
/// Returns how many actually planted (a flag attempt can find its node
/// already flagged by an earlier corpse and be skipped).
fn plant_corpses(tree: &NbBst<u64, u64>, rng: &mut SmallRng, n: usize) -> usize {
    let mut planted = 0;
    for _ in 0..n {
        match rng.gen_range(0..3u8) {
            0 => {
                // Insert crashed after iflag.
                let k = rng.gen_range(0..RANGE * 2);
                let mut ins = Stepper::insert(tree, k, k);
                if ins.search().is_ready() && ins.flag() {
                    planted += 1;
                    ins.abandon();
                }
            }
            1 => {
                // Delete crashed after dflag.
                let k = rng.gen_range(0..RANGE);
                let mut del = Stepper::delete(tree, k);
                if del.search() == SearchOutcome::Ready && del.flag() {
                    planted += 1;
                    del.abandon();
                }
            }
            _ => {
                // Delete crashed after mark.
                let k = rng.gen_range(0..RANGE);
                let mut del = Stepper::delete(tree, k);
                if del.search() == SearchOutcome::Ready && del.flag() && del.mark() {
                    planted += 1;
                    del.abandon();
                }
            }
        }
    }
    planted
}

#[test]
fn chaos_rounds_with_crashes_churn_and_cleanup() {
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
    for round in 0..5u64 {
        let tree: NbBst<u64, u64> = NbBst::with_stats();
        for k in 0..RANGE {
            if k % 2 == 0 {
                tree.insert(k, k);
            }
        }
        let planted = plant_corpses(&tree, &mut rng, 8);

        std::thread::scope(|s| {
            // Mixed-op workers.
            for tid in 0..3u64 {
                let tree = &tree;
                s.spawn(move || {
                    let mut x = round * 31 + tid + 1;
                    for _ in 0..4_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % RANGE;
                        match x % 4 {
                            0 => {
                                tree.insert(k, k);
                            }
                            1 => {
                                tree.remove(&k);
                            }
                            _ => {
                                tree.contains_key(&k);
                            }
                        }
                    }
                });
            }
            // A snapshot reader validating well-formedness throughout.
            {
                let tree = &tree;
                s.spawn(move || {
                    for _ in 0..30 {
                        let keys = tree.keys_snapshot();
                        assert!(
                            keys.windows(2).all(|w| w[0] < w[1]),
                            "snapshot must be sorted + duplicate-free"
                        );
                    }
                });
            }
        });

        // Post-round validation. Flags from corpses may remain (nobody
        // was forced to cross them); structure must still be sound.
        tree.check_invariants_allowing(true)
            .unwrap_or_else(|e| panic!("round {round} (planted {planted}): {e}"));
        tree.stats()
            .unwrap()
            .check_figure4_allowing_abandoned()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));

        // Membership and snapshot agree.
        let snapshot = tree.keys_snapshot();
        let observed: Vec<u64> = (0..RANGE * 2).filter(|k| tree.contains(k)).collect();
        assert_eq!(snapshot, observed, "round {round}");
        // Tree dropped here with corpses outstanding: teardown reclaims
        // flags/Info records/speculative subtrees (checked by allocator
        // health across rounds).
    }
}

#[test]
fn chaos_many_trees_in_parallel() {
    // Several trees churned by interleaved threads: collector isolation
    // (per-tree epochs, shared TLS handle cache) must hold up.
    std::thread::scope(|s| {
        for t in 0..3u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t);
                for _ in 0..20 {
                    let tree: NbBst<u64, u64> = NbBst::new();
                    for _ in 0..300 {
                        let k = rng.gen_range(0..64u64);
                        if rng.gen() {
                            tree.insert(k, k);
                        } else {
                            tree.remove(&k);
                        }
                    }
                    tree.check_invariants().unwrap();
                }
            });
        }
    });
}

#[test]
fn chaos_snapshot_reader_under_heavy_delete_load() {
    let tree: NbBst<u64, u64> = NbBst::new();
    for k in 0..RANGE {
        tree.insert(k, k);
    }
    std::thread::scope(|s| {
        let deleter = s.spawn(|| {
            for k in 0..RANGE {
                tree.remove(&k);
            }
        });
        // Range readers racing the deletions: results shrink over time but
        // are always well-formed.
        for _ in 0..100 {
            let r = tree.range_snapshot(
                std::ops::Bound::Included(&32),
                std::ops::Bound::Excluded(&96),
            );
            assert!(r.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(r.iter().all(|(k, v)| (32..96).contains(k) && k == v));
        }
        deleter.join().unwrap();
    });
    assert_eq!(tree.quiescent_len(), 0);
    tree.check_invariants().unwrap();
}
