//! Workload definitions and seeded input generation.
//!
//! Every input — the prefill key set, its insertion order and each
//! worker's per-round operation stream — is a pure function of the
//! `--seed` argument, so two runs with one seed drive the map with
//! identical inputs. Streams are generated before the round that
//! replays them is timed.

use nbbst_sharded::ShardedNbBst;

/// Closed-loop worker threads driving the map.
pub const WORKERS: usize = 2;

/// Operations each worker executes per timed round (the fixed per-worker
/// op budget that one throughput sample covers).
pub const ROUND_OPS: usize = 1 << 16;

/// Keys spanned by one `range_snapshot` in the scan mix.
pub const SCAN_KEYS: u64 = 64;

/// Which map a workload drives by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frontend {
    /// `NbBst::new()`.
    Tree,
    /// `ShardedNbBst::new()` (Fibonacci route, default shard count).
    Sharded,
}

/// How a worker picks the keys it touches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Skew {
    Uniform,
    /// Zipf with the given exponent; rank 0 (hottest) is the smallest key.
    Zipf(f64),
}

/// Which keys each worker owns. A worker is the only writer of the keys
/// it owns, which is what makes the oracle exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Owner {
    /// Worker `t` owns the keys `≡ t (mod WORKERS)`. The partitions
    /// interleave, so both workers meet on internal nodes and update words
    /// of one tree.
    Parity,
    /// Worker `t` owns the keys that `ShardedNbBst::new()` routes to a
    /// shard `≡ t (mod WORKERS)`, so every shard tree has one writer and
    /// the workers share only the reclamation collector.
    Shard,
}

/// One benchmark workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// The key space is `0..1 << key_bits`.
    pub key_bits: u32,
    pub skew: Skew,
    /// Per-mille shares of scan / find / insert / delete (sum 1000).
    pub mix: [u32; 4],
    pub frontend: Frontend,
    pub owner: Owner,
}

/// Every workload: first the ones `BENCHMARK.json` lists (see its `why`
/// fields), then diagnostic ones that reproduce the defects known at this
/// commit and so report failed operations in some runs: the default
/// collector's Info-record reuse (two writers on one tree's update words)
/// and `NbBst::range_snapshot` returning a key twice when it is deleted
/// and re-inserted during the walk (scans beside writers of the same tree).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_mostly",
        key_bits: 20,
        skew: Skew::Uniform,
        mix: [0, 900, 50, 50],
        frontend: Frontend::Tree,
        owner: Owner::Parity,
    },
    Workload {
        name: "sharded_partitioned",
        key_bits: 18,
        skew: Skew::Zipf(0.99),
        mix: [0, 500, 250, 250],
        frontend: Frontend::Sharded,
        owner: Owner::Shard,
    },
    Workload {
        name: "update_contended",
        key_bits: 14,
        skew: Skew::Uniform,
        mix: [0, 0, 500, 500],
        frontend: Frontend::Tree,
        owner: Owner::Parity,
    },
    Workload {
        name: "sharded_scan",
        key_bits: 18,
        skew: Skew::Zipf(0.99),
        mix: [20, 490, 245, 245],
        frontend: Frontend::Sharded,
        owner: Owner::Parity,
    },
];

/// How many of [`WORKLOADS`] `BENCHMARK.json` lists.
pub const BENCHMARKED: usize = 2;

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The keys worker `worker` owns, ascending.
    pub fn owned_keys(&self, worker: usize) -> Vec<u64> {
        match self.owner {
            Owner::Parity => (worker as u64..self.keys()).step_by(WORKERS).collect(),
            Owner::Shard => {
                // Routing only: the map the child builds has the same
                // default shard count and route.
                let router: ShardedNbBst<u64, u64> = ShardedNbBst::new();
                (0..self.keys())
                    .filter(|k| router.shard_of(k) % WORKERS == worker)
                    .collect()
            }
        }
    }

    /// Size of the key space.
    pub fn keys(&self) -> u64 {
        1 << self.key_bits
    }

    /// Whether the op mix contains range scans.
    pub fn has_scans(&self) -> bool {
        self.mix[0] > 0
    }

    /// Whether the op mix contains finds.
    pub fn has_finds(&self) -> bool {
        self.mix[1] > 0
    }

    /// The prefill: a seeded random half of the key space, in a seeded
    /// random order (ascending inserts would build a degenerate path, as
    /// the tree never rebalances).
    pub fn prefill(&self, seed: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed, u64::MAX);
        let mut keys: Vec<u64> = (0..self.keys())
            .filter(|_| rng.next_u64() & 1 == 1)
            .collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        keys
    }

    /// A sampler for the keys worker `worker` owns and draws.
    pub fn sampler(&self, worker: usize) -> KeySampler {
        let keys = self.owned_keys(worker);
        let dist = match self.skew {
            Skew::Uniform => Dist::Uniform,
            Skew::Zipf(s) => {
                let mut cdf = Vec::with_capacity(keys.len());
                let mut acc = 0.0;
                for rank in 1..=keys.len() {
                    acc += 1.0 / (rank as f64).powf(s);
                    cdf.push(acc);
                }
                for c in &mut cdf {
                    *c /= acc;
                }
                Dist::Zipf(cdf)
            }
        };
        KeySampler { keys, dist }
    }

    /// Worker `worker`'s operations for round `round`, on the keys
    /// `sampler` (that worker's) draws.
    pub fn stream(&self, sampler: &KeySampler, seed: u64, worker: usize, round: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed, (round << 8) | worker as u64);
        let [scan, find, insert, _] = self.mix;
        (0..ROUND_OPS)
            .map(|_| {
                let roll = rng.below(1000) as u32;
                let kind = if roll < scan {
                    Kind::Scan
                } else if roll < scan + find {
                    Kind::Find
                } else if roll < scan + find + insert {
                    Kind::Insert
                } else {
                    Kind::Delete
                };
                Op {
                    kind,
                    key: sampler.sample(&mut rng),
                }
            })
            .collect()
    }
}

/// Operation kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Find,
    Insert,
    Delete,
    /// `range_snapshot` over `key ..= key + SCAN_KEYS - 1`.
    Scan,
}

/// One operation of a worker's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Op {
    pub kind: Kind,
    pub key: u64,
}

/// Draws one worker's keys.
#[derive(Clone, Debug)]
pub struct KeySampler {
    /// The owned keys, ascending; Zipf rank 0 (hottest) is the smallest.
    keys: Vec<u64>,
    dist: Dist,
}

#[derive(Clone, Debug)]
enum Dist {
    Uniform,
    /// Normalised cumulative distribution over ranks.
    Zipf(Vec<f64>),
}

impl KeySampler {
    /// The keys this sampler draws from, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let n = self.keys.len();
        let i = match &self.dist {
            Dist::Uniform => rng.below(n as u64) as usize,
            Dist::Zipf(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|&c| c < u).min(n - 1)
            }
        };
        self.keys[i]
    }
}

/// SplitMix64, keyed by `(seed, stream)`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_has_exactly_one_owner() {
        for w in &WORKLOADS {
            let mut owners = vec![0u8; w.keys() as usize];
            for t in 0..WORKERS {
                let keys = w.owned_keys(t);
                assert!(keys.windows(2).all(|p| p[0] < p[1]), "{}", w.name);
                assert!(keys.len() as u64 > w.keys() / 4, "{}: lopsided", w.name);
                for k in keys {
                    owners[k as usize] += 1;
                }
            }
            assert!(owners.iter().all(|&n| n == 1), "{}", w.name);
        }
    }

    #[test]
    fn shard_owners_are_the_only_writers_of_their_shards() {
        let w = Workload::by_name("sharded_partitioned").unwrap();
        let router: ShardedNbBst<u64, u64> = ShardedNbBst::new();
        for t in 0..WORKERS {
            assert!(w
                .owned_keys(t)
                .iter()
                .all(|k| router.shard_of(k) % WORKERS == t));
        }
    }
}
