//! Key → shard routing for horizontally partitioned dictionaries.
//!
//! A sharded frontend (e.g. `nbbst-sharded`'s `ShardedNbBst`) splits the
//! key space over a power-of-two array of independent dictionaries. The
//! [`ShardRoute`] trait is the pluggable splitter: given a key and the
//! shard count it names the one shard that owns the key. Routing must be
//! **pure** — the same key always maps to the same shard for the lifetime
//! of the map — which is what lets per-key operations stay linearizable
//! across the composition (every operation touches exactly one
//! linearizable shard).
//!
//! The crate ships one route, [`FibonacciRoute`]: an FNV-1a hash of the
//! key followed by a Fibonacci (golden-ratio) multiply, taking the *top*
//! bits. The multiply diffuses low-entropy keys (sequential integers,
//! aligned pointers) across shards, and taking high bits keeps the route
//! stable in distribution when the shard count changes by powers of two.
//! Hash routing balances load under any key distribution but scatters
//! ordered key ranges over every shard, so ordered scans merge all shards.

use std::hash::{Hash, Hasher};

/// Maps keys to shards for a horizontally partitioned dictionary.
///
/// `shards` is always a power of two (sharded frontends round up), and
/// implementations must return a value in `0..shards` and be *pure*: the
/// route for a key may depend only on the key and the shard count, never
/// on mutable state, so that every operation on a key is served by the
/// same underlying dictionary.
///
/// # Examples
///
/// A route that pins every key to one shard (adversarial tests use this
/// to drive maximal contention through a sharded map):
///
/// ```
/// use nbbst_dictionary::ShardRoute;
///
/// struct OneShard;
/// impl<K> ShardRoute<K> for OneShard {
///     fn shard(&self, _key: &K, _shards: usize) -> usize {
///         0
///     }
/// }
/// assert_eq!(OneShard.shard(&42u64, 8), 0);
/// ```
pub trait ShardRoute<K: ?Sized>: Send + Sync {
    /// The index of the shard owning `key`, in `0..shards`.
    ///
    /// `shards` is a power of two.
    fn shard(&self, key: &K, shards: usize) -> usize;
}

/// FNV-1a, the workspace's dependency-free [`Hasher`]: cheap (one
/// multiply per byte), deterministic across runs and platforms.
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The default splitter: FNV-1a over the key's [`Hash`] bytes, mixed by a
/// Fibonacci multiply, routed by the **top** `log2(shards)` bits.
///
/// The golden-ratio constant `2^64 / φ` spreads consecutive and
/// low-entropy hashes maximally apart (Knuth's multiplicative hashing),
/// so sequential integer keys — the common benchmark workload, and the
/// worst case for naive `hash % shards` routing on power-of-two counts —
/// distribute evenly.
///
/// Shard counts are powers of two by contract, but a non-power-of-two
/// count degrades gracefully: the route takes enough top bits to cover
/// the count and caps the result at `shards - 1` (slightly uneven, never
/// out of range).
///
/// # Examples
///
/// ```
/// use nbbst_dictionary::{FibonacciRoute, ShardRoute};
///
/// let route = FibonacciRoute;
/// for k in 0u64..1000 {
///     assert!(route.shard(&k, 8) < 8);
///     // Pure: the same key always lands on the same shard.
///     assert_eq!(route.shard(&k, 8), route.shard(&k, 8));
/// }
/// // One shard short-circuits.
/// assert_eq!(route.shard(&7u64, 1), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FibonacciRoute;

/// `2^64 / φ`, odd — Knuth's multiplicative-hash constant.
const PHI64: u64 = 0x9E37_79B9_7F4A_7C15;

impl<K: Hash + ?Sized> ShardRoute<K> for FibonacciRoute {
    fn shard(&self, key: &K, shards: usize) -> usize {
        debug_assert!(shards.is_power_of_two(), "shard counts are powers of two");
        if shards <= 1 {
            return 0;
        }
        let mut h = Fnv1a::default();
        key.hash(&mut h);
        let mixed = h.finish().wrapping_mul(PHI64);
        // Top bits: the multiply pushes entropy upward. `bits` covers
        // the shard count even when it is not a power of two (the
        // debug_assert above states the contract; release builds must
        // still stay in range), and the cap folds the excess of the
        // rounded-up space back onto the last shard. A 64-bit shift
        // (shards == 1) is already excluded above.
        let bits = shards.next_power_of_two().trailing_zeros();
        ((mixed >> (64 - bits)) as usize).min(shards - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_stay_in_range_for_every_pow2() {
        let r = FibonacciRoute;
        for shards in [1usize, 2, 4, 8, 64, 1024] {
            for k in 0u64..4_096 {
                assert!(r.shard(&k, shards) < shards, "key {k} shards {shards}");
            }
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn non_pow2_shard_counts_stay_in_range_in_release() {
        // The power-of-two contract is debug_assert-ed, so release builds
        // must degrade gracefully instead of routing out of range (the
        // old `trailing_zeros` shift produced indices up to
        // next_power_of_two(shards) - 1, e.g. 7 for shards == 5).
        let r = FibonacciRoute;
        for shards in [3usize, 5, 6, 7, 12, 100] {
            for k in 0u64..4_096 {
                let s = r.shard(&k, shards);
                assert!(s < shards, "key {k} routed to {s} of {shards}");
            }
        }
    }

    #[test]
    fn sequential_keys_spread_evenly() {
        // The motivating case: benchmark keys are 0..n. A naive
        // `key % shards` would be fine here, but `hash-top-bits` without
        // the Fibonacci mix would clump; assert real balance.
        let r = FibonacciRoute;
        let shards = 8usize;
        let mut counts = vec![0usize; shards];
        let n = 8_000u64;
        for k in 0..n {
            counts[r.shard(&k, shards)] += 1;
        }
        let ideal = n as usize / shards;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > ideal / 2 && c < ideal * 2,
                "shard {s} got {c} of {n} keys (ideal {ideal}): {counts:?}"
            );
        }
    }

    #[test]
    fn route_is_deterministic_and_key_typed() {
        let r = FibonacciRoute;
        assert_eq!(r.shard(&123u64, 16), r.shard(&123u64, 16));
        // Strings route too (any Hash key).
        assert!(r.shard("hello", 4) < 4);
        assert_eq!(r.shard("hello", 4), r.shard("hello", 4));
    }

    #[test]
    fn custom_routes_are_pluggable() {
        struct Evens;
        impl ShardRoute<u64> for Evens {
            fn shard(&self, key: &u64, shards: usize) -> usize {
                (*key as usize) & (shards - 1)
            }
        }
        assert_eq!(Evens.shard(&10, 4), 2);
        assert_eq!(Evens.shard(&7, 4), 3);
    }
}
