//! # nbbst-core — the EFRB non-blocking binary search tree
//!
//! A faithful, production-quality implementation of **Ellen, Fatourou,
//! Ruppert and van Breugel, "Non-blocking Binary Search Trees", PODC
//! 2010**: the first complete, linearizable, lock-free BST built from
//! reads, writes and single-word CAS.
//!
//! ## Algorithm in one paragraph
//!
//! The tree is *leaf-oriented*: internal nodes only route, all dictionary
//! keys live in leaves, and two sentinel keys `∞1 < ∞2` pin the shape at
//! the top (Figure 6). Every internal node carries an *update word* — one
//! CAS word packing a state (`Clean`/`IFlag`/`DFlag`/`Mark`) with a pointer
//! to an *Info record*. An `Insert` flags the parent (`iflag`), swings one
//! child pointer to a fresh replacement for the leaf (`ichild`), and
//! unflags (`iunflag`). A `Delete` flags the grandparent (`dflag`),
//! permanently marks the parent (`mark`), splices it out (`dchild`), and
//! unflags (`dunflag`) — or, if the mark fails, removes its flag with a
//! `backtrack` CAS and retries. Because each flag publishes an Info record
//! describing the remaining steps, any thread that runs into a flag can
//! *help* the stalled operation to completion — this is what makes the
//! structure non-blocking under arbitrary crash failures.
//!
//! ## Fat leaves
//!
//! The paper's leaves hold one key. Here a leaf holds up to 32 sorted
//! entries and is immutable: an Insert, and a Delete that leaves the leaf
//! non-empty, replace it with an edited copy (or, when an Insert finds it
//! full, with an internal node over two half leaves) through the insertion
//! circuit above. Only a Delete that would empty its leaf runs the deletion
//! circuit. The CAS steps, Info records and Figure 4 are the paper's, and
//! capacity 1 (`NbBst::new().one_key_leaves()`) is exactly its tree.
//! DESIGN.md §13 has the argument.

//! ## Entry points
//!
//! * [`NbBst`] — the tree. `insert` / `remove` / `contains` / `get`
//!   (also via [`nbbst_dictionary::ConcurrentMap`]).
//! * [`NbBst::with_stats`] + [`StatsSnapshot`] — per-CAS-type counters
//!   reproducing the paper's Figure 4 state machine.
//! * [`raw`] — stepped, one-CAS-at-a-time operation drivers for
//!   deterministic schedules (crash injection, the paper's Figure 5
//!   snapshot, the Section 6 starvation schedule). They step the same
//!   machine the public operations run.
//!
//! ## Memory management
//!
//! The paper assumes garbage collection; here every attempt runs under an
//! epoch pin ([`nbbst_reclaim`]) and nodes are retired at their child CAS,
//! as the paper's Section 6 sketches. Info records are retired later than
//! Section 6 suggests: when the next flag or mark CAS displaces them from
//! the Clean update word their circuit left them in, so a flag CAS never
//! compares against a recycled record. DESIGN.md §2 lists the comparands
//! that remain exposed to address reuse.

#![warn(missing_docs, missing_debug_implementations)]

mod cleanup;
mod extensions;
mod node;
pub mod raw;
mod set;
mod state;
mod stats;
mod tree;
mod view;

pub use set::NbSet;
pub use state::State;
pub use stats::{StatsSnapshot, TreeStats};
pub use tree::NbBst;

#[cfg(test)]
mod tests {
    use super::*;
    use nbbst_dictionary::{ConcurrentMap, SeqMap};
    use nbbst_model::LeafBst;

    #[test]
    fn empty_tree_finds_nothing() {
        let t: NbBst<u64, u64> = NbBst::new();
        assert!(!t.contains_key(&1));
        assert_eq!(t.get_cloned(&1), None);
        assert_eq!(t.len_slow(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_find_remove_roundtrip() {
        let t: NbBst<u64, &str> = NbBst::new();
        assert!(t.insert_entry(5, "five").is_ok());
        assert!(t.contains_key(&5));
        assert_eq!(t.get_cloned(&5), Some("five"));
        assert!(t.remove_key(&5));
        assert!(!t.contains_key(&5));
        assert!(!t.remove_key(&5));
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_returns_inputs() {
        let t: NbBst<u64, String> = NbBst::new();
        assert!(t.insert_entry(9, "nine".to_string()).is_ok());
        let (k, v) = t.insert_entry(9, "neuf".to_string()).unwrap_err();
        assert_eq!(k, 9);
        assert_eq!(v, "neuf");
        assert_eq!(t.get_cloned(&9), Some("nine".to_string()));
    }

    #[test]
    fn remove_entry_returns_value() {
        let t: NbBst<u64, u64> = NbBst::new();
        t.insert_entry(3, 30).unwrap();
        assert_eq!(t.remove_entry(&3), Some(30));
        assert_eq!(t.remove_entry(&3), None);
    }

    #[test]
    fn matches_sequential_model_on_a_scripted_run() {
        let t: NbBst<u64, u64> = NbBst::new();
        let mut m: LeafBst<u64, u64> = LeafBst::new();
        let script: Vec<(u8, u64)> = (0..500)
            .map(|i| ((i % 3) as u8, (i * 31 + 7) % 64))
            .collect();
        for (op, k) in script {
            match op {
                0 => assert_eq!(
                    t.insert_entry(k, k).is_ok(),
                    SeqMap::insert(&mut m, k, k),
                    "insert {k}"
                ),
                1 => assert_eq!(t.remove_key(&k), SeqMap::remove(&mut m, &k), "remove {k}"),
                _ => assert_eq!(t.contains_key(&k), SeqMap::contains(&m, &k), "find {k}"),
            }
            t.check_invariants().unwrap();
        }
        assert_eq!(t.keys_snapshot(), m.keys().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let t: NbBst<u64, u64> = NbBst::new();
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..500 {
                        assert!(t.insert(tid * 1_000 + i, i));
                    }
                });
            }
        });
        assert_eq!(t.quiescent_len(), 8 * 500);
        t.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_mixed_workload_preserves_invariants_and_figure4() {
        let t: NbBst<u64, u64> = NbBst::with_stats();
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    let mut x = tid + 1;
                    for _ in 0..3_000 {
                        // xorshift
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 128;
                        match x % 3 {
                            0 => {
                                t.insert(k, k);
                            }
                            1 => {
                                t.remove(&k);
                            }
                            _ => {
                                t.contains(&k);
                            }
                        }
                    }
                });
            }
        });
        t.check_invariants().unwrap();
        t.stats().unwrap().check_figure4().unwrap();
    }

    #[test]
    fn contended_single_key_stays_consistent() {
        // All threads fight over the same few keys: maximum helping. On a
        // single-core host, genuine mid-operation preemption is rare, so
        // plant one crashed flagged insert up front — the first worker
        // whose update crosses it MUST help (deterministic helping).
        let t: NbBst<u64, u64> = NbBst::with_stats();
        {
            let mut corpse = crate::raw::RawInsert::new(&t, 2, 2);
            assert!(corpse.search().is_ready());
            assert!(corpse.flag());
            corpse.abandon();
        }
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    let mut x = tid * 7 + 1;
                    for i in 0..2_000u64 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = (x >> 33) % 2;
                        if (x >> 7) % 2 == 0 {
                            t.insert(k, i);
                        } else {
                            t.remove(&k);
                        }
                    }
                });
            }
        });
        t.check_invariants().unwrap();
        let stats = t.stats().unwrap();
        stats.check_figure4().unwrap();
        // The planted corpse guarantees at least one help (plus whatever
        // genuine contention produced).
        assert!(stats.helps > 0, "expected helping, got {stats:?}");
        assert!(
            t.contains_key(&2),
            "the crashed insert was completed by a helper"
        );
    }

    #[test]
    fn values_are_not_overwritten_by_duplicate_insert_under_contention() {
        let t: NbBst<u64, u64> = NbBst::new();
        t.insert(1, 100);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        t.insert(1, 999); // all duplicates
                    }
                });
            }
        });
        assert_eq!(t.get_cloned(&1), Some(100));
    }

    #[test]
    fn drop_reclaims_everything_without_crashing() {
        // Exercised properly under Miri/ASan; here we at least drive the
        // teardown paths, including retired-but-not-yet-freed garbage.
        let t: NbBst<u64, u64> = NbBst::new();
        for k in 0..1_000 {
            t.insert(k, k);
        }
        for k in (0..1_000).step_by(2) {
            t.remove(&k);
        }
        drop(t);
    }

    #[test]
    fn leaky_tree_retires_but_never_frees() {
        let t: NbBst<u64, u64> = NbBst::new_leaky();
        for k in 0..200 {
            t.insert(k, k);
        }
        for k in 0..200 {
            t.remove(&k);
        }
        t.collector().try_drain(100);
        let s = t.collector().stats();
        assert!(s.retired > 0);
        assert_eq!(s.freed, 0, "leaky collector must never free: {s:?}");
        t.check_invariants().unwrap();
        // Tree drop must still free the REACHABLE structure (only retired
        // garbage leaks).
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NbBst<u64, u64>>();
    }
}
