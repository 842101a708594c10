//! # nbbst — Non-blocking Binary Search Trees
//!
//! A comprehensive Rust reproduction of **Ellen, Fatourou, Ruppert, van
//! Breugel, "Non-blocking Binary Search Trees", PODC 2010** — the first
//! complete, linearizable, non-blocking binary search tree built from
//! single-word compare-and-swap.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`NbBst`] — the paper's tree (from [`nbbst_core`]).
//! * [`ConcurrentMap`] / [`SeqMap`] — the dictionary abstraction
//!   (from [`nbbst_dictionary`]).
//! * [`reclaim`] — the epoch-based memory-reclamation substrate.
//! * [`model`] — sequential reference models.
//! * [`baselines`] — a coarse-lock comparator and the naive tree of Figure 3.
//! * [`harness`] — workloads, drivers with exact accounting,
//!   linearizability checking. `perfbench` (its own workspace) measures.
//! * [`ShardedNbBst`] / [`sharded`] — key-space partitioning across
//!   independent EFRB trees behind one [`ConcurrentMap`] and one
//!   reclamation domain.
//!
//! # Quickstart
//!
//! ```
//! use nbbst::NbBst;
//! use nbbst::ConcurrentMap;
//!
//! let tree: NbBst<u64, &str> = NbBst::new();
//! assert!(tree.insert(7, "seven"));
//! assert!(!tree.insert(7, "SEVEN"));        // duplicates rejected
//! assert_eq!(tree.get(&7), Some("seven"));
//! assert!(tree.remove(&7));
//! assert!(!tree.contains(&7));
//! ```
//!
//! See `examples/` for multithreaded usage, crash-tolerance demos, and
//! deterministic schedule exploration, and `EXPERIMENTS.md` for the full
//! reproduction of the paper's figures.

pub use nbbst_core::{NbBst, State, StatsSnapshot};
pub use nbbst_dictionary::{ConcurrentMap, Operation, Response, SeqMap};
pub use nbbst_sharded::ShardedNbBst;

/// The EFRB tree implementation crate ([`nbbst_core`]).
pub use nbbst_core as core;

/// Memory-reclamation substrate ([`nbbst_reclaim`]).
pub use nbbst_reclaim as reclaim;

/// Sequential reference models ([`nbbst_model`]).
pub use nbbst_model as model;

/// Comparator dictionaries ([`nbbst_baselines`]).
pub use nbbst_baselines as baselines;

/// Workloads, drivers and linearizability checking ([`nbbst_harness`]).
pub use nbbst_harness as harness;

/// Sharded frontend over the EFRB tree ([`nbbst_sharded`]).
pub use nbbst_sharded as sharded;
