//! Workload generation, driving and checking for concurrent
//! dictionaries.
//!
//! What the stress and linearizability tests, the Figure 4 binary and the
//! examples need, behind the [`nbbst_dictionary::ConcurrentMap`]
//! abstraction so the EFRB tree, the sharded frontend and the baselines
//! are driven identically:
//!
//! * [`WorkloadSpec`] / [`OpMix`] / [`KeyDist`] — parameterized workloads
//!   with deterministic per-thread streams (uniform, Zipf, hotspot).
//! * [`run_for`] / [`run_ops`] / [`prefill`] — barrier-synchronized
//!   multi-threaded drivers that count operations and successful updates
//!   ([`RunResult`]) for [`validate_after_run`]'s exact accounting. They
//!   time nothing; `perfbench` is the measurement path.
//! * [`record_history`] / [`check_linearizable`] — empirical
//!   linearizability checking (Wing–Gong with state memoization) against
//!   the dictionary semantics.

#![warn(missing_docs, missing_debug_implementations)]

mod linearize;
mod runner;
#[cfg(test)]
mod stats_tests;
mod workload;

pub use linearize::{check_linearizable, check_map_linearizable, record_history, CompletedOp};
pub use runner::{prefill, run_for, run_ops, validate_after_run, RunResult};
pub use workload::{KeyDist, OpGenerator, OpMix, WorkloadSpec};
