//! A closed-loop, oracle-checked benchmark of the EFRB tree stack.
//!
//! `perfbench` drives the shipped default constructors (`NbBst::new`,
//! `ShardedNbBst::new`) with two worker threads, checks the result of
//! every operation against an exact per-worker oracle, and prints the
//! metrics `BENCHMARK.json` names. The measured phase runs in a child
//! process ([`child`]); the parent ([`parent`]) turns the child's
//! progress lines into the result, so a child that aborts, panics or
//! hangs still yields a complete report in which the operations it did
//! not complete count as failed.

pub mod child;
mod maps;
mod oracle;
pub mod parent;
mod trace;
pub mod workload;

pub use maps::Fault;
