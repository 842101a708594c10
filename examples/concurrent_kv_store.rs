//! A concurrent key-value session store built on the EFRB tree.
//!
//! Models the workload the paper's introduction motivates: a dictionary
//! hammered by many threads with a read-mostly mix, where update
//! operations must never block readers (or each other, when they touch
//! different keys). Prints operation counts and the tree's CAS/helping
//! statistics; for throughput and latency, run `perfbench` (see
//! `BENCHMARK.json`).
//!
//! ```bash
//! cargo run --release --example concurrent_kv_store
//! ```

use nbbst::harness::{prefill, run_for, validate_after_run, WorkloadSpec};
use nbbst::NbBst;
use std::time::Duration;

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);

    // 64k sessions, half resident; 90% lookups, 5% logins, 5% logouts.
    let spec = WorkloadSpec::read_heavy(1 << 16);
    let store: NbBst<u64, u64> = NbBst::with_stats();

    println!("prefilling {} sessions...", (1 << 16) / 2);
    prefill(&store, &spec);

    println!("running {spec} on {threads} threads for 2s...");
    let result = run_for(&store, &spec, threads, Duration::from_secs(2));

    println!();
    println!("operations: {}", result.total_ops);
    println!(
        "successful logins: {}, successful logouts: {}",
        result.successful_inserts, result.successful_deletes
    );

    // Exact accounting: prefill + successful inserts - successful deletes
    // must equal the final size, and membership must agree with it.
    validate_after_run(&store, &spec, &result).expect("store consistent");
    store.check_invariants().expect("tree invariants");

    let stats = store.stats().expect("stats enabled");
    stats.check_figure4().expect("CAS circuits balanced");
    println!();
    println!("EFRB protocol activity during the run:");
    println!(
        "  insert circuits (iflag=ichild=iunflag): {}",
        stats.iflag_success
    );
    println!(
        "  delete circuits: {} completed, {} backtracked",
        stats.mark_success, stats.backtrack_success
    );
    println!(
        "  helping: {} times ({:.6} per update) — conservative, as designed",
        stats.helps,
        stats.helps_per_update()
    );
    println!(
        "  reclamation: {} nodes + {} info records retired to the epoch collector",
        stats.nodes_retired, stats.infos_retired
    );
    let rs = store.collector().stats();
    println!(
        "  collector: {} retired, {} freed, epoch {}",
        rs.retired, rs.freed, rs.global_epoch
    );
}
