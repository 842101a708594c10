//! Oracle soundness, crash isolation and seeded inputs.
//!
//! The first group shows the checker raises no false alarm (zero failed
//! operations on maps without the Info-record reuse the default collector
//! allows) and misses nothing (a lying map and a dying map are reported
//! with exactly the expected failed-operation counts). Run with
//! `cargo test --release` from this directory; each run of the binary
//! here uses a sub-second measured phase.

use std::process::Command;

use perfbench::child::{probe_ops, AUDIT_OPS, MIN_ROUNDS};
use perfbench::workload::{Kind, Workload, BENCHMARKED, ROUND_OPS, WORKERS, WORKLOADS};

struct Run {
    stdout: String,
    attempted: u64,
    failed: u64,
}

fn field(json: &str, key: &str) -> u64 {
    let at = json
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + key.len() + 4..];
    rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())]
        .parse()
        .expect("a whole number")
}

fn perfbench(workload: &str, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0.05"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "exit {:?}; stdout:\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true"),
        "bad result line {last}"
    );
    Run {
        attempted: field(&last, "attempted"),
        failed: field(&last, "failed"),
        stdout,
    }
}

/// Operations of `rounds` rounds (each with its probe block) plus the
/// audit.
fn expected_attempts(w: &Workload, rounds: u64) -> u64 {
    rounds * (WORKERS * ROUND_OPS) as u64 + rounds * probe_ops(w) + AUDIT_OPS
}

/// `sharded_scan` (a diagnostic workload, not listed in `BENCHMARK.json`)
/// on the leaky tree fails this test intermittently: at this commit `NbBst::range_snapshot` can return a key twice when another
/// thread deletes and re-inserts it during the walk (the in-order cursor
/// pushes a right subtree, the key's parent is spliced out so that subtree
/// is promoted, and the re-insert lands in it). Reclamation plays no part,
/// so the leaky tree shows it too; it is a wrong answer, not a false alarm.
#[test]
fn leaky_tree_reports_no_failed_ops_on_any_workload() {
    for w in &WORKLOADS {
        let r = perfbench(w.name, &["--trace", "0", "--map", "leaky"]);
        assert_eq!(r.failed, 0, "{}: failed ops\n{}", w.name, r.stdout);
        assert!(
            r.attempted >= expected_attempts(w, MIN_ROUNDS),
            "{}",
            w.name
        );
    }
}

#[test]
fn coarse_lock_reports_no_failed_ops_on_any_workload() {
    // Its scans read key by key, so they cannot repeat a key: this is
    // the scan checker's no-false-alarm case.
    for w in &WORKLOADS {
        let r = perfbench(w.name, &["--trace", "0", "--map", "coarse"]);
        assert_eq!(r.failed, 0, "{}: false alarm\n{}", w.name, r.stdout);
    }
}

#[test]
fn every_flipped_update_result_is_one_failed_op() {
    // Every operation of update_contended's phase is an update, so the
    // wrapper flips exactly floor(updates / 1000) results.
    let w = Workload::by_name("update_contended").unwrap();
    let r = perfbench(
        w.name,
        &["--trace", "0", "--map", "leaky", "--inject", "flip:1000"],
    );
    let per_round = (WORKERS * ROUND_OPS) as u64 + probe_ops(w);
    let rounds = (r.attempted - AUDIT_OPS) / per_round;
    assert_eq!(r.attempted, expected_attempts(w, rounds));
    let updates = rounds * (WORKERS * ROUND_OPS) as u64;
    assert_eq!(r.failed, updates / 1000, "{}", r.stdout);
}

#[test]
fn an_abort_mid_run_fails_the_unfinished_round_and_the_checks() {
    // The first worker operation of round 1 aborts the measured process:
    // round 0 and both probe blocks completed cleanly; round 1's worker
    // operations and the audit did not. Probe scans go through the
    // wrapper too.
    let w = Workload::by_name("read_mostly").unwrap();
    let round = (WORKERS * ROUND_OPS) as u64;
    let at = format!("abort:{}", 2 * probe_ops(w) + round + 1);
    let r = perfbench(w.name, &["--trace", "0", "--map", "leaky", "--inject", &at]);
    assert!(
        r.stdout.contains("SIGABRT"),
        "cause not recorded:\n{}",
        r.stdout
    );
    assert_eq!(r.attempted, expected_attempts(w, 2));
    assert_eq!(r.failed, round + AUDIT_OPS);
    // Metrics still come from the completed round.
    assert!(
        !r.stdout.contains("\"throughput_mops\": {\"value\": 0,"),
        "{}",
        r.stdout
    );
}

#[test]
fn a_worker_panic_is_reported_with_its_message() {
    // The panic comes 7 operations into round 2, after three probe blocks.
    let w = Workload::by_name("sharded_partitioned").unwrap();
    let round = (WORKERS * ROUND_OPS) as u64;
    let n = 3 * probe_ops(w) + 2 * round + 7;
    let r = perfbench(
        w.name,
        &[
            "--trace",
            "0",
            "--map",
            "leaky",
            "--inject",
            &format!("panic:{n}"),
        ],
    );
    let msg = format!("injected panic at operation {n}");
    assert!(
        r.stdout.contains(&msg),
        "panic message not recorded:\n{}",
        r.stdout
    );
    assert_eq!(r.failed, round + AUDIT_OPS, "{}", r.stdout);
    assert_eq!(r.attempted, expected_attempts(w, 3));
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in &WORKLOADS {
        assert_eq!(w.prefill(3), w.prefill(3), "{}", w.name);
        assert_ne!(w.prefill(3), w.prefill(4), "{}", w.name);
        for t in 0..WORKERS {
            let sampler = w.sampler(t);
            let a = w.stream(&sampler, 3, t, 5);
            assert_eq!(a, w.stream(&sampler, 3, t, 5), "{}", w.name);
            assert_ne!(a, w.stream(&sampler, 4, t, 5), "{}", w.name);
            assert_ne!(a, w.stream(&sampler, 3, t, 6), "{}", w.name);
            let owned = w.owned_keys(t);
            assert!(a.iter().all(|op| owned.binary_search(&op.key).is_ok()));
            let scans = a.iter().filter(|op| op.kind == Kind::Scan).count();
            assert_eq!(scans > 0, w.has_scans(), "{}", w.name);
        }
    }
}

/// The metric names `BENCHMARK.json` lists in `section`.
fn listed_names(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_the_benchmarked_workloads() {
    let listed = listed_names("workloads");
    let ours: Vec<_> = WORKLOADS[..BENCHMARKED].iter().map(|w| w.name).collect();
    assert_eq!(listed, ours);
}

#[test]
fn untraced_and_traced_runs_print_every_listed_metric() {
    for w in &WORKLOADS[..BENCHMARKED] {
        let plain = perfbench(w.name, &["--trace", "0"]);
        let last = plain.stdout.lines().last().unwrap();
        for name in listed_names("end_to_end") {
            assert!(
                last.contains(&format!("\"{name}\": {{")),
                "{}: missing {name}",
                w.name
            );
        }
    }
    for w in WORKLOADS[..BENCHMARKED].iter().map(|w| w.name) {
        let traced = perfbench(w, &["--trace", "1"]);
        let last = traced.stdout.lines().last().unwrap();
        for name in listed_names("per_layer") {
            assert!(
                last.contains(&format!("\"{name}\": {{")),
                "{w}: missing {name}"
            );
        }
    }
}
