//! Locks the paper's figures: the `fig*` binaries must print exactly the
//! golden output under `results/figures/`, so a change to the protocol or
//! to the stepped drivers cannot alter a reproduced figure silently.
//!
//! The banner's `host: N hardware thread(s)` line is the one line that
//! depends on the machine; it is dropped before comparing. To regenerate
//! a golden file after an intended change, run the binary and drop that
//! line, e.g.
//!
//! ```text
//! cargo run -q -p nbbst-bench --bin fig3_races \
//!     | grep -v '^  host: ' > results/figures/fig3_races.txt
//! ```

use std::process::Command;

/// Runs a figure binary and returns its stdout without the host line.
fn run(exe: &str) -> String {
    let out = Command::new(exe).output().expect("figure binary starts");
    assert!(
        out.status.success(),
        "{exe} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("figure output is UTF-8")
        .lines()
        .filter(|line| !line.starts_with("  host: "))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Asserts that `exe` prints the golden file `results/figures/<name>.txt`.
fn check(name: &str, exe: &str) {
    let path = format!(
        "{}/../../results/figures/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).expect("golden file exists");
    let actual = run(exe);
    assert!(
        actual == golden,
        "{name} output differs from {path}\n--- golden\n{golden}--- actual\n{actual}"
    );
}

#[test]
fn fig1_fig2_shapes_matches_golden() {
    check("fig1_fig2_shapes", env!("CARGO_BIN_EXE_fig1_fig2_shapes"));
}

#[test]
fn fig3_races_matches_golden() {
    check("fig3_races", env!("CARGO_BIN_EXE_fig3_races"));
}

#[test]
fn fig5_snapshot_matches_golden() {
    check("fig5_snapshot", env!("CARGO_BIN_EXE_fig5_snapshot"));
}

#[test]
fn fig6_sentinels_matches_golden() {
    check("fig6_sentinels", env!("CARGO_BIN_EXE_fig6_sentinels"));
}

#[test]
fn fig4_state_machine_runs_its_self_checks() {
    run(env!("CARGO_BIN_EXE_fig4_state_machine"));
}
