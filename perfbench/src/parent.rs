//! The parent process: starts the measured child, watches it, and turns
//! its progress lines into the one-line JSON result. A child that dies or
//! stalls still yields a complete result: operations it began but did not
//! report count as attempted and failed, and the cause is printed.

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::child::{peak_rss_kib, ChildConfig, AUDIT_OPS};
use crate::trace::{iqm, LAYER_METRICS};

/// The whole run must end within this budget (a run may take at most 180 s).
const RUN_BUDGET: Duration = Duration::from_secs(170);
/// Allowance for a child's set-up and audit on top of its measured time.
const CHILD_SLACK: Duration = Duration::from_secs(60);
/// Once the phase began, a child silent for this long is killed as hung
/// (rounds report every fraction of a second; the audit takes about one).
const STALL: Duration = Duration::from_secs(10);

/// One `round` line: a timed round of the closed-loop phase.
#[derive(Clone, Copy, Debug, Default)]
struct Round {
    ops: u64,
    failed: u64,
    elapsed_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    scan_p50_ns: f64,
    scan_p99_ns: f64,
}

/// One `probe` line: a block of the quiescent probe.
#[derive(Clone, Copy, Debug, Default)]
struct ProbeBlock {
    ops: u64,
    failed: u64,
    scan_p50_ns: f64,
    scan_p99_ns: f64,
}

/// Everything one child reported, plus how it ended.
#[derive(Debug, Default)]
struct ChildReport {
    setup_s: Option<f64>,
    rounds: Vec<Round>,
    /// Ops announced by the last `begin` and not yet reported.
    open_ops: u64,
    probes: Vec<ProbeBlock>,
    audit: Option<(u64, u64)>,
    layers: Vec<(String, f64)>,
    peak_rss_kib: u64,
    done: bool,
    /// Lines that did not parse: the accounting may have missed them.
    malformed: u64,
    /// Why the child ended abnormally, if it did.
    cause: Option<String>,
    /// Operations attempted and failed, including unreported ones.
    attempted: u64,
    failed: u64,
}

impl ChildReport {
    /// Throughput of each round in Mops/s.
    fn round_mops(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.ops as f64 / r.elapsed_ns * 1e3)
            .collect()
    }

    fn parse_line(&mut self, line: &str) -> Result<(), String> {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let num = |i: usize| -> Result<f64, String> {
            let f = fields.get(i).ok_or("too few fields")?;
            f.parse::<f64>().map_err(|e| format!("{f:?}: {e}"))
        };
        match tag {
            "setup" => self.setup_s = Some(num(0)?),
            "begin" => self.open_ops = num(1)? as u64,
            "round" => {
                self.rounds.push(Round {
                    ops: num(1)? as u64,
                    failed: num(2)? as u64,
                    elapsed_ns: num(3)?,
                    p50_ns: num(4)?,
                    p99_ns: num(5)?,
                    scan_p50_ns: num(6)?,
                    scan_p99_ns: num(7)?,
                });
                self.open_ops = 0;
            }
            "probe" => {
                let p = ProbeBlock {
                    ops: num(0)? as u64,
                    failed: num(1)? as u64,
                    scan_p50_ns: num(2)?,
                    scan_p99_ns: num(3)?,
                };
                self.open_ops = self.open_ops.saturating_sub(p.ops);
                self.probes.push(p);
            }
            "audit" => self.audit = Some((num(0)? as u64, num(1)? as u64)),
            "layer" => {
                let name = fields.first().ok_or("no name")?;
                self.layers.push((name.to_string(), num(1)?));
            }
            "rss" => self.peak_rss_kib = self.peak_rss_kib.max(num(0)? as u64),
            "panic" => self.cause = Some(format!("panic: {rest}")),
            "done" => self.done = true,
            _ => return Err("unknown line".into()),
        }
        Ok(())
    }

    /// Totals attempted/failed. Whatever a complete run would have
    /// reported but this one did not — the rest of the round in progress,
    /// the audit — counts as attempted and failed.
    fn account(&mut self) {
        let (audit_ops, audit_failed) = self.audit.unwrap_or((0, 0));
        let missing = self.open_ops + AUDIT_OPS.saturating_sub(audit_ops);
        let ops = self
            .rounds
            .iter()
            .map(|r| r.ops)
            .chain(self.probes.iter().map(|p| p.ops));
        let failed = self
            .rounds
            .iter()
            .map(|r| r.failed)
            .chain(self.probes.iter().map(|p| p.failed));
        self.attempted = ops.sum::<u64>() + audit_ops + missing;
        self.failed = failed.sum::<u64>() + audit_failed + missing;
    }
}

fn describe(status: ExitStatus) -> String {
    use std::os::unix::process::ExitStatusExt;
    match (status.code(), status.signal()) {
        (_, Some(sig)) => {
            let name = match sig {
                4 => " (SIGILL)",
                6 => " (SIGABRT)",
                7 => " (SIGBUS)",
                9 => " (SIGKILL)",
                11 => " (SIGSEGV)",
                _ => "",
            };
            format!("killed by signal {sig}{name}")
        }
        (Some(code), _) => format!("exited with code {code}"),
        _ => "ended without a status".into(),
    }
}

/// Runs one child with `cfg` and collects its report, killing it at
/// `deadline` or when it stalls.
fn run_child(cfg: &ChildConfig, deadline: Instant) -> std::io::Result<ChildReport> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args([
        "--child",
        "--workload",
        cfg.workload.name,
        "--seed",
        &cfg.seed.to_string(),
        "--seconds",
        &cfg.seconds.to_string(),
        "--trace",
        if cfg.traced { "1" } else { "0" },
        "--map",
        cfg.map.name(),
    ]);
    if let Some(f) = cfg.fault {
        cmd.args(["--inject", &f.to_string()]);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let mut report = ChildReport::default();
    let mut last_line = Instant::now();
    let mut began = false;
    let mut killed: Option<String> = None;
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(line) => {
                last_line = Instant::now();
                began |= line.starts_with("begin");
                if let Err(e) = report.parse_line(&line) {
                    eprintln!("perfbench: malformed child line {line:?}: {e}");
                    report.malformed += 1;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some(kib) = peak_rss_kib(Some(pid)) {
            report.peak_rss_kib = report.peak_rss_kib.max(kib);
        }
        if killed.is_none() {
            let now = Instant::now();
            let why = if now >= deadline {
                Some("killed at the run deadline".to_string())
            } else if began && now - last_line >= STALL {
                Some(format!(
                    "killed after {}s without progress (hung)",
                    STALL.as_secs()
                ))
            } else {
                None
            };
            if let Some(why) = why {
                // The child may have exited meanwhile; either way it ends.
                let _ = child.kill();
                killed = Some(why);
            }
        }
    }
    let status = child.wait()?;
    reader.join().expect("the reader thread does not panic");
    if !report.done || !status.success() {
        let how = killed.unwrap_or_else(|| describe(status));
        report.cause = Some(match report.cause.take() {
            Some(panic) => format!("{panic}; {how}"),
            None => how,
        });
    }
    report.account();
    Ok(report)
}

/// Formats the result line.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// End-to-end metrics of an untraced child.
fn end_to_end(r: &ChildReport, has_scans: bool) -> Vec<(String, f64, &'static str)> {
    let of = |f: fn(&Round) -> f64| iqm(&r.rounds.iter().map(f).collect::<Vec<_>>());
    // Workloads without scans in their mix take scan latency from the
    // quiescent probe.
    let (scan_p50, scan_p99) = if has_scans {
        (of(|r| r.scan_p50_ns), of(|r| r.scan_p99_ns))
    } else {
        let probe = |f: fn(&ProbeBlock) -> f64| iqm(&r.probes.iter().map(f).collect::<Vec<_>>());
        (probe(|p| p.scan_p50_ns), probe(|p| p.scan_p99_ns))
    };
    vec![
        ("throughput_mops".into(), iqm(&r.round_mops()), "Mops/s"),
        ("latency_p50_ns".into(), of(|r| r.p50_ns), "ns"),
        ("latency_p99_ns".into(), of(|r| r.p99_ns), "ns"),
        ("scan_p50_us".into(), scan_p50 / 1e3, "us"),
        ("scan_p99_us".into(), scan_p99 / 1e3, "us"),
        ("peak_rss_mib".into(), r.peak_rss_kib as f64 / 1024.0, "MiB"),
        ("setup_s".into(), r.setup_s.unwrap_or(0.0), "s"),
    ]
}

/// Runs the benchmark: one untraced child, or for `--trace 1` an
/// untraced then a traced child sharing the time, and prints the result.
pub fn run(cfg: &ChildConfig) -> std::io::Result<()> {
    let start = Instant::now();
    let run_deadline = start + RUN_BUDGET;
    let child_deadline = |seconds: f64| {
        (Instant::now() + Duration::from_secs_f64(seconds) + CHILD_SLACK).min(run_deadline)
    };
    let mut reports = Vec::new();
    let metrics = if cfg.traced {
        let half = ChildConfig {
            seconds: cfg.seconds / 2.0,
            traced: false,
            ..cfg.clone()
        };
        let plain = run_child(&half, child_deadline(half.seconds))?;
        let traced_cfg = ChildConfig {
            traced: true,
            ..half
        };
        let traced = run_child(&traced_cfg, child_deadline(traced_cfg.seconds))?;
        let overhead = 1.0 - iqm(&traced.round_mops()) / iqm(&plain.round_mops());
        let m: Vec<(String, f64, &str)> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_share" {
                    Some(overhead)
                } else {
                    traced
                        .layers
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|&(_, v)| v)
                };
                // A traced child that died before reporting leaves 0 here;
                // its cause is printed with the result.
                (name.to_string(), value.unwrap_or(0.0), unit)
            })
            .collect();
        reports.push(plain);
        reports.push(traced);
        m
    } else {
        let r = run_child(cfg, child_deadline(cfg.seconds))?;
        let m = end_to_end(&r, cfg.workload.has_scans());
        reports.push(r);
        m
    };
    let (mut attempted, mut failed, mut malformed) = (0, 0, 0);
    for r in &reports {
        attempted += r.attempted;
        failed += r.failed;
        malformed += r.malformed;
        if let Some(cause) = &r.cause {
            println!("perfbench: measured process ended abnormally: {cause}");
        }
    }
    if failed > 0 {
        println!(
            "perfbench: {failed} of {attempted} operations failed (wrong result or not completed)"
        );
    }
    // `correct`: the oracle checked every operation the child completed,
    // and `failed` holds every wrong answer and every operation that was
    // begun but not completed. Only a progress line the parent could not
    // read breaks that accounting. Wrong answers themselves are failed
    // operations, not an incorrect run.
    println!(
        "{}",
        result_json(malformed == 0, attempted, failed, &metrics)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_cut_short_counts_what_it_did_not_finish() {
        let mut r = ChildReport::default();
        let lines = [
            "setup 0.5 3",
            "begin 0 110",
            "probe 10 0 2000 3000",
            "round 0 100 1 1000 5 9 0 0",
            "begin 1 110",
            "probe 10 1 2000 3000",
        ];
        for line in lines {
            r.parse_line(line).unwrap();
        }
        r.account();
        // 100 of round 1 and the 2 audit checks never reported.
        assert_eq!((r.attempted, r.failed), (222, 104));
        let mut done = ChildReport::default();
        for line in [
            "begin 0 100",
            "round 0 100 0 1000 5 9 0 0",
            "audit 2 1",
            "done",
        ] {
            done.parse_line(line).unwrap();
        }
        done.account();
        assert_eq!((done.attempted, done.failed), (102, 1));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 7, 1, &[("setup_s".into(), 0.25, "s")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 7, "failed": 1, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }
}
