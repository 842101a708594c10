//! The measured process: builds the map, runs the closed-loop phase,
//! checks every result and audits the final contents. It reports each
//! step as one stdout line, so the parent can still account for the run
//! if this process dies part way:
//!
//! ```text
//! setup <median_s> <builds>
//! begin <round> <ops>
//! round <round> <ops> <failed> <elapsed_ns> <p50_ns> <p99_ns> <scan_p50_ns> <scan_p99_ns>
//! probe <ops> <failed> <scan_p50_ns> <scan_p99_ns>
//! audit <ops> <failed>
//! layer <name> <value>
//! rss <peak_kib>
//! panic <message>
//! done
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::{Duration, Instant};

use nbbst_baselines::CoarseLockBst;
use nbbst_core::NbBst;
use nbbst_sharded::ShardedNbBst;

use crate::maps::{exec, span, BenchMap, Fault, Injected, Layered, Outcome};
use crate::oracle::{audit_contents, Oracle};
use crate::trace::{iqm, percentile, span_metrics, write_spans, SpanLog};
use crate::workload::{Frontend, Kind, Op, Rng, Workload, ROUND_OPS, SCAN_KEYS, WORKERS};

/// Rounds run even when `--seconds` has already elapsed.
pub const MIN_ROUNDS: u64 = 3;
/// One point operation in this many is timed for the latency metrics.
const LATENCY_EVERY: u64 = 16;
/// One point operation in this many is traced, and one scan in this many.
const TRACE_POINT_EVERY: u64 = 256;
const TRACE_SCAN_EVERY: u64 = 16;
/// Set-up is repeated at least this many times and until this much time
/// is spent (at most `MAX_BUILDS` times); the interquartile mean is
/// reported. Host speed shifts between phases that last a fraction of a
/// second, so a short set-up would report whichever phase it fell into.
const MIN_BUILDS: usize = 5;
const MAX_BUILDS: usize = 1000;
const SETUP_TARGET: Duration = Duration::from_secs(3);
/// Operations of each kind per block of the quiescent probe.
const PROBE_OPS: u64 = 256;
/// The audit counts as two operations: contents, and structural check.
pub const AUDIT_OPS: u64 = 2;

/// Which map the child builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// The workload's shipped default constructor.
    Default,
    /// `NbBst::new_leaky()`: nothing retired is ever freed.
    Leaky,
    /// `nbbst_baselines::CoarseLockBst`.
    Coarse,
}

impl MapKind {
    pub fn parse(s: &str) -> Option<MapKind> {
        match s {
            "default" => Some(MapKind::Default),
            "leaky" => Some(MapKind::Leaky),
            "coarse" => Some(MapKind::Coarse),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            MapKind::Default => "default",
            MapKind::Leaky => "leaky",
            MapKind::Coarse => "coarse",
        }
    }
}

/// Everything the child needs.
#[derive(Clone, Debug)]
pub struct ChildConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub map: MapKind,
    pub fault: Option<Fault>,
}

macro_rules! emit {
    ($($arg:tt)*) => {{
        let mut out = std::io::stdout().lock();
        // A closed pipe means the parent is gone; nothing is left to tell.
        let _ = writeln!(out, $($arg)*);
        let _ = out.flush();
    }};
}

/// Runs the measured process to completion.
pub fn run(cfg: &ChildConfig) {
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string().replace('\n', " ");
        emit!("panic {msg}");
        eprintln!("perfbench child: {msg}");
        // Abort rather than unwind: the other worker would wait forever at
        // the round barrier, and the parent reads the cause from this line.
        std::process::abort();
    }));
    let w = cfg.workload;
    match (cfg.map, w.frontend, cfg.traced) {
        (MapKind::Default, Frontend::Tree, false) => untraced(cfg, NbBst::new),
        (MapKind::Default, Frontend::Sharded, false) => untraced(cfg, ShardedNbBst::new),
        (MapKind::Default, Frontend::Tree, true) => traced(cfg, NbBst::with_stats),
        (MapKind::Default, Frontend::Sharded, true) => traced(cfg, ShardedNbBst::with_stats),
        (MapKind::Leaky, _, false) => untraced(cfg, NbBst::new_leaky),
        (MapKind::Coarse, _, false) => untraced(cfg, CoarseLockBst::new),
        (_, _, true) => panic!("only the default maps are traced"),
    }
    emit!("rss {}", peak_rss_kib(None).unwrap_or(0));
    emit!("done");
}

/// Peak resident set (VmHWM) of `pid`, or of this process, in KiB.
pub(crate) fn peak_rss_kib(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Builds and prefills the map repeatedly, reporting the typical time, and
/// returns the last build. Inputs are generated before this is called.
fn setup<M: BenchMap>(prefill: &[u64], build: impl Fn() -> M) -> M {
    let mut times = Vec::new();
    let mut spent = Duration::ZERO;
    let mut map = None;
    while times.len() < MIN_BUILDS || (spent < SETUP_TARGET && times.len() < MAX_BUILDS) {
        drop(map.take());
        let start = Instant::now();
        let m = build();
        for &k in prefill {
            assert!(
                m.insert(k),
                "prefill insert of a fresh key {k} returned false"
            );
        }
        let took = start.elapsed();
        spent += took;
        times.push(took.as_secs_f64());
        map = Some(m);
    }
    emit!("setup {} {}", iqm(&times), times.len());
    map.expect("built at least once")
}

fn untraced<M: BenchMap>(cfg: &ChildConfig, build: impl Fn() -> M) {
    let w = cfg.workload;
    let prefill = w.prefill(cfg.seed);
    let map = setup(&prefill, build);
    match cfg.fault {
        None => checked_run(cfg, &map, &prefill),
        Some(f) => checked_run(cfg, &Injected::new(map, f), &prefill),
    }
}

fn checked_run<M: BenchMap>(cfg: &ChildConfig, map: &M, prefill: &[u64]) {
    let oracles = initial_oracles(cfg.workload, prefill);
    let mut probe = QuiescentProbe::new(cfg.seed);
    let (oracles, _, _) = measure(
        cfg,
        map,
        oracles,
        |_| LatencyProbe::default(),
        |oracles| {
            probe.block(
                cfg.workload,
                oracles,
                |lo, _| map.scan(lo, lo + SCAN_KEYS - 1),
                |op, _| map.contains(op.key),
            )
        },
    );
    audit(cfg, map, &oracles);
}

fn initial_oracles(w: &Workload, prefill: &[u64]) -> Vec<Oracle> {
    (0..WORKERS)
        .map(|t| Oracle::new(w.keys(), &w.owned_keys(t), prefill))
        .collect()
}

fn traced<M: Layered>(cfg: &ChildConfig, build: impl Fn() -> M) {
    let w = cfg.workload;
    let prefill = w.prefill(cfg.seed);
    let map = setup(&prefill, build);
    let origin = Instant::now();
    let oracles = initial_oracles(w, &prefill);
    let mut probe = QuiescentProbe::new(cfg.seed);
    // Both probe closures record into the one log.
    let log = std::cell::RefCell::new(SpanLog::new(origin));
    let (reclaim0, tree0) = (map.collector().stats(), map.tree_stats());
    let make_probe = |t: usize| TraceProbe {
        log: SpanLog::new(origin),
        worker: t as u64,
    };
    let (oracles, probes, ops) = measure(cfg, &map, oracles, make_probe, |oracles| {
        probe.block(
            w,
            oracles,
            |lo, id| map.traced_scan(lo, &mut log.borrow_mut(), id),
            |op, id| map.traced_point(op, &mut log.borrow_mut(), id),
        )
    });
    let mut log = log.into_inner();
    let (reclaim, tree) = (map.collector().stats(), map.tree_stats());
    audit(cfg, &map, &oracles);
    for p in probes {
        log.extend(p.log);
    }

    if w.frontend == Frontend::Tree {
        // Routing cost of this workload's keys, had the map been sharded.
        let router: ShardedNbBst<u64, u64> = ShardedNbBst::new();
        let keys = w.stream(&w.sampler(0), cfg.seed, 0, u64::MAX);
        for (i, op) in keys.iter().take(4096).enumerate() {
            std::hint::black_box(log.time(span::SHARD_OF, (1 << 62) | i as u64, || {
                router.shard_of(&op.key)
            }));
        }
    }

    let d = tree.delta(&tree0);
    let updates = (d.inserts + d.deletes).max(1) as f64;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let retired = reclaim.retired - reclaim0.retired;
    let mut layers = vec![
        ("reclaim.retired_per_update", retired as f64 / updates),
        (
            "reclaim.bags_published_per_update",
            (reclaim.bags_published - reclaim0.bags_published) as f64 / updates,
        ),
        (
            "reclaim.bags_stolen_share",
            ratio(
                reclaim.bags_stolen - reclaim0.bags_stolen,
                reclaim.bags_freed - reclaim0.bags_freed,
            ),
        ),
        (
            "reclaim.epoch_advances_per_kop",
            1000.0 * ratio(reclaim.epoch_advances - reclaim0.epoch_advances, ops),
        ),
        (
            "reclaim.unfreed_share",
            1.0 - ratio(reclaim.freed, reclaim.retired),
        ),
        (
            "reclaim.peak_deferred_mib",
            reclaim.peak_deferred_bytes as f64 / (1 << 20) as f64,
        ),
        (
            "core.iflag_success_ratio",
            ratio(d.iflag_success, d.iflag_attempts),
        ),
        (
            "core.dflag_success_ratio",
            ratio(d.dflag_success, d.dflag_attempts),
        ),
        (
            "core.mark_success_ratio",
            ratio(d.mark_success, d.mark_attempts),
        ),
        ("core.helps_per_update", d.helps as f64 / updates),
        (
            "core.retries_per_update",
            (d.insert_retries + d.delete_retries) as f64 / updates,
        ),
        ("core.height", map.height() as f64),
        (
            "core.figure4_violations",
            f64::from(u8::from(tree.check_figure4().is_err())),
        ),
        ("sharded.imbalance", map.imbalance()),
    ];
    layers.extend(span_metrics(log.spans()));
    for (name, value) in layers {
        emit!("layer {name} {value}");
    }
    let path = spans_path(cfg);
    match write_spans(&path, log.spans()) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            log.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// Where the traced run writes its spans: inside the benchmark's own
/// directory, which `.gitignore` excludes.
fn spans_path(cfg: &ChildConfig) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.csv", cfg.workload.name, cfg.seed))
}

/// How a worker runs one operation: plain, or timed for one of the runs.
trait Probe<M: ?Sized>: Send {
    fn exec(&mut self, map: &M, op: Op, seq: u64) -> Outcome;
    /// Point and scan latencies (ns) sampled since the last call.
    fn take_samples(&mut self) -> (Vec<u32>, Vec<u32>) {
        (Vec::new(), Vec::new())
    }
}

/// Times every scan and one point operation in `LATENCY_EVERY`.
#[derive(Default)]
struct LatencyProbe {
    point: Vec<u32>,
    scan: Vec<u32>,
}

impl<M: BenchMap + ?Sized> Probe<M> for LatencyProbe {
    #[inline]
    fn exec(&mut self, map: &M, op: Op, seq: u64) -> Outcome {
        let is_scan = op.kind == Kind::Scan;
        if !is_scan && !seq.is_multiple_of(LATENCY_EVERY) {
            return exec(map, op);
        }
        let start = Instant::now();
        let out = exec(map, op);
        let ns = u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX);
        if is_scan {
            &mut self.scan
        } else {
            &mut self.point
        }
        .push(ns);
        out
    }

    fn take_samples(&mut self) -> (Vec<u32>, Vec<u32>) {
        (
            std::mem::take(&mut self.point),
            std::mem::take(&mut self.scan),
        )
    }
}

/// Records spans for sampled operations: a timed `Collector::pin()` and
/// drop just before, then each layer call the operation makes.
struct TraceProbe {
    log: SpanLog,
    worker: u64,
}

impl<M: Layered> Probe<M> for TraceProbe {
    #[inline]
    fn exec(&mut self, map: &M, op: Op, seq: u64) -> Outcome {
        let id = seq * WORKERS as u64 + self.worker;
        match op.kind {
            Kind::Scan if seq.is_multiple_of(TRACE_SCAN_EVERY) => {
                Outcome::Scan(map.traced_scan(op.key, &mut self.log, id))
            }
            Kind::Find | Kind::Insert | Kind::Delete if seq.is_multiple_of(TRACE_POINT_EVERY) => {
                self.log.time(span::PIN, id, || drop(map.collector().pin()));
                Outcome::Point(map.traced_point(op, &mut self.log, id))
            }
            _ => exec(map, op),
        }
    }
}

/// What one worker reports after a round.
struct WorkerRound {
    start: Instant,
    end: Instant,
    failed: u64,
    point: Vec<u32>,
    scan: Vec<u32>,
}

/// The closed-loop phase: `WORKERS` threads run rounds of `ROUND_OPS`
/// operations each, in lock step, until `cfg.seconds` have passed (and at
/// least `MIN_ROUNDS` rounds ran). Each round's streams are generated
/// before the round starts. Between rounds, while the workers wait,
/// `gap` runs one block of the quiescent probe with both oracles.
/// Returns the oracles, the probes and the number of operations run.
fn measure<M, P>(
    cfg: &ChildConfig,
    map: &M,
    oracles: Vec<Oracle>,
    make_probe: impl Fn(usize) -> P + Sync,
    mut gap: impl FnMut(&mut [&mut Oracle]),
) -> (Vec<Oracle>, Vec<P>, u64)
where
    M: BenchMap,
    P: Probe<M>,
{
    let w = cfg.workload;
    let samplers: Vec<_> = (0..WORKERS).map(|t| w.sampler(t)).collect();
    let oracles: Vec<Mutex<Oracle>> = oracles.into_iter().map(Mutex::new).collect();
    // `ready`: every worker generated its next stream; `go`: the round
    // starts (or, once `stop` is set, the workers exit).
    let (ready, go) = (Barrier::new(WORKERS + 1), Barrier::new(WORKERS + 1));
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<WorkerRound>();
    let (probes, ops) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (tx, ready, go, stop) = (tx.clone(), &ready, &go, &stop);
                let (sampler, oracle, make_probe) = (&samplers[t], &oracles[t], &make_probe);
                s.spawn(move || {
                    let mut probe = make_probe(t);
                    let mut reported = 0;
                    for round in 0.. {
                        let ops = w.stream(sampler, cfg.seed, t, round);
                        ready.wait();
                        go.wait();
                        // SeqCst pairs with the coordinator's store; the
                        // barrier orders it anyway.
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let mut oracle = oracle.lock().expect("panics abort the process");
                        let mut failed = 0;
                        let start = Instant::now();
                        for (i, &op) in ops.iter().enumerate() {
                            let ok = match probe.exec(map, op, round * ROUND_OPS as u64 + i as u64) {
                                Outcome::Point(got) => oracle.check_point(op, got),
                                Outcome::Scan(got) => oracle.check_scan(op.key, &got),
                            };
                            if !ok {
                                failed += 1;
                                if reported < 5 {
                                    reported += 1;
                                    eprintln!("perfbench: worker {t} round {round}: wrong result for {op:?}");
                                }
                            }
                        }
                        let end = Instant::now();
                        drop(oracle);
                        let (point, scan) = probe.take_samples();
                        tx.send(WorkerRound { start, end, failed, point, scan })
                            .expect("the coordinator outlives the workers");
                    }
                    probe
                })
            })
            .collect();
        drop(tx);

        let begin = Instant::now();
        let mut rounds = 0u64;
        let ops = (WORKERS * ROUND_OPS) as u64;
        while rounds < MIN_ROUNDS || begin.elapsed().as_secs_f64() < cfg.seconds {
            emit!("begin {rounds} {}", ops + probe_ops(w));
            ready.wait();
            {
                let mut guards: Vec<_> = oracles
                    .iter()
                    .map(|o| o.lock().expect("panics abort the process"))
                    .collect();
                gap(&mut guards.iter_mut().map(|g| &mut **g).collect::<Vec<_>>());
            }
            go.wait();
            let done: Vec<WorkerRound> = (0..WORKERS)
                .map(|_| rx.recv().expect("a worker died without aborting"))
                .collect();
            let start = done.iter().map(|r| r.start).min().expect("workers > 0");
            let end = done.iter().map(|r| r.end).max().expect("workers > 0");
            let failed: u64 = done.iter().map(|r| r.failed).sum();
            let mut point: Vec<f64> = done
                .iter()
                .flat_map(|r| &r.point)
                .map(|&n| n as f64)
                .collect();
            let mut scan: Vec<f64> = done
                .iter()
                .flat_map(|r| &r.scan)
                .map(|&n| n as f64)
                .collect();
            emit!(
                "round {rounds} {ops} {failed} {} {} {} {} {}",
                (end - start).as_nanos(),
                percentile(&mut point, 0.5),
                percentile(&mut point, 0.99),
                percentile(&mut scan, 0.5),
                percentile(&mut scan, 0.99),
            );
            rounds += 1;
        }
        stop.store(true, Ordering::SeqCst);
        ready.wait();
        go.wait();
        let probes = workers
            .into_iter()
            .map(|h| h.join().expect("worker panics abort the process"))
            .collect();
        (probes, rounds * ops)
    });
    let oracles = oracles
        .into_iter()
        .map(|o| o.into_inner().expect("panics abort the process"))
        .collect();
    (oracles, probes, ops)
}

/// Operations of the quiescent probe per round: `PROBE_OPS` of each kind
/// (scan, find) the workload's mix lacks.
pub fn probe_ops(w: &Workload) -> u64 {
    PROBE_OPS * (u64::from(!w.has_scans()) + u64::from(!w.has_finds()))
}

/// One block of the quiescent probe, run between rounds while the
/// workers wait: `PROBE_OPS` scans (for the scan latency metrics) and
/// `PROBE_OPS` finds (for the traced find timing), of the kinds the
/// workload's mix lacks. Every result is checked against the oracles.
struct QuiescentProbe {
    rng: Rng,
    id: u64,
}

impl QuiescentProbe {
    fn new(seed: u64) -> QuiescentProbe {
        QuiescentProbe {
            rng: Rng::new(seed, u64::MAX - 1),
            id: 1 << 63,
        }
    }

    fn block(
        &mut self,
        w: &Workload,
        oracles: &mut [&mut Oracle],
        mut scan: impl FnMut(u64, u64) -> Vec<(u64, u64)>,
        mut find: impl FnMut(Op, u64) -> bool,
    ) {
        if probe_ops(w) == 0 {
            return;
        }
        let (mut times, mut failed) = (Vec::new(), 0);
        for _ in 0..PROBE_OPS {
            let lo = self.rng.below(w.keys());
            self.id += 1;
            if !w.has_scans() {
                let start = Instant::now();
                let got = scan(lo, self.id);
                times.push(start.elapsed().as_nanos() as f64);
                let ok = oracles
                    .iter_mut()
                    .fold(true, |ok, o| o.check_scan(lo, &got) & ok);
                failed += u64::from(!ok);
            }
            if !w.has_finds() {
                let op = Op {
                    kind: Kind::Find,
                    key: lo,
                };
                let got = find(op, self.id);
                let owner = oracles
                    .iter_mut()
                    .find(|o| o.owns(lo))
                    .expect("every key has an owner");
                failed += u64::from(!owner.check_point(op, got));
            }
        }
        emit!(
            "probe {} {failed} {} {}",
            probe_ops(w),
            percentile(&mut times, 0.5),
            percentile(&mut times, 0.99)
        );
    }
}

/// After the phase, at quiescence: the map's contents must equal the
/// union of the oracles, and its structural check must pass.
fn audit<M: BenchMap>(cfg: &ChildConfig, map: &M, oracles: &[Oracle]) {
    let entries = map.scan(0, cfg.workload.keys() - 1);
    let wrong_keys = audit_contents(oracles, &entries);
    let check = map.check();
    if wrong_keys > 0 {
        eprintln!("perfbench: audit: {wrong_keys} keys differ from the oracles");
    }
    if let Err(e) = &check {
        eprintln!("perfbench: audit: structural check failed: {e}");
    }
    emit!(
        "audit {AUDIT_OPS} {}",
        u64::from(wrong_keys > 0) + u64::from(check.is_err())
    );
}
