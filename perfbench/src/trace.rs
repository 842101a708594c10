//! Spans for the traced run: one per timed call into a layer, kept in
//! memory and written out once when the run ends.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::maps::span;

/// The per-layer metrics a traced run prints, with their units, in the
/// order `BENCHMARK.json` lists them.
pub const LAYER_METRICS: [(&str, &str); 22] = [
    ("reclaim.pin_ns", "ns"),
    ("reclaim.retired_per_update", "count"),
    ("reclaim.bags_published_per_update", "count"),
    ("reclaim.bags_stolen_share", "ratio"),
    ("reclaim.epoch_advances_per_kop", "count"),
    ("reclaim.unfreed_share", "ratio"),
    ("reclaim.peak_deferred_mib", "MiB"),
    ("core.find_ns", "ns"),
    ("core.insert_ns", "ns"),
    ("core.remove_ns", "ns"),
    ("core.iflag_success_ratio", "ratio"),
    ("core.dflag_success_ratio", "ratio"),
    ("core.mark_success_ratio", "ratio"),
    ("core.helps_per_update", "count"),
    ("core.retries_per_update", "count"),
    ("core.height", "count"),
    ("core.figure4_violations", "count"),
    ("sharded.shard_of_ns", "ns"),
    ("sharded.imbalance", "ratio"),
    ("sharded.scan_shard_ns", "ns"),
    ("sharded.scan_merge_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// One timed call: the layer function, the operation it served, and its
/// start and end in nanoseconds since the phase began.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// One worker's spans.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Runs `f`, recording a span named `name` for operation `op`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            op,
            start: (start - self.origin).as_nanos() as u64,
            end: (end - self.origin).as_nanos() as u64,
        });
        r
    }

    /// Records the last span again under another name (a call that is at
    /// once the whole operation and its only layer call).
    pub fn copy_last_as(&mut self, name: &'static str) {
        let last = *self.spans.last().expect("a span was just recorded");
        self.spans.push(Span { name, ..last });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn extend(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }
}

/// The `q` quantile of `values`, linearly interpolated (0 when empty).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(values.len() - 1);
    values[lo] + (values[hi] - values[lo]) * frac
}

/// Interquartile mean: the mean of the middle half of `values` — as
/// robust as the median to a few outliers, but not stuck on one sample's
/// value when many samples are equal. 0 when empty.
pub fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Per-layer timings from the spans: the typical (interquartile-mean)
/// duration per call type, plus the scan
/// split between per-tree snapshots and the rest (routing and merging).
pub fn span_metrics(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut shard_sum: HashMap<u64, u64> = HashMap::new();
    let (mut whole_total, mut shard_total) = (0u64, 0u64);
    for s in spans {
        by_name.entry(s.name).or_default().push(s.ns() as f64);
        if s.name == span::SHARD_SCAN {
            *shard_sum.entry(s.op).or_default() += s.ns();
            shard_total += s.ns();
        } else if s.name == span::SCAN {
            whole_total += s.ns();
        }
    }
    let typical = |name: &str| by_name.get(name).map_or(0.0, |v| iqm(v));
    let scan_shard: Vec<f64> = shard_sum.values().map(|&ns| ns as f64).collect();
    vec![
        ("reclaim.pin_ns", typical(span::PIN)),
        ("core.find_ns", typical(span::FIND)),
        ("core.insert_ns", typical(span::INSERT)),
        ("core.remove_ns", typical(span::REMOVE)),
        ("sharded.shard_of_ns", typical(span::SHARD_OF)),
        ("sharded.scan_shard_ns", iqm(&scan_shard)),
        (
            "sharded.scan_merge_share",
            1.0 - shard_total as f64 / whole_total.max(1) as f64,
        ),
    ]
}

/// Writes every span as `op,name,start_ns,end_ns` CSV, flushing once.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "op,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(w, "{},{},{},{}", s.op, s.name, s.start, s.end)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&mut [4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(percentile(&mut [0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn iqm_ignores_the_outer_quarters() {
        assert_eq!(iqm(&[]), 0.0);
        assert_eq!(iqm(&[5.0]), 5.0);
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
    }

    #[test]
    fn scan_share_splits_shard_time_from_the_rest() {
        let s = |name, op, start, end| Span {
            name,
            op,
            start,
            end,
        };
        let spans = [
            s(span::SCAN, 1, 0, 100),
            s(span::SHARD_SCAN, 1, 100, 130),
            s(span::SHARD_SCAN, 1, 130, 170),
            s(span::INSERT, 2, 0, 50),
        ];
        let m: HashMap<_, _> = span_metrics(&spans).into_iter().collect();
        assert_eq!(m["sharded.scan_shard_ns"], 70.0);
        assert!((m["sharded.scan_merge_share"] - 0.3).abs() < 1e-12);
        assert_eq!(m["core.insert_ns"], 50.0);
        assert_eq!(m["core.find_ns"], 0.0);
    }
}
