//! Timing, span and metric plumbing shared by the three workloads.
//!
//! A run is measured from outside the simulator: the workload code wraps
//! calls into each crate's public functions. [`Tally`] holds what every run
//! reports (unit times, simulated cycles, failures, set-up samples);
//! [`Spans`] holds what only the span run reports (host time per layer and
//! exact work counts). Spans are kept in memory and summarised at the end.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metric names, units and the direction that is better, in the
/// order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("units_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
    ("sim_cycles", "count"),
];

/// Per-layer metric names and units. A workload that does not exercise a
/// layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("cpu.sim_ms", "ms"),
    ("cpu.ns_per_cycle", "ns"),
    ("cpu.cycles", "count"),
    ("cpu.committed", "count"),
    ("cpu.dispatched", "count"),
    ("cpu.squashed", "count"),
    ("cpu.commit_frac", "frac"),
    ("cpu.runahead_entries", "count"),
    ("cpu.pseudo_retired", "count"),
    ("cpu.runahead_prefetches", "count"),
    ("cpu.inv_unresolved_branches", "count"),
    ("cpu.sched_wakeups", "count"),
    ("bp.branches", "count"),
    ("bp.mispredicts", "count"),
    ("bp.mispredict_frac", "frac"),
    ("mem.l1d_hits", "count"),
    ("mem.l2_hits", "count"),
    ("mem.l3_hits", "count"),
    ("mem.dram_accesses", "count"),
    ("mem.mshr_merges", "count"),
    ("mem.fills", "count"),
    ("mem.l1d_hit_frac", "frac"),
    ("isa.predecode_ms", "ms"),
    ("isa.uops", "count"),
    ("workloads.gen_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.fork_ms", "ms"),
    ("core.fork_share", "frac"),
    ("core.unit_ms", "ms"),
    ("core.plan_run_ms", "ms"),
    ("trace.events", "count"),
    ("trace.bytes", "count"),
    ("trace.bytes_per_event", "B"),
    ("trace.encode_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("trace.replay_ms", "ms"),
    ("trace.replay_mismatches", "count"),
    ("lab.spec_parse_ms", "ms"),
    ("lab.report_render_ms", "ms"),
    ("lab.report_bytes", "count"),
    ("lab.invariant_ms", "ms"),
    ("lab.violations", "count"),
    ("span.overhead_frac", "frac"),
    ("span.sim_cycles_match", "count"),
];

/// Times the set-up phase is repeated in a run: once before the first unit
/// (that set-up is the one the units use) and at evenly spaced points of
/// the unit list after it.
pub const SETUP_REPEATS: usize = 9;

/// Whether a set-up repetition is due before unit `i` of `n`: true at
/// [`SETUP_REPEATS`] − 1 evenly spaced positions after the first unit.
pub fn setup_due(i: usize, n: usize) -> bool {
    i > 0 && i * SETUP_REPEATS / n != (i - 1) * SETUP_REPEATS / n
}

/// What one run of a workload measured.
///
/// A workload runs a fixed set of distinct units, every one of them the
/// same number of times (rounds), in a seed-shuffled order. Host time on a
/// shared machine is bimodal: for seconds at a time every unit runs about
/// twice as slow, and the share of slow time differs from run to run. So
/// the host-time metrics use each distinct unit's best time over its rounds
/// (its uncontended time), and a *round* is one run of every distinct unit
/// plus the workload's per-round aggregation. Set-up time is likewise the
/// best of its repetitions, which are spread through the run.
#[derive(Debug, Default)]
pub struct Tally {
    /// `(distinct unit, host nanoseconds)` of every unit run, in run order.
    samples: Vec<(usize, u64)>,
    /// Host nanoseconds of each round's aggregation outside the units.
    round_ns: Vec<u64>,
    /// Units whose correctness check failed or whose run errored.
    pub failed: u64,
    /// Simulated cycles of all unit runs.
    pub sim_cycles: u64,
    /// Host seconds of each repetition of the set-up phase.
    pub setup_s: Vec<f64>,
    /// The first few failure messages, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    /// Runs `f` as one timed run of distinct unit `id` (ids count from 0
    /// and every id runs equally often).
    pub fn unit<T>(&mut self, id: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.samples.push((id, start.elapsed().as_nanos() as u64));
        out
    }

    /// Runs `f` as one round's aggregation step.
    pub fn round_step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.round_ns.push(start.elapsed().as_nanos() as u64);
        out
    }

    /// Runs `f` as one timed repetition of the set-up phase.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.setup_s.push(start.elapsed().as_secs_f64());
        out
    }

    /// Records one failed unit.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    /// Host seconds of every unit run and aggregation step as they ran,
    /// contention included.
    pub fn measured_s(&self) -> f64 {
        let ns: u64 =
            self.samples.iter().map(|&(_, ns)| ns).sum::<u64>() + self.round_ns.iter().sum::<u64>();
        ns as f64 / 1e9
    }

    /// Unit runs attempted.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Each distinct unit's best host milliseconds over its rounds,
    /// ascending.
    pub fn best_unit_ms(&self) -> Vec<f64> {
        let distinct = self.samples.iter().map(|&(id, _)| id + 1).max().unwrap_or(0);
        let mut best = vec![u64::MAX; distinct];
        for &(id, ns) in &self.samples {
            best[id] = best[id].min(ns);
        }
        let mut ms: Vec<f64> =
            best.into_iter().filter(|&ns| ns != u64::MAX).map(|ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Host seconds of one uncontended round: every distinct unit's best
    /// time plus the best aggregation time.
    pub fn round_s(&self) -> f64 {
        let units: f64 = self.best_unit_ms().iter().sum::<f64>() / 1e3;
        units + self.round_ns.iter().min().map_or(0.0, |&ns| ns as f64 / 1e9)
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let best = self.best_unit_ms();
        let rounds = self.samples.len() as f64 / best.len().max(1) as f64;
        let round_s = self.round_s();
        let attempted = self.attempted().max(1) as f64;
        vec![
            best.len() as f64 / round_s,
            self.sim_cycles as f64 / rounds / round_s,
            percentile(&best, 0.50),
            percentile(&best, 0.90),
            self.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            peak_rss_mb(),
            // A failed aggregation check can count beyond the units.
            ((attempted - self.failed as f64) / attempted).max(0.0),
            self.sim_cycles as f64,
        ]
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One closed span: which layer call it timed and inside which span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The span run's in-memory record. Disabled (the untraced run), every
/// method is a no-op apart from running the wrapped call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// A recorder; `enabled = false` gives the untraced run.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether this is the span run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; pair with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, parent: self.open.last().copied(), start_ns, end_ns: 0 });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("exit pairs with enter");
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds `value` to the exact work count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// A work count (0 if never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total host milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Per-name calls, total and self milliseconds (self time is a span's
    /// duration minus the durations of the spans opened inside it).
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let row = rows.entry(span.name).or_default();
            let total = span.end_ns - span.start_ns;
            row.0 += 1;
            row.1 += total;
            row.2 += total.saturating_sub(*children);
        }
        rows.into_iter()
            .map(|(name, (calls, total, own))| (name, calls, total as f64 / 1e6, own as f64 / 1e6))
            .collect()
    }
}

/// Divides, giving 0 for an empty denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.time("outer", || std::thread::sleep(std::time::Duration::from_millis(1)));
        spans.enter("outer");
        spans.time("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        spans.exit();
        let rows = spans.summary();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        assert_eq!(outer.1, 2);
        assert!(outer.2 >= outer.3 + 2.0);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", || 7), 7);
        spans.count("n", 1.0);
        assert!(spans.summary().is_empty());
        assert_eq!(spans.counted("n"), 0.0);
    }
}
