//! The simulator-throughput benchmark and perf-regression gate
//! (`specrun-lab perf`).
//!
//! Emits `BENCH_step.json` with cycles-simulated-per-second on fixed
//! kernels (idle-cycle fast-forward off vs on) and the thread-scaling of a
//! Fig. 9-style multi-trial attack sweep, then optionally gates the rates
//! against a baseline report.
//!
//! Unlike the deterministic `bench_step` *scenario* in the registry (cycle
//! counts, invariants), everything here is wall-clock — which is exactly
//! why it lives outside the byte-identical artifact path.
//!
//! **Baseline safety:** the baseline is read *before* the new report is
//! written, so gating against the committed `BENCH_step.json` in place
//! (`--baseline BENCH_step.json`) can never compare a file this run just
//! overwrote. `--baseline-from-git` goes one step further and reads the
//! committed copy via `git show HEAD:BENCH_step.json`, so a dirty working
//! tree cannot feed the gate either.

use std::time::Instant;

use specrun::attack::{run_pht_sweep, SweepConfig};
use specrun::pool::{run_unit_fresh, ShardSnapshot};
use specrun_cpu::{Core, CpuConfig};
use specrun_isa::ProgramBuilder;
use specrun_trace::RecordingObserver;
use specrun_workloads::harness;
use specrun_workloads::ipc::{run_workload_observed, run_workload_timed};
use specrun_workloads::kernels;
use specrun_workloads::pool::CampaignSpec;
use specrun_workloads::Workload;

use crate::report::{parse_metrics, BenchReport};

/// Metrics that the baseline gate must always manage to compare — the
/// busy-pipeline (non-fast-forward) rates a front-end or scheduler
/// regression would hit first, plus the trace-recording rate guarding the
/// observer seam. A renamed scenario silently dropping one of these from
/// the comparison must fail CI, not pass it.
const GATE_REQUIRED: &[&str] = &[
    "mcf_runahead_naive_cycles_per_sec",
    "pointer_chase_runahead_naive_cycles_per_sec",
    "trace_record_cycles_per_sec",
];

/// Where the perf gate's baseline report comes from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BaselineSource {
    /// No gating; just measure and write the report.
    #[default]
    None,
    /// A report file on disk (read before the new report is written).
    Path(String),
    /// The committed `BENCH_step.json` at `HEAD`, via `git show`.
    Git,
}

/// Options of one perf run.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Reduced iteration counts for CI (rates stay comparable; cycle
    /// counts do not).
    pub quick: bool,
    /// Baseline to gate against.
    pub baseline: BaselineSource,
    /// Maximum tolerated fractional drop in any `*_cycles_per_sec` metric
    /// before the gate fails (default 0.25).
    pub max_drop: f64,
    /// Wall-clock measurements per workload; the *best* (fastest) of the
    /// repeats is reported. On a noisy shared host a single sample can be
    /// arbitrarily slowed by an unlucky descheduling — the minimum is the
    /// closest observable to the machine's true rate, so best-of-N cuts
    /// false perf-gate failures without loosening the threshold (CI uses
    /// `--repeats 3`). Default 1.
    pub repeats: u32,
}

impl Default for PerfOptions {
    fn default() -> PerfOptions {
        PerfOptions { quick: false, baseline: BaselineSource::None, max_drop: 0.25, repeats: 1 }
    }
}

impl PerfOptions {
    /// Applies the `perf` subcommand flags (`--quick`, `--baseline PATH`,
    /// `--baseline-from-git`, `--max-drop F`, `--repeats N`).
    pub fn apply_args(mut self, args: &[String]) -> Result<PerfOptions, String> {
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => self.quick = true,
                "--baseline" => {
                    let path = it.next().ok_or("--baseline needs a path")?;
                    self.baseline = BaselineSource::Path(path.clone());
                }
                "--baseline-from-git" => self.baseline = BaselineSource::Git,
                "--max-drop" => {
                    let v = it.next().ok_or("--max-drop needs a value")?;
                    self.max_drop =
                        v.parse().map_err(|_| format!("invalid --max-drop value {v}"))?;
                }
                "--repeats" => {
                    let v = it.next().ok_or("--repeats needs a count")?;
                    self.repeats = v.parse().map_err(|_| format!("invalid --repeats value {v}"))?;
                    if self.repeats == 0 {
                        return Err("--repeats must be at least 1".to_string());
                    }
                }
                other => return Err(format!("unknown perf option {other}")),
            }
        }
        Ok(self)
    }
}

/// Reads the baseline report contents, *before* any new report is written.
fn read_baseline(source: &BaselineSource) -> Result<Option<String>, String> {
    match source {
        BaselineSource::None => Ok(None),
        BaselineSource::Path(path) => std::fs::read_to_string(path)
            .map(Some)
            .map_err(|e| format!("cannot read baseline {path}: {e}")),
        BaselineSource::Git => {
            let out = std::process::Command::new("git")
                .args(["show", "HEAD:BENCH_step.json"])
                .output()
                .map_err(|e| format!("cannot spawn git: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "git show HEAD:BENCH_step.json failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            String::from_utf8(out.stdout)
                .map(Some)
                .map_err(|e| format!("committed baseline is not UTF-8: {e}"))
        }
    }
}

struct KernelResult {
    cycles: u64,
    naive_secs: f64,
    ff_secs: f64,
}

fn measure_kernel(w: &Workload, base: CpuConfig, max_cycles: u64, repeats: u32) -> KernelResult {
    let mut naive_cfg = base.clone();
    naive_cfg.fast_forward = false;
    let mut ff_cfg = base;
    ff_cfg.fast_forward = true;

    // `run_workload_timed` times only the simulation loop, so cycles/sec
    // is iteration-count-independent and a quick CI run stays comparable
    // to the committed full-mode baseline. Best-of-N wall clock per
    // configuration: the cycle counts are asserted identical across
    // repeats, only the host-side seconds vary.
    let mut best: Option<KernelResult> = None;
    for _ in 0..repeats.max(1) {
        let (naive, naive_secs) = run_workload_timed(w, naive_cfg.clone(), max_cycles);
        let (ff, ff_secs) = run_workload_timed(w, ff_cfg.clone(), max_cycles);
        assert_eq!(
            (naive.cycles, naive.committed),
            (ff.cycles, ff.committed),
            "fast-forward must be architecturally invisible on {}",
            w.name
        );
        let best = best.get_or_insert(KernelResult { cycles: ff.cycles, naive_secs, ff_secs });
        assert_eq!(best.cycles, ff.cycles, "repeats of {} must simulate identically", w.name);
        best.naive_secs = best.naive_secs.min(naive_secs);
        best.ff_secs = best.ff_secs.min(ff_secs);
    }
    best.expect("at least one repeat ran")
}

struct TraceOverheadResult {
    cycles: u64,
    events: u64,
    noop_secs: f64,
    record_secs: f64,
}

/// Times the same commit-heavy kernel with the no-op observer against a
/// [`RecordingObserver`] buffering the full pipeline-event stream — the
/// cost a forensic trace adds to a run. The recorder must be
/// simulation-invisible (identical cycles and commits) and the recorded
/// event count must not vary across repeats; only the host-side seconds
/// do, and the best of `repeats` is reported.
fn measure_trace_overhead(
    w: &Workload,
    base: CpuConfig,
    max_cycles: u64,
    repeats: u32,
) -> TraceOverheadResult {
    let mut best: Option<TraceOverheadResult> = None;
    for _ in 0..repeats.max(1) {
        let (plain, noop_secs) = run_workload_timed(w, base.clone(), max_cycles);
        let (recorded, record_secs, recorder) =
            run_workload_observed(w, base.clone(), max_cycles, RecordingObserver::new());
        assert_eq!(
            (plain.cycles, plain.committed),
            (recorded.cycles, recorded.committed),
            "the recording observer must be simulation-invisible on {}",
            w.name
        );
        let events = recorder.len() as u64;
        let best = best.get_or_insert(TraceOverheadResult {
            cycles: recorded.cycles,
            events,
            noop_secs,
            record_secs,
        });
        assert_eq!(
            (best.cycles, best.events),
            (recorded.cycles, events),
            "repeats of {} must record identical streams",
            w.name
        );
        best.noop_secs = best.noop_secs.min(noop_secs);
        best.record_secs = best.record_secs.min(record_secs);
    }
    best.expect("at least one repeat ran")
}

struct PoolResult {
    fork_secs: f64,
    fresh_secs: f64,
    fork_units: u32,
    fresh_units: u32,
}

/// Times fork-based pooling against fresh per-session builds on one
/// matrix shard. The fork path pays `ShardSnapshot::prepare` (session
/// build, cache warm-up, program predecode, BTB training where relevant)
/// once and is charged for it, then forks a copy-on-write session per
/// unit; the fresh path repeats the whole build per unit — exactly what a
/// campaign without the pool would do. Best wall clock over `repeats`;
/// every unit's leak is asserted so a silently-broken attack can never
/// post a throughput number.
///
/// Unit counts are identical in quick and full mode: the whole
/// measurement is tens of milliseconds, and scaling it down would skew
/// the rates (fewer units amortize first-unit cold costs worse), making
/// quick CI runs incomparable to the committed full-mode baseline.
fn measure_pool(spec: &CampaignSpec, repeats: u32) -> PoolResult {
    let shard = &spec.shards[0]; // pht_runahead: the Fig. 9 cell
    let fork_units = 24;
    let fresh_units = 6;
    let secret = |i: u32| spec.secrets[i as usize % spec.secrets.len()];
    let mut best: Option<PoolResult> = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let snapshot = ShardSnapshot::prepare(spec, shard);
        for i in 0..fork_units {
            let unit = snapshot.run_forked(secret(i), None).expect("forked unit completes");
            assert_eq!(unit.leaked, Some(secret(i)), "forked unit must leak its secret");
        }
        let fork_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for i in 0..fresh_units {
            let unit = run_unit_fresh(spec, shard, secret(i)).expect("fresh unit completes");
            assert_eq!(unit.leaked, Some(secret(i)), "fresh unit must leak its secret");
        }
        let fresh_secs = t.elapsed().as_secs_f64();

        let best =
            best.get_or_insert(PoolResult { fork_secs, fresh_secs, fork_units, fresh_units });
        best.fork_secs = best.fork_secs.min(fork_secs);
        best.fresh_secs = best.fresh_secs.min(fresh_secs);
    }
    best.expect("at least one repeat ran")
}

/// Runs a nop slide of `n` instructions to completion with the text image
/// pre-warmed into L1I, timing only the simulation loop (best wall clock
/// over `repeats` runs). Naive stepping (fast-forward off): the pipeline
/// is busy every cycle, which is exactly the case the sub-timer exists to
/// measure.
fn measure_frontend_nop_slide(n: usize, repeats: u32) -> (u64, f64) {
    let mut b = ProgramBuilder::new(0x1000);
    b.nops(n);
    b.halt();
    let program = b.build().expect("nop slide builds");
    let mut cfg = CpuConfig::no_runahead();
    cfg.fast_forward = false;
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..repeats.max(1) {
        let mut core = Core::new(cfg.clone());
        let text_len = program.text_end() - program.text_base();
        core.mem_mut().warm_ifetch_range(program.text_base(), text_len);
        core.load_program(&program);
        let start = Instant::now();
        let exit = core.run(100_000_000);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(exit, specrun_cpu::RunExit::Halted, "nop slide must halt");
        let best = best.get_or_insert((core.stats().cycles, secs));
        assert_eq!(best.0, core.stats().cycles, "nop-slide repeats must simulate identically");
        best.1 = best.1.min(secs);
    }
    best.expect("at least one repeat ran")
}

/// Runs the full throughput benchmark, writes `BENCH_step.json`, and gates
/// against the configured baseline. Returns the process exit code.
pub fn run(opts: &PerfOptions) -> i32 {
    // Read the baseline FIRST: the report write below may overwrite the
    // very file the baseline points at.
    let baseline = match read_baseline(&opts.baseline) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf gate: {e}");
            return 1;
        }
    };

    let quick = opts.quick;
    let iters = if quick { 400 } else { 3000 };
    let sweep_trials = if quick { 8 } else { 24 };

    let mut report = BenchReport::new("step");
    report.note("quick_mode", if quick { "yes" } else { "no" });
    report.note("repeats", opts.repeats.to_string());

    // Session-pool throughput: the tentpole claim that copy-on-write
    // forking beats rebuilding a session per unit. Rates are per *session
    // executed*, prepare cost included on the fork side. Measured FIRST,
    // before any mode-dependent work: the fresh-build rate is sensitive to
    // process state (allocator warm-up from long full-mode kernel runs),
    // and the gate compares quick CI runs against a full-mode baseline —
    // both must measure from the same cold start.
    println!("== session-pool throughput: copy-on-write forks vs fresh builds ==");
    println!("path,units,wall_secs,sessions_per_sec");
    let pool_spec = CampaignSpec::paper_matrix();
    let pool = measure_pool(&pool_spec, opts.repeats);
    let fork_rate = f64::from(pool.fork_units) / pool.fork_secs;
    let fresh_rate = f64::from(pool.fresh_units) / pool.fresh_secs;
    println!("fork,{},{:.3},{:.2}", pool.fork_units, pool.fork_secs, fork_rate);
    println!("fresh,{},{:.3},{:.2}", pool.fresh_units, pool.fresh_secs, fresh_rate);
    println!("fork_speedup,{:.2}x", fork_rate / fresh_rate);
    report.metric("pool_fork_sessions_per_sec", fork_rate);
    report.metric("pool_fresh_sessions_per_sec", fresh_rate);
    report.metric("pool_fork_speedup", fork_rate / fresh_rate);

    println!();
    println!("== simulator throughput: naive stepping vs idle-cycle fast-forward ==");
    println!("kernel,machine,cycles,naive_Mcyc_per_s,ff_Mcyc_per_s,speedup");
    let chase = kernels::pointer_chase(iters);
    let mcf = kernels::mcf(iters / 2);
    for (label, w, cfg) in [
        ("pointer_chase/no_runahead", &chase, CpuConfig::no_runahead()),
        ("pointer_chase/runahead", &chase, CpuConfig::default()),
        ("mcf/no_runahead", &mcf, CpuConfig::no_runahead()),
        ("mcf/runahead", &mcf, CpuConfig::default()),
    ] {
        let r = measure_kernel(w, cfg, 500_000_000, opts.repeats);
        let naive_rate = r.cycles as f64 / r.naive_secs;
        let ff_rate = r.cycles as f64 / r.ff_secs;
        let speedup = r.naive_secs / r.ff_secs;
        println!(
            "{label},{},{:.2},{:.2},{:.2}",
            r.cycles,
            naive_rate / 1e6,
            ff_rate / 1e6,
            speedup
        );
        let key = label.replace('/', "_");
        report.metric(format!("{key}_cycles"), r.cycles as f64);
        report.metric(format!("{key}_naive_cycles_per_sec"), naive_rate);
        report.metric(format!("{key}_ff_cycles_per_sec"), ff_rate);
        report.metric(format!("{key}_ff_speedup"), speedup);
    }

    // Trace-recording overhead: what `specrun-lab trace record` (or
    // `Session::trace`) costs on a busy pipeline. mcf is the
    // commit-heaviest kernel, so its event stream is the densest the
    // recorder sees — the worst case for buffering overhead. The rate is
    // gated like the other hot paths (it ends in `_cycles_per_sec`): an
    // accidental allocation or dispatch cost on the observer seam lands
    // here first.
    println!();
    println!("== trace-recording overhead: RecordingObserver vs noop observer ==");
    println!("kernel,cycles,events,noop_Mcyc_per_s,record_Mcyc_per_s,Mevents_per_s,slowdown");
    let t = measure_trace_overhead(&mcf, CpuConfig::default(), 500_000_000, opts.repeats);
    let noop_rate = t.cycles as f64 / t.noop_secs;
    let record_rate = t.cycles as f64 / t.record_secs;
    let event_rate = t.events as f64 / t.record_secs;
    let slowdown = t.record_secs / t.noop_secs;
    println!(
        "mcf/runahead,{},{},{:.2},{:.2},{:.2},{:.3}",
        t.cycles,
        t.events,
        noop_rate / 1e6,
        record_rate / 1e6,
        event_rate / 1e6,
        slowdown
    );
    report.metric("trace_record_cycles_per_sec", record_rate);
    report.metric("trace_record_events_per_sec", event_rate);
    report.metric("trace_record_slowdown", slowdown);

    // Front-end sub-timer: a warmed nop slide has no memory operands, no
    // branches and no scheduler pressure, so its cycles/s isolates the
    // fetch → predecode-lookup → rename → retire path. Front-end wins (or
    // regressions) show up here even when the kernel rates above are
    // dominated by the memory system.
    println!();
    println!("== front-end sub-timer: warmed nop slide ==");
    println!("slide_insts,cycles,naive_Mcyc_per_s");
    let slide = if quick { 40_000 } else { 200_000 };
    let (fe_cycles, fe_secs) = measure_frontend_nop_slide(slide, opts.repeats);
    let fe_rate = fe_cycles as f64 / fe_secs;
    println!("{slide},{fe_cycles},{:.2}", fe_rate / 1e6);
    report.metric("frontend_nop_slide_cycles", fe_cycles as f64);
    report.metric("frontend_nop_slide_naive_cycles_per_sec", fe_rate);

    println!();
    let host_threads = harness::default_threads();
    println!(
        "== Fig. 9-style sweep scaling ({sweep_trials} trials, host has {host_threads} core(s)) =="
    );
    if host_threads < 4 {
        println!("note: wall-clock scaling needs >= 4 host cores; on this host the");
        println!("      sweep only demonstrates thread-safety and low fan-out overhead");
    }
    println!("threads,wall_secs,speedup,efficiency");
    let mut thread_points = vec![1usize, 2, 4];
    if host_threads > 4 {
        thread_points.push(host_threads.min(16));
    }
    thread_points.retain(|&t| t <= host_threads.max(4));
    let mut serial_secs = None;
    for &threads in &thread_points {
        let cfg = SweepConfig { trials: sweep_trials, threads, ..SweepConfig::default() };
        let t = Instant::now();
        let sweep = run_pht_sweep(&cfg);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(
            sweep.successes(),
            sweep.trials.len(),
            "every sweep trial must leak on the runahead machine"
        );
        let base = *serial_secs.get_or_insert(secs);
        let speedup = base / secs;
        println!("{threads},{secs:.3},{speedup:.2},{:.2}", speedup / threads as f64);
        report.metric(format!("sweep_{threads}t_wall_secs"), secs);
        report.metric(format!("sweep_{threads}t_speedup"), speedup);
    }
    report.metric("sweep_trials", sweep_trials as f64);
    report.metric("host_threads", host_threads as f64);

    let path = match report.write() {
        Ok(path) => path,
        Err(e) => {
            // A full benchmark run is minutes of work — report the IO
            // failure and exit non-zero instead of panicking it away.
            eprintln!("error: cannot write BENCH_step.json: {e}");
            return 2;
        }
    };
    println!();
    println!("wrote {}", path.display());

    if let Some(baseline) = baseline {
        check_against_baseline(&report, &parse_metrics(&baseline), opts.max_drop)
    } else {
        0
    }
}

/// Returns 1 if any `*_cycles_per_sec` or `*_sessions_per_sec` metric
/// present in both reports dropped more than `max_drop` below the
/// baseline. Cycle counts and sweep wall times vary with quick mode and
/// host load; the per-second rates are iteration-count-independent, so
/// quick CI runs gate against the committed full-mode baseline. Rates are
/// still *host*-dependent — on a runner much slower than the baseline
/// host, widen the threshold (or re-commit a baseline measured on the
/// runner class) rather than letting the gate track machine speed instead
/// of regressions.
fn check_against_baseline(report: &BenchReport, baseline: &[(String, f64)], max_drop: f64) -> i32 {
    let mut failures = Vec::new();
    let mut compared = Vec::new();
    println!();
    println!("== perf gate: >={:.0}% drop vs baseline fails ==", max_drop * 100.0);
    println!("metric,baseline,current,ratio");
    for (key, current) in report.metrics() {
        if !key.ends_with("_cycles_per_sec") && !key.ends_with("_sessions_per_sec") {
            continue;
        }
        let Some((_, base)) = baseline.iter().find(|(k, _)| k == key) else { continue };
        compared.push(key.as_str());
        let ratio = current / base;
        println!("{key},{base:.0},{current:.0},{ratio:.2}");
        if ratio < 1.0 - max_drop {
            failures.push(format!("{key}: {current:.0}/s is {ratio:.2}x of baseline {base:.0}/s"));
        }
    }
    if compared.is_empty() {
        // A renamed scenario or stale baseline must not disable the gate.
        failures.push(
            "no *_cycles_per_sec or *_sessions_per_sec metric matched the baseline — \
             renamed scenarios or a stale baseline file would otherwise gate nothing"
                .to_string(),
        );
    }
    // The busy-pipeline rates must always be part of the comparison: they
    // are where front-end and scheduler regressions land, and fast-forward
    // cannot mask them.
    for required in GATE_REQUIRED {
        if !compared.contains(required) {
            failures.push(format!(
                "required metric {required} was not compared (missing from the report or \
                 the baseline) — the busy-pipeline gate would be silently disabled"
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!("perf gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        return 1;
    }
    println!("perf gate passed");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_override_env_defaults() {
        let opts = PerfOptions::default()
            .apply_args(&[
                "--quick".to_string(),
                "--baseline".to_string(),
                "some.json".to_string(),
                "--max-drop".to_string(),
                "0.5".to_string(),
            ])
            .unwrap();
        assert!(opts.quick);
        assert_eq!(opts.baseline, BaselineSource::Path("some.json".into()));
        assert_eq!(opts.max_drop, 0.5);
        assert_eq!(opts.repeats, 1, "repeats defaults to a single sample");
    }

    #[test]
    fn repeats_flag_parses_and_rejects_zero() {
        let opts =
            PerfOptions::default().apply_args(&["--repeats".to_string(), "3".to_string()]).unwrap();
        assert_eq!(opts.repeats, 3);
        assert!(PerfOptions::default()
            .apply_args(&["--repeats".to_string(), "0".to_string()])
            .is_err());
        assert!(PerfOptions::default().apply_args(&["--repeats".to_string()]).is_err());
    }

    #[test]
    fn best_of_n_takes_the_fastest_sample() {
        let w = specrun_workloads::kernels::pointer_chase(40);
        let once = measure_kernel(&w, CpuConfig::default(), 10_000_000, 1);
        let thrice = measure_kernel(&w, CpuConfig::default(), 10_000_000, 3);
        assert_eq!(once.cycles, thrice.cycles, "repeats never change the simulation");
        assert!(thrice.naive_secs > 0.0 && thrice.ff_secs > 0.0);
    }

    #[test]
    fn trace_overhead_is_measured_on_identical_simulations() {
        // The recorder must not perturb the run it is measuring: same
        // cycles with and without it, same event count across repeats.
        let w = specrun_workloads::kernels::mcf(40);
        let r = measure_trace_overhead(&w, CpuConfig::default(), 10_000_000, 2);
        assert!(r.events > 0, "mcf must emit pipeline events");
        assert!(r.noop_secs > 0.0 && r.record_secs > 0.0);
    }

    #[test]
    fn pool_forks_beat_fresh_session_builds() {
        // The tentpole perf claim: amortizing one snapshot across
        // copy-on-write forks must out-rate rebuilding a session
        // (machine, programs, warm-up) for every unit. The strict
        // comparison only holds where the claim is made — release, where
        // the session build is the dominant per-unit cost. In debug the
        // unoptimized victim simulation dominates both paths, the
        // structural margin shrinks below scheduler noise (the suite
        // runs many test binaries concurrently), so we only sanity-bound
        // the ratio there; the release perf gate owns the strict claim.
        let spec = CampaignSpec::paper_matrix();
        let r = measure_pool(&spec, 3);
        let fork_rate = f64::from(r.fork_units) / r.fork_secs;
        let fresh_rate = f64::from(r.fresh_units) / r.fresh_secs;
        if cfg!(debug_assertions) {
            assert!(
                fork_rate > 0.5 * fresh_rate,
                "fork {fork_rate:.2}/s collapsed vs fresh {fresh_rate:.2}/s"
            );
        } else {
            assert!(
                fork_rate > fresh_rate,
                "fork {fork_rate:.2}/s must beat fresh {fresh_rate:.2}/s"
            );
        }
    }

    #[test]
    fn gate_covers_session_rates() {
        let mut current = BenchReport::new("step");
        current.metric("mcf_runahead_naive_cycles_per_sec", 100.0);
        current.metric("pointer_chase_runahead_naive_cycles_per_sec", 100.0);
        current.metric("trace_record_cycles_per_sec", 100.0);
        current.metric("pool_fork_sessions_per_sec", 50.0);
        let baseline = vec![
            ("mcf_runahead_naive_cycles_per_sec".to_string(), 100.0),
            ("pointer_chase_runahead_naive_cycles_per_sec".to_string(), 100.0),
            ("trace_record_cycles_per_sec".to_string(), 100.0),
            ("pool_fork_sessions_per_sec".to_string(), 100.0),
        ];
        assert_eq!(
            check_against_baseline(&current, &baseline, 0.25),
            1,
            "a 50% sessions/sec drop must fail the gate"
        );
        assert_eq!(check_against_baseline(&current, &baseline, 0.6), 0);
    }

    #[test]
    fn baseline_from_git_flag_parses() {
        let opts = PerfOptions::default().apply_args(&["--baseline-from-git".to_string()]).unwrap();
        assert_eq!(opts.baseline, BaselineSource::Git);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(PerfOptions::default().apply_args(&["--bogus".to_string()]).is_err());
        assert!(PerfOptions::default().apply_args(&["--baseline".to_string()]).is_err());
    }

    #[test]
    fn gate_fails_on_drop_and_passes_within_threshold() {
        let mut current = BenchReport::new("step");
        current.metric("mcf_runahead_naive_cycles_per_sec", 60.0);
        current.metric("pointer_chase_runahead_naive_cycles_per_sec", 100.0);
        current.metric("trace_record_cycles_per_sec", 100.0);
        let baseline = vec![
            ("mcf_runahead_naive_cycles_per_sec".to_string(), 100.0),
            ("pointer_chase_runahead_naive_cycles_per_sec".to_string(), 100.0),
            ("trace_record_cycles_per_sec".to_string(), 100.0),
        ];
        assert_eq!(check_against_baseline(&current, &baseline, 0.25), 1, "40% drop must fail");
        assert_eq!(check_against_baseline(&current, &baseline, 0.5), 0, "within 50% passes");
    }

    #[test]
    fn gate_fails_when_required_metric_missing() {
        let mut current = BenchReport::new("step");
        current.metric("mcf_runahead_naive_cycles_per_sec", 100.0);
        // pointer_chase missing from the baseline: required comparison gone.
        let baseline = vec![("mcf_runahead_naive_cycles_per_sec".to_string(), 100.0)];
        assert_eq!(check_against_baseline(&current, &baseline, 0.25), 1);
    }

    #[test]
    fn gate_fails_when_nothing_compares() {
        let current = BenchReport::new("step");
        assert_eq!(check_against_baseline(&current, &[], 0.25), 1);
    }
}
