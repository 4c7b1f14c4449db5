//! `fig7_kernels`: the six Fig. 7 kernels at nine scales on the
//! no-runahead and runahead machines, one unit per (kernel, scale, machine)
//! run, repeated in rounds.
//!
//! Memory-bound kernel units with no forks, no traces and almost no set-up:
//! nearly all host time is `cpu`/`mem`/`bp` stepping.

use std::sync::Arc;

use specrun_cpu::{Core, CpuConfig, NoopObserver, RunExit};
use specrun_isa::DecodedProgram;
use specrun_workloads::{suite_with_iters, try_run_workload_observed, SplitMix64, Workload};

use crate::measure::{setup_due, Spans, Tally};
use crate::{count_cpu_stats, Opts};

/// Kernel scales (`suite_with_iters` iteration counts; the Fig. 7 default
/// is 1500): nine sizes give 108 distinct units, enough for ten beyond
/// p90, and units short enough that each runs about thirty times a run.
const SCALES: [u32; 9] = [100, 125, 150, 175, 200, 225, 250, 275, 300];
/// Cycle budget of one kernel run (every kernel halts far below it).
const MAX_CYCLES: u64 = 20_000_000;
/// Rounds (one run of every distinct unit) per second of `--seconds`,
/// sized so a run lasts about that long on a 2-vCPU Firecracker guest.
/// The work is a function of `--seconds` alone.
const ROUNDS_PER_S: f64 = 1.2;
/// Iterations of the set-up phase's warm-up runs.
const WARM_UP_ITERS: u32 = 100;
/// The Fig. 7 scenario's invariant: runahead never slows a kernel.
const MIN_SPEEDUP: f64 = 0.99;

/// A machine: its label and its configuration.
type Machine = (&'static str, fn() -> CpuConfig);

/// The two machines of Fig. 7.
const MACHINES: [Machine; 2] =
    [("no_runahead", CpuConfig::no_runahead), ("runahead", CpuConfig::default)];

/// What one kernel run produced that the checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KernelRun {
    cycles: u64,
    committed: u64,
}

/// The set-up phase: a warm-up run of every kernel on both machines at
/// small scale, so the host's allocator and caches are warm before the
/// first timed unit, then the kernels at every scale.
fn set_up(spans: &mut Spans) -> Vec<Workload> {
    let warm_up = spans.time("workloads.gen", || suite_with_iters(WARM_UP_ITERS));
    for workload in &warm_up {
        for (_, config) in MACHINES {
            let _ = try_run_workload_observed(workload, config(), MAX_CYCLES, NoopObserver);
        }
    }
    spans.time("workloads.gen", || SCALES.iter().flat_map(|&i| suite_with_iters(i)).collect())
}

/// Runs the workload once, untraced or as the span run.
pub fn run(opts: &Opts, spans: &mut Spans) -> Tally {
    let mut tally = Tally::default();
    let kernels = tally.setup(|| set_up(spans));
    // Distinct unit `k * 2 + m` is kernel `k` on machine `m`.
    let distinct = kernels.len() * MACHINES.len();
    let rounds = (opts.seconds as f64 * ROUNDS_PER_S).round().max(1.0) as usize;
    let mut units: Vec<usize> = (0..rounds).flat_map(|_| 0..distinct).collect();
    SplitMix64::new(opts.seed).shuffle(&mut units);

    let mut first: Vec<Option<KernelRun>> = vec![None; distinct];
    for (i, &id) in units.iter().enumerate() {
        if setup_due(i, units.len()) {
            tally.setup(|| set_up(spans));
        }
        let (workload, (machine, config)) = (&kernels[id / 2], MACHINES[id % 2]);
        let result = tally.unit(id, || {
            if spans.enabled() {
                run_spanned(workload, config(), spans)
            } else {
                try_run_workload_observed(workload, config(), MAX_CYCLES, NoopObserver)
                    .map(|(r, _, _)| KernelRun { cycles: r.cycles, committed: r.committed })
                    .map_err(|e| e.to_string())
            }
        });
        let checked = result.and_then(|run| {
            tally.sim_cycles += run.cycles;
            check_repeat(*first[id].get_or_insert(run), run)
        });
        if let Err(why) = checked {
            tally.fail(format!("{} on {machine}: {why}", workload.name));
        }
    }

    for (k, workload) in kernels.iter().enumerate() {
        if let (Some(base), Some(runahead)) = (first[k * 2], first[k * 2 + 1]) {
            if let Err(why) = check_speedup(base, runahead) {
                // Every runahead run of the kernel carries the failure.
                for _ in 0..rounds {
                    tally.fail(format!("{}: {why}", workload.name));
                }
            }
        }
    }
    tally
}

/// The span run's unit: the same steps as `try_run_workload_observed`,
/// with the core built directly so predecode and stepping are timed apart
/// and the core's counters can be read.
fn run_spanned(
    workload: &Workload,
    config: CpuConfig,
    spans: &mut Spans,
) -> Result<KernelRun, String> {
    let mut core = spans.time("cpu.build", || {
        let mut core = Core::new(config);
        for (addr, bytes) in &workload.setup {
            core.mem_mut().write_bytes(*addr, bytes);
        }
        core
    });
    let decoded =
        spans.time("isa.predecode", || Arc::new(DecodedProgram::new(workload.program.clone())));
    spans.count("isa.uops", decoded.meta().len() as f64);
    core.load_program_predecoded(decoded);
    let exit = spans.time("cpu.sim", || core.run(MAX_CYCLES));
    if exit != RunExit::Halted {
        return Err(format!("kernel ended with {exit:?}"));
    }
    count_cpu_stats(spans, core.stats());
    let mem = core.mem().stats();
    spans.count("mem.l1d_hits", mem.l1d_hits as f64);
    spans.count("mem.l2_hits", mem.l2_hits as f64);
    spans.count("mem.l3_hits", mem.l3_hits as f64);
    spans.count("mem.dram_accesses", mem.dram_accesses as f64);
    spans.count("mem.mshr_merges", mem.mshr_merges as f64);
    spans.count("mem.fills", mem.fills as f64);
    let stats = core.stats();
    Ok(KernelRun { cycles: stats.cycles, committed: stats.committed })
}

/// Every repeat of a (kernel, machine) pair reproduces its first run.
fn check_repeat(first: KernelRun, now: KernelRun) -> Result<(), String> {
    if first == now {
        Ok(())
    } else {
        Err(format!("repeat drifted: {now:?} after {first:?}"))
    }
}

/// Runahead speeds the kernel up, or at worst leaves it unchanged.
fn check_speedup(base: KernelRun, runahead: KernelRun) -> Result<(), String> {
    let speedup = base.cycles as f64 / runahead.cycles as f64;
    if speedup > MIN_SPEEDUP {
        Ok(())
    } else {
        Err(format!("runahead speedup {speedup:.3} is not above {MIN_SPEEDUP}"))
    }
}

/// Proves each check can fail: a drifted repeat and a swapped machine pair
/// on a real (small) kernel run must both be reported.
pub fn self_test() -> Vec<(&'static str, bool)> {
    let kernel = specrun_workloads::kernels::mcf(64);
    let run = |config: CpuConfig| {
        let (r, _, _) = try_run_workload_observed(&kernel, config, MAX_CYCLES, NoopObserver)
            .expect("the self-test kernel halts");
        KernelRun { cycles: r.cycles, committed: r.committed }
    };
    let base = run(CpuConfig::no_runahead());
    let runahead = run(CpuConfig::default());
    let drifted = KernelRun { cycles: base.cycles + 1, ..base };
    vec![
        ("fig7: a faithful repeat passes", check_repeat(base, base).is_ok()),
        ("fig7: a repeat one cycle off fails", check_repeat(base, drifted).is_err()),
        ("fig7: the real speedup passes", check_speedup(base, runahead).is_ok()),
        ("fig7: swapped machines fail the speedup", check_speedup(runahead, base).is_err()),
    ]
}
