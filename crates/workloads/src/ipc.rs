//! The Fig. 7 IPC harness: run each kernel on the no-runahead and runahead
//! machines and compare.

use specrun_cpu::probe::{NoopObserver, PipelineObserver};
use specrun_cpu::{CancelToken, Core, CpuConfig};

use crate::harness::{check_exit, RunError};
use crate::kernels::Workload;

/// Default iteration count giving runs of roughly 10⁵ cycles per kernel.
pub const DEFAULT_ITERS: u32 = 1500;

/// IPC of one kernel on one machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct IpcResult {
    /// Committed instructions.
    pub committed: u64,
    /// Cycles to completion.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Runahead episodes entered.
    pub runahead_entries: u64,
}

/// [`try_run_workload_governed`] without a cancel token.
pub fn try_run_workload_observed<O: PipelineObserver>(
    workload: &Workload,
    config: CpuConfig,
    max_cycles: u64,
    observer: O,
) -> Result<(IpcResult, f64, O), RunError> {
    try_run_workload_governed(workload, config, max_cycles, observer, None)
}

/// The kernel runner every other entry point reduces to: runs `workload`
/// to completion on a fresh [`Core`] with `observer` attached, returning
/// the IPC result, the wall-clock seconds spent in the simulation loop
/// alone (setup excluded, so derived cycles-per-second rates are
/// iteration-count-independent) and the observer with whatever it saw.
///
/// A kernel that exhausts its cycle budget or wedges is returned as a
/// [`RunError`] ([`check_exit`]) carrying the kernel name and the
/// instructions committed when the core gave up — a campaign records it as
/// a failed entry and moves on.
/// With a `token` the run is governed: it publishes heartbeats through the
/// token and stops with [`RunError::Cancelled`] when the token trips (at
/// once if it already has). `None` runs the zero-cost ungoverned loop.
pub fn try_run_workload_governed<O: PipelineObserver>(
    workload: &Workload,
    config: CpuConfig,
    max_cycles: u64,
    observer: O,
    token: Option<&CancelToken>,
) -> Result<(IpcResult, f64, O), RunError> {
    let mut core = Core::with_observer(config, observer);
    for (addr, bytes) in &workload.setup {
        core.mem_mut().write_bytes(*addr, bytes);
    }
    core.load_program(&workload.program);
    let start = std::time::Instant::now();
    let exit = match token {
        Some(token) => core.run_governed(max_cycles, token),
        None => core.run(max_cycles),
    };
    let secs = start.elapsed().as_secs_f64();
    check_exit(exit, || workload.name.to_string(), max_cycles, core.stats().committed)?;
    let stats = core.stats();
    let result = IpcResult {
        committed: stats.committed,
        cycles: stats.cycles,
        ipc: stats.ipc(),
        runahead_entries: stats.runahead_entries,
    };
    Ok((result, secs, core.into_observer()))
}

/// One Fig. 7 bar pair: a kernel's IPC without and with runahead.
#[derive(Debug, Clone)]
pub struct IpcComparison {
    /// Kernel name.
    pub name: &'static str,
    /// No-runahead machine IPC.
    pub baseline: IpcResult,
    /// Runahead machine IPC.
    pub runahead: IpcResult,
}

impl IpcComparison {
    /// Runahead speedup over the baseline.
    pub fn speedup(&self) -> f64 {
        self.runahead.ipc / self.baseline.ipc
    }

    /// IPC normalized to the baseline (the paper's y-axis).
    pub fn normalized_ipc(&self) -> (f64, f64) {
        (1.0, self.speedup())
    }
}

/// The Fig. 7 comparison fan-out: runs every workload on the no-runahead
/// baseline and on each of `machines`, all runs fanned out over `threads`
/// workers of the campaign pool (`0` = all host cores) and governed by
/// `token` (see [`try_run_workload_governed`]). Returns
/// `workloads.len() * machines.len()` comparisons, workload-major: the
/// comparisons of workload 0 against each machine first. Results are
/// thread-count-invariant; the first failing run in that order is the
/// error.
pub fn try_compare(
    workloads: &[Workload],
    machines: &[CpuConfig],
    max_cycles: u64,
    threads: usize,
    token: Option<&CancelToken>,
) -> Result<Vec<IpcComparison>, RunError> {
    let configs: Vec<CpuConfig> =
        std::iter::once(CpuConfig::no_runahead()).chain(machines.iter().cloned()).collect();
    // Flatten to one job per (workload, machine) so uneven kernels still
    // fill every worker.
    let jobs: Vec<(usize, usize)> =
        (0..workloads.len()).flat_map(|w| (0..configs.len()).map(move |c| (w, c))).collect();
    let runs = crate::harness::parallel_map(&jobs, threads, |_, &(w, c)| {
        try_run_workload_governed(
            &workloads[w],
            configs[c].clone(),
            max_cycles,
            NoopObserver,
            token,
        )
        .map(|(result, _, _)| result)
    });
    let runs = runs.into_iter().collect::<Result<Vec<IpcResult>, RunError>>()?;
    Ok(runs
        .chunks(configs.len())
        .zip(workloads)
        .flat_map(|(row, w)| {
            row[1..].iter().map(|&runahead| IpcComparison {
                name: w.name,
                baseline: row[0],
                runahead,
            })
        })
        .collect())
}

/// Geometric-mean speedup across comparisons (the paper's "average
/// performance improvement of 11%").
pub fn geomean_speedup(results: &[IpcComparison]) -> f64 {
    if results.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = results.iter().map(|c| c.speedup().ln()).sum();
    (log_sum / results.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    fn run(w: &Workload, config: CpuConfig, max_cycles: u64) -> IpcResult {
        try_run_workload_observed(w, config, max_cycles, NoopObserver).expect("kernel halts").0
    }

    #[test]
    fn lbm_halts_and_reports_ipc() {
        let w = kernels::lbm(200);
        let r = run(&w, CpuConfig::no_runahead(), 2_000_000);
        assert!(r.ipc > 0.0);
        assert!(r.committed > 1000);
    }

    #[test]
    fn runahead_helps_a_stream() {
        let w = kernels::lbm(400);
        let c = &try_compare(&[w], &[CpuConfig::default()], 4_000_000, 1, None).unwrap()[0];
        assert!(c.runahead.runahead_entries > 0, "stream must trigger runahead");
        assert!(
            c.speedup() > 1.0,
            "runahead should speed up lbm: {:.3} vs {:.3}",
            c.baseline.ipc,
            c.runahead.ipc
        );
    }

    #[test]
    fn geomean_of_identities_is_one() {
        assert!((geomean_speedup(&[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exhausted_budget_is_a_structured_error_not_a_panic() {
        use crate::harness::RunError;
        let w = kernels::lbm(200);
        let err = try_run_workload_observed(&w, CpuConfig::no_runahead(), 50, NoopObserver)
            .expect_err("50 cycles cannot finish lbm");
        match err {
            RunError::CycleBudgetExceeded { what, budget, .. } => {
                assert_eq!(what, w.name);
                assert_eq!(budget, 50);
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn parallel_compare_matches_serial() {
        let ws = vec![kernels::lbm(80), kernels::wrf(80)];
        let machines = [CpuConfig::default(), CpuConfig::secure_runahead()];
        let serial = try_compare(&ws, &machines, 5_000_000, 1, None).unwrap();
        let par = try_compare(&ws, &machines, 5_000_000, 4, None).unwrap();
        assert_eq!(par.len(), ws.len() * machines.len());
        for (p, s) in par.iter().zip(&serial) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.baseline.cycles, s.baseline.cycles);
            assert_eq!(p.runahead.cycles, s.runahead.cycles);
        }
        assert_eq!(par[1].name, ws[0].name, "workload-major order");
        assert_eq!(par[2].name, ws[1].name);
    }
}
