//! # specrun-workloads
//!
//! SPEC2006-like synthetic kernels for the SPECRUN reproduction's Fig. 7
//! experiment: `zeusmp`, `wrf`, `bwaves`, `lbm`, `mcf` and `GemsFDTD`
//! stand-ins whose memory behaviour (streams, stencils, pointer chases)
//! matches what the originals are known for, plus an IPC harness comparing
//! the no-runahead and runahead machines.
//!
//! ```
//! use specrun_workloads::{kernels, ipc};
//! let workload = kernels::lbm(100);
//! let c = ipc::try_compare(&[workload], &[specrun_cpu::CpuConfig::default()], 2_000_000, 1, None)
//!     .expect("lbm halts within its budget");
//! assert!(c[0].speedup() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fuzz;
pub mod harness;
pub mod ipc;
pub mod kernels;
pub mod metrics;
pub mod plan;
pub mod pool;
pub mod rng;
pub mod supervisor;

pub use clock::{ChaosClock, Clock, WallClock};
pub use fuzz::shrink_plan;
pub use harness::{parallel_map, RunError, Summary, TrialError, MAX_THREADS};
pub use ipc::{
    geomean_speedup, try_compare, try_run_workload_governed, try_run_workload_observed,
    IpcComparison, IpcResult, DEFAULT_ITERS,
};
pub use kernels::Workload;
pub use metrics::{MetricSet, MetricSource};
pub use plan::{AttackLayout, GadgetKind, KnobSpec, Plan, PlanPolicy, VictimSpec, WarmStep};
pub use pool::{CampaignSpec, PoolReport, ShardOutcome, ShardSpec, ShardStats, ShardStatus};
pub use rng::SplitMix64;
pub use supervisor::{
    backoff_ms, supervised_map_with, SupervisedReport, SupervisorConfig, UnitCtx, UnitOutcome,
};

/// The Fig. 7 suite at a custom iteration count (smaller = faster tests).
pub fn suite_with_iters(iters: u32) -> Vec<Workload> {
    vec![
        kernels::zeusmp(iters),
        kernels::wrf(iters),
        kernels::bwaves(iters),
        kernels::lbm(iters),
        kernels::mcf(iters / 4), // pointer chase: each iteration is ~200 cycles
        kernels::gems_fdtd(iters),
    ]
}

/// Commonly used items for examples and tests.
pub mod prelude {
    pub use crate::harness::{parallel_map, Summary};
    pub use crate::ipc::{geomean_speedup, try_compare, IpcComparison};
    pub use crate::kernels::Workload;
    pub use crate::metrics::{MetricSet, MetricSource};
    pub use crate::suite_with_iters;
}
