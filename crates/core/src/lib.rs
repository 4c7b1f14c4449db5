//! # specrun
//!
//! A full reproduction of **"SPECRUN: The Danger of Speculative Runahead
//! Execution in Processors"** (DAC 2024): the first transient-execution
//! attack on runahead execution, built on a cycle-level out-of-order
//! simulator ([`specrun_cpu`]) configured per the paper's Table 1.
//!
//! The crate provides:
//!
//! * [`Machine`] — a simulated core whose microarchitectural state (caches,
//!   PHT/BTB/RSB) persists across programs, modelling co-resident processes;
//! * [`attack`] — the Fig. 8 proof of concept and the SpectreBTB/RSB
//!   variants of §4.4 as one [`attack::Attack`] sequence ([`attack::run_poc`]),
//!   each leaking a planted secret byte through a flush+reload cache
//!   covert channel;
//! * [`window`] — the §5.3 transient-window measurements (N1/N2/N3)
//!   showing runahead removes the ROB-size limit on transient instructions;
//! * [`defense`] — verification harnesses for the §6 secure-runahead
//!   scheme (SL cache + taint tracking) and the skip-INV-branch mitigation.
//!
//! ## Quick start
//!
//! ```
//! use specrun::attack::{run_poc, GadgetKind, PocConfig};
//! use specrun::session::{Policy, Session};
//!
//! let mut session = Session::builder().policy(Policy::Runahead).build();
//! let cfg = PocConfig { training_rounds: 16, ..PocConfig::default() };
//! let outcome = run_poc(&mut session, GadgetKind::Pht, &cfg);
//! assert_eq!(outcome.leaked, Some(cfg.secret), "SPECRUN leaks on a runahead machine");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod defense;
mod machine;
mod metrics;
pub mod plan;
pub mod pool;
pub mod session;
pub mod window;

pub use machine::Machine;
pub use plan::{
    config_for, poc_config_for, try_run_plan, try_run_plan_governed, try_run_plan_recorded,
    PlanOutcome,
};
pub use pool::{run_campaign, run_shard, ShardSnapshot, UnitResult};
pub use session::{Policy, Session, SessionBuilder};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::attack::{
        run_poc, Attack, AttackLayout, GadgetKind, PocConfig, PocOutcome, ProbeTimings,
        DEFAULT_THRESHOLD,
    };
    pub use crate::defense::{verify_pht_blocked, DefenseReport};
    pub use crate::session::{leak_trace_for, Policy, Session, SessionBuilder};
    pub use crate::window::{measure_windows, WindowReport};
    pub use crate::Machine;
}
