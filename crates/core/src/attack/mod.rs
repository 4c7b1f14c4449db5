//! The SPECRUN attack framework (paper §4): gadget construction, predictor
//! training, runahead triggering, covert-channel probing and the
//! SpectrePHT/BTB/RSB variants nested inside runahead execution.

pub mod covert;
pub mod gadget;
pub mod poc;
pub mod sweep;
pub mod variants;

pub use covert::{ProbeTimings, DEFAULT_THRESHOLD};
pub use poc::{build_pht_program, run_poc, Attack, PocConfig, PocOutcome};
pub use specrun_workloads::plan::{AttackLayout, GadgetKind};
pub use sweep::{run_pht_sweep, SweepConfig, SweepReport, SweepTrial};
pub use variants::{build_btb_victim, build_rsb_victim};
