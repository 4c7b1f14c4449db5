//! # specrun-lab
//!
//! One declarative campaign runner for every SPECRUN paper artifact.
//!
//! Each paper figure, table, variant matrix and defense experiment is a
//! [`Scenario`] value in the [`registry`](registry::registry) — a name,
//! a run function over the parallel trial harness, metric extractors and
//! **paper-claim invariants** ("secure runahead leakage = 0", "runahead
//! speedup > 1 on mcf") — instead of a standalone binary. The runner
//! executes any subset, fans trials out over the host's cores, and emits
//! machine-readable artifacts (`artifacts/<scenario>.json` plus a merged
//! `LAB_report.json` with per-scenario metrics, seeds, config digests and
//! invariant verdicts) that are **byte-identical across runs** for fixed
//! seeds — the property the CI reproduction gate relies on.
//!
//! ```sh
//! specrun-lab list                      # every registered scenario
//! specrun-lab run --all --quick         # the CI reproduction gate
//! specrun-lab run fig7 table1           # any subset, full fidelity
//! specrun-lab perf --baseline-from-git  # throughput benchmark + perf gate
//! ```
//!
//! Adding a new experiment is a registry entry, not a new binary:
//!
//! ```
//! use specrun_lab::{registry, RunContext};
//! let scenarios = registry::registry();
//! assert!(scenarios.iter().any(|s| s.name == "fig7"));
//! let table1 = registry::find("table1").unwrap();
//! let run = (table1.run)(&RunContext::quick()).expect("table1 simulates nothing");
//! assert!(run.passed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod cli;
pub mod fuzz;
pub mod journal;
pub mod json;
pub mod perf;
pub mod pool;
pub mod registry;
pub mod report;
pub mod scenario;
pub mod sink;
pub mod trace;

pub use campaign::{Artifacts, Campaign, Rendered};
pub use fuzz::{FuzzCampaign, FuzzInvariant, FuzzOptions, Violation, FUZZ_REPORT_NAME, INVARIANTS};
pub use json::Json;
pub use pool::{parse_spec, report_json, POOL_REPORT_NAME};
pub use report::{parse_metrics, BenchReport, LabEntry, LabReport, LAB_REPORT_NAME};
pub use scenario::{Invariant, RunContext, Scenario, ScenarioRun, DEFAULT_SEED};
pub use sink::{ArtifactSink, ChaosSink, FsSink};

/// Commonly used items for examples and tests.
pub mod prelude {
    pub use crate::registry::{find, registry};
    pub use crate::report::{LabReport, LAB_REPORT_NAME};
    pub use crate::scenario::{Invariant, RunContext, Scenario, ScenarioRun};
}
