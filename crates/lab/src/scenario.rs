//! The declarative scenario model: every paper figure, table, variant
//! matrix and defense experiment is a [`Scenario`] value in the registry
//! instead of a standalone binary.
//!
//! A scenario bundles a name, the paper reference it reproduces, and a
//! fallible run function that — given a [`RunContext`] — produces a
//! [`ScenarioRun`]:
//! named metrics (via the [`MetricSource`] extraction traits), the
//! configuration digests and seeds that make the run auditable, the
//! human-readable report `specrun-lab run` prints, and a list of
//! **paper-claim invariants** ("secure runahead leakage = 0", "runahead
//! speedup > 1 on mcf") whose pass/fail the CI reproduction gate enforces.

use specrun_cpu::{CancelToken, CpuConfig};
use specrun_workloads::harness::RunError;
use specrun_workloads::metrics::MetricSet;
use specrun_workloads::supervisor::UnitOutcome;

pub use specrun_workloads::metrics::MetricSource;

use crate::json::Json;

/// How a scenario should be executed.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Reduced-scale mode for CI: smaller kernels and fewer trials, same
    /// invariants. Quick runs are deterministic and byte-stable just like
    /// full runs — only the scale differs.
    pub quick: bool,
    /// Worker threads for parallel fan-out (`0` = all host cores). Results
    /// are thread-count-invariant by construction.
    pub threads: usize,
    /// Base seed for randomized trials (sweeps).
    pub seed: u64,
    /// The supervising unit's cancel token, which the body attaches to
    /// every simulation it starts, so a tripped token surfaces as
    /// [`RunError::Cancelled`]. `None` outside the executor.
    pub cancel: Option<CancelToken>,
}

impl RunContext {
    /// Full-fidelity context (the paper's scale).
    pub fn full() -> RunContext {
        RunContext { quick: false, threads: 0, seed: DEFAULT_SEED, cancel: None }
    }

    /// Quick context (the CI reproduction gate's scale).
    pub fn quick() -> RunContext {
        RunContext { quick: true, ..RunContext::full() }
    }

    /// Picks `full` or `quick` depending on the mode.
    pub fn sized(&self, full: u32, quick: u32) -> u32 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The mode label recorded in artifacts.
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// Default base seed for scenario randomness (sweeps); the same value the
/// pre-registry binaries used, so artifacts are comparable across the
/// restructure.
pub const DEFAULT_SEED: u64 = 0xf199;

/// One checked paper claim.
#[derive(Debug, Clone)]
pub struct Invariant {
    /// Short machine-readable identifier, e.g. `secure_runahead_blocks`.
    pub name: String,
    /// The paper claim being checked, as a sentence.
    pub claim: String,
    /// What the run actually observed (for the failure report).
    pub observed: String,
    /// Whether the claim held.
    pub passed: bool,
}

/// The result of executing one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Registry name (`fig7`, `table1`, …).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Paper reference (`Fig. 7`, `§6`, …).
    pub paper_ref: String,
    /// Mode label (`quick` / `full`).
    pub mode: String,
    /// Base seed the run used.
    pub seed: u64,
    /// Free-form string annotations (scale parameters, mostly).
    pub notes: Vec<(String, String)>,
    /// Flattened numeric results.
    pub metrics: MetricSet,
    /// FNV-1a digests of every machine configuration the run simulated,
    /// labelled. A digest change flags that an artifact diff stems from a
    /// config change, not a simulator change.
    pub config_digests: Vec<(String, u64)>,
    /// Checked paper claims.
    pub invariants: Vec<Invariant>,
    /// The human-readable report `specrun-lab run` prints.
    pub lines: Vec<String>,
    /// Structured execution failure, when the scenario did not complete:
    /// the rendered [`RunError`] of its final attempt (a panic, a run that
    /// did not halt, a deadline), set by [`Scenario::settle`]. A run with
    /// an error never passes.
    pub error: Option<String>,
}

impl ScenarioRun {
    /// Starts an empty run record for `scenario` under `ctx`.
    pub fn new(scenario: &Scenario, ctx: &RunContext) -> ScenarioRun {
        ScenarioRun {
            name: scenario.name.to_string(),
            title: scenario.title.to_string(),
            paper_ref: scenario.paper_ref.to_string(),
            mode: ctx.mode().to_string(),
            seed: ctx.seed,
            notes: Vec::new(),
            metrics: MetricSet::new(),
            config_digests: Vec::new(),
            invariants: Vec::new(),
            lines: Vec::new(),
            error: None,
        }
    }

    /// Adds a string annotation.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.push((key.into(), value.into()));
    }

    /// Records a machine configuration digest under `label`.
    pub fn digest(&mut self, label: impl Into<String>, config: &CpuConfig) {
        self.config_digests.push((label.into(), config_digest(config)));
    }

    /// Records one paper-claim check.
    pub fn check(
        &mut self,
        name: impl Into<String>,
        claim: impl Into<String>,
        passed: bool,
        observed: impl std::fmt::Display,
    ) {
        self.invariants.push(Invariant {
            name: name.into(),
            claim: claim.into(),
            observed: observed.to_string(),
            passed,
        });
    }

    /// Appends a line to the human-readable report.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Whether the scenario completed and every invariant held.
    pub fn passed(&self) -> bool {
        self.error.is_none() && self.invariants.iter().all(|i| i.passed)
    }

    /// The invariants that failed.
    pub fn failures(&self) -> Vec<&Invariant> {
        self.invariants.iter().filter(|i| !i.passed).collect()
    }

    /// Serializes the run as the per-scenario artifact object.
    ///
    /// Everything in here is deterministic for a fixed seed: metrics come
    /// from the simulator (thread-invariant), digests from the configs,
    /// and no wall-clock quantity is recorded — so re-running a scenario
    /// yields a byte-identical artifact.
    pub fn to_json(&self) -> Json {
        let notes = self.notes.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect();
        let digests = self
            .config_digests
            .iter()
            .map(|(label, d)| (label.clone(), Json::str(format!("{d:016x}"))))
            .collect();
        let metrics =
            self.metrics.entries().iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect();
        let invariants = self
            .invariants
            .iter()
            .map(|i| {
                Json::obj(vec![
                    ("name".into(), Json::str(i.name.clone())),
                    ("claim".into(), Json::str(i.claim.clone())),
                    ("observed".into(), Json::str(i.observed.clone())),
                    ("passed".into(), Json::Bool(i.passed)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("scenario".into(), Json::str(self.name.clone())),
            ("title".into(), Json::str(self.title.clone())),
            ("paper_ref".into(), Json::str(self.paper_ref.clone())),
            ("mode".into(), Json::str(self.mode.clone())),
            // As a string: a u64 seed above 2^53 would be silently rounded
            // through an f64 JSON number, recording a seed that does not
            // reproduce the run.
            ("seed".into(), Json::str(self.seed.to_string())),
            ("passed".into(), Json::Bool(self.passed())),
            ("error".into(), self.error.as_ref().map_or(Json::Null, Json::str)),
            ("notes".into(), Json::Obj(notes)),
            ("config_digests".into(), Json::Obj(digests)),
            ("metrics".into(), Json::Obj(metrics)),
            ("invariants".into(), Json::Arr(invariants)),
        ])
    }
}

/// One registered experiment.
#[derive(Clone)]
pub struct Scenario {
    /// Registry name (`fig7`, `defense`, …).
    pub name: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Paper reference.
    pub paper_ref: &'static str,
    /// Executes the experiment. A simulation that does not halt cleanly
    /// (budget, wedge, cancellation) is the body's error; failed
    /// paper-claim invariants are results, recorded in the run.
    pub run: fn(&RunContext) -> Result<ScenarioRun, RunError>,
}

impl Scenario {
    /// The run a supervised unit leaves in the report: its result, or —
    /// when every attempt failed — an empty run carrying the final error,
    /// which never passes.
    pub fn settle<R: From<ScenarioRun>>(&self, ctx: &RunContext, outcome: UnitOutcome<R>) -> R {
        let error = match outcome {
            UnitOutcome::Done { result, .. } => return result,
            UnitOutcome::Failed { error, .. } | UnitOutcome::Quarantined { error, .. } => {
                error.to_string()
            }
            UnitOutcome::Skipped => "skipped: the campaign circuit breaker tripped".to_string(),
        };
        let mut run = ScenarioRun::new(self, ctx);
        run.error = Some(error);
        run.into()
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("paper_ref", &self.paper_ref)
            .finish()
    }
}

/// FNV-1a 64-bit digest of a machine configuration's `Debug` rendering.
///
/// `CpuConfig` derives `Debug` over every field, so any config change —
/// cache geometry, runahead policy, defense knobs — changes the digest.
pub fn config_digest(config: &CpuConfig) -> u64 {
    fnv1a(format!("{config:?}").as_bytes())
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrun_workloads::harness::TrialError;

    fn dummy(ctx: &RunContext) -> ScenarioRun {
        let scenario = Scenario {
            name: "dummy",
            title: "A dummy scenario",
            paper_ref: "Fig. 0",
            run: |ctx| Ok(dummy(ctx)),
        };
        let mut run = ScenarioRun::new(&scenario, ctx);
        run.metrics.push("x", 1.0);
        run.check("holds", "x equals one", true, "1");
        run
    }

    #[test]
    fn run_serializes_and_passes() {
        let run = dummy(&RunContext::quick());
        assert!(run.passed());
        let json = run.to_json().render();
        assert!(json.contains("\"scenario\": \"dummy\""));
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains("\"x\": 1"));
        assert!(json.contains("\"passed\": true"));
    }

    #[test]
    fn failed_invariant_flips_passed() {
        let mut run = dummy(&RunContext::full());
        run.check("fails", "two equals three", false, "2 != 3");
        assert!(!run.passed());
        assert_eq!(run.failures().len(), 1);
        assert_eq!(run.failures()[0].name, "fails");
        assert!(run.to_json().render().contains("\"passed\": false"));
    }

    #[test]
    fn config_digest_tracks_config_changes() {
        let a = config_digest(&CpuConfig::default());
        assert_eq!(a, config_digest(&CpuConfig::default()), "digest is deterministic");
        assert_ne!(a, config_digest(&CpuConfig::no_runahead()));
        assert_ne!(a, config_digest(&CpuConfig::secure_runahead()));
    }

    #[test]
    fn a_panicking_scenario_becomes_a_failed_run() {
        // What the campaign pool hands back for a scenario whose body
        // panicked on every attempt.
        let message = "cycle budget exceeded: deep inside a sweep".to_string();
        let error = RunError::Panic(TrialError { index: 0, message });
        let outcome = UnitOutcome::Failed { error, history: Vec::new() };
        let s = Scenario { name: "boom", title: "t", paper_ref: "r", run: |ctx| Ok(dummy(ctx)) };
        let run: ScenarioRun = s.settle(&RunContext::quick(), outcome);
        assert!(!run.passed(), "a run with an error never passes");
        let expected = "trial 0 panicked: cycle budget exceeded: deep inside a sweep";
        assert_eq!(run.error.as_deref(), Some(expected));
        let json = run.to_json().render();
        assert!(json.contains("\"passed\": false"));
        assert!(json.contains(&format!("\"error\": \"{expected}\"")));
    }

    #[test]
    fn a_clean_scenario_records_no_error() {
        let run = dummy(&RunContext::quick());
        assert_eq!(run.error, None);
        assert!(run.to_json().render().contains("\"error\": null"));
    }

    #[test]
    fn sized_picks_by_mode() {
        assert_eq!(RunContext::full().sized(100, 10), 100);
        assert_eq!(RunContext::quick().sized(100, 10), 10);
    }
}
