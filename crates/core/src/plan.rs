//! The `Plan → Session` bridge: turns a fuzzed [`Plan`] into a configured
//! [`Session`] and runs it to a [`PlanOutcome`].
//!
//! The plan grammar lives in `specrun-workloads` (pure data, no dependency
//! on this crate); the invariant registry lives in `specrun-lab`. This
//! module owns the middle: mapping plan policies onto session
//! [`Policy`]s, composing the machine configuration (policy first, then
//! the fuzzed knobs — so a Secure plan's fuzzed SL geometry survives), and
//! driving the right PoC flavour with the ground-truth observers attached.

use specrun_cpu::probe::{CountingObserver, NoopObserver, PipelineEvent, PipelineObserver};
use specrun_cpu::{CancelToken, CpuConfig, CpuStats, RunaheadPolicy};
use specrun_trace::RecordingObserver;
use specrun_workloads::harness::RunError;
use specrun_workloads::plan::{Plan, PlanPolicy};

use crate::attack::{run_poc, PocConfig};
use crate::session::{leak_trace_for, Policy, Session};

impl From<PlanPolicy> for Policy {
    fn from(p: PlanPolicy) -> Policy {
        match p {
            PlanPolicy::Runahead => Policy::Runahead,
            PlanPolicy::NoRunahead => Policy::NoRunahead,
            PlanPolicy::HeadMissTrigger => Policy::HeadMissTrigger,
            PlanPolicy::Precise => Policy::Variant(RunaheadPolicy::Precise),
            PlanPolicy::Vector => Policy::Variant(RunaheadPolicy::Vector),
            PlanPolicy::Secure => Policy::Secure,
            PlanPolicy::SkipInv => Policy::SkipInv,
        }
    }
}

/// The machine configuration a plan describes: Table 1, then the plan's
/// policy, then its knobs (in that order — knobs refine the policy's
/// machine, and defense-only knobs are gated on the policy having armed
/// the defense).
pub fn config_for(plan: &Plan) -> CpuConfig {
    let mut cfg = CpuConfig::default();
    Policy::from(plan.policy).apply(&mut cfg);
    plan.knobs.apply(&mut cfg);
    cfg
}

/// The PoC configuration a plan describes.
pub fn poc_config_for(plan: &Plan) -> PocConfig {
    PocConfig {
        layout: plan.layout,
        secret: plan.secret,
        training_rounds: plan.victim.training_rounds,
        nop_slide: plan.victim.nop_slide as usize,
        attack_filler: plan.victim.attack_filler as usize,
        max_cycles: plan.victim.max_cycles,
        ..PocConfig::default()
    }
}

/// Everything one plan execution produced, in a form the fuzz oracles can
/// compare: the channel's claim, the ground-truth trace, the reconciliation
/// counters and the architectural fingerprint. `PartialEq` is the
/// determinism invariant — two runs of the same plan must be equal.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// Byte the covert channel claims to have recovered, if any.
    pub leaked: Option<u8>,
    /// The planted secret.
    pub expected: u8,
    /// Runahead episodes the attack caused.
    pub runahead_entries: u64,
    /// INV-source branches that never resolved (the SPECRUN signature).
    pub inv_branches: u64,
    /// Ground truth from the leak tracer: the unique probe entry filled
    /// transiently, excluding the training entry 0.
    pub ground_truth: Option<u8>,
    /// Transient fills of the watched secret's probe line.
    pub transient_secret_fills: u64,
    /// Transient reads of the secret line itself.
    pub secret_reads: u64,
    /// Transient fill count per probe entry.
    pub fills_per_entry: Vec<u64>,
    /// Event totals for observer/stats reconciliation.
    pub counts: CountingObserver,
    /// The core's statistics at the end of the run.
    pub stats: CpuStats,
    /// Architectural-state fingerprint at the end of the run.
    pub arch_fingerprint: u64,
}

/// Runs `plan` end to end on a fresh session with the ground-truth
/// observers attached. A plan whose programs exhaust their cycle budget or
/// wedge the core comes back as a structured [`RunError`], so a campaign
/// can record it as a failed entry and keep going. Panics inside the
/// simulator (an invalid machine configuration, a simulator fault)
/// propagate; the fuzz harness boundary catches those.
pub fn try_run_plan(plan: &Plan) -> Result<PlanOutcome, RunError> {
    try_run_plan_governed(plan, None)
}

/// [`try_run_plan`] under a supervisor [`CancelToken`]: every program run
/// publishes heartbeats through the token and stops cooperatively when it
/// trips, surfacing as [`RunError::Cancelled`] (the supervisor reclassifies
/// that into a deadline or stall verdict using the token's recorded
/// reason). `None` is exactly [`try_run_plan`].
pub fn try_run_plan_governed(
    plan: &Plan,
    token: Option<CancelToken>,
) -> Result<PlanOutcome, RunError> {
    run_plan_with(plan, token, NoopObserver).map(|(outcome, _)| outcome)
}

/// [`try_run_plan`] with a trace recorder riding beside the ground-truth
/// observers: returns the outcome *and* the full pipeline-event stream the
/// run emitted, ready for `specrun_trace::encode_events`. This is the
/// forensic path behind `specrun-lab fuzz --replay … --trace`: the same
/// deterministic run, now explorable offline.
pub fn try_run_plan_recorded(plan: &Plan) -> Result<(PlanOutcome, Vec<PipelineEvent>), RunError> {
    run_plan_with(plan, None, RecordingObserver::new())
        .map(|(outcome, recorder)| (outcome, recorder.into_events()))
}

/// The shared plan executor: the ground-truth pair `(CountingObserver,
/// LeakTraceObserver)` always rides; `extra` composes any further observer
/// (a `NoopObserver` for plain runs, a `RecordingObserver` for traced
/// ones) and is handed back alongside the outcome. Observer invisibility
/// (proptested in `specrun-cpu`) guarantees `extra` never changes the
/// outcome.
fn run_plan_with<X: PipelineObserver>(
    plan: &Plan,
    token: Option<CancelToken>,
    extra: X,
) -> Result<(PlanOutcome, X), RunError> {
    let config = config_for(plan);
    let tracer = leak_trace_for(&plan.layout, &config);
    let mut session = Session::builder()
        .config(config)
        .layout(plan.layout)
        .observer(((CountingObserver::default(), tracer), extra))
        .build();
    session.machine_mut().set_cancel_token(token);
    for w in &plan.warm {
        session.warm(w.addr, w.len);
    }
    let outcome = run_poc(&mut session, plan.victim.gadget, &poc_config_for(plan));
    session.check_halted(|| format!("plan {} ({:?} gadget)", plan.index, plan.victim.gadget))?;
    let stats = *session.stats();
    let arch_fingerprint = session.machine().core().arch_fingerprint();
    let ((counts, trace), extra) = session.observer().clone();
    Ok((
        PlanOutcome {
            leaked: outcome.leaked,
            expected: outcome.expected,
            runahead_entries: outcome.runahead_entries,
            inv_branches: outcome.inv_branches,
            ground_truth: trace.ground_truth_byte(&[0]),
            transient_secret_fills: trace.transient_secret_fills(),
            secret_reads: trace.secret_reads(),
            fills_per_entry: trace.fills_per_entry().to_vec(),
            counts,
            stats,
            arch_fingerprint,
        },
        extra,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrun_cpu::RunaheadTrigger;
    use specrun_workloads::plan::{GadgetKind, KnobSpec};

    fn paper_plan(policy: PlanPolicy) -> Plan {
        let mut plan = Plan::generate(1, 0, true);
        plan.policy = policy;
        plan.victim.gadget = GadgetKind::Pht;
        plan.knobs = KnobSpec::default();
        plan
    }

    #[test]
    fn policy_mapping_matches_session_policies() {
        let cfg = |p: PlanPolicy| {
            let mut c = CpuConfig::default();
            Policy::from(p).apply(&mut c);
            c
        };
        assert_eq!(cfg(PlanPolicy::NoRunahead).runahead.policy, RunaheadPolicy::Disabled);
        assert_eq!(cfg(PlanPolicy::Precise).runahead.policy, RunaheadPolicy::Precise);
        assert_eq!(cfg(PlanPolicy::Vector).runahead.policy, RunaheadPolicy::Vector);
        assert_eq!(cfg(PlanPolicy::HeadMissTrigger).runahead.trigger, RunaheadTrigger::HeadMiss);
        assert!(cfg(PlanPolicy::Secure).runahead.secure.sl_cache);
        assert!(cfg(PlanPolicy::SkipInv).runahead.secure.skip_inv_branches);
    }

    #[test]
    fn secure_knobs_survive_policy_composition() {
        let mut plan = paper_plan(PlanPolicy::Secure);
        plan.knobs.sl_entries = 16;
        plan.knobs.sl_latency = 2;
        let cfg = config_for(&plan);
        assert!(cfg.runahead.secure.sl_cache);
        assert_eq!(cfg.runahead.secure.sl_entries, 16);
        assert_eq!(cfg.runahead.secure.sl_latency, 2);
    }

    #[test]
    fn run_plan_is_deterministic_and_leak_matches_ground_truth() {
        // Fig. 11 shape (slide > ROB): plain speculation cannot reach the
        // gadget, so every probe fill is runahead-transient and the tracer
        // sees the complete channel. (With a short slide the first transmit
        // happens under plain speculation and ground truth is rightly
        // absent — the fuzz invariant only requires agreement, not
        // presence.)
        let mut plan = paper_plan(PlanPolicy::Runahead);
        plan.victim.nop_slide = 300;
        let a = try_run_plan(&plan).expect("paper plan runs");
        let b = try_run_plan(&plan).expect("paper plan runs");
        assert_eq!(a, b, "same plan, same outcome");
        assert_eq!(a.leaked, Some(plan.secret), "paper machine leaks");
        assert_eq!(a.ground_truth, Some(plan.secret), "tracer saw the same byte");
        assert!(a.transient_secret_fills > 0);
    }

    #[test]
    fn starved_budget_surfaces_as_structured_error() {
        let mut plan = paper_plan(PlanPolicy::Runahead);
        plan.victim.max_cycles = 40;
        match try_run_plan(&plan) {
            Err(specrun_workloads::harness::RunError::CycleBudgetExceeded {
                what, budget, ..
            }) => {
                assert!(what.contains("Pht gadget"), "{what}");
                assert_eq!(budget, 40);
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn recorded_run_is_outcome_identical_and_replayable() {
        let mut plan = paper_plan(PlanPolicy::Runahead);
        plan.victim.nop_slide = 300;
        let plain = try_run_plan(&plan).expect("paper plan runs");
        let (outcome, events) = try_run_plan_recorded(&plan).expect("paper plan runs");
        assert_eq!(plain, outcome, "the riding recorder must be invisible to the outcome");
        assert!(!events.is_empty());
        let mut counts = CountingObserver::default();
        specrun_trace::replay(&events, &mut counts);
        assert_eq!(counts, outcome.counts, "replay reproduces the live counting observer");
    }

    #[test]
    fn run_plan_secure_sees_zero_transient_fills() {
        let plan = paper_plan(PlanPolicy::Secure);
        let out = try_run_plan(&plan).expect("paper plan runs");
        assert_eq!(out.transient_secret_fills, 0, "SL cache blocks transient fills");
    }
}
