//! `specrun-lab fuzz`: the generative attack-plan soak runner.
//!
//! A fuzz campaign is a pure function of `(seed, plan count, mode)`: it
//! generates [`Plan`]s with the grammar in `specrun_workloads::plan`, runs
//! each one twice through [`specrun::try_run_plan`] (the re-run feeds the
//! determinism oracle), and checks the [`INVARIANTS`] registry — the
//! cross-cutting claims that must hold for *every* victim shape the
//! grammar can produce, not just the paper's hand-written PoCs. Trials fan
//! out over the campaign executor ([`campaign::execute`]), so a panicking
//! plan becomes a reportable failing case rather than killing the campaign;
//! every failing plan is then minimized by [`shrink_plan`] while preserving
//! at least one of its originally-violated invariants, and serialized
//! (original + shrunk) to a replayable `fail_<index>.json`.
//!
//! The campaign summary (`FUZZ_report.json`) is byte-stable across runs
//! and thread counts for a fixed seed — the property the CI `fuzz-soak`
//! job double-runs to verify. `--invert-invariant NAME` flips one
//! predicate so CI can also prove the failure path (shrink + artifact +
//! nonzero exit) works without needing a real simulator bug on hand.
//!
//! [`FuzzCampaign`] is the campaign as a [`Campaign`]: one unit per plan,
//! journaled and resumed by the shared executor.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use specrun::plan::{try_run_plan_governed, PlanOutcome};
use specrun_workloads::clock::WallClock;
use specrun_workloads::fuzz::shrink_plan;
use specrun_workloads::harness::RunError;
use specrun_workloads::plan::{GadgetKind, Plan, PlanPolicy};
use specrun_workloads::supervisor::{
    CancelToken, SupervisedReport, SupervisorConfig, UnitCtx, UnitOutcome,
};

use crate::campaign::{self, Artifacts, Campaign, Rendered};
use crate::cli::say;
use crate::json::Json;
use crate::scenario::fnv1a;
use crate::sink::ArtifactSink;

/// Default campaign seed (the CI soak seed).
pub const DEFAULT_FUZZ_SEED: u64 = 0xC0FFEE;
/// Default campaign size.
pub const DEFAULT_PLANS: u64 = 200;
/// Name of the campaign summary artifact.
pub const FUZZ_REPORT_NAME: &str = "FUZZ_report.json";

/// Both executions of one plan — the second exists solely so oracles can
/// demand the first was reproducible.
#[derive(Debug, Clone)]
pub struct PlanEval {
    /// Outcome of the first run.
    pub first: PlanOutcome,
    /// Outcome of the independent re-run.
    pub second: PlanOutcome,
}

/// One cross-cutting claim checked against every applicable plan.
pub struct FuzzInvariant {
    /// Stable name (report key, `--invert-invariant` argument).
    pub name: &'static str,
    /// Human-readable claim.
    pub claim: &'static str,
    /// Whether the claim applies to this plan.
    pub applies: fn(&Plan) -> bool,
    /// `Err(detail)` when the plan violates the claim.
    pub check: fn(&Plan, &PlanEval) -> Result<(), String>,
}

fn beyond_rob(plan: &Plan) -> bool {
    // A margin over the ROB so the *whole* gadget (slide + access +
    // transmit) sits outside the reorder window — only then is the
    // plain-speculation path provably closed and "no leak" a theorem
    // rather than a probability.
    u64::from(plan.victim.nop_slide) > u64::from(plan.knobs.rob_entries) + 16
}

/// The fuzz-invariant registry. Order is the report's key order.
pub const INVARIANTS: &[FuzzInvariant] = &[
    FuzzInvariant {
        name: "determinism",
        claim: "re-running a plan reproduces the outcome bit for bit",
        applies: |_| true,
        check: |_, eval| {
            if eval.first == eval.second {
                Ok(())
            } else {
                Err(format!(
                    "first run fingerprint {:#x} / cycles {} vs re-run {:#x} / {}",
                    eval.first.arch_fingerprint,
                    eval.first.stats.cycles,
                    eval.second.arch_fingerprint,
                    eval.second.stats.cycles
                ))
            }
        },
    },
    FuzzInvariant {
        name: "leak_is_planted",
        claim: "a tracer-corroborated leak names the planted secret byte",
        applies: |_| true,
        // The flush+reload readout picks the fastest sub-threshold probe
        // entry, so a plan whose attack *fails* can still claim a byte out
        // of wrong-path cache pollution — that is attack physics, not a
        // simulator defect. The channel is only on the hook when the
        // tracer corroborates that the planted secret's probe line was the
        // unique transient fill: then a different claim means the covert
        // channel's accounting is broken.
        check: |plan, eval| match (eval.first.leaked, eval.first.ground_truth) {
            (Some(b), Some(g)) if g == plan.secret && b != plan.secret => Err(format!(
                "channel claimed {b:#04x} while the tracer saw only {:#04x}",
                plan.secret
            )),
            _ => Ok(()),
        },
    },
    FuzzInvariant {
        name: "ground_truth_agrees",
        claim: "the tracer's unique transient probe byte is the planted secret",
        applies: |_| true,
        check: |plan, eval| match eval.first.ground_truth {
            None => Ok(()),
            Some(b) if b == plan.secret => Ok(()),
            Some(b) => Err(format!("tracer saw {b:#04x}, planted {:#04x}", plan.secret)),
        },
    },
    FuzzInvariant {
        name: "secure_zero_transient_secret_fills",
        claim: "the SL-cache defense permits zero transient secret-line fills",
        applies: |plan| plan.policy == PlanPolicy::Secure,
        check: |_, eval| {
            if eval.first.transient_secret_fills == 0 {
                Ok(())
            } else {
                Err(format!("{} transient secret fills", eval.first.transient_secret_fills))
            }
        },
    },
    FuzzInvariant {
        name: "defended_no_leak_beyond_rob",
        claim: "a defended machine never leaks a beyond-the-ROB PHT gadget's secret",
        // Beyond the ROB, plain speculation cannot reach the gadget, so
        // only runahead could leak — and the defense must stop it. The
        // channel may still *claim* a garbage byte (wrong-path pollution
        // makes some probe entry hot on a failed attack), so the check is
        // on the planted byte and the secret line, not on silence.
        //
        // PHT gadgets only: the SL cache's Btag machinery (paper Fig. 12 /
        // Algorithm 1) scopes fills under *conditional* branches. A gadget
        // reached through a mispredicted return or indirect target opens
        // no scope, so its fills carry Btag = 0 — which Algorithm 1 lines
        // 21–23 promote as safe after exit, and the secret is recovered
        // architecturally. The fuzzer surfaced that limitation (see the
        // README's fuzzing section); it is faithful to the paper, whose
        // defense targets the bound-check (PHT) gadget.
        applies: |plan| {
            plan.policy.is_defended() && plan.victim.gadget == GadgetKind::Pht && beyond_rob(plan)
        },
        check: |plan, eval| {
            if eval.first.leaked == Some(plan.secret) {
                return Err("defended machine leaked the planted secret".to_string());
            }
            if eval.first.transient_secret_fills > 0 {
                return Err(format!(
                    "{} transient fills of the secret's probe line",
                    eval.first.transient_secret_fills
                ));
            }
            Ok(())
        },
    },
    FuzzInvariant {
        name: "observer_reconciles",
        claim: "pipeline-observer event totals equal the core's statistics",
        // The BTB flavour runs its trainer before `reset_stats`, so the
        // observer (which has no reset) legitimately counts events the
        // statistics do not — reconciliation is a Pht/Rsb claim.
        applies: |plan| plan.victim.gadget != GadgetKind::Btb,
        check: |_, eval| {
            let c = &eval.first.counts;
            let s = &eval.first.stats;
            let pairs = [
                ("runahead_enters", c.runahead_enters, s.runahead_entries),
                ("runahead_exits", c.runahead_exits, s.runahead_exits),
                ("squashed", c.squashed_total, s.squashed),
                ("commits", c.commits, s.committed),
            ];
            for (what, observed, stat) in pairs {
                if observed != stat {
                    return Err(format!("{what}: observer {observed} vs stats {stat}"));
                }
            }
            // `CpuStats::branch_mispredicts` counts conditional branches
            // only; the observer's event fires for every branch kind, so
            // indirect/return mispredicts widen it — the observer may
            // exceed the stat but never trail it.
            if c.mispredicts < s.branch_mispredicts {
                return Err(format!(
                    "mispredicts: observer {} trails stats {}",
                    c.mispredicts, s.branch_mispredicts
                ));
            }
            Ok(())
        },
    },
    FuzzInvariant {
        name: "makes_progress",
        claim: "every plan commits instructions within its cycle budget",
        applies: |_| true,
        check: |_, eval| {
            if eval.first.stats.committed > 0 {
                Ok(())
            } else {
                Err("no instructions committed".to_string())
            }
        },
    },
];

/// Looks an invariant up by name.
pub fn find_invariant(name: &str) -> Option<&'static FuzzInvariant> {
    INVARIANTS.iter().find(|inv| inv.name == name)
}

/// One invariant violation (or panic) a plan produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated invariant, or `"panic"`.
    pub invariant: String,
    /// What was observed.
    pub detail: String,
}

/// Runs `plan` twice and returns both outcomes. A plan whose programs
/// exhaust their cycle budget (or wedge) surfaces as a [`RunError`], which
/// the campaign records as a `run_error` violation — a reported failing
/// plan, not a dead campaign. Under a supervisor's `token`, both
/// executions publish heartbeats through it and stop cooperatively when
/// the monitor trips it, surfacing as [`RunError::Cancelled`] for the
/// supervisor to classify as a deadline or stall. Panics propagate: the
/// campaign path catches them in the campaign pool, the shrinking path in
/// [`checked_violations`].
pub fn try_evaluate(plan: &Plan, token: Option<&CancelToken>) -> Result<PlanEval, RunError> {
    Ok(PlanEval {
        first: try_run_plan_governed(plan, token.cloned())?,
        second: try_run_plan_governed(plan, token.cloned())?,
    })
}

/// Name under which a structured [`RunError`] appears in violation lists
/// (beside the per-invariant names and `"panic"`).
pub const RUN_ERROR_VIOLATION: &str = "run_error";

/// Digest summarizing one evaluation, journaled with a passing plan so
/// the journal records what the skipped work computed (a test checks it
/// against a fresh evaluation of the same plan).
fn eval_digest(eval: &PlanEval) -> u64 {
    fnv1a(
        format!(
            "{:016x}/{}/{:?}",
            eval.first.arch_fingerprint, eval.first.stats.cycles, eval.first.leaked
        )
        .as_bytes(),
    )
}

/// Checks every applicable invariant, honouring an optional inverted
/// predicate (`invert`): for that invariant, a pass becomes a violation
/// and a violation a pass — the self-test hook proving the failure
/// pipeline works.
pub fn violations_for(plan: &Plan, eval: &PlanEval, invert: Option<&str>) -> Vec<Violation> {
    let mut out = Vec::new();
    for inv in INVARIANTS {
        if !(inv.applies)(plan) {
            continue;
        }
        let result = (inv.check)(plan, eval);
        let inverted = invert == Some(inv.name);
        match (result, inverted) {
            (Ok(()), false) | (Err(_), true) => {}
            (Err(detail), false) => {
                out.push(Violation { invariant: inv.name.to_string(), detail });
            }
            (Ok(()), true) => out.push(Violation {
                invariant: inv.name.to_string(),
                detail: "inverted predicate: the invariant held".to_string(),
            }),
        }
    }
    out
}

/// [`violations_for`] with failure capture: a plan that exhausts its
/// cycle budget yields a single [`RUN_ERROR_VIOLATION`] violation, a
/// panicking plan a single `"panic"` violation carrying the payload. This
/// is the serial flavour the shrinker's `still_fails` probe uses, so both
/// failure signatures shrink like any invariant violation.
pub fn checked_violations(plan: &Plan, invert: Option<&str>) -> Vec<Violation> {
    match catch_unwind(AssertUnwindSafe(|| {
        try_evaluate(plan, None).map(|eval| violations_for(plan, &eval, invert))
    })) {
        Ok(Ok(violations)) => violations,
        Ok(Err(run_error)) => vec![Violation {
            invariant: RUN_ERROR_VIOLATION.to_string(),
            detail: run_error.to_string(),
        }],
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            vec![Violation { invariant: "panic".to_string(), detail: message }]
        }
    }
}

/// Options of a fuzz campaign (the `specrun-lab fuzz` arguments).
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of plans to generate and run.
    pub plans: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads (`0` = all host cores).
    pub threads: usize,
    /// Quick (CI-soak) scale.
    pub quick: bool,
    /// Directory receiving `fail_<index>.json` files.
    pub fail_dir: PathBuf,
    /// Path of the campaign summary.
    pub report_path: PathBuf,
    /// Invariant to invert (self-test of the failure pipeline).
    pub invert: Option<String>,
    /// Replay a failing-plan file instead of running a campaign.
    pub replay: Option<PathBuf>,
    /// With `--replay`: also record the replayed plan's pipeline events
    /// to this binary log, so a shrunk reproducer yields a forensic trace
    /// (`specrun-lab trace replay`/`diff` fodder) in one command.
    pub trace: Option<PathBuf>,
    /// Resume from the campaign journal: plans it records as passed are
    /// skipped; everything else re-runs. The final report is byte-identical
    /// to an uninterrupted run.
    pub resume: bool,
    /// Journal path override (default: `<report path>.journal`).
    pub journal: Option<PathBuf>,
    /// Per-plan wall-clock deadline in ms (`0` = no deadline). A plan
    /// still progressing past it is cancelled cooperatively and reported
    /// as a deadline overrun.
    pub deadline_ms: u64,
    /// No-heartbeat window in ms before a plan counts as stalled
    /// (`0` = no stall detection).
    pub stall_ms: u64,
    /// Retry attempts per failing plan (supervision errors only; invariant
    /// violations are results, not failures, and never retry).
    pub retries: u32,
    /// Failure-rate threshold of the campaign circuit breaker
    /// (`1.0` = disabled).
    pub max_failure_rate: f64,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            plans: DEFAULT_PLANS,
            seed: DEFAULT_FUZZ_SEED,
            threads: 0,
            quick: false,
            fail_dir: PathBuf::from("fuzz-failures"),
            report_path: PathBuf::from(FUZZ_REPORT_NAME),
            invert: None,
            replay: None,
            trace: None,
            resume: false,
            journal: None,
            deadline_ms: 0,
            stall_ms: 0,
            retries: 0,
            max_failure_rate: 1.0,
        }
    }
}

impl FuzzOptions {
    /// Where this campaign's journal lives.
    pub fn journal_path(&self) -> PathBuf {
        self.journal
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("{}.journal", self.report_path.display())))
    }

    /// The supervision policy these options describe.
    pub fn supervisor_config(&self) -> SupervisorConfig {
        SupervisorConfig {
            deadline_ms: self.deadline_ms,
            stall_ms: self.stall_ms,
            retries: self.retries,
            seed: self.seed,
            max_failure_rate: self.max_failure_rate,
            ..SupervisorConfig::default()
        }
    }

    /// The journal header string: everything that determines the
    /// campaign's bytes. Thread count is deliberately absent — results
    /// are thread-invariant, so a resume may use a different fan-out.
    /// Supervision options are absent for the same reason: they bound
    /// *how long* a plan may run, never what a completed plan produced.
    fn journal_header(&self) -> String {
        format!(
            "fuzz seed={} plans={} mode={} invert={}",
            self.seed,
            self.plans,
            if self.quick { "quick" } else { "full" },
            self.invert.as_deref().unwrap_or("-"),
        )
    }
}

/// One failing plan, fully processed: violations, shrunk reproducer,
/// serialized fail file.
#[derive(Debug, Clone)]
pub struct FailCase {
    /// Index of the plan in its campaign.
    pub plan_index: u64,
    /// Names of the violated invariants (sorted, deduplicated).
    pub violated: Vec<String>,
    /// Violation details as observed on the original plan.
    pub details: Vec<Violation>,
    /// The minimized plan, still violating at least one of `violated`.
    pub shrunk: Plan,
    /// FNV-1a digest of the shrunk plan's JSON.
    pub digest: u64,
    /// File name of the serialized case (relative to the fail dir).
    pub file_name: String,
    /// Full serialized fail-file contents.
    pub file_body: String,
}

/// Everything a campaign produced, I/O-free: the summary artifact and the
/// fail files as `(name, body)` pairs. [`run_with`] writes them to disk;
/// tests compare them byte for byte.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Rendered `FUZZ_report.json` contents.
    pub report: String,
    /// Per-invariant `(applicable, violations)` tallies in registry order.
    pub tallies: Vec<(String, u64, u64)>,
    /// Plans that panicked.
    pub panics: u64,
    /// Plans that failed with a structured [`RunError`] (budget
    /// exhaustion, wedged core, deadline, stall) instead of completing.
    pub run_errors: u64,
    /// Plans quarantined by the supervisor for failing identically twice.
    pub quarantined: u64,
    /// Plans the circuit breaker skipped: they never ran, and the report
    /// is explicitly partial (a `--resume` completes them).
    pub skipped_plans: u64,
    /// Whether the campaign circuit breaker tripped.
    pub breaker_tripped: bool,
    /// Every failing plan, shrunk and serialized.
    pub failures: Vec<FailCase>,
}

impl CampaignResult {
    /// Whether the campaign found no violations, no panics, and actually
    /// ran everything (a breaker-tripped partial report never passes).
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.skipped_plans == 0
    }
}

fn render_fail_file(opts: &FuzzOptions, case_plan: &Plan, case: &FailCase) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"fuzz_fail\": \"specrun\",\n");
    s.push_str(&format!("  \"campaign_seed\": \"{}\",\n", case_plan.campaign_seed));
    s.push_str(&format!("  \"plan_index\": {},\n", case.plan_index));
    s.push_str(&format!("  \"mode\": \"{}\",\n", if case_plan.quick { "quick" } else { "full" }));
    match &opts.invert {
        Some(name) => s.push_str(&format!("  \"inverted_invariant\": \"{name}\",\n")),
        None => s.push_str("  \"inverted_invariant\": null,\n"),
    }
    s.push_str("  \"violated\": [");
    for (i, name) in case.violated.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{name}\""));
    }
    s.push_str("],\n");
    s.push_str("  \"details\": [");
    for (i, v) in case.details.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"invariant\": {}, \"observed\": {}}}",
            crate::json::escape(&v.invariant),
            crate::json::escape(&v.detail)
        ));
    }
    s.push_str(if case.details.is_empty() { "],\n" } else { "\n  ],\n" });
    s.push_str(&format!("  \"shrunk_weight\": {},\n", case.shrunk.weight()));
    s.push_str(&format!("  \"shrunk_digest\": \"{:016x}\",\n", case.digest));
    s.push_str(&format!("  \"plan\": {},\n", case_plan.to_json(1)));
    s.push_str(&format!("  \"shrunk_plan\": {}\n", case.shrunk.to_json(1)));
    s.push_str("}\n");
    s
}

/// Runs a fuzz campaign without touching the filesystem: the executor's
/// I/O-free path, with no journal.
pub fn campaign(opts: &FuzzOptions) -> CampaignResult {
    let fuzz = FuzzCampaign::new(opts);
    let cfg = opts.supervisor_config();
    fuzz.result(campaign::supervise(&fuzz, opts.threads, &cfg, &WallClock::new()))
}

/// One plan's worker-side outcome: its violations, plus the evaluation
/// digest journaled with a pass (0 when the plan never completed).
pub type PlanResult = (Vec<Violation>, u64);

/// Evaluates one plan under its unit's token. Plan-level failures (budget
/// exhaustion, wedged core) stay **in-band** — they are deterministic
/// results, reported as violations and never retried. Only cooperative
/// cancellation returns `Err`, handing the supervisor something a retry
/// could plausibly heal.
fn plan_outcome(plan: &Plan, invert: Option<&str>, ctx: &UnitCtx) -> Result<PlanResult, RunError> {
    match try_evaluate(plan, Some(&ctx.token)) {
        Ok(eval) => {
            let digest = eval_digest(&eval);
            Ok((violations_for(plan, &eval, invert), digest))
        }
        Err(cancelled @ RunError::Cancelled { .. }) => Err(cancelled),
        Err(run_error) => Ok((
            vec![Violation {
                invariant: RUN_ERROR_VIOLATION.to_string(),
                detail: run_error.to_string(),
            }],
            0,
        )),
    }
}

/// Renders a unit's terminal failure as the single violation the report
/// carries for that plan.
fn failure_violation(error: &RunError, history: &[String], quarantined: bool) -> Violation {
    let (invariant, base) = match error {
        RunError::Panic(e) => ("panic", e.message.clone()),
        other => (RUN_ERROR_VIOLATION, other.to_string()),
    };
    let detail = if quarantined {
        format!("quarantined after {} attempt(s): {}", history.len(), history.join(" | "))
    } else if history.len() > 1 {
        format!("{base} (final of {} attempt(s))", history.len())
    } else {
        base
    };
    Violation { invariant: invariant.to_string(), detail }
}

/// A fuzz campaign as a [`Campaign`]: one unit per generated plan, keyed
/// `plan:<index>`. Every plan that ran is journaled as it finishes (`ok
/// <digest>` or `fail <invariants>`); on `--resume` the journaled passes
/// are skipped and everything else — failing plans included, they are
/// rare and deterministic — re-runs, so the report bytes equal an
/// uninterrupted campaign's.
pub struct FuzzCampaign<'a> {
    opts: &'a FuzzOptions,
    plans: Vec<Plan>,
}

impl<'a> FuzzCampaign<'a> {
    /// Generates the campaign's plans.
    pub fn new(opts: &'a FuzzOptions) -> FuzzCampaign<'a> {
        let plans = (0..opts.plans).map(|i| Plan::generate(opts.seed, i, opts.quick)).collect();
        FuzzCampaign { opts, plans }
    }

    /// Folds the settled plans (index-aligned with the campaign's) into
    /// the campaign result: per-invariant tallies, every failing plan
    /// shrunk and serialized, and the rendered report.
    pub fn result(&self, report: SupervisedReport<PlanResult>) -> CampaignResult {
        let opts = self.opts;
        let invert = opts.invert.as_deref();
        let mut tallies: Vec<(String, u64, u64)> = INVARIANTS
            .iter()
            .map(|inv| {
                let applicable = self.plans.iter().filter(|p| (inv.applies)(p)).count() as u64;
                (inv.name.to_string(), applicable, 0)
            })
            .collect();
        let (mut panics, mut run_errors, mut quarantined, mut skipped) = (0u64, 0u64, 0u64, 0u64);
        let mut failures = Vec::new();
        for (plan, outcome) in self.plans.iter().zip(report.outcomes) {
            let violations = match outcome {
                UnitOutcome::Done { result: (violations, _), .. } => violations,
                UnitOutcome::Failed { error, history } => {
                    panics += u64::from(matches!(error, RunError::Panic(_)));
                    vec![failure_violation(&error, &history, false)]
                }
                UnitOutcome::Quarantined { error, history } => {
                    quarantined += 1;
                    panics += u64::from(matches!(error, RunError::Panic(_)));
                    vec![failure_violation(&error, &history, true)]
                }
                // A breaker-skipped plan never ran: it must not masquerade
                // as a pass, so it surfaces only through `skipped_plans`.
                UnitOutcome::Skipped => {
                    skipped += 1;
                    continue;
                }
            };
            for v in &violations {
                if let Some(slot) = tallies.iter_mut().find(|(name, _, _)| *name == v.invariant) {
                    slot.2 += 1;
                }
            }
            if violations.iter().any(|v| v.invariant == RUN_ERROR_VIOLATION) {
                run_errors += 1;
            }
            if violations.is_empty() {
                continue;
            }
            let names: BTreeSet<String> = violations.iter().map(|v| v.invariant.clone()).collect();
            // Minimize while preserving the failure signature: a candidate
            // must still violate at least one of the original invariants
            // (panics and run errors count as their own signatures).
            let shrunk = shrink_plan(plan, |candidate| {
                checked_violations(candidate, invert).iter().any(|v| names.contains(&v.invariant))
            });
            let digest = fnv1a(shrunk.to_json(0).as_bytes());
            let mut case = FailCase {
                plan_index: plan.index,
                violated: names.into_iter().collect(),
                details: violations,
                shrunk,
                digest,
                file_name: format!("fail_{}.json", plan.index),
                file_body: String::new(),
            };
            case.file_body = render_fail_file(opts, plan, &case);
            failures.push(case);
        }

        let mut result = CampaignResult {
            report: String::new(),
            tallies,
            panics,
            run_errors,
            quarantined,
            skipped_plans: skipped,
            breaker_tripped: report.breaker_tripped,
            failures,
        };
        result.report = render_report(opts, &result);
        result
    }
}

impl Campaign for FuzzCampaign<'_> {
    type Unit = Plan;
    type Payload = PlanResult;

    fn units(&self) -> &[Plan] {
        &self.plans
    }

    fn header(&self) -> String {
        self.opts.journal_header()
    }

    fn noun(&self) -> &'static str {
        "plan"
    }

    fn key(&self, plan: &Plan) -> String {
        format!("plan:{}", plan.index)
    }

    fn run(&self, plan: &Plan, ctx: &UnitCtx) -> Result<PlanResult, RunError> {
        plan_outcome(plan, self.opts.invert.as_deref(), ctx)
    }

    fn encode(&self, outcome: &UnitOutcome<PlanResult>) -> Option<String> {
        Some(match outcome {
            UnitOutcome::Done { result: (violations, digest), .. } if violations.is_empty() => {
                format!("ok {digest:016x}")
            }
            UnitOutcome::Done { result: (violations, _), .. } => {
                let names: BTreeSet<&str> =
                    violations.iter().map(|v| v.invariant.as_str()).collect();
                format!("fail {}", names.into_iter().collect::<Vec<_>>().join(","))
            }
            UnitOutcome::Failed { error: RunError::Panic(_), .. }
            | UnitOutcome::Quarantined { error: RunError::Panic(_), .. } => {
                "fail panic".to_string()
            }
            UnitOutcome::Failed { .. } | UnitOutcome::Quarantined { .. } => {
                format!("fail {RUN_ERROR_VIOLATION}")
            }
            // Never journaled: a resume must re-run skipped plans.
            UnitOutcome::Skipped => return None,
        })
    }

    fn decode(&self, _plan: &Plan, payload: &str) -> Result<Option<PlanResult>, String> {
        // A journaled pass is recovered; a journaled failure re-runs. The
        // digest is not read back: a recovered plan is never re-journaled.
        Ok(payload.starts_with("ok").then(|| (Vec::new(), 0)))
    }

    fn render(&self, report: SupervisedReport<PlanResult>) -> Rendered {
        let result = self.result(report);
        for (name, applicable, violations) in &result.tallies {
            let verdict = if *violations == 0 { "ok" } else { "FAILED" };
            say!("  [{verdict}] {name}: {applicable} applicable, {violations} violation(s)");
        }
        if result.panics > 0 {
            say!("  [FAILED] panic: {} plan(s) panicked", result.panics);
        }
        if result.run_errors > 0 {
            say!(
                "  [FAILED] {RUN_ERROR_VIOLATION}: {} plan(s) hit a structured run error",
                result.run_errors
            );
        }
        if result.quarantined > 0 {
            say!(
                "  [FAILED] quarantine: {} plan(s) failed identically twice, retries stopped",
                result.quarantined
            );
        }
        if result.breaker_tripped {
            say!(
                "  [FAILED] circuit breaker tripped: {} plan(s) skipped, partial results follow",
                result.skipped_plans
            );
            say!("  hint: fix the failures, then `--resume` to complete the campaign");
        }
        for case in &result.failures {
            say!(
                "  {}: plan {}, violated: {}",
                case.file_name,
                case.plan_index,
                case.violated.join(", ")
            );
        }

        let fail_dir = &self.opts.fail_dir;
        let mut files = vec![(self.opts.report_path.clone(), result.report.clone())];
        files.extend(
            result.failures.iter().map(|c| (fail_dir.join(&c.file_name), c.file_body.clone())),
        );
        let dirs = if result.failures.is_empty() { Vec::new() } else { vec![fail_dir.clone()] };
        let verdict = if result.passed() {
            "all invariants held on every plan".to_string()
        } else if result.failures.is_empty() {
            format!("campaign incomplete: {} plan(s) never ran", result.skipped_plans)
        } else {
            format!(
                "{} failing plan(s); replay with: specrun-lab fuzz --replay <file>",
                result.failures.len()
            )
        };
        Rendered {
            artifacts: Artifacts { dirs, stale: Vec::new(), files },
            passed: result.passed(),
            verdict,
        }
    }
}

/// Renders `FUZZ_report.json` from everything but its own text.
fn render_report(opts: &FuzzOptions, result: &CampaignResult) -> String {
    let invariants = Json::Obj(
        INVARIANTS
            .iter()
            .zip(&result.tallies)
            .map(|(inv, (_, applicable, violations))| {
                (
                    inv.name.to_string(),
                    Json::obj(vec![
                        ("claim".into(), Json::str(inv.claim)),
                        ("applicable".into(), Json::Num(*applicable as f64)),
                        ("violations".into(), Json::Num(*violations as f64)),
                    ]),
                )
            })
            .collect(),
    );
    let failing = Json::Arr(
        result
            .failures
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("plan_index".into(), Json::Num(f.plan_index as f64)),
                    ("violated".into(), Json::Arr(f.violated.iter().map(Json::str).collect())),
                    ("shrunk_weight".into(), Json::Num(f.shrunk.weight() as f64)),
                    ("shrunk_digest".into(), Json::str(format!("{:016x}", f.digest))),
                    ("fail_file".into(), Json::str(&f.file_name)),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("fuzz".into(), Json::str("specrun-fuzz")),
        ("mode".into(), Json::str(if opts.quick { "quick" } else { "full" })),
        ("campaign_seed".into(), Json::str(opts.seed.to_string())),
        ("plans".into(), Json::Num(opts.plans as f64)),
        ("inverted_invariant".into(), opts.invert.as_ref().map_or(Json::Null, Json::str)),
        ("invariants".into(), invariants),
        ("panics".into(), Json::Num(result.panics as f64)),
        ("run_errors".into(), Json::Num(result.run_errors as f64)),
        // Supervision outcomes are counts and flags only: wall-clock
        // values never enter the gated report.
        ("quarantined".into(), Json::Num(result.quarantined as f64)),
        ("skipped_plans".into(), Json::Num(result.skipped_plans as f64)),
        ("breaker_tripped".into(), Json::Bool(result.breaker_tripped)),
        ("failing_plans".into(), failing),
        ("passed".into(), Json::Bool(result.passed())),
    ])
    .render()
}

/// Replays a failing-plan file: regenerates the plan from its recorded
/// seed/index/mode, re-checks the invariants (honouring a recorded
/// inversion), re-shrinks and compares digests. With `trace`, the
/// regenerated plan is additionally run once with a recording observer
/// and its pipeline events written to the given binary log through
/// `sink` — a forensic trace of the reproducer in one command. Returns
/// the process exit code: 0 when the plan no longer fails, 1 when it
/// still does, 2 on a malformed file or a failed trace write.
pub fn replay(
    path: &std::path::Path,
    trace: Option<&std::path::Path>,
    sink: &dyn ArtifactSink,
) -> i32 {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    // Strict parse: the coordinates must be the top-level keys, never the
    // copies inside the nested plan objects.
    let json = Json::parse(&body).ok();
    let top = |key: &str| json.as_ref().and_then(|j| j.get(key));
    let seed = top("campaign_seed").and_then(Json::as_str).and_then(|s| s.parse::<u64>().ok());
    let index = top("plan_index").and_then(Json::as_num).filter(|n| n.fract() == 0.0 && *n >= 0.0);
    let mode = top("mode").and_then(Json::as_str).filter(|m| matches!(*m, "quick" | "full"));
    let (Some(seed), Some(index), Some(mode)) = (seed, index, mode) else {
        eprintln!("error: {} is not a specrun fuzz fail file", path.display());
        return 2;
    };
    let index = index as u64;
    let invert = top("inverted_invariant").and_then(Json::as_str).map(str::to_string);
    let plan = Plan::generate(seed, index, mode == "quick");
    say!(
        "replaying plan {index} of campaign seed {seed} ({mode} scale){}",
        invert.as_deref().map(|n| format!(", inverted invariant {n}")).unwrap_or_default()
    );
    if let Some(trace_log) = trace {
        match specrun::try_run_plan_recorded(&plan) {
            Ok((_, events)) => {
                let bytes = specrun_trace::encode_events(&events);
                if let Err(e) = sink.write_atomic_bytes(trace_log, &bytes) {
                    eprintln!("error: cannot write trace {}: {e}", trace_log.display());
                    return 2;
                }
                say!(
                    "wrote forensic trace {} ({} event(s), {} bytes)",
                    trace_log.display(),
                    events.len(),
                    bytes.len()
                );
            }
            Err(e) => {
                eprintln!("error: cannot trace the replayed plan: {e}");
                return 2;
            }
        }
    }
    let violations = checked_violations(&plan, invert.as_deref());
    if violations.is_empty() {
        say!("plan no longer violates any invariant");
        return 0;
    }
    for v in &violations {
        say!("  [FAILED] {}: {}", v.invariant, v.detail);
    }
    let names: BTreeSet<String> = violations.iter().map(|v| v.invariant.clone()).collect();
    let shrunk = shrink_plan(&plan, |candidate| {
        checked_violations(candidate, invert.as_deref())
            .iter()
            .any(|v| names.contains(&v.invariant))
    });
    let digest = fnv1a(shrunk.to_json(0).as_bytes());
    say!("shrunk plan (weight {}, digest {:016x}):", shrunk.weight(), digest);
    say!("{}", shrunk.to_json(0));
    match top("shrunk_digest").and_then(Json::as_str) {
        Some(recorded) if recorded == format!("{digest:016x}") => {
            say!("shrunk digest matches the recorded failure");
        }
        Some(recorded) => {
            say!("shrunk digest differs from recorded {recorded} (shrinker or oracle drift)");
        }
        None => {}
    }
    1
}

/// Runs the fuzz subcommand end to end (campaign or replay) with every
/// artifact going through `sink`, so the chaos harness can fail writes
/// deterministically. Exit codes: 0 clean, 1 when any plan failed an
/// invariant, 2 on IO or journal errors.
pub fn run_with(opts: &FuzzOptions, sink: &dyn ArtifactSink) -> i32 {
    match &opts.replay {
        Some(path) => replay(path, opts.trace.as_deref(), sink),
        None => execute(&FuzzCampaign::new(opts), opts, sink),
    }
}

/// Executes `campaign` — the fuzz campaign of `opts`, or a fault-injecting
/// wrapper of it — on the shared executor with the options' threads,
/// supervision and journal.
pub fn execute<C: Campaign>(campaign: &C, opts: &FuzzOptions, sink: &dyn ArtifactSink) -> i32 {
    say!(
        "fuzz campaign: {} plans, seed {:#x}, {} scale",
        opts.plans,
        opts.seed,
        if opts.quick { "quick" } else { "full" }
    );
    let journal = opts.journal_path();
    let cfg = opts.supervisor_config();
    campaign::execute(
        campaign,
        opts.threads,
        &cfg,
        &WallClock::new(),
        sink,
        Some((&journal, opts.resume)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal;
    use crate::sink::FsSink;
    use std::path::Path;

    /// Writes through to the filesystem but removes nothing, so the
    /// journal outlives the campaign that retires it.
    struct KeepJournal;

    impl ArtifactSink for KeepJournal {
        fn append_line(&self, path: &Path, line: &str) -> std::io::Result<()> {
            FsSink.append_line(path, line)
        }

        fn remove(&self, _path: &Path) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn journaled_eval_digests_match_a_fresh_evaluation() {
        let dir = std::env::temp_dir().join(format!("fuzz-eval-digest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let opts = FuzzOptions {
            plans: 6,
            seed: 0xC0FFEE,
            threads: 2,
            quick: true,
            report_path: dir.join("FUZZ_report.json"),
            fail_dir: dir.join("fail"),
            ..FuzzOptions::default()
        };
        assert_eq!(execute(&FuzzCampaign::new(&opts), &opts, &KeepJournal), 0);

        let state = journal::load(&opts.journal_path(), &opts.journal_header())
            .expect("the journal parses")
            .expect("the journal is kept");
        assert_eq!(state.entries.len(), 6, "every plan is journaled");
        for (key, payload) in &state.entries {
            let index: u64 = key.strip_prefix("plan:").and_then(|i| i.parse().ok()).expect(key);
            let journaled = payload.strip_prefix("ok ").expect("every quick plan passes");
            let plan = Plan::generate(opts.seed, index, opts.quick);
            let fresh = eval_digest(&try_evaluate(&plan, None).expect("the plan runs"));
            assert_eq!(journaled, format!("{fresh:016x}"), "plan {index}");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
