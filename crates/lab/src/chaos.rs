//! `specrun-lab chaos`: the fault-injection drill harness.
//!
//! Chaos mode does not look for simulator bugs — the fuzzer does that. It
//! drills the *recovery machinery* itself: every failure path the
//! crash-safety work added (trial panic isolation, structured budget
//! errors, artifact-write failures, torn temp files, torn journal tails,
//! journal digest corruption) is driven deterministically and its
//! recovery contract checked. A drill passes when the campaign degrades
//! exactly as documented: reported failure instead of a dead process,
//! old-or-new artifacts instead of truncated hybrids, byte-identical
//! reports after `--resume`.
//!
//! Faults are injected at three seams:
//!
//! * [`ChaosSink`] — numbered IO operations fail
//!   (optionally leaving a torn temp file) at the artifact boundary;
//! * [`Chaos`] — named units of any [`Campaign`] panic, fail every
//!   attempt, or fail their first attempt only, at the unit boundary;
//! * [`ChaosClock`] — virtual time at the supervision boundary, so the
//!   hung-unit, slow-unit, retry and circuit-breaker drills march wall
//!   clocks forward deterministically instead of sleeping.
//!
//! Everything is derived from the chaos seed; drills use one worker
//! thread so IO operation numbering (and supervision outcome ordering) is
//! reproducible run to run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use specrun_workloads::clock::{ChaosClock, WallClock};
use specrun_workloads::harness::RunError;
use specrun_workloads::plan::Plan;
use specrun_workloads::supervisor::{
    supervised_map_with, SupervisedReport, SupervisorConfig, UnitCtx, UnitOutcome,
};

use crate::campaign::{self, Campaign, Rendered};
use crate::cli::say;
use crate::fuzz::{self, CampaignResult, FuzzCampaign, FuzzOptions, RUN_ERROR_VIOLATION};
use crate::sink::{tmp_path, ArtifactSink, ChaosSink, FsSink};

/// A fault-injecting wrapper around any [`Campaign`]: the units at the
/// given indices panic, fail every attempt with an IO error (`sick`), or
/// fail their first attempt only (`flaky`), and every attempt started is
/// counted. Everything else — keys, journal payloads, rendering — is the
/// wrapped campaign's, so a drill exercises the real executor path.
/// Indices past the campaign's end are ignored.
pub struct Chaos<C: Campaign> {
    inner: C,
    panic: Vec<String>,
    sick: Vec<String>,
    flaky: Vec<String>,
    started: AtomicUsize,
}

impl<C: Campaign> Chaos<C> {
    /// Wraps `inner` with no faults armed.
    pub fn new(inner: C) -> Chaos<C> {
        let none = Vec::new;
        Chaos { inner, panic: none(), sick: none(), flaky: none(), started: AtomicUsize::new(0) }
    }

    /// Units whose every attempt panics.
    pub fn panic(mut self, units: &[usize]) -> Chaos<C> {
        self.panic = self.keys(units);
        self
    }

    /// Units whose every attempt fails identically with an IO error.
    pub fn sick(mut self, units: &[usize]) -> Chaos<C> {
        self.sick = self.keys(units);
        self
    }

    /// Units whose first attempt fails with a transient IO error.
    pub fn flaky(mut self, units: &[usize]) -> Chaos<C> {
        self.flaky = self.keys(units);
        self
    }

    /// The wrapped campaign.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Attempts started so far, injected faults included.
    pub fn started(&self) -> usize {
        self.started.load(Ordering::Relaxed)
    }

    fn keys(&self, units: &[usize]) -> Vec<String> {
        let all = self.inner.units();
        units.iter().filter_map(|&i| all.get(i)).map(|unit| self.inner.key(unit)).collect()
    }
}

impl<C: Campaign> Campaign for Chaos<C> {
    type Unit = C::Unit;
    type Payload = C::Payload;

    fn units(&self) -> &[C::Unit] {
        self.inner.units()
    }

    fn header(&self) -> String {
        self.inner.header()
    }

    fn noun(&self) -> &'static str {
        self.inner.noun()
    }

    fn key(&self, unit: &C::Unit) -> String {
        self.inner.key(unit)
    }

    fn run(&self, unit: &C::Unit, ctx: &UnitCtx) -> Result<C::Payload, RunError> {
        self.started.fetch_add(1, Ordering::Relaxed);
        let key = self.inner.key(unit);
        assert!(!self.panic.contains(&key), "chaos: injected panic running {key}");
        let injected = |detail: &str| RunError::Io { what: key.clone(), detail: detail.into() };
        if self.sick.contains(&key) {
            return Err(injected("chaos: injected persistent artifact-sink failure"));
        }
        if self.flaky.contains(&key) && ctx.attempt == 0 {
            return Err(injected("chaos: injected transient artifact-sink flake"));
        }
        self.inner.run(unit, ctx)
    }

    fn encode(&self, outcome: &UnitOutcome<C::Payload>) -> Option<String> {
        self.inner.encode(outcome)
    }

    fn decode(&self, unit: &C::Unit, payload: &str) -> Result<Option<C::Payload>, String> {
        self.inner.decode(unit, payload)
    }

    fn progress(&self, unit: &C::Unit, outcome: &UnitOutcome<C::Payload>) {
        self.inner.progress(unit, outcome);
    }

    fn render(&self, report: SupervisedReport<C::Payload>) -> Rendered {
        self.inner.render(report)
    }
}

/// Every drill, in execution order. `--drill NAME` validates against this
/// list; the supervision self-test in CI runs a subset of it.
pub const DRILL_NAMES: &[&str] = &[
    "panic_isolation",
    "budget_exhaustion",
    "report_write_failure",
    "torn_temp_write",
    "torn_journal_tail",
    "digest_corruption",
    "stalled_unit",
    "deadline_overrun",
    "quarantine_identical_failure",
    "transient_flake_retry",
    "breaker_trip_resume",
];

/// The drills that compare against the uninterrupted reference report (the
/// reference campaign is only built when one of these is selected).
const REFERENCE_DRILLS: &[&str] = &[
    "report_write_failure",
    "torn_temp_write",
    "torn_journal_tail",
    "transient_flake_retry",
    "breaker_trip_resume",
];

/// Options of a chaos run (the `specrun-lab chaos` arguments).
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Small campaigns (the CI scale).
    pub quick: bool,
    /// Seed for the drill campaigns.
    pub seed: u64,
    /// Scratch directory (default: a per-process temp dir, removed when
    /// every drill passes).
    pub dir: Option<PathBuf>,
    /// Drill names to run (empty = all, in [`DRILL_NAMES`] order).
    pub drills: Vec<String>,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions { quick: false, seed: fuzz::DEFAULT_FUZZ_SEED, dir: None, drills: Vec::new() }
    }
}

/// How many plans each drill campaign runs.
fn drill_plans(quick: bool) -> u64 {
    if quick {
        4
    } else {
        12
    }
}

/// The drill campaign options rooted at `dir`. One worker thread keeps
/// the sink's operation numbering deterministic.
fn drill_opts(opts: &ChaosOptions, dir: &Path) -> FuzzOptions {
    FuzzOptions {
        plans: drill_plans(opts.quick),
        seed: opts.seed,
        threads: 1,
        quick: true,
        fail_dir: dir.join("failures"),
        report_path: dir.join(fuzz::FUZZ_REPORT_NAME),
        ..FuzzOptions::default()
    }
}

/// The I/O-free result of the drill campaign `fo` with `faults` armed,
/// plus how many attempts it started.
fn chaos_result(
    fo: &FuzzOptions,
    cfg: &SupervisorConfig,
    faults: impl FnOnce(Chaos<FuzzCampaign<'_>>) -> Chaos<FuzzCampaign<'_>>,
) -> (CampaignResult, usize) {
    let chaos = faults(Chaos::new(FuzzCampaign::new(fo)));
    let report = campaign::supervise(&chaos, fo.threads, cfg, &WallClock::new());
    (chaos.inner().result(report), chaos.started())
}

/// Runs the drill campaign `fo` with `faults` armed through the shared
/// executor, under `cfg`, journaling beside the report.
fn chaos_execute(
    fo: &FuzzOptions,
    cfg: &SupervisorConfig,
    faults: impl FnOnce(Chaos<FuzzCampaign<'_>>) -> Chaos<FuzzCampaign<'_>>,
) -> i32 {
    let chaos = faults(Chaos::new(FuzzCampaign::new(fo)));
    let journal = fo.journal_path();
    campaign::execute(
        &chaos,
        fo.threads,
        cfg,
        &WallClock::new(),
        &FsSink,
        Some((&journal, fo.resume)),
    )
}

/// Leaves the journal a crash would: the campaign runs to the end, then
/// its report write fails (exit 2), which keeps the journal.
fn leave_journal(fo: &FuzzOptions) -> Result<(), String> {
    let chaos = ChaosSink::new(&FsSink, &[report_write_op(fo.plans)]);
    match fuzz::run_with(fo, &chaos) {
        2 => Ok(()),
        code => Err(format!("setup campaign exited {code}, expected 2")),
    }
}

/// On a clean single-threaded campaign the counted sink operations are:
/// one journal header append, one append per plan, then the report
/// write — so the report write's operation number is `plans + 1`.
fn report_write_op(plans: u64) -> u64 {
    plans + 1
}

type DrillResult = Result<String, String>;

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// A drill check: `Err(failure)` unless `ok`.
fn ensure(ok: bool, failure: impl Into<String>) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(failure.into())
    }
}

/// Resumes the drill campaign `fo` with a healthy sink: it must exit 0
/// and reproduce the uninterrupted reference report byte for byte.
fn resume_to_reference(fo: &FuzzOptions, reference: &str, after: &str) -> Result<(), String> {
    let code = fuzz::run_with(&FuzzOptions { resume: true, ..fo.clone() }, &FsSink);
    ensure(code == 0, format!("resume after {after} exited {code}, expected 0"))?;
    let report = read(&fo.report_path)?;
    ensure(report == reference, "resumed report differs from the uninterrupted reference")
}

/// A panicking trial must become a reported failing plan, not a dead
/// campaign: the other plans still evaluate and the report says so.
fn drill_panic_isolation(opts: &ChaosOptions, dir: &Path) -> DrillResult {
    let fo = drill_opts(opts, dir);
    let (result, _) = chaos_result(&fo, &fo.supervisor_config(), |c| c.panic(&[1]));
    ensure(result.panics == 1, format!("expected exactly 1 panic, saw {}", result.panics))?;
    let case = result
        .failures
        .iter()
        .find(|f| f.plan_index == 1)
        .ok_or("the panicking plan is missing from the failures")?;
    let violated = &case.violated;
    let panicked = violated.iter().any(|v| v == "panic");
    ensure(panicked, format!("plan 1 violated {violated:?}, expected a panic signature"))?;
    let tallied = result.report.contains("\"panics\": 1");
    ensure(tallied, "report does not record the panic tally")?;
    Ok(format!(
        "injected panic on plan 1 became a reported failure; {} sibling plan(s) unharmed",
        fo.plans - 1
    ))
}

/// A starved cycle budget must surface as a structured [`RunError`] (and,
/// inside a campaign, as a `run_error` violation) — never as a panic.
/// The strict `CycleBudgetExceeded` check uses a PHT plan (straight-line
/// training code, so starvation means the cycle limit, not a wedge); a
/// starved BTB/RSB plan may legitimately wedge instead, which is the
/// other [`RunError`] variant and equally non-fatal.
fn drill_budget_exhaustion(opts: &ChaosOptions) -> DrillResult {
    let mut plan = (0..32)
        .map(|i| Plan::generate(opts.seed, i, true))
        .find(|p| matches!(p.victim.gadget, specrun_workloads::plan::GadgetKind::Pht))
        .ok_or("no PHT-gadget plan in the first 32 indices")?;
    plan.victim.max_cycles = 40; // far below any gadget's runtime
    match fuzz::try_evaluate(&plan, None) {
        Err(RunError::CycleBudgetExceeded { budget: 40, .. }) => {}
        Err(e) => return Err(format!("expected CycleBudgetExceeded, got: {e}")),
        Ok(_) => return Err("a 40-cycle budget cannot complete a gadget".to_string()),
    }
    let violations = fuzz::checked_violations(&plan, None);
    match violations.as_slice() {
        [v] if v.invariant == RUN_ERROR_VIOLATION => {
            Ok(format!("starved budget degraded to a `{RUN_ERROR_VIOLATION}` violation"))
        }
        other => Err(format!("expected a single {RUN_ERROR_VIOLATION} violation, got {other:?}")),
    }
}

/// A failed report write must exit 2 and keep the journal; resuming with
/// a healthy sink reproduces the reference report byte for byte.
fn drill_report_write_failure(opts: &ChaosOptions, dir: &Path, reference: &str) -> DrillResult {
    let fo = drill_opts(opts, dir);
    let chaos = ChaosSink::new(&FsSink, &[report_write_op(fo.plans)]);
    let code = fuzz::run_with(&fo, &chaos);
    ensure(code == 2, format!("injected report-write failure exited {code}, expected 2"))?;
    ensure(!fo.report_path.exists(), "the report exists despite the failed write")?;
    ensure(fo.journal_path().exists(), "the journal was discarded on failure")?;
    resume_to_reference(&fo, reference, "the failure")?;
    ensure(!fo.journal_path().exists(), "the journal survived a completed resume")?;
    Ok("exit 2 on write failure; resume reproduced the reference report byte for byte".to_string())
}

/// A crash between the temp write and the rename must leave the old
/// artifact untouched; the resumed run replaces it atomically.
fn drill_torn_temp_write(opts: &ChaosOptions, dir: &Path, reference: &str) -> DrillResult {
    let fo = drill_opts(opts, dir);
    let stale = "stale artifact from a previous campaign\n";
    std::fs::write(&fo.report_path, stale).map_err(|e| format!("cannot seed stale report: {e}"))?;
    let chaos = ChaosSink::new(&FsSink, &[report_write_op(fo.plans)]).torn();
    let code = fuzz::run_with(&fo, &chaos);
    ensure(code == 2, format!("torn report write exited {code}, expected 2"))?;
    ensure(read(&fo.report_path)? == stale, "the torn write mutated the previous artifact")?;
    let orphan = tmp_path(&fo.report_path);
    ensure(orphan.exists(), "torn mode left no orphan temp file to recover over")?;
    resume_to_reference(&fo, reference, "the torn write")?;
    ensure(!orphan.exists(), "the orphan temp file survived the resumed rename")?;
    Ok("old artifact survived the torn write; resume atomically installed the new one".to_string())
}

/// A torn final journal line (the crash mode `append_line` documents) is
/// dropped on resume; the lost plan re-runs and the report is unchanged.
fn drill_torn_journal_tail(opts: &ChaosOptions, dir: &Path, reference: &str) -> DrillResult {
    let fo = drill_opts(opts, dir);
    leave_journal(&fo)?;
    let journal = fo.journal_path();
    let body = read(&journal)?;
    let torn = &body[..body.len() - 4]; // clip mid-digest, losing the newline
    std::fs::write(&journal, torn).map_err(|e| format!("cannot tear journal: {e}"))?;
    FsSink.remove(&fo.report_path).map_err(|e| format!("cannot drop report before resume: {e}"))?;
    resume_to_reference(&fo, reference, "the torn tail")?;
    Ok("torn final journal line tolerated; the clipped plan re-ran".to_string())
}

/// A complete journal entry whose digest does not match is corruption —
/// resume must refuse (exit 2) rather than trust it.
fn drill_digest_corruption(opts: &ChaosOptions, dir: &Path) -> DrillResult {
    let fo = drill_opts(opts, dir);
    leave_journal(&fo)?;
    let journal = fo.journal_path();
    let body = read(&journal)?;
    let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
    ensure(lines.len() >= 2, "setup journal has no entries to corrupt")?;
    // Flip the last digest character of the first *entry* (line 1; line 0
    // is the header) — the line stays well-formed, the digest lies.
    let entry = &mut lines[1];
    let flipped = if entry.ends_with('0') { '1' } else { '0' };
    entry.pop();
    entry.push(flipped);
    std::fs::write(&journal, format!("{}\n", lines.join("\n")))
        .map_err(|e| format!("cannot corrupt journal: {e}"))?;
    let code = fuzz::run_with(&FuzzOptions { resume: true, ..fo.clone() }, &FsSink);
    let _ = FsSink.remove(&journal);
    ensure(code == 2, format!("resume over a lying digest exited {code}, expected 2"))?;
    Ok("digest mismatch on a complete entry refused with exit 2".to_string())
}

/// A unit that hangs — it spins without ever publishing a heartbeat — must
/// be cancelled by the monitor and classified as *stalled*, not merely
/// slow. Virtual time makes the verdict instant and deterministic: no
/// deadline is armed, so only the no-heartbeat window can fire.
fn drill_stalled_unit() -> DrillResult {
    let clock = ChaosClock::new();
    let cfg = SupervisorConfig { stall_ms: 50, poll_ms: 5, ..SupervisorConfig::default() };
    let items = [0u64];
    let report = supervised_map_with(
        &items,
        1,
        &cfg,
        &clock,
        |i, _, ctx| -> Result<u64, RunError> {
            // A hung unit: cooperative cancel polls, zero heartbeats.
            while !ctx.token.is_cancelled() {
                ctx.clock.sleep_ms(1);
            }
            Err(RunError::Cancelled { what: format!("unit {i}"), committed: 0 })
        },
        |_, _| {},
    );
    match &report.outcomes[0] {
        UnitOutcome::Failed { error: RunError::Stalled { stall_ms: 50, .. }, .. } => {
            Ok("hung unit cancelled and classified as stalled on the virtual clock".to_string())
        }
        other => Err(format!("expected a Stalled classification, got {other:?}")),
    }
}

/// A unit that is slow but demonstrably progressing (heartbeats advance
/// every virtual millisecond) must be classified as a *deadline* overrun,
/// never a stall — the stall window is set far beyond the deadline so the
/// distinction is what is under test.
fn drill_deadline_overrun() -> DrillResult {
    let clock = ChaosClock::new();
    let cfg = SupervisorConfig {
        deadline_ms: 50,
        stall_ms: 5000,
        poll_ms: 5,
        ..SupervisorConfig::default()
    };
    let items = [0u64];
    let report = supervised_map_with(
        &items,
        1,
        &cfg,
        &clock,
        |i, _, ctx| -> Result<u64, RunError> {
            let mut committed = 0;
            while !ctx.token.is_cancelled() {
                committed += 1;
                ctx.token.beat(committed, committed);
                ctx.clock.sleep_ms(1);
            }
            Err(RunError::Cancelled { what: format!("unit {i}"), committed })
        },
        |_, _| {},
    );
    match &report.outcomes[0] {
        UnitOutcome::Failed {
            error: RunError::DeadlineExceeded { deadline_ms: 50, committed, .. },
            ..
        } if *committed > 0 => {
            Ok("progressing unit past its budget classified as a deadline overrun".to_string())
        }
        other => Err(format!("expected a DeadlineExceeded classification, got {other:?}")),
    }
}

/// A plan failing *identically* on every attempt must be quarantined after
/// exactly two attempts — a generous retry budget must not be burned on a
/// deterministic failure.
fn drill_quarantine_identical_failure(opts: &ChaosOptions, dir: &Path) -> DrillResult {
    let mut fo = drill_opts(opts, dir);
    fo.retries = 5;
    let (result, started) = chaos_result(&fo, &fo.supervisor_config(), |c| c.sick(&[1]));
    let quarantined = result.quarantined;
    ensure(quarantined == 1, format!("expected 1 quarantined plan, saw {quarantined}"))?;
    // One attempt per healthy plan, two for the quarantined one.
    let expected = fo.plans as usize + 1;
    ensure(started == expected, format!("{started} attempts started, expected {expected}"))?;
    let case = result
        .failures
        .iter()
        .find(|f| f.plan_index == 1)
        .ok_or("the quarantined plan is missing from the failures")?;
    let detail = case.details.first().map(|v| v.detail.as_str()).unwrap_or_default();
    let after_two = detail.contains("quarantined after 2 attempt(s)");
    ensure(after_two, format!("expected quarantine after exactly 2 attempts, got: {detail}"))?;
    let tallied = result.report.contains("\"quarantined\": 1");
    ensure(tallied, "report does not record the quarantine tally")?;
    Ok("identically failing plan quarantined after 2 of 6 allowed attempts".to_string())
}

/// A transient flake (first attempt fails with an IO error, later attempts
/// are clean) must heal through retry and leave **byte-identical**
/// artifacts — retries may cost wall-clock time but never change results.
fn drill_transient_flake_retry(opts: &ChaosOptions, dir: &Path, reference: &str) -> DrillResult {
    let mut fo = drill_opts(opts, dir);
    fo.retries = 2;
    let code = chaos_execute(&fo, &fo.supervisor_config(), |c| c.flaky(&[1]));
    ensure(code == 0, format!("flaky campaign exited {code}, expected a healed 0"))?;
    let healed = read(&fo.report_path)? == reference;
    ensure(healed, "healed report differs from the uninterrupted reference")?;
    Ok("transient flake healed on retry; report byte-identical to the reference".to_string())
}

/// Once the failure rate crosses the threshold the breaker must stop
/// launching plans and drain into an explicitly partial report (exit 1,
/// skipped plans counted, journal kept); a later `--resume` with the cause
/// fixed completes the campaign byte-identically to the reference.
fn drill_breaker_trip_resume(opts: &ChaosOptions, dir: &Path, reference: &str) -> DrillResult {
    let mut fo = drill_opts(opts, dir);
    fo.max_failure_rate = 0.3;
    let cfg = SupervisorConfig { breaker_min_units: 2, ..fo.supervisor_config() };
    let code = chaos_execute(&fo, &cfg, |c| c.sick(&[0, 1]));
    ensure(code == 1, format!("tripped campaign exited {code}, expected 1"))?;
    let skipped = fo.plans - 2;
    let body = read(&fo.report_path)?;
    let tripped = body.contains("\"breaker_tripped\": true");
    ensure(tripped, "partial report does not record the breaker trip")?;
    let counted = body.contains(&format!("\"skipped_plans\": {skipped}"));
    ensure(counted, format!("partial report does not count {skipped} skipped plan(s)"))?;
    let journal = fo.journal_path();
    ensure(journal.exists(), "the journal was discarded after a breaker trip")?;
    let journal = read(&journal)?;
    for i in 2..fo.plans {
        let journaled = journal.contains(&format!("plan:{i} "));
        ensure(
            !journaled,
            format!("skipped plan {i} was journaled; a resume would not re-run it"),
        )?;
    }
    // The cause fixed (no sick plans), --resume completes the campaign.
    resume_to_reference(&drill_opts(opts, dir), reference, "the trip")?;
    Ok(format!(
        "breaker tripped after 2 failures, {skipped} plan(s) drained to skipped; \
         resume completed the campaign byte for byte"
    ))
}

/// Runs every chaos drill and returns the process exit code: 0 when all
/// recovery paths behave, 1 when any drill fails, 2 when the harness
/// cannot even set up.
pub fn run(opts: &ChaosOptions) -> i32 {
    let root = opts.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("specrun-chaos-{}", std::process::id()))
    });
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("error: cannot create {}: {e}", root.display());
        return 2;
    }
    let want = |name: &str| opts.drills.is_empty() || opts.drills.iter().any(|d| d == name);
    let selected: Vec<&str> = DRILL_NAMES.iter().copied().filter(|n| want(n)).collect();
    say!(
        "chaos: {} drill(s), seed {:#x}, {} plans per campaign, scratch {}",
        selected.len(),
        opts.seed,
        drill_plans(opts.quick),
        root.display()
    );

    // The uninterrupted reference the recovery drills must reproduce —
    // built only when a selected drill compares against it, so the pure
    // supervision drills (CI's hang self-test) stay fast.
    let mut reference = String::new();
    if REFERENCE_DRILLS.iter().any(|n| want(n)) {
        let ref_dir = root.join("reference");
        if let Err(e) = std::fs::create_dir_all(&ref_dir) {
            eprintln!("error: cannot create {}: {e}", ref_dir.display());
            return 2;
        }
        let ref_opts = drill_opts(opts, &ref_dir);
        if fuzz::run_with(&ref_opts, &FsSink) != 0 {
            eprintln!(
                "error: the reference campaign (seed {:#x}) does not pass cleanly; \
                 chaos drills need a green baseline",
                opts.seed
            );
            return 2;
        }
        reference = match std::fs::read_to_string(&ref_opts.report_path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: cannot read reference report: {e}");
                return 2;
            }
        };
    }

    let scratch_for = |tag: &str| -> Result<PathBuf, String> {
        let d = root.join(tag);
        std::fs::create_dir_all(&d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        Ok(d)
    };
    let mut drills: Vec<(&str, DrillResult)> = Vec::new();
    for name in selected {
        let outcome =
            match name {
                "panic_isolation" => {
                    scratch_for("panic").and_then(|d| drill_panic_isolation(opts, &d))
                }
                "budget_exhaustion" => drill_budget_exhaustion(opts),
                "report_write_failure" => scratch_for("write_fail")
                    .and_then(|d| drill_report_write_failure(opts, &d, &reference)),
                "torn_temp_write" => scratch_for("torn_write")
                    .and_then(|d| drill_torn_temp_write(opts, &d, &reference)),
                "torn_journal_tail" => scratch_for("torn_tail")
                    .and_then(|d| drill_torn_journal_tail(opts, &d, &reference)),
                "digest_corruption" => {
                    scratch_for("digest").and_then(|d| drill_digest_corruption(opts, &d))
                }
                "stalled_unit" => drill_stalled_unit(),
                "deadline_overrun" => drill_deadline_overrun(),
                "quarantine_identical_failure" => scratch_for("quarantine")
                    .and_then(|d| drill_quarantine_identical_failure(opts, &d)),
                "transient_flake_retry" => scratch_for("flake")
                    .and_then(|d| drill_transient_flake_retry(opts, &d, &reference)),
                "breaker_trip_resume" => scratch_for("breaker")
                    .and_then(|d| drill_breaker_trip_resume(opts, &d, &reference)),
                other => Err(format!("drill {other} is named in DRILL_NAMES but not dispatched")),
            };
        drills.push((name, outcome));
    }

    let mut failed = 0u32;
    say!();
    for (name, outcome) in &drills {
        match outcome {
            Ok(detail) => say!("  [ok] {name}: {detail}"),
            Err(detail) => {
                failed += 1;
                say!("  [FAILED] {name}: {detail}");
            }
        }
    }
    if failed == 0 {
        say!("all {} chaos drills recovered as documented", drills.len());
        if opts.dir.is_none() {
            let _ = std::fs::remove_dir_all(&root);
        }
        0
    } else {
        eprintln!("{failed} chaos drill(s) failed; scratch kept at {}", root.display());
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chaos_{}_{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn budget_drill_passes_standalone() {
        let opts = ChaosOptions::default();
        drill_budget_exhaustion(&opts).unwrap();
    }

    #[test]
    fn panic_drill_passes_standalone() {
        let opts = ChaosOptions { quick: true, ..ChaosOptions::default() };
        let dir = scratch("panic");
        let outcome = drill_panic_isolation(&opts, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        outcome.unwrap();
    }

    #[test]
    fn supervision_drills_pass_standalone() {
        drill_stalled_unit().unwrap();
        drill_deadline_overrun().unwrap();
        let opts = ChaosOptions { quick: true, ..ChaosOptions::default() };
        let dir = scratch("quarantine");
        let outcome = drill_quarantine_identical_failure(&opts, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        outcome.unwrap();
    }

    #[test]
    fn drill_filter_runs_the_named_subset_only() {
        let dir = scratch("filter");
        let opts = ChaosOptions {
            quick: true,
            dir: Some(dir.clone()),
            drills: vec!["stalled_unit".to_string(), "deadline_overrun".to_string()],
            ..ChaosOptions::default()
        };
        assert_eq!(run(&opts), 0, "the supervision subset must recover");
        assert!(
            !dir.join("reference").exists(),
            "pure supervision drills must not build the reference campaign"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_chaos_run_is_clean() {
        let dir = scratch("full");
        let opts = ChaosOptions {
            quick: true,
            seed: fuzz::DEFAULT_FUZZ_SEED,
            dir: Some(dir.clone()),
            drills: Vec::new(),
        };
        assert_eq!(run(&opts), 0, "every drill must recover");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
