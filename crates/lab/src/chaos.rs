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
//! * [`FuzzOptions::chaos_panic_plans`] (and its flaky/sick siblings) —
//!   named plan evaluations fail at the trial boundary;
//! * [`ChaosClock`] — virtual time at the supervision boundary, so the
//!   hung-unit, slow-unit, retry and circuit-breaker drills march wall
//!   clocks forward deterministically instead of sleeping.
//!
//! Everything is derived from the chaos seed; drills use one worker
//! thread so IO operation numbering (and supervision outcome ordering) is
//! reproducible run to run.

use std::path::{Path, PathBuf};

use specrun_workloads::clock::ChaosClock;
use specrun_workloads::harness::RunError;
use specrun_workloads::plan::Plan;
use specrun_workloads::supervisor::{supervised_map_with, SupervisorConfig, UnitOutcome};

use crate::fuzz::{self, FuzzOptions, RUN_ERROR_VIOLATION};
use crate::sink::{tmp_path, ArtifactSink, ChaosSink, FsSink};

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

/// A panicking trial must become a reported failing plan, not a dead
/// campaign: the other plans still evaluate and the report says so.
fn drill_panic_isolation(opts: &ChaosOptions, dir: &Path) -> DrillResult {
    let mut fo = drill_opts(opts, dir);
    fo.chaos_panic_plans = vec![1];
    let result = fuzz::campaign(&fo);
    if result.panics != 1 {
        return Err(format!("expected exactly 1 panic, saw {}", result.panics));
    }
    let case = result
        .failures
        .iter()
        .find(|f| f.plan_index == 1)
        .ok_or("the panicking plan is missing from the failures")?;
    if !case.violated.iter().any(|v| v == "panic") {
        return Err(format!("plan 1 violated {:?}, expected a panic signature", case.violated));
    }
    if !result.report.contains("\"panics\": 1") {
        return Err("report does not record the panic tally".to_string());
    }
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
    if code != 2 {
        return Err(format!("injected report-write failure exited {code}, expected 2"));
    }
    if fo.report_path.exists() {
        return Err("the report exists despite the failed write".to_string());
    }
    if !fo.journal_path().exists() {
        return Err("the journal was discarded on failure".to_string());
    }
    let mut resumed = fo.clone();
    resumed.resume = true;
    let code = fuzz::run_with(&resumed, &FsSink);
    if code != 0 {
        return Err(format!("resume after the failure exited {code}, expected 0"));
    }
    if read(&fo.report_path)? != reference {
        return Err("resumed report differs from the uninterrupted reference".to_string());
    }
    if fo.journal_path().exists() {
        return Err("the journal survived a completed resume".to_string());
    }
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
    if code != 2 {
        return Err(format!("torn report write exited {code}, expected 2"));
    }
    if read(&fo.report_path)? != stale {
        return Err("the torn write mutated the previous artifact".to_string());
    }
    if !tmp_path(&fo.report_path).exists() {
        return Err("torn mode left no orphan temp file to recover over".to_string());
    }
    let mut resumed = fo.clone();
    resumed.resume = true;
    let code = fuzz::run_with(&resumed, &FsSink);
    if code != 0 {
        return Err(format!("resume after the torn write exited {code}, expected 0"));
    }
    if read(&fo.report_path)? != reference {
        return Err("resumed report differs from the uninterrupted reference".to_string());
    }
    if tmp_path(&fo.report_path).exists() {
        return Err("the orphan temp file survived the resumed rename".to_string());
    }
    Ok("old artifact survived the torn write; resume atomically installed the new one".to_string())
}

/// A torn final journal line (the crash mode `append_line` documents) is
/// dropped on resume; the lost plan re-runs and the report is unchanged.
fn drill_torn_journal_tail(opts: &ChaosOptions, dir: &Path, reference: &str) -> DrillResult {
    let mut fo = drill_opts(opts, dir);
    fo.keep_journal = true;
    let code = fuzz::run_with(&fo, &FsSink);
    if code != 0 {
        return Err(format!("setup campaign exited {code}, expected 0"));
    }
    let journal = fo.journal_path();
    let body = read(&journal)?;
    let torn = &body[..body.len() - 4]; // clip mid-digest, losing the newline
    std::fs::write(&journal, torn).map_err(|e| format!("cannot tear journal: {e}"))?;
    FsSink.remove(&fo.report_path).map_err(|e| format!("cannot drop report before resume: {e}"))?;
    let mut resumed = fo.clone();
    resumed.keep_journal = false;
    resumed.resume = true;
    let code = fuzz::run_with(&resumed, &FsSink);
    if code != 0 {
        return Err(format!("resume over the torn tail exited {code}, expected 0"));
    }
    if read(&fo.report_path)? != reference {
        return Err("resumed report differs from the uninterrupted reference".to_string());
    }
    Ok("torn final journal line tolerated; the clipped plan re-ran".to_string())
}

/// A complete journal entry whose digest does not match is corruption —
/// resume must refuse (exit 2) rather than trust it.
fn drill_digest_corruption(opts: &ChaosOptions, dir: &Path) -> DrillResult {
    let mut fo = drill_opts(opts, dir);
    fo.keep_journal = true;
    let code = fuzz::run_with(&fo, &FsSink);
    if code != 0 {
        return Err(format!("setup campaign exited {code}, expected 0"));
    }
    let journal = fo.journal_path();
    let body = read(&journal)?;
    let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
    if lines.len() < 2 {
        return Err("setup journal has no entries to corrupt".to_string());
    }
    // Flip the last digest character of the first *entry* (line 1; line 0
    // is the header) — the line stays well-formed, the digest lies.
    let entry = &mut lines[1];
    let flipped = if entry.ends_with('0') { '1' } else { '0' };
    entry.pop();
    entry.push(flipped);
    std::fs::write(&journal, format!("{}\n", lines.join("\n")))
        .map_err(|e| format!("cannot corrupt journal: {e}"))?;
    let mut resumed = fo.clone();
    resumed.resume = true;
    let code = fuzz::run_with(&resumed, &FsSink);
    let _ = FsSink.remove(&journal);
    if code != 2 {
        return Err(format!("resume over a lying digest exited {code}, expected 2"));
    }
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
    fo.chaos_sick_plans = vec![1];
    fo.retries = 5;
    let result = fuzz::campaign(&fo);
    if result.quarantined != 1 {
        return Err(format!("expected 1 quarantined plan, saw {}", result.quarantined));
    }
    let case = result
        .failures
        .iter()
        .find(|f| f.plan_index == 1)
        .ok_or("the quarantined plan is missing from the failures")?;
    let detail = case.details.first().map(|v| v.detail.as_str()).unwrap_or_default();
    if !detail.contains("quarantined after 2 attempt(s)") {
        return Err(format!("expected quarantine after exactly 2 attempts, got: {detail}"));
    }
    if !result.report.contains("\"quarantined\": 1") {
        return Err("report does not record the quarantine tally".to_string());
    }
    Ok("identically failing plan quarantined after 2 of 6 allowed attempts".to_string())
}

/// A transient flake (first attempt fails with an IO error, later attempts
/// are clean) must heal through retry and leave **byte-identical**
/// artifacts — retries may cost wall-clock time but never change results.
fn drill_transient_flake_retry(opts: &ChaosOptions, dir: &Path, reference: &str) -> DrillResult {
    let mut fo = drill_opts(opts, dir);
    fo.chaos_flaky_plans = vec![1];
    fo.retries = 2;
    let code = fuzz::run_with(&fo, &FsSink);
    if code != 0 {
        return Err(format!("flaky campaign exited {code}, expected a healed 0"));
    }
    if read(&fo.report_path)? != reference {
        return Err("healed report differs from the uninterrupted reference".to_string());
    }
    Ok("transient flake healed on retry; report byte-identical to the reference".to_string())
}

/// Once the failure rate crosses the threshold the breaker must stop
/// launching plans and drain into an explicitly partial report (exit 1,
/// skipped plans counted, journal kept); a later `--resume` with the cause
/// fixed completes the campaign byte-identically to the reference.
fn drill_breaker_trip_resume(opts: &ChaosOptions, dir: &Path, reference: &str) -> DrillResult {
    let mut fo = drill_opts(opts, dir);
    fo.chaos_sick_plans = vec![0, 1];
    fo.max_failure_rate = 0.3;
    fo.breaker_min_units = 2;
    let code = fuzz::run_with(&fo, &FsSink);
    if code != 1 {
        return Err(format!("tripped campaign exited {code}, expected 1"));
    }
    let skipped = fo.plans - 2;
    let body = read(&fo.report_path)?;
    if !body.contains("\"breaker_tripped\": true") {
        return Err("partial report does not record the breaker trip".to_string());
    }
    if !body.contains(&format!("\"skipped_plans\": {skipped}")) {
        return Err(format!("partial report does not count {skipped} skipped plan(s)"));
    }
    if !fo.journal_path().exists() {
        return Err("the journal was discarded after a breaker trip".to_string());
    }
    let journal = read(&fo.journal_path())?;
    for i in 2..fo.plans {
        if journal.contains(&format!("plan:{i} ")) {
            return Err(format!("skipped plan {i} was journaled; a resume would not re-run it"));
        }
    }
    // The cause fixed (no sick plans), --resume completes the campaign.
    let mut resumed = drill_opts(opts, dir);
    resumed.resume = true;
    let code = fuzz::run_with(&resumed, &FsSink);
    if code != 0 {
        return Err(format!("resume after the trip exited {code}, expected 0"));
    }
    if read(&fo.report_path)? != reference {
        return Err("resumed report differs from the uninterrupted reference".to_string());
    }
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
    println!(
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
    println!();
    for (name, outcome) in &drills {
        match outcome {
            Ok(detail) => println!("  [ok] {name}: {detail}"),
            Err(detail) => {
                failed += 1;
                println!("  [FAILED] {name}: {detail}");
            }
        }
    }
    if failed == 0 {
        println!("all {} chaos drills recovered as documented", drills.len());
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
