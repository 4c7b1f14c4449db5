//! The one campaign executor behind `run`, `fuzz` and `pool run`.
//!
//! A [`Campaign`] says *what* a campaign is: its units, their journal
//! keys, one attempt of a unit, how a final outcome is journaled and
//! recovered, and how the settled outcomes render. [`execute`] says *how*
//! every campaign runs: it opens the journal (a foreign or corrupt one is
//! refused with exit 2), skips the units the journal recovers, runs the
//! rest in one [`supervised_map_with`] call that journals final outcomes
//! from the completion hook (after a failed append no further unit starts,
//! exit 2), writes the artifacts atomically through the [`ArtifactSink`]
//! (a failed write exits 2 and keeps the journal), retires the journal
//! unless the breaker tripped, and exits 0 or 1. A recovered unit reaches
//! [`Campaign::progress`] and [`Campaign::render`] as `UnitOutcome::Done`
//! with `attempts: 0`, so a resumed campaign renders the bytes an
//! uninterrupted one would. [`supervise`] is the I/O-free run alone.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use specrun_workloads::clock::Clock;
use specrun_workloads::harness::RunError;
use specrun_workloads::supervisor::{
    supervised_map_with, SupervisedReport, SupervisorConfig, UnitCtx, UnitOutcome,
};

use crate::cli::{say, to_stdout};
use crate::journal::{Journal, OpenError};
use crate::sink::ArtifactSink;

/// One campaign shape: the units and what to do with each.
pub trait Campaign: Sync {
    /// One unit of work.
    type Unit: Sync;
    /// What one successful attempt of a unit produces.
    type Payload: Send;

    /// The units, in report order.
    fn units(&self) -> &[Self::Unit];

    /// The journal header: everything that determines the campaign's
    /// bytes (never the thread count or supervision options).
    fn header(&self) -> String;

    /// What a unit is called in progress notes (`scenario`, `plan`).
    fn noun(&self) -> &'static str;

    /// The unit's journal key: space-free and unique in the campaign.
    fn key(&self, unit: &Self::Unit) -> String;

    /// Runs one attempt of `unit` under the supervisor's context.
    fn run(&self, unit: &Self::Unit, ctx: &UnitCtx) -> Result<Self::Payload, RunError>;

    /// The journal payload recording a final outcome, or `None` to leave
    /// it out of the journal (a resume then re-runs the unit).
    fn encode(&self, _outcome: &UnitOutcome<Self::Payload>) -> Option<String> {
        None
    }

    /// Recovers a journaled payload: `Ok(None)` re-runs the unit, `Err`
    /// refuses the journal as corrupt.
    fn decode(&self, _unit: &Self::Unit, _payload: &str) -> Result<Option<Self::Payload>, String> {
        Ok(None)
    }

    /// Per-unit progress output, once per final outcome (recovered units
    /// first, as `Done` with `attempts: 0`).
    fn progress(&self, _unit: &Self::Unit, _outcome: &UnitOutcome<Self::Payload>) {}

    /// Renders the settled campaign: outcomes index-aligned with
    /// [`Campaign::units`].
    fn render(&self, report: SupervisedReport<Self::Payload>) -> Rendered;
}

/// The files a campaign leaves behind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Artifacts {
    /// Directories created before the first write.
    pub dirs: Vec<PathBuf>,
    /// Stale files removed before writing, so the new files never sit
    /// beside leftovers of an earlier campaign.
    pub stale: Vec<PathBuf>,
    /// `(path, contents)` in write order, each replaced atomically.
    pub files: Vec<(PathBuf, String)>,
}

impl Artifacts {
    /// Creates the directories, removes the stale files and writes every
    /// file through `sink`, in that order. The error names the path.
    pub fn write(&self, sink: &dyn ArtifactSink) -> Result<(), String> {
        for dir in &self.dirs {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        for path in &self.stale {
            sink.remove(path).map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
        }
        for (path, contents) in &self.files {
            sink.write_atomic(path, contents)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// What [`Campaign::render`] hands the executor.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The artifacts to write.
    pub artifacts: Artifacts,
    /// Whether the campaign passed (exit 0) or not (exit 1).
    pub passed: bool,
    /// The closing message, printed once the artifacts are durable: to
    /// stdout on a pass, to stderr otherwise.
    pub verdict: String,
}

/// Runs `campaign` end to end and returns the process exit code: 0 when
/// it passed, 1 when it did not, 2 when the journal or an artifact write
/// failed. `journal` is the journal path plus whether to resume from it.
pub fn execute<C: Campaign>(
    campaign: &C,
    threads: usize,
    cfg: &SupervisorConfig,
    clock: &dyn Clock,
    sink: &dyn ArtifactSink,
    journal: Option<(&Path, bool)>,
) -> i32 {
    let journal = journal.map(|(path, resume)| (Journal::new(sink, path.to_path_buf()), resume));
    let report = match settle(campaign, threads, cfg, clock, journal.as_ref()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let breaker_tripped = report.breaker_tripped;
    let rendered = campaign.render(report);
    if let Err(e) = rendered.artifacts.write(sink) {
        eprintln!("error: {e}");
        if let Some((j, _)) = &journal {
            eprintln!("note: the campaign journal is kept at {}", j.path().display());
        }
        return 2;
    }
    // Closing lines go through `to_stdout`: a reader that closed the pipe
    // early does not change the campaign's exit code.
    let _ = to_stdout(|out| {
        for (path, _) in &rendered.artifacts.files {
            writeln!(out, "wrote {}", path.display())?;
        }
        Ok(())
    });
    // After a breaker trip the journal stays, so `--resume` can finish.
    if let Some((j, _)) = journal.as_ref().filter(|_| !breaker_tripped) {
        if let Err(e) = j.finish() {
            eprintln!("error: cannot remove journal {}: {e}", j.path().display());
            return 2;
        }
    }
    if rendered.passed {
        say!("{}", rendered.verdict);
        0
    } else {
        eprintln!("{}", rendered.verdict);
        1
    }
}

/// Runs every unit of `campaign` with no journal and returns the outcomes
/// in unit order: the I/O-free path of [`execute`].
pub fn supervise<C: Campaign>(
    campaign: &C,
    threads: usize,
    cfg: &SupervisorConfig,
    clock: &dyn Clock,
) -> SupervisedReport<C::Payload> {
    settle(campaign, threads, cfg, clock, None)
        .unwrap_or_else(|_| unreachable!("journal-free runs cannot fail"))
}

/// Opens the journal, recovers what it holds, runs the rest and journals
/// their final outcomes. The error is the message to exit 2 with.
fn settle<C: Campaign>(
    campaign: &C,
    threads: usize,
    cfg: &SupervisorConfig,
    clock: &dyn Clock,
    journal: Option<&(Journal, bool)>,
) -> Result<SupervisedReport<C::Payload>, String> {
    let units = campaign.units();
    let mut outcomes: Vec<Option<UnitOutcome<C::Payload>>> = units.iter().map(|_| None).collect();
    if let Some((j, resume)) = journal {
        let path = j.path().display();
        let refused = |e: &dyn std::fmt::Display| {
            format!(
                "cannot resume from {path}: {e}\n\
                 hint: delete the journal (or drop --resume) to start fresh"
            )
        };
        let entries = j.open(&campaign.header(), *resume).map_err(|e| match e {
            OpenError::Resume(e) => refused(&e),
            OpenError::Begin(e) => format!("cannot start journal {path}: {e}"),
        })?;
        let index: HashMap<String, usize> =
            units.iter().enumerate().map(|(i, unit)| (campaign.key(unit), i)).collect();
        // Entries of units this campaign lacks are ignored; the last entry
        // for a key wins.
        for (key, payload) in &entries {
            if let Some(&i) = index.get(key) {
                let recovered = campaign.decode(&units[i], payload).map_err(|e| refused(&e))?;
                outcomes[i] = recovered.map(|result| UnitOutcome::Done { result, attempts: 0 });
            }
        }
    }
    let pending: Vec<usize> = (0..units.len()).filter(|&i| outcomes[i].is_none()).collect();
    for (unit, outcome) in units.iter().zip(&outcomes) {
        if let Some(outcome) = outcome {
            campaign.progress(unit, outcome);
        }
    }
    if pending.len() < units.len() {
        let (resumed, noun) = (units.len() - pending.len(), campaign.noun());
        say!("resumed: {resumed} {noun}(s) recovered from the journal; {} re-run", pending.len());
    }

    // The first failed append; the hook that sets it never panics.
    let append_error: Mutex<Option<String>> = Mutex::new(None);
    let slot = || append_error.lock().expect("the append-error slot is never poisoned");
    let failed = || slot().is_some();
    let report = supervised_map_with(
        &pending,
        threads,
        cfg,
        clock,
        |_, &i, ctx| {
            if failed() {
                return Err(RunError::Cancelled { what: campaign.key(&units[i]), committed: 0 });
            }
            campaign.run(&units[i], ctx)
        },
        |p, outcome| {
            if failed() {
                return;
            }
            let unit = &units[pending[p]];
            campaign.progress(unit, outcome);
            let (Some((j, _)), Some(payload)) = (journal, campaign.encode(outcome)) else {
                return;
            };
            if let Err(e) = j.append(&campaign.key(unit), &payload) {
                let path = j.path().display();
                slot().get_or_insert_with(|| format!("cannot append to journal {path}: {e}"));
            }
        },
    );
    if let Some(e) = append_error.into_inner().expect("the append-error slot is never poisoned") {
        return Err(e);
    }
    for (&i, outcome) in pending.iter().zip(report.outcomes) {
        outcomes[i] = Some(outcome);
    }
    Ok(SupervisedReport {
        outcomes: outcomes.into_iter().map(|o| o.expect("every unit settled")).collect(),
        breaker_tripped: report.breaker_tripped,
    })
}

#[cfg(test)]
mod tests {
    use specrun_workloads::clock::WallClock;

    use super::*;
    use crate::chaos::Chaos;
    use crate::fuzz::{FuzzCampaign, FuzzOptions};
    use crate::sink::{ChaosSink, FsSink};

    #[test]
    fn a_failed_append_starts_no_later_plan_and_exits_2() {
        let dir = std::env::temp_dir().join(format!("campaign_append_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = FuzzOptions {
            plans: 4,
            threads: 1,
            quick: true,
            report_path: dir.join("FUZZ_report.json"),
            ..FuzzOptions::default()
        };
        // No faults armed: the wrapper only counts the attempts started.
        let fuzz = Chaos::new(FuzzCampaign::new(&opts));
        // Sink operation 0 is the journal header, 1 the first plan's append.
        let sink = ChaosSink::new(&FsSink, &[1]);
        let (cfg, journal) = (opts.supervisor_config(), dir.join("j"));
        let code = execute(&fuzz, 1, &cfg, &WallClock::new(), &sink, Some((&journal, false)));
        assert_eq!(code, 2, "a failed append is a hard error");
        assert_eq!(fuzz.started(), 1, "no plan starts after it");
        assert_eq!(sink.ops_seen(), 2, "nothing is appended or written after it");
        assert!(!opts.report_path.exists(), "no report is rendered from a broken journal");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
