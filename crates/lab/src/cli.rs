//! The `specrun-lab` command-line interface.
//!
//! ```text
//! specrun-lab list
//! specrun-lab run --all --quick          # the CI reproduction gate
//! specrun-lab run fig7 table1            # any subset
//! specrun-lab perf --baseline-from-git   # throughput benchmark + gate
//! ```
//!
//! `run` executes the requested scenarios from the registry, prints each
//! scenario's human-readable report and invariant verdicts, writes
//! `artifacts/<scenario>.json` plus the merged `LAB_report.json`, and
//! exits non-zero if any paper-claim invariant failed.

use std::io::{self, Write};
use std::path::PathBuf;

use crate::campaign::{self, Artifacts, Campaign, Rendered};
use crate::chaos::{self, Chaos, ChaosOptions};
use crate::fuzz::{self, FuzzCampaign, FuzzOptions};
use crate::json;
use crate::perf::{self, PerfOptions};
use crate::pool::PoolCampaign;
use crate::registry::{find, registry};
use crate::report::{LabEntry, LabReport};
use crate::scenario::{RunContext, Scenario};
use crate::sink::FsSink;
use specrun_workloads::clock::WallClock;
use specrun_workloads::harness::RunError;
use specrun_workloads::pool::CampaignSpec;
use specrun_workloads::supervisor::{SupervisedReport, SupervisorConfig, UnitCtx, UnitOutcome};

const USAGE: &str = "\
specrun-lab — declarative campaign runner for the SPECRUN paper artifacts

USAGE:
    specrun-lab list
    specrun-lab run [SCENARIO ...] [--all] [--quick] [--threads N] [--seed N]
                    [--artifacts-dir DIR] [--no-artifacts] [--resume]
                    [--deadline-ms N] [--retries N]
    specrun-lab perf [--quick] [--baseline PATH | --baseline-from-git] [--max-drop F]
                     [--repeats N]
    specrun-lab pool spec
    specrun-lab pool run SPEC.json [--threads N] [--out PATH]
    specrun-lab fuzz [--plans N] [--seed N] [--shard-threads N] [--quick]
                     [--fail-dir DIR] [--report PATH] [--invert-invariant NAME]
                     [--replay FILE [--trace PATH]] [--list-invariants]
                     [--resume] [--journal PATH]
                     [--deadline-ms N] [--retries N] [--max-failure-rate F]
    specrun-lab chaos [--quick] [--seed N] [--dir DIR] [--drill NAME ...]
    specrun-lab trace record --out PATH [--policy runahead|secure|no_runahead]
                             [--metrics PATH]
    specrun-lab trace replay LOG [--metrics PATH]
    specrun-lab trace diff A B

COMMANDS:
    list    Print every registered scenario.
    run     Execute scenarios; write <scenario>.json per scenario plus the
            merged LAB_report.json into --artifacts-dir (default:
            artifacts/). --quick runs the reduced CI scale (same
            invariants, byte-stable artifacts). Passed scenarios are
            journaled to <artifacts-dir>/LAB_report.journal as the
            campaign goes; after a crash, --resume skips the journaled
            passes and produces the same report bytes an uninterrupted
            run would. Scenarios run one at a time on the campaign
            executor fuzz and pool use. --deadline-ms cancels a scenario
            cooperatively once it outlives its wall-clock budget (every
            simulation it starts checkpoints every few thousand cycles)
            and reports a deadline overrun, as it does for a scenario
            that finishes late; --retries re-runs a scenario that
            panicked, hit a run error or overran its deadline, with a
            deterministic seeded backoff, quarantining it after two
            identical failures. Failed invariants are deterministic
            results and are not retried. Only final attempts are
            journaled, and no wall-clock value enters the artifacts.
            Exit 0 when every invariant holds; 1 when one fails or a
            scenario dies with a run error (the merged report then
            carries \"partial_results\": true); 2 on usage errors, a
            foreign or corrupt journal, a failed journal append, or a
            failed artifact write (the journal is kept for --resume).
    perf    Wall-clock throughput benchmark (writes BENCH_step.json) with
            an optional perf-regression gate. The baseline is read before
            the new report is written; --baseline-from-git reads the
            committed BENCH_step.json at HEAD. --repeats N reports the
            best of N wall-clock samples per workload (CI uses 3), which
            cuts false gate failures on noisy shared hosts.
    pool    Copy-on-write fork campaigns. `pool spec` prints the paper's
            full PHT/BTB/RSB × policy matrix as a spec file; `pool run`
            executes a spec — one warmed snapshot per shard, one forked
            session per planted secret — on the campaign executor and
            writes POOL_report.json (--out overrides the path). The
            artifact is a pure function of the spec: byte-identical across
            runs and thread counts, which the CI pool-repro job enforces
            with a byte compare. `pool run` keeps no journal (no
            --resume). Exit 0 when every shard completed, 1 otherwise, 2
            on usage errors, an unreadable or undecodable spec, or a
            failed artifact write (one error line, no usage text).
    fuzz    Generative attack-plan soak: derive N whole attack plans from
            --seed (hex accepted), run each twice through the simulator
            with the ground-truth observers attached, and enforce the
            fuzz-invariant registry (--list-invariants prints it). Writes
            a byte-stable FUZZ_report.json (same bytes for a fixed seed,
            any --shard-threads); each violating plan is shrunk to a
            minimal reproducer and serialized to --fail-dir (default:
            fuzz-failures/) for `fuzz --replay <file>`. With --replay,
            --trace PATH additionally records the replayed plan's
            pipeline events to a binary log for `trace replay`/`diff`
            forensics. Completed plans
            are journaled beside the report (--journal overrides the
            path); --resume after a crash skips the journaled passes and
            writes byte-identical artifacts.
            --invert-invariant flips one predicate to self-test the
            failure pipeline. Exit 1 on violations, 2 on usage/IO errors.
            Supervision: --deadline-ms cancels a plan cooperatively (the
            simulator checkpoints every few thousand cycles) once it
            outlives its wall-clock budget, heartbeats distinguish a slow
            plan (deadline exceeded) from a hung one (stalled);
            --retries re-runs supervision failures with a deterministic
            seeded backoff, quarantining a plan that fails identically
            twice; --max-failure-rate arms a campaign circuit breaker
            that stops launching new plans and reports partial results
            (resume with --resume after fixing the cause).
            --chaos-flaky-plans I,J,… is a self-test hook failing those
            plans' first attempt with a transient IO error, proving
            retries heal byte-identically.
    chaos   Fault-injection drills for the recovery machinery itself:
            inject trial panics, starved cycle budgets, artifact-write
            failures, torn temp files, journal corruption, hung and slow
            units, transient flakes and breaker trips, and verify each
            degrades exactly as documented (reported failures, old-or-new
            artifacts, byte-identical resumed reports, deterministic
            supervision verdicts on a virtual clock). Exit 0 when every
            drill recovers, 1 otherwise. --quick shrinks the drill
            campaigns to the CI scale; --drill NAME (repeatable) runs a
            subset of the drills.
    trace   Forensic pipeline-event logs. `trace record` runs the pinned
            leak_trace PoC (Fig. 11 shape, secret 127) on the chosen
            machine policy with the ground-truth observers attached and
            writes every pipeline event to a delta-encoded binary log
            (atomic replace, byte-stable across runs and thread counts);
            `trace replay` re-derives the analysis from the log alone —
            no simulator — and with --metrics writes a metrics file
            byte-identical to the live one, the losslessness check the
            CI trace-repro job enforces. `trace diff` aligns two logs by
            behavioural content (cycle timings and taint annotations
            stripped) and reports the first divergent event with commit
            and runahead-episode anchors — e.g. where the secure machine
            first suppresses a transient secret fill. Exit 0 on success
            (diff: identical), 1 when diff finds a divergence, 2 on
            usage/IO/corrupt-log errors (a torn tail is tolerated with a
            warning; a digest mismatch is not).
";

/// Entry point for the `specrun-lab` binary. Returns the exit code.
pub fn main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => to_stdout(list),
        Some("run") => match run_command(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!();
                eprint!("{USAGE}");
                2
            }
        },
        Some("perf") => match PerfOptions::default().apply_args(&args[1..]) {
            Ok(opts) => perf::run(&opts),
            Err(e) => {
                eprintln!("error: {e}");
                2
            }
        },
        Some("pool") => match pool_command(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!();
                eprint!("{USAGE}");
                2
            }
        },
        Some("fuzz") => match parse_fuzz_args(&args[1..]) {
            Ok(FuzzCommand::ListInvariants) => to_stdout(list_invariants),
            Ok(FuzzCommand::Run { opts, flaky }) if opts.replay.is_none() && !flaky.is_empty() => {
                // The retry self-test: the named plans' first attempts fail.
                let campaign = Chaos::new(FuzzCampaign::new(&opts)).flaky(&flaky);
                fuzz::execute(&campaign, &opts, &FsSink)
            }
            Ok(FuzzCommand::Run { opts, .. }) => fuzz::run_with(&opts, &FsSink),
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!();
                eprint!("{USAGE}");
                2
            }
        },
        Some("trace") => match crate::trace::trace_command(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!();
                eprint!("{USAGE}");
                2
            }
        },
        Some("chaos") => match parse_chaos_args(&args[1..]) {
            Ok(opts) => chaos::run(&opts),
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!();
                eprint!("{USAGE}");
                2
            }
        },
        Some("--help" | "-h" | "help") | None => {
            // A bare `specrun-lab` is a usage error (exit 1) even when the
            // reader closes the pipe early.
            to_stdout(|out| out.write_all(USAGE.as_bytes())).max(i32::from(args.is_empty()))
        }
        Some(other) => {
            eprintln!("error: unknown command {other}");
            eprintln!();
            eprint!("{USAGE}");
            2
        }
    }
}

/// Writes a listing or report through one locked stdout handle and
/// returns the exit code. A reader that closes the pipe early
/// (`specrun-lab list | head -1`) has what it asked for: the command stops
/// writing and exits 0.
pub(crate) fn to_stdout(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> i32 {
    let mut out = io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Ok(()) => 0,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            2
        }
    }
}

/// `println!` through [`to_stdout`], for progress and report lines: once
/// the reader has closed the pipe a line is dropped instead of panicking,
/// and the command keeps its own exit code.
macro_rules! say {
    ($($arg:tt)*) => {{
        let _ = $crate::cli::to_stdout(|out| writeln!(out, $($arg)*));
    }};
}
pub(crate) use say;

fn list(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{:<12} {:<14} title", "scenario", "paper_ref")?;
    for s in registry() {
        writeln!(out, "{:<12} {:<14} {}", s.name, s.paper_ref, s.title)?;
    }
    Ok(())
}

fn list_invariants(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{:<36} claim", "invariant")?;
    for inv in crate::fuzz::INVARIANTS {
        writeln!(out, "{:<36} {}", inv.name, inv.claim)?;
    }
    Ok(())
}

/// Parses a u64 that may be written in hex (`0xC0FFEE`) or decimal.
fn parse_u64(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("invalid number {v}"))
}

/// Parses an explicit worker thread count. `0` is rejected — "auto" is
/// spelled by omitting the flag, not by a zero that silently means
/// something else — and so are counts past the harness ceiling (a typo'd
/// `--threads 20000` must not spawn twenty thousand workers).
fn parse_threads(v: &str) -> Result<usize, String> {
    let n: usize = v.parse().map_err(|_| format!("invalid thread count {v}"))?;
    if n == 0 {
        return Err("thread count must be >= 1 (omit the flag to use every host core)".into());
    }
    if n > specrun_workloads::harness::MAX_THREADS {
        return Err(format!(
            "thread count {n} exceeds the ceiling of {}",
            specrun_workloads::harness::MAX_THREADS
        ));
    }
    Ok(n)
}

/// Parses a failure-rate threshold in `[0, 1]`.
fn parse_rate(v: &str) -> Result<f64, String> {
    let rate: f64 = v.parse().map_err(|_| format!("invalid rate {v}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("rate {v} is not in [0, 1]"));
    }
    Ok(rate)
}

/// Parses a comma-separated list of plan indices (`3,17,40`).
fn parse_index_list(v: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|s| {
            let index = parse_u64(s.trim())?;
            usize::try_from(index).map_err(|_| format!("plan index {index} is out of range"))
        })
        .collect()
}

#[derive(Debug)]
enum FuzzCommand {
    ListInvariants,
    Run {
        opts: Box<FuzzOptions>,
        /// `--chaos-flaky-plans`: plans whose first attempt fails.
        flaky: Vec<usize>,
    },
}

fn parse_fuzz_args(args: &[String]) -> Result<FuzzCommand, String> {
    let mut opts = FuzzOptions::default();
    let mut flaky = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list-invariants" => return Ok(FuzzCommand::ListInvariants),
            "--plans" => {
                let v = it.next().ok_or("--plans needs a count")?;
                opts.plans = parse_u64(v)?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = parse_u64(v)?;
            }
            "--shard-threads" => {
                let v = it.next().ok_or("--shard-threads needs a count")?;
                opts.threads = parse_threads(v)?;
            }
            "--quick" => opts.quick = true,
            "--fail-dir" => {
                let v = it.next().ok_or("--fail-dir needs a path")?;
                opts.fail_dir = PathBuf::from(v);
            }
            "--report" => {
                let v = it.next().ok_or("--report needs a path")?;
                opts.report_path = PathBuf::from(v);
            }
            "--invert-invariant" => {
                let v = it.next().ok_or("--invert-invariant needs a name")?;
                if crate::fuzz::find_invariant(v).is_none() {
                    return Err(format!(
                        "unknown invariant {v} (see `specrun-lab fuzz --list-invariants`)"
                    ));
                }
                opts.invert = Some(v.to_string());
            }
            "--replay" => {
                let v = it.next().ok_or("--replay needs a file")?;
                opts.replay = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a path")?;
                opts.trace = Some(PathBuf::from(v));
            }
            "--resume" => opts.resume = true,
            "--journal" => {
                let v = it.next().ok_or("--journal needs a path")?;
                opts.journal = Some(PathBuf::from(v));
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a count")?;
                opts.deadline_ms = parse_u64(v)?;
                // A deadline implies stall detection: a unit producing no
                // heartbeat for the whole deadline window is stalled, not
                // merely slow.
                opts.stall_ms = opts.deadline_ms;
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a count")?;
                opts.retries = v.parse().map_err(|_| format!("invalid retry count {v}"))?;
            }
            "--max-failure-rate" => {
                let v = it.next().ok_or("--max-failure-rate needs a rate")?;
                opts.max_failure_rate = parse_rate(v)?;
            }
            "--chaos-flaky-plans" => {
                let v = it.next().ok_or("--chaos-flaky-plans needs plan indices")?;
                flaky = parse_index_list(v)?;
            }
            other => return Err(format!("unknown fuzz option {other}")),
        }
    }
    if opts.trace.is_some() && opts.replay.is_none() {
        return Err("--trace only applies to --replay (it traces the replayed plan)".into());
    }
    Ok(FuzzCommand::Run { opts: Box::new(opts), flaky })
}

fn parse_chaos_args(args: &[String]) -> Result<ChaosOptions, String> {
    let mut opts = ChaosOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = parse_u64(v)?;
            }
            "--dir" => {
                let v = it.next().ok_or("--dir needs a path")?;
                opts.dir = Some(PathBuf::from(v));
            }
            "--drill" => {
                let v = it.next().ok_or("--drill needs a drill name")?;
                if !chaos::DRILL_NAMES.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown drill {v} (available: {})",
                        chaos::DRILL_NAMES.join(", ")
                    ));
                }
                opts.drills.push(v.to_string());
            }
            other => return Err(format!("unknown chaos option {other}")),
        }
    }
    Ok(opts)
}

/// A parsed `specrun-lab pool` invocation.
#[derive(Debug, PartialEq)]
enum PoolCommand {
    /// `pool spec`: print the paper-matrix spec document.
    Spec,
    /// `pool run SPEC.json`: execute a spec file.
    Run {
        /// The spec file to execute.
        spec_path: PathBuf,
        /// Worker threads (`0` = all host cores).
        threads: usize,
        /// Where the artifact goes.
        out: PathBuf,
    },
}

fn parse_pool_args(args: &[String]) -> Result<PoolCommand, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("spec") => match it.next() {
            None => Ok(PoolCommand::Spec),
            Some(extra) => Err(format!("unexpected pool spec argument {extra}")),
        },
        Some("run") => {
            let mut spec_path = None;
            let mut threads = 0usize;
            let mut out = PathBuf::from(crate::pool::POOL_REPORT_NAME);
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a count")?;
                        threads = parse_threads(v)?;
                    }
                    "--out" => {
                        let v = it.next().ok_or("--out needs a path")?;
                        out = PathBuf::from(v);
                    }
                    flag if flag.starts_with('-') => {
                        return Err(format!("unknown pool run option {flag}"));
                    }
                    path if spec_path.is_none() => spec_path = Some(PathBuf::from(path)),
                    extra => return Err(format!("unexpected pool run argument {extra}")),
                }
            }
            let spec_path = spec_path
                .ok_or("pool run needs a spec file (generate one with `specrun-lab pool spec`)")?;
            Ok(PoolCommand::Run { spec_path, threads, out })
        }
        Some(other) => Err(format!("unknown pool subcommand {other} (expected spec or run)")),
        None => Err("pool needs a subcommand: spec or run".into()),
    }
}

/// Executes `specrun-lab pool …`. The artifact bytes are a pure function
/// of the spec file — `--threads` changes wall-clock time, never output.
fn pool_command(args: &[String]) -> Result<i32, String> {
    match parse_pool_args(args)? {
        PoolCommand::Spec => {
            Ok(to_stdout(|out| writeln!(out, "{}", CampaignSpec::paper_matrix().to_json(0))))
        }
        PoolCommand::Run { spec_path, threads, out } => {
            // A spec that cannot be read or decoded is an input error, not
            // a usage error: one line on stderr, exit 2.
            let spec = std::fs::read_to_string(&spec_path)
                .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))
                .and_then(|text| crate::pool::parse_spec(&text));
            let spec = match spec {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(2);
                }
            };
            say!(
                "pool: {} shard(s) × {} secret(s) = {} forked session(s)",
                spec.shards.len(),
                spec.secrets.len(),
                spec.unit_count()
            );
            let cfg = SupervisorConfig { seed: spec.seed, ..SupervisorConfig::default() };
            let campaign = PoolCampaign::new(spec, out);
            Ok(campaign::execute(&campaign, threads, &cfg, &WallClock::new(), &FsSink, None))
        }
    }
}

#[derive(Debug)]
struct RunArgs {
    names: Vec<String>,
    ctx: RunContext,
    artifacts_dir: Option<PathBuf>,
    resume: bool,
    deadline_ms: u64,
    retries: u32,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut names = Vec::new();
    let mut all = false;
    let mut ctx = RunContext::full();
    let mut artifacts_dir = Some(PathBuf::from("artifacts"));
    let mut resume = false;
    let mut deadline_ms = 0u64;
    let mut retries = 0u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--quick" => ctx.quick = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a count")?;
                ctx.threads = parse_threads(v)?;
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a count")?;
                deadline_ms = parse_u64(v)?;
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a count")?;
                retries = v.parse().map_err(|_| format!("invalid retry count {v}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                ctx.seed = parse_u64(v)?;
            }
            "--artifacts-dir" => {
                let v = it.next().ok_or("--artifacts-dir needs a path")?;
                artifacts_dir = Some(PathBuf::from(v));
            }
            "--no-artifacts" => artifacts_dir = None,
            "--resume" => resume = true,
            flag if flag.starts_with('-') => return Err(format!("unknown run option {flag}")),
            name if names.iter().any(|n| n == name) => {
                // One journal key per scenario: a repeat would run twice
                // under the same key and write the same artifact twice.
                return Err(format!("scenario {name} is named more than once"));
            }
            name => names.push(name.to_string()),
        }
    }
    if all {
        if !names.is_empty() {
            return Err("pass either scenario names or --all, not both".to_string());
        }
        names = registry().iter().map(|s| s.name.to_string()).collect();
    }
    if names.is_empty() {
        return Err("no scenarios requested (name them or pass --all)".to_string());
    }
    if resume && artifacts_dir.is_none() {
        return Err("--resume needs the artifact journal; it cannot combine with --no-artifacts"
            .to_string());
    }
    Ok(RunArgs { names, ctx, artifacts_dir, resume, deadline_ms, retries })
}

/// Decodes one journaled scenario payload (`<invariant_count>
/// <escaped-artifact-json>`). `None` means the payload is malformed —
/// callers treat that as journal corruption.
fn parse_scenario_payload(payload: &str) -> Option<(usize, String)> {
    let (count, literal) = payload.split_once(' ')?;
    let count = count.parse::<usize>().ok()?;
    let text = json::unescape(literal)?;
    if !text.starts_with('{') {
        return None;
    }
    Some((count, text))
}

/// The requested scenarios as a [`Campaign`]: one unit per scenario,
/// keyed `scenario:<name>`. Only passed scenarios are journaled, as their
/// artifact text, which `--resume` splices back verbatim; anything else
/// re-runs.
struct RunCampaign {
    scenarios: Vec<Scenario>,
    ctx: RunContext,
    retries: u32,
    artifacts_dir: Option<PathBuf>,
}

impl Campaign for RunCampaign {
    type Unit = Scenario;
    type Payload = LabEntry;

    fn units(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Thread count is deliberately absent: results are thread-invariant,
    /// so a resume may use a different fan-out.
    fn header(&self) -> String {
        let names: Vec<&str> = self.scenarios.iter().map(|s| s.name).collect();
        format!("run seed={} mode={} scenarios={}", self.ctx.seed, self.ctx.mode(), names.join(","))
    }

    fn noun(&self) -> &'static str {
        "scenario"
    }

    fn key(&self, scenario: &Scenario) -> String {
        format!("scenario:{}", scenario.name)
    }

    fn run(&self, scenario: &Scenario, unit: &UnitCtx) -> Result<LabEntry, RunError> {
        // Report lines go through `to_stdout`, so a reader that closes the
        // pipe early ends the listing, never the scenario: the command
        // keeps the campaign's exit code.
        let _ = to_stdout(|out| {
            if unit.attempt == 0 {
                writeln!(
                    out,
                    "== {} ({}) — {} ==",
                    scenario.name, scenario.paper_ref, scenario.title
                )
            } else {
                writeln!(out, "  retry {} of {}", unit.attempt, self.retries)
            }
        });
        let ctx = RunContext { cancel: Some(unit.token.clone()), ..self.ctx.clone() };
        let run = (scenario.run)(&ctx)?;
        // The deadline covers the whole body, including work after its
        // last simulation: a token tripped by then is an overrun.
        if unit.token.is_cancelled() {
            let committed = unit.token.beat_committed();
            return Err(RunError::Cancelled { what: scenario.name.to_string(), committed });
        }
        Ok(run.into())
    }

    fn encode(&self, outcome: &UnitOutcome<LabEntry>) -> Option<String> {
        let UnitOutcome::Done { result: LabEntry::Run(run), .. } = outcome else { return None };
        if !run.passed() {
            return None;
        }
        let mut text = run.to_json().render();
        text.pop(); // journal entries are single-line; drop the newline
        Some(format!("{} {}", run.invariants.len(), json::escape(&text)))
    }

    fn decode(&self, scenario: &Scenario, payload: &str) -> Result<Option<LabEntry>, String> {
        let (invariant_count, json) = parse_scenario_payload(payload).ok_or_else(|| {
            format!("journaled scenario {} has a malformed payload", scenario.name)
        })?;
        Ok(Some(LabEntry::Journaled { name: scenario.name.to_string(), invariant_count, json }))
    }

    fn progress(&self, scenario: &Scenario, outcome: &UnitOutcome<LabEntry>) {
        let run = match scenario.settle(&self.ctx, outcome.clone()) {
            LabEntry::Run(run) => run,
            LabEntry::Journaled { .. } => {
                let (name, paper_ref) = (scenario.name, scenario.paper_ref);
                say!("== {name} ({paper_ref}) — journaled as passed, skipped ==\n");
                return;
            }
        };
        let _ = to_stdout(|out| {
            for line in &run.lines {
                writeln!(out, "{line}")?;
            }
            for inv in &run.invariants {
                let verdict = if inv.passed { "ok" } else { "FAILED" };
                let (name, claim, observed) = (&inv.name, &inv.claim, &inv.observed);
                writeln!(out, "  [{verdict}] {name}: {claim} (observed: {observed})")?;
            }
            if let Some(error) = &run.error {
                writeln!(out, "  [FAILED] run_error: scenario did not complete ({error})")?;
            }
            if let UnitOutcome::Quarantined { .. } = outcome {
                let name = &run.name;
                writeln!(
                    out,
                    "  [FAILED] quarantined: {name} failed identically twice; retries stopped"
                )?;
            }
            writeln!(out)
        });
    }

    fn render(&self, report: SupervisedReport<LabEntry>) -> Rendered {
        let runs = self.scenarios.iter().zip(report.outcomes);
        let report = LabReport { runs: runs.map(|(s, o)| s.settle(&self.ctx, o)).collect() };
        let artifacts: Artifacts =
            self.artifacts_dir.as_deref().map(|dir| report.artifacts(dir)).unwrap_or_default();
        let failures = report.failures();
        let verdict = if failures.is_empty() {
            format!(
                "all {} invariants passed across {} scenario(s) [{} mode]",
                report.invariant_count(),
                report.runs.len(),
                self.ctx.mode()
            )
        } else {
            let mut lines = Vec::new();
            if report.partial_results() {
                lines.push("results are PARTIAL: at least one scenario died with a run error");
            }
            lines.push("paper-claim invariants FAILED:");
            let mut verdict = lines.join("\n");
            for (scenario, invariant) in &failures {
                verdict.push_str(&format!("\n  {scenario}: {invariant}"));
            }
            verdict
        };
        Rendered { artifacts, passed: failures.is_empty(), verdict }
    }
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let RunArgs { names, ctx, artifacts_dir, resume, deadline_ms, retries } = parse_run_args(args)?;
    let scenarios = names
        .iter()
        .map(|name| {
            find(name).ok_or_else(|| format!("unknown scenario {name} (see `specrun-lab list`)"))
        })
        .collect::<Result<_, _>>()?;
    // The campaign journal lives beside the artifacts.
    let journal = artifacts_dir.as_ref().map(|dir| {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
        }
        dir.join("LAB_report.journal")
    });
    let cfg = SupervisorConfig { deadline_ms, retries, seed: ctx.seed, ..Default::default() };
    let campaign = RunCampaign { scenarios, ctx, retries, artifacts_dir };
    // One scenario at a time: each fans its own trials out over
    // `--threads`.
    let journal = journal.as_deref().map(|path| (path, resume));
    Ok(campaign::execute(&campaign, 1, &cfg, &WallClock::new(), &FsSink, journal))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_quick() {
        let parsed = parse_run_args(&strings(&["--all", "--quick"])).unwrap();
        assert_eq!(parsed.names.len(), registry().len());
        assert!(parsed.ctx.quick);
        assert_eq!(parsed.artifacts_dir, Some(PathBuf::from("artifacts")));
    }

    #[test]
    fn parses_subset_with_options() {
        let parsed = parse_run_args(&strings(&[
            "fig7",
            "table1",
            "--threads",
            "2",
            "--seed",
            "7",
            "--artifacts-dir",
            "/tmp/a",
        ]))
        .unwrap();
        assert_eq!(parsed.names, vec!["fig7", "table1"]);
        assert_eq!(parsed.ctx.threads, 2);
        assert_eq!(parsed.ctx.seed, 7);
        assert_eq!(parsed.artifacts_dir, Some(PathBuf::from("/tmp/a")));
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse_run_args(&strings(&[])).is_err(), "no scenarios");
        assert!(parse_run_args(&strings(&["--all", "fig7"])).is_err(), "names plus --all");
        assert!(parse_run_args(&strings(&["--bogus"])).is_err(), "unknown flag");
        assert!(parse_run_args(&strings(&["--threads"])).is_err(), "missing value");
        let err = parse_run_args(&strings(&["table1", "fig9", "table1"])).unwrap_err();
        assert!(err.contains("scenario table1 is named more than once"), "{err}");
    }

    #[test]
    fn no_artifacts_disables_emission() {
        let parsed = parse_run_args(&strings(&["table1", "--no-artifacts"])).unwrap();
        assert_eq!(parsed.artifacts_dir, None);
    }

    #[test]
    fn unknown_scenario_is_reported() {
        let err = run_command(&strings(&["fig12", "--no-artifacts"])).unwrap_err();
        assert!(err.contains("unknown scenario fig12"), "{err}");
    }

    #[test]
    fn parses_hex_and_decimal_seeds() {
        assert_eq!(parse_u64("0xC0FFEE").unwrap(), 0xC0FFEE);
        assert_eq!(parse_u64("0Xc0ffee").unwrap(), 0xC0FFEE);
        assert_eq!(parse_u64("12648430").unwrap(), 0xC0FFEE);
        assert!(parse_u64("0xZZ").is_err());
        assert!(parse_u64("nope").is_err());
        let parsed = parse_run_args(&strings(&["fig7", "--seed", "0x10"])).unwrap();
        assert_eq!(parsed.ctx.seed, 16);
    }

    #[test]
    fn parses_fuzz_options() {
        let cmd = parse_fuzz_args(&strings(&[
            "--plans",
            "50",
            "--seed",
            "0xC0FFEE",
            "--shard-threads",
            "4",
            "--quick",
            "--fail-dir",
            "/tmp/ff",
            "--report",
            "/tmp/r.json",
            "--invert-invariant",
            "makes_progress",
        ]))
        .unwrap();
        let FuzzCommand::Run { opts, .. } = cmd else { panic!("expected a run command") };
        assert_eq!(opts.plans, 50);
        assert_eq!(opts.seed, 0xC0FFEE);
        assert_eq!(opts.threads, 4);
        assert!(opts.quick);
        assert_eq!(opts.fail_dir, PathBuf::from("/tmp/ff"));
        assert_eq!(opts.report_path, PathBuf::from("/tmp/r.json"));
        assert_eq!(opts.invert.as_deref(), Some("makes_progress"));
    }

    #[test]
    fn parses_resume_flags() {
        let parsed = parse_run_args(&strings(&["--all", "--quick", "--resume"])).unwrap();
        assert!(parsed.resume);
        let err = parse_run_args(&strings(&["fig7", "--resume", "--no-artifacts"])).unwrap_err();
        assert!(err.contains("--resume"), "{err}");

        let cmd = parse_fuzz_args(&strings(&["--resume", "--journal", "/tmp/j.journal"])).unwrap();
        let FuzzCommand::Run { opts, .. } = cmd else { panic!("expected a run command") };
        assert!(opts.resume);
        assert_eq!(opts.journal, Some(PathBuf::from("/tmp/j.journal")));
    }

    #[test]
    fn parses_chaos_options() {
        let opts =
            parse_chaos_args(&strings(&["--quick", "--seed", "0x7", "--dir", "/tmp/c"])).unwrap();
        assert!(opts.quick);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.dir, Some(PathBuf::from("/tmp/c")));
        assert!(parse_chaos_args(&strings(&["--bogus"])).is_err(), "unknown flag");
        assert!(parse_chaos_args(&strings(&["--seed"])).is_err(), "missing value");
    }

    #[test]
    fn scenario_payload_round_trips() {
        let text = "{\"name\": \"fig7\"}";
        let payload = format!("3 {}", json::escape(text));
        assert_eq!(parse_scenario_payload(&payload), Some((3, text.to_string())));
        assert_eq!(parse_scenario_payload("x {}"), None, "bad count");
        assert_eq!(parse_scenario_payload("3"), None, "no payload");
        assert_eq!(parse_scenario_payload("3 not-json"), None, "not an object");
    }

    #[test]
    fn rejects_zero_and_absurd_thread_counts() {
        for flag in [&["fig7", "--threads", "0"][..], &["fig7", "--threads", "100000"][..]] {
            let err = parse_run_args(&strings(flag)).unwrap_err();
            assert!(err.contains("thread count"), "{err}");
        }
        let err = parse_fuzz_args(&strings(&["--shard-threads", "0"])).unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        let err = parse_fuzz_args(&strings(&["--shard-threads", "99999"])).unwrap_err();
        assert!(err.contains("ceiling"), "{err}");
        assert!(parse_threads("8").is_ok());
    }

    #[test]
    fn parses_supervision_options() {
        let cmd = parse_fuzz_args(&strings(&[
            "--deadline-ms",
            "5000",
            "--retries",
            "2",
            "--max-failure-rate",
            "0.25",
            "--chaos-flaky-plans",
            "3,17",
        ]))
        .unwrap();
        let FuzzCommand::Run { opts, flaky } = cmd else { panic!("expected a run command") };
        assert_eq!(opts.deadline_ms, 5000);
        assert_eq!(opts.stall_ms, 5000, "a deadline arms stall detection");
        assert_eq!(opts.retries, 2);
        assert_eq!(opts.max_failure_rate, 0.25);
        assert_eq!(flaky, vec![3, 17]);
        assert!(parse_fuzz_args(&strings(&["--max-failure-rate", "1.5"])).is_err());
        assert!(parse_fuzz_args(&strings(&["--max-failure-rate", "-0.1"])).is_err());
        assert!(parse_fuzz_args(&strings(&["--chaos-flaky-plans", "1,x"])).is_err());

        let parsed =
            parse_run_args(&strings(&["fig7", "--deadline-ms", "9000", "--retries", "1"])).unwrap();
        assert_eq!(parsed.deadline_ms, 9000);
        assert_eq!(parsed.retries, 1);
    }

    #[test]
    fn parses_and_validates_drill_filters() {
        let opts = parse_chaos_args(&strings(&[
            "--quick",
            "--drill",
            "stalled_unit",
            "--drill",
            "deadline_overrun",
        ]))
        .unwrap();
        assert_eq!(opts.drills, vec!["stalled_unit", "deadline_overrun"]);
        let err = parse_chaos_args(&strings(&["--drill", "nope"])).unwrap_err();
        assert!(err.contains("unknown drill nope"), "{err}");
        assert!(err.contains("stalled_unit"), "lists the available drills: {err}");
    }

    #[test]
    fn parses_pool_commands() {
        assert_eq!(parse_pool_args(&strings(&["spec"])).unwrap(), PoolCommand::Spec);
        let parsed =
            parse_pool_args(&strings(&["run", "matrix.json", "--threads", "4", "--out", "/tmp/p"]))
                .unwrap();
        assert_eq!(
            parsed,
            PoolCommand::Run {
                spec_path: PathBuf::from("matrix.json"),
                threads: 4,
                out: PathBuf::from("/tmp/p"),
            }
        );
        let defaults = parse_pool_args(&strings(&["run", "matrix.json"])).unwrap();
        assert_eq!(
            defaults,
            PoolCommand::Run {
                spec_path: PathBuf::from("matrix.json"),
                threads: 0,
                out: PathBuf::from(crate::pool::POOL_REPORT_NAME),
            }
        );
    }

    #[test]
    fn rejects_bad_pool_usage() {
        assert!(parse_pool_args(&strings(&[])).is_err(), "no subcommand");
        assert!(parse_pool_args(&strings(&["bogus"])).is_err(), "unknown subcommand");
        assert!(parse_pool_args(&strings(&["spec", "extra"])).is_err(), "spec takes nothing");
        assert!(parse_pool_args(&strings(&["run"])).is_err(), "run needs a spec file");
        assert!(parse_pool_args(&strings(&["run", "a.json", "b.json"])).is_err(), "one spec only");
        assert!(parse_pool_args(&strings(&["run", "a.json", "--bogus"])).is_err(), "unknown flag");
        assert!(parse_pool_args(&strings(&["run", "a.json", "--threads", "0"])).is_err());
        // An unreadable spec is an input error (exit 2), not a usage error.
        assert_eq!(pool_command(&strings(&["run", "/nonexistent/spec.json"])), Ok(2));
    }

    #[test]
    fn pool_spec_document_round_trips_through_the_decoder() {
        // What `specrun-lab pool spec` prints is exactly what
        // `specrun-lab pool run` accepts.
        let printed = CampaignSpec::paper_matrix().to_json(0);
        assert_eq!(crate::pool::parse_spec(&printed).unwrap(), CampaignSpec::paper_matrix());
    }

    #[test]
    fn parses_replay_trace() {
        let cmd = parse_fuzz_args(&strings(&["--replay", "fail_3.json", "--trace", "/tmp/t.bin"]))
            .unwrap();
        let FuzzCommand::Run { opts, .. } = cmd else { panic!("expected a run command") };
        assert_eq!(opts.replay, Some(PathBuf::from("fail_3.json")));
        assert_eq!(opts.trace, Some(PathBuf::from("/tmp/t.bin")));
        let err = parse_fuzz_args(&strings(&["--trace", "/tmp/t.bin"])).unwrap_err();
        assert!(err.contains("--replay"), "trace without replay is rejected: {err}");
    }

    #[test]
    fn rejects_bad_fuzz_usage() {
        assert!(parse_fuzz_args(&strings(&["--plans"])).is_err(), "missing value");
        assert!(parse_fuzz_args(&strings(&["--bogus"])).is_err(), "unknown flag");
        let err = parse_fuzz_args(&strings(&["--invert-invariant", "nope"])).unwrap_err();
        assert!(err.contains("unknown invariant nope"), "{err}");
        assert!(matches!(
            parse_fuzz_args(&strings(&["--list-invariants"])).unwrap(),
            FuzzCommand::ListInvariants
        ));
    }
}
