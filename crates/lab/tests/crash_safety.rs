//! Binary-level crash-safety tests: a SIGKILLed campaign resumes from its
//! journal to a byte-identical report, journals written by an earlier
//! build (the committed fixtures) still resume, foreign journals are
//! refused, artifact-write failures exit 2 and keep the journal for every
//! journaled shape, `pool run` reports IO errors in one line, a `run`
//! deadline cancels a scenario instead of waiting for it, a scenario
//! named twice is refused before anything is journaled, and a listing,
//! trace report or campaign whose reader closes the pipe keeps its exit
//! code without a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn lab_bin() -> &'static str {
    env!("CARGO_BIN_EXE_specrun-lab")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specrun-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Wait until `path` exists and holds at least `lines` newline-terminated
/// lines (header + entries), or the deadline passes.
fn wait_for_lines(path: &Path, lines: usize, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Ok(text) = std::fs::read_to_string(path) {
            if text.lines().count() >= lines {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A single-threaded 200-plan quick fuzz campaign, plus `extra`.
fn fuzz_200_args(report: &Path, fail_dir: &Path, extra: &[&str]) -> Vec<String> {
    let (report, fail_dir) = (report.display().to_string(), fail_dir.display().to_string());
    let base = ["fuzz", "--plans", "200", "--quick", "--shard-threads", "1", "--report", &report];
    let tail = ["--fail-dir", &fail_dir];
    base.iter().chain(&tail).chain(extra).map(|a| a.to_string()).collect()
}

#[test]
fn sigkilled_fuzz_campaign_resumes_byte_identically() {
    let dir = scratch("fuzz");
    let report = dir.join("FUZZ_report.json");
    let journal = dir.join("FUZZ_report.json.journal");
    let fail_dir = dir.join("fail");
    let args = |extra: &[&str]| fuzz_200_args(&report, &fail_dir, extra);

    // Reference: the same campaign, uninterrupted.
    let ref_report = dir.join("reference.json");
    let status = Command::new(lab_bin())
        .args(args(&[]))
        .stdout(Stdio::null())
        .status()
        .expect("spawn reference fuzz");
    assert!(status.success(), "reference campaign must pass");
    std::fs::rename(&report, &ref_report).expect("stash reference report");

    // Interrupted run: SIGKILL once the journal holds a few completed plans.
    let mut child = Command::new(lab_bin())
        .args(args(&[]))
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn fuzz to interrupt");
    let journaled = wait_for_lines(&journal, 4, Duration::from_secs(30));
    let _ = child.kill(); // SIGKILL on unix: no cleanup runs
    let _ = child.wait();

    if journaled && !report.exists() {
        assert!(journal.exists(), "the journal survives the kill");
    }
    // (If the campaign raced to completion before the kill, --resume below
    // simply starts fresh — the byte-identity assertion still holds.)

    let status = Command::new(lab_bin())
        .args(args(&["--resume"]))
        .stdout(Stdio::null())
        .status()
        .expect("spawn resumed fuzz");
    assert!(status.success(), "resumed campaign must pass");

    let resumed = std::fs::read(&report).expect("resumed report");
    let reference = std::fs::read(&ref_report).expect("reference report");
    assert_eq!(resumed, reference, "resume must reproduce the reference bytes exactly");
    assert!(!journal.exists(), "the journal retires once the report is durable");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_supervised_campaign_never_double_counts_retries() {
    let dir = scratch("retry");
    let report = dir.join("FUZZ_report.json");
    let journal = dir.join("FUZZ_report.json.journal");
    let fail_dir = dir.join("fail");
    let args = |extra: &[&str]| fuzz_200_args(&report, &fail_dir, extra);
    // The injected flakes fail each plan's first attempt and heal on the
    // retry, so the supervised campaign exercises the full retry path but
    // must still converge on the unsupervised reference bytes.
    let supervised = ["--retries", "2", "--chaos-flaky-plans", "0,7,19,41,87,143"];

    // Reference: the same campaign with no supervision flags at all.
    let ref_report = dir.join("reference.json");
    let status = Command::new(lab_bin())
        .args(args(&[]))
        .stdout(Stdio::null())
        .status()
        .expect("spawn reference fuzz");
    assert!(status.success(), "reference campaign must pass");
    std::fs::rename(&report, &ref_report).expect("stash reference report");

    // Supervised run, SIGKILLed while retries are still in flight.
    let mut child = Command::new(lab_bin())
        .args(args(&supervised))
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn supervised fuzz to interrupt");
    wait_for_lines(&journal, 6, Duration::from_secs(30));
    let _ = child.kill();
    let _ = child.wait();

    // The journal records *final* attempts only: every plan key appears at
    // most once, and a healed flaky plan is journaled as a plain success.
    let text = std::fs::read_to_string(&journal).expect("journal survives the kill");
    let mut seen = std::collections::HashSet::new();
    for line in text.lines().skip(1) {
        // Entry lines read `e <key> [payload] <digest>`; a torn tail may
        // lack the digest but the key field is still second.
        let Some(key) = line.split_whitespace().nth(1) else { continue };
        assert!(seen.insert(key.to_string()), "journal double-counts {key}:\n{text}");
    }
    if let Some(line) = text.lines().find(|l| l.starts_with("e plan:0 ")) {
        assert!(line.contains(" ok "), "flaky plan 0 heals before it is journaled: {line}");
    }

    // Resume under the same flags: retries replay deterministically and the
    // report matches the flag-free reference byte for byte.
    let status = Command::new(lab_bin())
        .args(args(&supervised))
        .arg("--resume")
        .stdout(Stdio::null())
        .status()
        .expect("spawn resumed supervised fuzz");
    assert!(status.success(), "resumed supervised campaign must pass");
    let resumed = std::fs::read(&report).expect("resumed report");
    let reference = std::fs::read(&ref_report).expect("reference report");
    assert_eq!(resumed, reference, "supervision flags must never change the report bytes");
    assert!(!journal.exists(), "the journal retires once the report is durable");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_run_campaign_resumes_byte_identically() {
    let dir = scratch("run");
    let ref_dir = dir.join("reference");
    let cut_dir = dir.join("interrupted");
    // `table1` takes milliseconds and `fig7` most of the run, so the kill
    // lands while `fig7` runs, after `table1`'s pass is journaled.
    let run_args = |artifacts: &Path, extra: &[&str]| {
        let mut v = vec![
            "run".to_string(),
            "table1".into(),
            "fig7".into(),
            "--quick".into(),
            "--artifacts-dir".into(),
            artifacts.display().to_string(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    let status = Command::new(lab_bin())
        .args(run_args(&ref_dir, &[]))
        .stdout(Stdio::null())
        .status()
        .expect("spawn reference run");
    assert!(status.success(), "reference run must pass");

    let journal = cut_dir.join("LAB_report.journal");
    let mut child = Command::new(lab_bin())
        .args(run_args(&cut_dir, &[]))
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn run to interrupt");
    assert!(wait_for_lines(&journal, 2, Duration::from_secs(60)), "table1 is journaled");
    assert!(child.try_wait().expect("poll the run").is_none(), "the kill lands mid-campaign");
    let _ = child.kill();
    let _ = child.wait();

    let status = Command::new(lab_bin())
        .args(run_args(&cut_dir, &["--resume"]))
        .stdout(Stdio::null())
        .status()
        .expect("spawn resumed run");
    assert!(status.success(), "resumed run must pass");

    for name in ["LAB_report.json", "fig7.json", "table1.json"] {
        let reference = std::fs::read(ref_dir.join(name)).expect(name);
        let resumed = std::fs::read(cut_dir.join(name)).expect(name);
        assert_eq!(resumed, reference, "{name} must be byte-identical after resume");
    }
    assert!(!journal.exists(), "the journal retires once artifacts are durable");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the binary in `dir` and returns its stdout, asserting exit 0.
fn lab_ok(dir: &Path, args: &[&str]) -> String {
    let output =
        Command::new(lab_bin()).current_dir(dir).args(args).output().expect("spawn specrun-lab");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "specrun-lab {args:?} failed:\n{stderr}");
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn committed_journal_fixtures_resume_to_fresh_report_bytes() {
    // The fixtures are journals an earlier build left behind: the `run`
    // one holds the `table1` entry, the fuzz one the first two plans. A
    // build that still reads them recovers those units and reproduces a
    // fresh run's report byte for byte, pinning the journal header and
    // entry formats across commits.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = scratch("fixtures");

    let run = ["run", "table1", "fig9", "--quick", "--artifacts-dir"];
    lab_ok(&dir, &[&run[..], &["fresh"]].concat());
    std::fs::create_dir_all(dir.join("resumed")).expect("create resumed dir");
    std::fs::copy(
        fixtures.join("run_table1_fig9_quick.journal"),
        dir.join("resumed/LAB_report.journal"),
    )
    .expect("install run fixture");
    let stdout = lab_ok(&dir, &[&run[..], &["resumed", "--resume"]].concat());
    assert!(stdout.contains("resumed: 1 scenario(s)"), "table1 is recovered:\n{stdout}");
    for name in ["LAB_report.json", "table1.json", "fig9.json"] {
        let fresh = std::fs::read(dir.join("fresh").join(name)).expect(name);
        let resumed = std::fs::read(dir.join("resumed").join(name)).expect(name);
        assert_eq!(resumed, fresh, "{name} from the run fixture differs from a fresh run");
    }
    assert!(!dir.join("resumed/LAB_report.journal").exists(), "the journal retires");

    let fuzz = ["fuzz", "--plans", "4", "--quick", "--fail-dir", "fail", "--report"];
    lab_ok(&dir, &[&fuzz[..], &["fresh.json"]].concat());
    std::fs::copy(fixtures.join("fuzz_4_quick.journal"), dir.join("resumed.json.journal"))
        .expect("install fuzz fixture");
    let stdout = lab_ok(&dir, &[&fuzz[..], &["resumed.json", "--resume"]].concat());
    assert!(stdout.contains("resumed: 2 plan(s)"), "plans 0 and 1 are recovered:\n{stdout}");
    let fresh = std::fs::read(dir.join("fresh.json")).expect("fresh fuzz report");
    let resumed = std::fs::read(dir.join("resumed.json")).expect("resumed fuzz report");
    assert_eq!(resumed, fresh, "the fuzz fixture's report differs from a fresh run");
    assert!(!dir.join("resumed.json.journal").exists(), "the journal retires");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The two journaled shapes over one scratch dir: `(args, report path,
/// journal path)` for a 2-plan quick `fuzz` and a quick `run table1`.
fn journaled_shapes(dir: &Path) -> [(Vec<String>, PathBuf, PathBuf); 2] {
    let s = |p: &Path| p.display().to_string();
    let fuzz_report = dir.join("FUZZ_report.json");
    let fuzz = ["fuzz", "--plans", "2", "--quick", "--report", &s(&fuzz_report), "--fail-dir"];
    let mut fuzz: Vec<String> = fuzz.iter().map(|a| a.to_string()).collect();
    fuzz.push(s(&dir.join("fail")));
    let artifacts = dir.join("artifacts");
    let run = ["run", "table1", "--quick", "--artifacts-dir", &s(&artifacts)];
    let run: Vec<String> = run.iter().map(|a| a.to_string()).collect();
    [
        (fuzz, fuzz_report, dir.join("FUZZ_report.json.journal")),
        (run, artifacts.join("LAB_report.json"), artifacts.join("LAB_report.journal")),
    ]
}

#[test]
fn foreign_journal_is_refused_with_exit_2() {
    let dir = scratch("foreign");
    for (args, report, journal) in journaled_shapes(&dir) {
        std::fs::create_dir_all(journal.parent().unwrap()).expect("create journal dir");
        std::fs::write(&journal, "not a specrun journal\n").expect("seed foreign journal");

        let output = Command::new(lab_bin())
            .args(&args)
            .arg("--resume")
            .output()
            .expect("spawn with a foreign journal");
        assert_eq!(output.status.code(), Some(2), "{args:?}: journal corruption is a hard error");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("cannot resume"), "stderr explains the refusal:\n{stderr}");
        assert!(stderr.contains("delete the journal"), "stderr offers the way out:\n{stderr}");
        assert!(!report.exists(), "{args:?}: no report is written from a refused resume");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_report_path_exits_2_and_keeps_the_journal() {
    let dir = scratch("unwritable");
    for (args, report, journal) in journaled_shapes(&dir) {
        // A directory at the report path makes the final rename fail after
        // a full, healthy campaign — the journal must survive for a retry.
        std::fs::create_dir_all(&report).expect("squat on the report path");

        let output =
            Command::new(lab_bin()).args(&args).output().expect("spawn with unwritable report");
        assert_eq!(output.status.code(), Some(2), "{args:?}: a failed write is a hard error");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("journal is kept"), "stderr points at the journal:\n{stderr}");
        assert!(journal.exists(), "{args:?}: the journal survives the write failure");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pool_run_io_errors_exit_2_with_one_stderr_line() {
    let dir = scratch("pool_io");
    let spec = dir.join("matrix.json");
    let output = Command::new(lab_bin()).args(["pool", "spec"]).output().expect("spawn pool spec");
    std::fs::write(&spec, &output.stdout).expect("write the spec");
    let bad_spec = dir.join("bad.json");
    std::fs::write(&bad_spec, "{\"pool_spec\": \"specrun\", \"bogus\": 1}\n").expect("bad spec");
    let missing_dir = dir.join("missing/POOL_report.json");

    for (spec, out) in [(&spec, &missing_dir), (&bad_spec, &dir.join("POOL_report.json"))] {
        let output = Command::new(lab_bin())
            .args(["pool", "run", &spec.display().to_string(), "--threads", "1", "--out"])
            .arg(out)
            .output()
            .expect("spawn pool run");
        assert_eq!(output.status.code(), Some(2), "{}: an IO error exits 2", spec.display());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr.lines().count(), 1, "one stderr line, no usage text:\n{stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(!out.exists(), "no artifact is written");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_deadline_cancels_the_scenario_and_reports_the_overrun() {
    // Full-scale fig7 takes far longer than 1 ms; the monitor trips the
    // scenario's token and every kernel run stops at its next checkpoint.
    let output = Command::new(lab_bin())
        .args(["run", "fig7", "--threads", "1", "--deadline-ms", "1", "--retries", "1"])
        .arg("--no-artifacts")
        .output()
        .expect("spawn run with a 1 ms deadline");
    assert_eq!(output.status.code(), Some(1), "an overrun is a failed scenario, not a usage error");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("deadline exceeded"), "stdout names the overrun:\n{stdout}");
}

#[test]
fn run_refuses_a_repeated_scenario_name_with_exit_2() {
    // Two units under one journal key would both be journaled and both
    // write `table1.json`; the repeat is a usage error instead.
    let dir = scratch("repeat");
    let artifacts = dir.join("artifacts");
    let output = Command::new(lab_bin())
        .args(["run", "table1", "table1", "--quick", "--artifacts-dir"])
        .arg(&artifacts)
        .output()
        .expect("spawn run with a repeated name");
    assert_eq!(output.status.code(), Some(2), "a repeated name is a usage error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("scenario table1 is named more than once"), "{stderr}");
    assert!(output.stdout.is_empty(), "no scenario ran");
    assert!(!artifacts.exists(), "no journal or artifact is written");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn listings_exit_0_quietly_when_the_reader_closes_the_pipe() {
    for args in [&["list"][..], &["fuzz", "--list-invariants"], &["pool", "spec"]] {
        let mut child = Command::new(lab_bin())
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn a listing");
        // The reader goes away before the listing is written, as
        // `specrun-lab list | true` does.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("wait for the listing");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: a closed pipe is not an error");
        assert!(!stderr.contains("panicked"), "{args:?}: no panic on a closed pipe:\n{stderr}");
    }
}

/// Runs `specrun-lab args` with its stdout closed before anything is
/// written, as `specrun-lab … | true` does, and returns the exit code.
fn exit_code_with_closed_stdout(args: &[&str]) -> Option<i32> {
    let mut child = Command::new(lab_bin())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn specrun-lab");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for specrun-lab");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: no panic on a closed pipe:\n{stderr}");
    output.status.code()
}

#[test]
fn run_and_help_keep_their_exit_code_when_the_reader_closes_the_pipe() {
    let run = ["run", "table1", "--quick", "--no-artifacts"];
    assert_eq!(exit_code_with_closed_stdout(&run), Some(0), "{run:?}");
    assert_eq!(exit_code_with_closed_stdout(&["--help"]), Some(0), "--help");
    assert_eq!(
        exit_code_with_closed_stdout(&[]),
        Some(1),
        "a bare invocation stays a usage error on a closed pipe"
    );
}

#[test]
fn trace_reports_keep_their_exit_code_when_the_reader_closes_the_pipe() {
    let dir = scratch("trace-pipe");
    let (ra, sec) = (dir.join("ra.bin"), dir.join("sec.bin"));
    let (ra, sec) = (ra.to_str().unwrap(), sec.to_str().unwrap());
    for (path, policy) in [(ra, "runahead"), (sec, "secure")] {
        let args = ["trace", "record", "--policy", policy, "--out", path];
        assert_eq!(exit_code_with_closed_stdout(&args), Some(0), "{args:?}");
        assert!(Path::new(path).exists(), "{policy}: the log is written before the report");
    }
    assert_eq!(exit_code_with_closed_stdout(&["trace", "replay", ra]), Some(0));
    assert_eq!(exit_code_with_closed_stdout(&["trace", "diff", ra, ra]), Some(0));
    assert_eq!(
        exit_code_with_closed_stdout(&["trace", "diff", ra, sec]),
        Some(1),
        "a closed pipe does not hide the divergence verdict"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaigns_keep_their_exit_code_when_the_reader_closes_the_pipe() {
    let dir = scratch("campaign-pipe");
    let path = |name: &str| dir.join(name).display().to_string();

    let spec = Command::new(lab_bin()).args(["pool", "spec"]).output().expect("spawn pool spec");
    std::fs::write(dir.join("matrix.json"), &spec.stdout).expect("write the spec");
    let pool = ["pool", "run", &path("matrix.json"), "--threads", "1", "--out", &path("pool.json")];
    assert_eq!(exit_code_with_closed_stdout(&pool), Some(0), "{pool:?}");
    assert!(dir.join("pool.json").exists(), "the pool report is written");

    let report = path("FUZZ_report.json");
    let fuzz =
        ["fuzz", "--plans", "2", "--quick", "--report", &report, "--fail-dir", &path("fail")];
    assert_eq!(exit_code_with_closed_stdout(&fuzz), Some(0), "{fuzz:?}");
    assert!(Path::new(&report).exists(), "the fuzz report is written");
    assert!(!Path::new(&format!("{report}.journal")).exists(), "the fuzz journal is retired");

    let chaos = ["chaos", "--quick", "--drill", "stalled_unit", "--dir", &path("chaos")];
    assert_eq!(exit_code_with_closed_stdout(&chaos), Some(0), "{chaos:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
