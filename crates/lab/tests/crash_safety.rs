//! Binary-level crash-safety tests: a SIGKILLed campaign resumes from its
//! journal to a byte-identical report, foreign journals are refused,
//! artifact-write failures exit non-zero without corrupting prior output,
//! and a `run` deadline cancels a scenario instead of waiting for it.

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

#[test]
fn sigkilled_fuzz_campaign_resumes_byte_identically() {
    let dir = scratch("fuzz");
    let report = dir.join("FUZZ_report.json");
    let journal = dir.join("FUZZ_report.json.journal");
    let fail_dir = dir.join("fail");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "fuzz".to_string(),
            "--plans".into(),
            "200".into(),
            "--quick".into(),
            "--shard-threads".into(),
            "1".into(),
            "--report".into(),
            report.display().to_string(),
            "--fail-dir".into(),
            fail_dir.display().to_string(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

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
    let args = |extra: &[&str]| {
        let mut v = vec![
            "fuzz".to_string(),
            "--plans".into(),
            "200".into(),
            "--quick".into(),
            "--shard-threads".into(),
            "1".into(),
            "--report".into(),
            report.display().to_string(),
            "--fail-dir".into(),
            fail_dir.display().to_string(),
        ];
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };
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
    let run_args = |artifacts: &Path, extra: &[&str]| {
        let mut v = vec![
            "run".to_string(),
            "fig7".into(),
            "table1".into(),
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
    wait_for_lines(&journal, 2, Duration::from_secs(60));
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

#[test]
fn foreign_journal_is_refused_with_exit_2() {
    let dir = scratch("foreign");
    let report = dir.join("FUZZ_report.json");
    let journal = dir.join("FUZZ_report.json.journal");
    std::fs::write(&journal, "not a specrun journal\n").expect("seed foreign journal");

    let output = Command::new(lab_bin())
        .args([
            "fuzz",
            "--plans",
            "2",
            "--quick",
            "--resume",
            "--report",
            &report.display().to_string(),
            "--fail-dir",
            &dir.join("fail").display().to_string(),
        ])
        .output()
        .expect("spawn fuzz with foreign journal");
    assert_eq!(output.status.code(), Some(2), "journal corruption is a hard error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot resume"), "stderr explains the refusal:\n{stderr}");
    assert!(stderr.contains("delete the journal"), "stderr offers the way out:\n{stderr}");
    assert!(!report.exists(), "no report is written from a refused resume");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_report_path_exits_2_and_keeps_the_journal() {
    let dir = scratch("unwritable");
    // A directory at the report path makes the final rename fail after a
    // full, healthy campaign — the journal must survive for a retry.
    let report = dir.join("FUZZ_report.json");
    std::fs::create_dir_all(&report).expect("squat on the report path");

    let output = Command::new(lab_bin())
        .args([
            "fuzz",
            "--plans",
            "2",
            "--quick",
            "--report",
            &report.display().to_string(),
            "--fail-dir",
            &dir.join("fail").display().to_string(),
        ])
        .output()
        .expect("spawn fuzz with unwritable report");
    assert_eq!(output.status.code(), Some(2), "artifact-write failure is a hard error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("journal is kept"), "stderr points at the journal:\n{stderr}");
    assert!(dir.join("FUZZ_report.json.journal").exists(), "journal survives the write failure");

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
