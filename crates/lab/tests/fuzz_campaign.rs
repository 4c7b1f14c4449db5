//! End-to-end tests of the fuzz campaign: byte stability across runs and
//! thread counts, and the inverted-invariant failure pipeline (shrink +
//! replayable fail file + failing status).

use std::path::PathBuf;

use specrun_lab::fuzz::{self, FuzzOptions};
use specrun_lab::FsSink;

fn quick_opts(plans: u64, threads: usize) -> FuzzOptions {
    FuzzOptions { plans, seed: 0xC0FFEE, threads, quick: true, ..FuzzOptions::default() }
}

#[test]
fn campaign_is_byte_stable_across_runs_and_thread_counts() {
    let first = fuzz::campaign(&quick_opts(12, 1));
    let again = fuzz::campaign(&quick_opts(12, 1));
    assert_eq!(first.report, again.report, "same seed, same bytes");

    let sharded = fuzz::campaign(&quick_opts(12, 4));
    assert_eq!(first.report, sharded.report, "thread count must not show in the artifact");

    assert!(first.passed(), "the healthy simulator violates no invariant:\n{}", first.report);
    assert_eq!(first.panics, 0);
    assert!(first.report.contains("\"passed\": true"));
    assert!(first.report.contains("\"campaign_seed\": \"12648430\""));
    // Every invariant is listed, including those with zero applicable plans.
    for inv in fuzz::INVARIANTS {
        assert!(first.report.contains(&format!("\"{}\"", inv.name)), "missing {}", inv.name);
    }
}

#[test]
fn inverted_invariant_drives_the_failure_pipeline() {
    // `makes_progress` holds on every plan, so inverting it makes every
    // plan a failing case — exercising shrink + serialization without
    // needing a real simulator bug.
    let opts = FuzzOptions { invert: Some("makes_progress".to_string()), ..quick_opts(2, 2) };
    let result = fuzz::campaign(&opts);

    assert!(!result.passed());
    assert_eq!(result.failures.len(), 2, "every plan fails under the inversion");
    assert!(result.report.contains("\"passed\": false"));
    assert!(result.report.contains("\"inverted_invariant\": \"makes_progress\""));

    let case = &result.failures[0];
    assert_eq!(case.violated, vec!["makes_progress".to_string()]);
    assert_eq!(case.file_name, format!("fail_{}.json", case.plan_index));
    // The shrunk plan is the grammar's floor: the inverted predicate holds
    // for every plan, so shrinking runs all the way down.
    assert!(case.shrunk.weight() < 10_000, "shrunk weight {} not minimal", case.shrunk.weight());
    for key in
        ["\"fuzz_fail\"", "\"campaign_seed\"", "\"plan_index\"", "\"plan\"", "\"shrunk_plan\""]
    {
        assert!(case.file_body.contains(key), "fail file missing {key}:\n{}", case.file_body);
    }
    assert!(case.file_body.contains("inverted predicate"));
}

#[test]
fn replay_reproduces_a_recorded_failure() {
    let opts = FuzzOptions { invert: Some("makes_progress".to_string()), ..quick_opts(1, 1) };
    let result = fuzz::campaign(&opts);
    let case = &result.failures[0];

    let dir = std::env::temp_dir().join(format!("specrun_fuzz_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(&case.file_name);
    std::fs::write(&path, &case.file_body).unwrap();

    // The recorded inversion replays with the file, so the same violation
    // (and the same shrunk digest) reproduces from seed + index alone.
    assert_eq!(fuzz::replay(&path, None, &FsSink), 1, "the recorded failure still reproduces");
    assert_eq!(
        fuzz::replay(&PathBuf::from("/nonexistent/fail.json"), None, &FsSink),
        2,
        "unreadable file"
    );

    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"not\": \"a fail file\"}\n").unwrap();
    assert_eq!(fuzz::replay(&bogus, None, &FsSink), 2, "malformed file");
    // Without its top-level coordinates a fail file does not replay, even
    // though the nested plan objects carry copies of them.
    let headless = dir.join("headless.json");
    let body: Vec<&str> = case
        .file_body
        .lines()
        .filter(|l| !l.starts_with("  \"mode\":") && !l.starts_with("  \"plan_index\":"))
        .collect();
    assert_eq!(body.len() + 2, case.file_body.lines().count(), "both top-level lines dropped");
    std::fs::write(&headless, body.join("\n")).unwrap();
    assert_eq!(fuzz::replay(&headless, None, &FsSink), 2, "top-level keys are required");

    // `--trace` on the same replay writes a decodable forensic log of the
    // shrunk plan's pipeline events alongside the reproduction.
    let trace = dir.join("fail_trace.bin");
    assert_eq!(fuzz::replay(&path, Some(&trace), &FsSink), 1, "tracing must not mask the verdict");
    let bytes = std::fs::read(&trace).expect("replay wrote the forensic trace");
    let decoded = specrun_trace::decode_events(&bytes).expect("the trace decodes cleanly");
    assert!(!decoded.events.is_empty(), "the shrunk plan emits pipeline events");
    assert!(!decoded.torn_tail, "a completed replay never leaves a torn tail");

    std::fs::remove_dir_all(&dir).ok();
}
