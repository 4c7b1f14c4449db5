//! Cross-commit byte pins: FNV-1a digests of outputs whose bytes must not
//! move when the code behind them is restructured.
//!
//! CI's byte-compare jobs check that two runs of one binary agree; these
//! constants check that the binary agrees with the one that wrote them.
//! Each pin covers a path with a history of being re-routed: the `trace
//! record` log and metrics document, the `pool spec` matrix, the fuzz plan
//! JSON, the sweep's per-trial secrets, and the quick `LAB`, `POOL` and
//! `FUZZ` reports. A pin that fails means the output changed: if the
//! change is intended, say so and update the constant in the same commit.

use std::path::PathBuf;
use std::process::Command;

use specrun::attack::{run_pht_sweep, SweepConfig};
use specrun_workloads::Plan;

fn lab_bin() -> &'static str {
    env!("CARGO_BIN_EXE_specrun-lab")
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specrun-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn trace_record_log_and_metrics_are_pinned() {
    // (policy, trace-log digest, metrics-document digest)
    let pins = [
        ("runahead", 0x4e25_2af9_f486_b20cu64, 0x4438_6270_9777_ea6fu64),
        ("secure", 0x7651_d444_bfe3_d223, 0x6512_95df_b793_06ed),
        ("no_runahead", 0x5f72_b166_b6ef_aedc, 0x0a5a_7ec5_d6e4_0c48),
    ];
    let dir = scratch("trace");
    let mut seen = Vec::new();
    for (policy, _, _) in pins {
        let (log, metrics) =
            (dir.join(format!("{policy}.bin")), dir.join(format!("{policy}.json")));
        let status = Command::new(lab_bin())
            .args(["trace", "record", "--policy", policy, "--out"])
            .arg(&log)
            .arg("--metrics")
            .arg(&metrics)
            .output()
            .expect("spawn trace record");
        assert!(status.status.success(), "{policy}: {}", String::from_utf8_lossy(&status.stderr));
        let log = fnv1a(&std::fs::read(&log).expect("trace log"));
        let metrics = fnv1a(&std::fs::read(&metrics).expect("metrics document"));
        seen.push((policy, log, metrics));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(seen, pins, "{seen:#x?}");
}

#[test]
fn pool_spec_output_is_pinned() {
    let output = Command::new(lab_bin()).args(["pool", "spec"]).output().expect("spawn pool spec");
    assert!(output.status.success());
    let digest = fnv1a(&output.stdout);
    assert_eq!(digest, 0x8227_5b8a_6456_17af, "{digest:#x}");
}

#[test]
fn fuzz_plan_json_is_pinned() {
    let doc: Vec<String> = (0..40).map(|i| Plan::generate(0xC0FFEE, i, true).to_json(1)).collect();
    let digest = fnv1a(doc.join("\n").as_bytes());
    assert_eq!(digest, 0x9932_73a3_97a3_ddc6, "{digest:#x}");
}

#[test]
fn sweep_trial_secrets_are_pinned() {
    let cfg = SweepConfig { trials: 4, threads: 2, ..SweepConfig::default() };
    let report = run_pht_sweep(&cfg, None).expect("sweep halts");
    let secrets: Vec<u8> = report.trials.iter().map(|t| t.secret).collect();
    assert_eq!(secrets, [58, 191, 32, 209]);
}

/// Runs `specrun-lab` with `args` in `dir` and returns the FNV-1a digest of
/// the artifact it wrote at `dir/artifact`.
fn artifact_digest(dir: &std::path::Path, args: &[&str], artifact: &str) -> u64 {
    let output =
        Command::new(lab_bin()).args(args).current_dir(dir).output().expect("spawn specrun-lab");
    assert!(output.status.success(), "{args:?}: {}", String::from_utf8_lossy(&output.stderr));
    fnv1a(&std::fs::read(dir.join(artifact)).expect(artifact))
}

#[test]
fn quick_lab_report_is_pinned() {
    let dir = scratch("lab");
    let digest = artifact_digest(
        &dir,
        &["run", "--all", "--quick", "--artifacts-dir", "lab"],
        "lab/LAB_report.json",
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(digest, 0xb388_7692_dc4d_0245, "{digest:#x}");
}

#[test]
fn pool_report_of_the_paper_matrix_is_pinned() {
    let dir = scratch("pool");
    let spec = Command::new(lab_bin()).args(["pool", "spec"]).output().expect("spawn pool spec");
    assert!(spec.status.success());
    std::fs::write(dir.join("spec.json"), &spec.stdout).expect("write spec");
    let digest = artifact_digest(
        &dir,
        &["pool", "run", "spec.json", "--threads", "1", "--out", "POOL_report.json"],
        "POOL_report.json",
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(digest, 0xf977_482a_f148_5856, "{digest:#x}");
}

#[test]
fn quick_fuzz_report_is_pinned() {
    let dir = scratch("fuzz");
    let digest = artifact_digest(
        &dir,
        &["fuzz", "--plans", "40", "--seed", "0xC0FFEE", "--quick", "--report", "FUZZ_report.json"],
        "FUZZ_report.json",
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(digest, 0x371d_01b8_d1ce_01a1, "{digest:#x}");
}
