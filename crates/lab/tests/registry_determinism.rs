//! The determinism gate the CI reproduction job relies on: every
//! registered scenario's quick mode must produce byte-identical artifact
//! JSON across independent runs, every legacy experiment must be present,
//! and every paper-claim invariant must hold at quick scale.

use specrun_lab::registry::registry;
use specrun_lab::report::LabReport;
use specrun_lab::scenario::RunContext;

/// The eight experiments that used to be standalone binaries. A registry
/// regression dropping any of them must fail here, not in CI archaeology.
const LEGACY_EXPERIMENTS: [&str; 8] =
    ["fig7", "fig9", "fig10", "fig11", "table1", "variants", "defense", "bench_step"];

/// Scenarios born after the registry (no legacy binary): the ground-truth
/// observer trace, the COW fork-campaign matrix and the trace
/// record/replay self-check. Must stay registered too.
const OBSERVER_SCENARIOS: [&str; 3] = ["leak_trace", "pool_matrix", "trace_repro"];

#[test]
fn every_scenario_quick_mode_is_byte_identical_across_runs() {
    let ctx = RunContext::quick();
    let mut runs = Vec::new();
    for scenario in registry() {
        let first = (scenario.run)(&ctx).unwrap().to_json().render();
        let second = (scenario.run)(&ctx).unwrap().to_json().render();
        assert_eq!(
            first, second,
            "scenario {} must serialize byte-identically across runs",
            scenario.name
        );
        runs.push((scenario.name, first));
    }
    for legacy in LEGACY_EXPERIMENTS {
        assert!(
            runs.iter().any(|(name, _)| *name == legacy),
            "legacy experiment {legacy} missing from the registry"
        );
    }
}

#[test]
fn quick_campaign_passes_every_paper_claim() {
    let ctx = RunContext::quick();
    let mut report = LabReport::default();
    for scenario in registry() {
        report.runs.push((scenario.run)(&ctx).unwrap().into());
    }
    assert_eq!(report.runs.len(), LEGACY_EXPERIMENTS.len() + OBSERVER_SCENARIOS.len());
    assert!(report.passed(), "quick-mode paper-claim invariants failed: {:?}", report.failures());
    // The merged report is itself deterministic content: no wall-clock
    // fields, insertion-ordered keys.
    let json = report.to_json().render();
    assert!(json.contains("\"passed\": true"));
    for name in LEGACY_EXPERIMENTS.iter().chain(&OBSERVER_SCENARIOS) {
        assert!(json.contains(&format!("\"scenario\": \"{name}\"")), "{name} missing");
    }
}

#[test]
fn thread_count_does_not_change_artifacts() {
    // The CI runner and a developer laptop use different thread counts;
    // artifacts must not care. Cover both fan-out paths that consume
    // ctx.threads: parallel_map over machines (fig11, leak_trace,
    // trace_repro), the seeded multi-trial sweep (bench_step) and the
    // supervised pool fan-out (pool_matrix).
    for name in ["fig11", "bench_step", "leak_trace", "pool_matrix", "trace_repro"] {
        let scenario = specrun_lab::registry::find(name).unwrap();
        let one = (scenario.run)(&RunContext { threads: 1, ..RunContext::quick() }).unwrap();
        let four = (scenario.run)(&RunContext { threads: 4, ..RunContext::quick() }).unwrap();
        assert_eq!(
            one.to_json().render(),
            four.to_json().render(),
            "{name} artifact must be thread-count-invariant"
        );
    }
}

#[test]
fn seed_changes_are_recorded_in_artifacts() {
    let scenario = specrun_lab::registry::find("bench_step").unwrap();
    let a = (scenario.run)(&RunContext { seed: 1, ..RunContext::quick() }).unwrap();
    let b = (scenario.run)(&RunContext { seed: 2, ..RunContext::quick() }).unwrap();
    assert_eq!(a.seed, 1);
    assert_eq!(b.seed, 2);
    assert_ne!(
        a.to_json().render(),
        b.to_json().render(),
        "the sweep seed must flow into the artifact"
    );
}
