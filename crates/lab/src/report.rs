//! Artifact emission: per-scenario JSON files plus the merged
//! `LAB_report.json` the CI reproduction gate checks, and the flat
//! `BENCH_*.json` performance report `specrun-lab perf` writes.

use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::scenario::ScenarioRun;
use crate::sink::{ArtifactSink, FsSink};

/// File name of the merged campaign report.
pub const LAB_REPORT_NAME: &str = "LAB_report.json";

/// One scenario's contribution to the merged report: either a run from
/// this process, or a *journaled* run recovered by `--resume` — the
/// artifact text a previous (crashed) campaign recorded after the
/// scenario passed. Journaled entries splice back into the merged report
/// verbatim (via [`Json::Raw`]), so a resumed report is byte-identical to
/// an uninterrupted one.
#[derive(Debug, Clone)]
pub enum LabEntry {
    /// A scenario executed by this process.
    Run(ScenarioRun),
    /// A passed scenario recovered from the campaign journal.
    Journaled {
        /// Registry name.
        name: String,
        /// How many invariants the journaled run checked.
        invariant_count: usize,
        /// The per-scenario artifact object, rendered at depth 0 without
        /// the trailing newline (exactly what the journal recorded).
        json: String,
    },
}

impl LabEntry {
    /// Registry name of the scenario.
    pub fn name(&self) -> &str {
        match self {
            LabEntry::Run(run) => &run.name,
            LabEntry::Journaled { name, .. } => name,
        }
    }

    /// Whether the scenario passed. Journaled entries are always passes:
    /// only passed scenarios are journaled, failures re-run on resume.
    pub fn passed(&self) -> bool {
        match self {
            LabEntry::Run(run) => run.passed(),
            LabEntry::Journaled { .. } => true,
        }
    }

    /// How many invariants the scenario checked.
    pub fn invariant_count(&self) -> usize {
        match self {
            LabEntry::Run(run) => run.invariants.len(),
            LabEntry::Journaled { invariant_count, .. } => *invariant_count,
        }
    }

    /// Structured execution failure, when the scenario did not complete.
    pub fn error(&self) -> Option<&str> {
        match self {
            LabEntry::Run(run) => run.error.as_deref(),
            LabEntry::Journaled { .. } => None,
        }
    }

    /// The merged-report element for this entry.
    pub fn to_json(&self) -> Json {
        match self {
            LabEntry::Run(run) => run.to_json(),
            LabEntry::Journaled { json, .. } => Json::Raw(json.clone()),
        }
    }

    /// The per-scenario artifact file contents.
    pub fn artifact_text(&self) -> String {
        match self {
            LabEntry::Run(run) => run.to_json().render(),
            LabEntry::Journaled { json, .. } => format!("{json}\n"),
        }
    }
}

impl From<ScenarioRun> for LabEntry {
    fn from(run: ScenarioRun) -> LabEntry {
        LabEntry::Run(run)
    }
}

/// A completed campaign: the scenario entries in execution order.
#[derive(Debug, Clone, Default)]
pub struct LabReport {
    /// Per-scenario results, in execution order.
    pub runs: Vec<LabEntry>,
}

impl LabReport {
    /// Whether every scenario completed and every invariant held.
    pub fn passed(&self) -> bool {
        self.runs.iter().all(LabEntry::passed)
    }

    /// Whether any scenario failed to complete (structured run error):
    /// the campaign's results are partial — reported, but not a full
    /// reproduction.
    pub fn partial_results(&self) -> bool {
        self.runs.iter().any(|e| e.error().is_some())
    }

    /// Total number of checked invariants.
    pub fn invariant_count(&self) -> usize {
        self.runs.iter().map(LabEntry::invariant_count).sum()
    }

    /// Every failed invariant, with its scenario name. A scenario that
    /// died before checking anything contributes its error under the
    /// pseudo-invariant name `run_error`.
    pub fn failures(&self) -> Vec<(String, String)> {
        self.runs
            .iter()
            .flat_map(|entry| match entry {
                LabEntry::Run(run) if run.error.is_some() => {
                    vec![(run.name.clone(), "run_error".to_string())]
                }
                LabEntry::Run(run) => {
                    run.failures().into_iter().map(|i| (run.name.clone(), i.name.clone())).collect()
                }
                LabEntry::Journaled { .. } => Vec::new(),
            })
            .collect()
    }

    /// The merged report object.
    pub fn to_json(&self) -> Json {
        let scenarios = self.runs.iter().map(LabEntry::to_json).collect();
        Json::obj(vec![
            ("lab".into(), Json::str("specrun")),
            ("scenario_count".into(), Json::Num(self.runs.len() as f64)),
            ("invariant_count".into(), Json::Num(self.invariant_count() as f64)),
            ("passed".into(), Json::Bool(self.passed())),
            ("partial_results".into(), Json::Bool(self.partial_results())),
            ("scenarios".into(), Json::Arr(scenarios)),
        ])
    }

    /// Writes `artifacts_dir/<scenario>.json` per run plus the merged
    /// [`LAB_REPORT_NAME`] into the same directory, through the real
    /// filesystem sink. See [`LabReport::write_artifacts_with`].
    pub fn write_artifacts(&self, artifacts_dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.write_artifacts_with(artifacts_dir, &FsSink)
    }

    /// Writes every artifact through `sink` — everything lands inside the
    /// directory the caller named, so concurrent campaigns with distinct
    /// `--artifacts-dir`s never share an output path. Each file is
    /// written atomically (temp + rename): a crash mid-campaign leaves
    /// old-or-new files, never truncated hybrids. Any `.json` file
    /// already in the directory that this campaign does not produce is
    /// removed first: the merged report must describe exactly the
    /// per-scenario files beside it, so a subset run cannot leave stale
    /// artifacts from an earlier campaign mixed in. The merged report is
    /// written *last*, after every per-scenario file it names. Returns
    /// every path written, merged report first.
    pub fn write_artifacts_with(
        &self,
        artifacts_dir: &Path,
        sink: &dyn ArtifactSink,
    ) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(artifacts_dir)?;
        let keep: Vec<PathBuf> = std::iter::once(artifacts_dir.join(LAB_REPORT_NAME))
            .chain(self.runs.iter().map(|e| artifacts_dir.join(format!("{}.json", e.name()))))
            .collect();
        for entry in std::fs::read_dir(artifacts_dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json")
                && path.is_file()
                && !keep.contains(&path)
            {
                sink.remove(&path)?;
            }
        }
        let report_path = artifacts_dir.join(LAB_REPORT_NAME);
        let mut paths = vec![report_path.clone()];
        for entry in &self.runs {
            let path = artifacts_dir.join(format!("{}.json", entry.name()));
            sink.write_atomic(&path, &entry.artifact_text())?;
            paths.push(path);
        }
        sink.write_atomic(&report_path, &self.to_json().render())?;
        Ok(paths)
    }
}

/// A machine-readable benchmark report, serialized as `BENCH_<name>.json`.
///
/// The format is a flat JSON object: string notes and numeric metrics. No
/// serde in this offline build — the writer escapes and formats by hand.
///
/// ```
/// let mut r = specrun_lab::BenchReport::new("step");
/// r.note("kernel", "pointer_chase");
/// r.metric("cycles_per_sec", 1.25e7);
/// assert!(r.to_json().contains("\"cycles_per_sec\""));
/// ```
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    notes: Vec<(String, String)>,
    metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// Starts a report named `name` (the file becomes `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> BenchReport {
        BenchReport { name: name.into(), notes: Vec::new(), metrics: Vec::new() }
    }

    /// Adds a string annotation.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.notes.push((key.into(), value.into()));
        self
    }

    /// Adds a numeric metric.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((key.into(), value));
        self
    }

    /// The numeric metrics collected so far, in insertion order.
    pub fn metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut fields = vec![(String::from("bench"), Json::str(self.name.clone()))];
        fields.extend(self.notes.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))));
        fields.extend(self.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
        Json::Obj(fields).render()
    }

    /// Writes `BENCH_<name>.json` into `dir` atomically through `sink`
    /// and returns the path.
    pub fn write_with(
        &self,
        sink: &dyn ArtifactSink,
        dir: impl Into<PathBuf>,
    ) -> io::Result<PathBuf> {
        let mut path = dir.into();
        path.push(format!("BENCH_{}.json", self.name));
        sink.write_atomic(&path, &self.to_json())?;
        Ok(path)
    }

    /// Writes `BENCH_<name>.json` into `dir` and returns the path.
    pub fn write_to(&self, dir: impl Into<PathBuf>) -> io::Result<PathBuf> {
        self.write_with(&FsSink, dir)
    }

    /// Writes `BENCH_<name>.json` into the current directory.
    pub fn write(&self) -> io::Result<PathBuf> {
        self.write_to(".")
    }
}

/// Parses the numeric metrics out of a flat `BENCH_*.json` report (the
/// shape [`BenchReport::to_json`] writes: one `"key": value` pair per
/// line). String notes are skipped. Used by the CI perf-regression gate to
/// read the committed baseline without a JSON dependency.
pub fn parse_metrics(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else { continue };
        let key = key.trim();
        if key.len() < 2 || !key.starts_with('"') || !key.ends_with('"') {
            continue;
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((key[1..key.len() - 1].to_string(), v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_valid_shape() {
        let mut r = BenchReport::new("step");
        r.note("kernel", "pointer_chase");
        r.metric("speedup", 3.5);
        r.metric("cycles", 600227.0);
        let json = r.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"bench\": \"step\""));
        assert!(json.contains("\"speedup\": 3.5"));
        assert!(json.contains("\"cycles\": 600227"));
        // No trailing comma before the closing brace.
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn parse_metrics_round_trips_a_report() {
        let mut r = BenchReport::new("step");
        r.note("quick_mode", "yes");
        r.metric("a_cycles_per_sec", 1234.5);
        r.metric("cycles", 600227.0);
        let parsed = parse_metrics(&r.to_json());
        assert_eq!(
            parsed,
            vec![("a_cycles_per_sec".to_string(), 1234.5), ("cycles".to_string(), 600227.0)],
            "string notes are skipped, numbers survive"
        );
    }

    #[test]
    fn bench_write_creates_named_file() {
        let dir = std::env::temp_dir();
        let mut r = BenchReport::new("emitter_test");
        r.metric("x", 1.0);
        let path = r.write_to(&dir).expect("writable temp dir");
        assert!(path.ends_with("BENCH_emitter_test.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"x\": 1"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn lab_report_writes_merged_and_per_scenario_files() {
        use crate::scenario::{RunContext, Scenario, ScenarioRun};
        fn noop(ctx: &RunContext) -> ScenarioRun {
            let s = Scenario { name: "noop", title: "t", paper_ref: "r", run: |ctx| Ok(noop(ctx)) };
            let mut run = ScenarioRun::new(&s, ctx);
            run.check("ok", "always holds", true, "yes");
            run
        }
        let report = LabReport { runs: vec![noop(&RunContext::quick()).into()] };
        assert!(report.passed());
        assert!(!report.partial_results());
        assert_eq!(report.invariant_count(), 1);
        let dir = std::env::temp_dir().join(format!("lab_artifacts_{}", std::process::id()));
        let paths = report.write_artifacts(&dir).expect("writable temp dir");
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with(LAB_REPORT_NAME));
        assert!(paths[1].ends_with("noop.json"));
        let merged = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(merged.contains("\"scenario_count\": 1"));
        assert!(merged.contains("\"passed\": true"));
        let _ = std::fs::remove_file(&paths[0]);
        let _ = std::fs::remove_file(&paths[1]);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn write_artifacts_clears_stale_scenario_files() {
        use crate::scenario::{RunContext, Scenario, ScenarioRun};
        fn noop(ctx: &RunContext) -> ScenarioRun {
            let s = Scenario { name: "noop", title: "t", paper_ref: "r", run: |ctx| Ok(noop(ctx)) };
            ScenarioRun::new(&s, ctx)
        }
        let dir = std::env::temp_dir().join(format!("lab_stale_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A leftover from an earlier, larger campaign plus a non-JSON file.
        std::fs::write(dir.join("stale_scenario.json"), "{}").unwrap();
        std::fs::write(dir.join("keep.txt"), "not an artifact").unwrap();
        let report = LabReport { runs: vec![noop(&RunContext::quick()).into()] };
        report.write_artifacts(&dir).unwrap();
        assert!(!dir.join("stale_scenario.json").exists(), "stale artifact must be cleared");
        assert!(dir.join("keep.txt").exists(), "non-JSON files are left alone");
        assert!(dir.join(LAB_REPORT_NAME).exists());
        assert!(dir.join("noop.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failures_name_scenario_and_invariant() {
        use crate::scenario::{RunContext, Scenario, ScenarioRun};
        fn failing(ctx: &RunContext) -> ScenarioRun {
            let s =
                Scenario { name: "bad", title: "t", paper_ref: "r", run: |ctx| Ok(failing(ctx)) };
            let mut run = ScenarioRun::new(&s, ctx);
            run.check("broken", "never holds", false, "no");
            run
        }
        let report = LabReport { runs: vec![failing(&RunContext::quick()).into()] };
        assert!(!report.passed());
        assert_eq!(report.failures(), vec![("bad".to_string(), "broken".to_string())]);
    }

    #[test]
    fn errored_scenario_marks_results_partial() {
        use crate::scenario::{RunContext, Scenario, ScenarioRun};
        fn dead(ctx: &RunContext) -> ScenarioRun {
            let s = Scenario { name: "dead", title: "t", paper_ref: "r", run: |ctx| Ok(dead(ctx)) };
            let mut run = ScenarioRun::new(&s, ctx);
            run.error = Some("cycle budget exceeded: mcf".to_string());
            run
        }
        let report = LabReport { runs: vec![dead(&RunContext::quick()).into()] };
        assert!(!report.passed());
        assert!(report.partial_results());
        assert_eq!(report.failures(), vec![("dead".to_string(), "run_error".to_string())]);
        let json = report.to_json().render();
        assert!(json.contains("\"partial_results\": true"));
        assert!(json.contains("\"error\": \"cycle budget exceeded: mcf\""));
    }

    #[test]
    fn journaled_entry_splices_byte_identically() {
        use crate::scenario::{RunContext, Scenario, ScenarioRun};
        fn noop(ctx: &RunContext) -> ScenarioRun {
            let s = Scenario { name: "noop", title: "t", paper_ref: "r", run: |ctx| Ok(noop(ctx)) };
            let mut run = ScenarioRun::new(&s, ctx);
            run.check("ok", "always holds", true, "yes");
            run
        }
        let run = noop(&RunContext::quick());
        let direct = LabReport { runs: vec![run.clone().into()] };
        let mut artifact = run.to_json().render();
        artifact.pop(); // journal records the text without the newline
        let resumed = LabReport {
            runs: vec![LabEntry::Journaled {
                name: "noop".to_string(),
                invariant_count: 1,
                json: artifact,
            }],
        };
        assert_eq!(
            resumed.to_json().render(),
            direct.to_json().render(),
            "a journaled entry reproduces the uninterrupted report byte for byte"
        );
        assert_eq!(resumed.invariant_count(), 1);
        assert!(resumed.passed());
    }
}
