//! Spec files and artifacts for fork campaigns: the IO half of
//! `specrun-lab pool`.
//!
//! The execution pipeline is split across three crates by dependency
//! direction: `specrun_workloads::pool` owns the declarative
//! [`CampaignSpec`] and the per-shard aggregates, `specrun::pool` owns the
//! session fork bridge, and this module owns the serialization boundary —
//! decoding a JSON spec file into a [`CampaignSpec`] and rendering a
//! [`PoolReport`] as the byte-stable `POOL_report.json` artifact that the
//! CI `pool-repro` job compares across runs and thread counts. A spec runs
//! as a [`PoolCampaign`] on the shared executor, without a journal.
//!
//! Decoding is strict: unknown keys, out-of-range secrets and unlabelled
//! gadgets are errors, not defaults — a hand-edited spec that drifts from
//! the schema fails loudly instead of silently running something else.
//! The `layout`, `knobs` and `warm` sections are the only optional parts;
//! omitting them means "the paper machine".
//!
//! ```
//! use specrun_lab::pool::{parse_spec, report_json};
//! use specrun_workloads::pool::CampaignSpec;
//!
//! let spec = CampaignSpec::paper_matrix();
//! let decoded = parse_spec(&spec.to_json(0)).unwrap();
//! assert_eq!(decoded, spec, "the emitted spec decodes back to itself");
//! ```

use std::path::PathBuf;

use specrun_workloads::harness::RunError;
use specrun_workloads::plan::{AttackLayout, GadgetKind, KnobSpec, PlanPolicy, WarmStep};
use specrun_workloads::pool::{CampaignSpec, PoolReport, ShardSpec, ShardStats, ShardStatus};
use specrun_workloads::supervisor::{SupervisedReport, UnitCtx};

use crate::campaign::{Artifacts, Campaign, Rendered};
use crate::cli::say;
use crate::json::Json;
use crate::scenario::fnv1a;

/// File name of the campaign artifact `specrun-lab pool run` writes.
pub const POOL_REPORT_NAME: &str = "POOL_report.json";

/// Parses a pool spec document (the JSON [`CampaignSpec::to_json`] emits,
/// or a hand-written equivalent) into a validated campaign.
pub fn parse_spec(text: &str) -> Result<CampaignSpec, String> {
    let json = Json::parse(text)?;
    decode_spec(&json)
}

/// Decodes an already-parsed spec document. Strict about unknown keys and
/// value ranges; the returned spec always passes
/// [`CampaignSpec::is_valid`].
pub fn decode_spec(json: &Json) -> Result<CampaignSpec, String> {
    let fields = match json {
        Json::Obj(fields) => fields,
        _ => return Err("pool spec: the document must be a JSON object".into()),
    };
    const KNOWN: [&str; 10] = [
        "pool_spec",
        "seed",
        "training_rounds",
        "attack_filler",
        "max_cycles",
        "secrets",
        "layout",
        "warm",
        "knobs",
        "shards",
    ];
    for (key, _) in fields {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("pool spec: unknown key `{key}`"));
        }
    }
    match json.get("pool_spec").and_then(Json::as_str) {
        Some("specrun") => {}
        _ => return Err("pool spec: missing `\"pool_spec\": \"specrun\"` marker".into()),
    }

    let secrets_json = json
        .get("secrets")
        .and_then(Json::as_arr)
        .ok_or("pool spec: `secrets` must be an array of bytes")?;
    let mut secrets = Vec::with_capacity(secrets_json.len());
    for v in secrets_json {
        let byte = u64_of(v, "pool spec: secret")?;
        if byte == 0 || byte > 255 {
            return Err(format!(
                "pool spec: secret {byte} out of range (1..=255; 0 is unrecoverable by design)"
            ));
        }
        secrets.push(byte as u8);
    }

    let shards_json = json
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or("pool spec: `shards` must be an array of matrix cells")?;
    let mut shards = Vec::with_capacity(shards_json.len());
    for v in shards_json {
        let gadget_label =
            v.get("gadget").and_then(Json::as_str).ok_or("pool spec: shard without `gadget`")?;
        let gadget = GadgetKind::from_label(gadget_label)
            .ok_or_else(|| format!("pool spec: unknown gadget `{gadget_label}`"))?;
        let policy_label =
            v.get("policy").and_then(Json::as_str).ok_or("pool spec: shard without `policy`")?;
        let policy = PlanPolicy::from_label(policy_label)
            .ok_or_else(|| format!("pool spec: unknown policy `{policy_label}`"))?;
        let nop_slide = match v.get("nop_slide") {
            None => 0,
            Some(n) => u32_of(n, "pool spec: nop_slide")?,
        };
        shards.push(ShardSpec { gadget, policy, nop_slide });
    }

    let spec = CampaignSpec {
        seed: match json.get("seed") {
            None => 0,
            Some(v) => u64_of(v, "pool spec: seed")?,
        },
        layout: match json.get("layout") {
            None => AttackLayout::default(),
            Some(v) => decode_layout(v)?,
        },
        knobs: match json.get("knobs") {
            None => KnobSpec::default(),
            Some(v) => decode_knobs(v)?,
        },
        warm: match json.get("warm") {
            None => Vec::new(),
            Some(v) => decode_warm(v)?,
        },
        training_rounds: u32_of(req(json, "training_rounds")?, "pool spec: training_rounds")?,
        attack_filler: u32_of(req(json, "attack_filler")?, "pool spec: attack_filler")?,
        max_cycles: u64_of(req(json, "max_cycles")?, "pool spec: max_cycles")?,
        secrets,
        shards,
    };
    if !spec.is_valid() {
        return Err("pool spec: structurally invalid campaign \
                    (check layout geometry, shards, secrets and warm ranges)"
            .into());
    }
    Ok(spec)
}

fn req<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key).ok_or_else(|| format!("pool spec: missing `{key}`"))
}

fn decode_layout(json: &Json) -> Result<AttackLayout, String> {
    let mut layout = AttackLayout::default();
    let fields = match json {
        Json::Obj(fields) => fields,
        _ => return Err("pool spec: `layout` must be an object".into()),
    };
    for (key, value) in fields {
        let slot = match key.as_str() {
            "bound_addr" => &mut layout.bound_addr,
            "bound_value" => &mut layout.bound_value,
            "array1_base" => &mut layout.array1_base,
            "secret_addr" => &mut layout.secret_addr,
            "probe_base" => &mut layout.probe_base,
            "probe_stride" => &mut layout.probe_stride,
            "probe_entries" => &mut layout.probe_entries,
            "results_base" => &mut layout.results_base,
            other => return Err(format!("pool spec: unknown layout key `{other}`")),
        };
        *slot = u64_of(value, &format!("pool spec: layout.{key}"))?;
    }
    Ok(layout)
}

fn decode_knobs(json: &Json) -> Result<KnobSpec, String> {
    let mut knobs = KnobSpec::default();
    let fields = match json {
        Json::Obj(fields) => fields,
        _ => return Err("pool spec: `knobs` must be an object".into()),
    };
    for (key, value) in fields {
        let what = format!("pool spec: knobs.{key}");
        match key.as_str() {
            "rob_entries" => knobs.rob_entries = u32_of(value, &what)?,
            "lq_entries" => knobs.lq_entries = u32_of(value, &what)?,
            "sq_entries" => knobs.sq_entries = u32_of(value, &what)?,
            "enter_penalty" => knobs.enter_penalty = u64_of(value, &what)?,
            "exit_penalty" => knobs.exit_penalty = u64_of(value, &what)?,
            "train_predictor" => knobs.train_predictor = bool_of(value, &what)?,
            "checkpoint_predictor" => knobs.checkpoint_predictor = bool_of(value, &what)?,
            "vector_lanes" => knobs.vector_lanes = u64_of(value, &what)?,
            "min_episode_yield" => knobs.min_episode_yield = u64_of(value, &what)?,
            "useless_backoff" => knobs.useless_backoff = u64_of(value, &what)?,
            "runahead_cache_bytes" => knobs.runahead_cache_bytes = u32_of(value, &what)?,
            "sl_entries" => knobs.sl_entries = u32_of(value, &what)?,
            "sl_latency" => knobs.sl_latency = u64_of(value, &what)?,
            "fast_forward" => knobs.fast_forward = bool_of(value, &what)?,
            other => return Err(format!("pool spec: unknown knob `{other}`")),
        }
    }
    Ok(knobs)
}

fn decode_warm(json: &Json) -> Result<Vec<WarmStep>, String> {
    let steps = match json.as_arr() {
        Some(steps) => steps,
        None => return Err("pool spec: `warm` must be an array".into()),
    };
    steps
        .iter()
        .map(|step| {
            Ok(WarmStep {
                addr: u64_of(req(step, "addr")?, "pool spec: warm.addr")?,
                len: u64_of(req(step, "len")?, "pool spec: warm.len")?,
            })
        })
        .collect()
}

/// Decodes an unsigned integer that may be a JSON number or a string
/// (decimal or `0x`-prefixed hex — addresses and 64-bit seeds are emitted
/// as strings because f64 cannot hold them exactly).
fn u64_of(value: &Json, what: &str) -> Result<u64, String> {
    match value {
        Json::Num(n) if *n >= 0.0 && n.trunc() == *n && *n < 9_007_199_254_740_992.0 => {
            Ok(*n as u64)
        }
        Json::Str(s) => {
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.map_err(|_| format!("{what}: malformed integer `{s}`"))
        }
        _ => Err(format!("{what}: expected an unsigned integer")),
    }
}

fn u32_of(value: &Json, what: &str) -> Result<u32, String> {
    let v = u64_of(value, what)?;
    u32::try_from(v).map_err(|_| format!("{what}: {v} does not fit in 32 bits"))
}

fn bool_of(value: &Json, what: &str) -> Result<bool, String> {
    match value {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("{what}: expected true or false")),
    }
}

/// Renders a completed campaign as the `POOL_report.json` document.
///
/// Everything here is a pure function of `(spec, report)` — thread count,
/// wall-clock time and host identity never appear — so two runs of the
/// same spec produce byte-identical artifacts regardless of parallelism.
/// That is the property the CI `pool-repro` job enforces with a byte
/// compare. Shard fingerprints are rendered as hex strings (u64 does not
/// survive a round trip through f64).
pub fn report_json(spec: &CampaignSpec, report: &PoolReport) -> Json {
    let shards = report
        .shards
        .iter()
        .map(|shard| {
            let mut fields = vec![
                ("label".into(), Json::str(shard.spec.label())),
                ("gadget".into(), Json::str(shard.spec.gadget.label())),
                ("policy".into(), Json::str(shard.spec.policy.label())),
                ("nop_slide".into(), Json::Num(f64::from(shard.spec.nop_slide))),
                ("status".into(), Json::str(shard.status.label())),
            ];
            match &shard.status {
                ShardStatus::Done { attempts } => {
                    fields.push(("attempts".into(), Json::Num(f64::from(*attempts))));
                }
                ShardStatus::Failed(error) | ShardStatus::Quarantined(error) => {
                    fields.push(("error".into(), Json::str(error.clone())));
                }
                ShardStatus::Skipped => {}
            }
            let stats = &shard.stats;
            fields.extend([
                ("units".into(), Json::Num(stats.units as f64)),
                ("leaks".into(), Json::Num(stats.leaks as f64)),
                ("wrong".into(), Json::Num(stats.wrong as f64)),
                ("silent".into(), Json::Num(stats.silent as f64)),
                ("leak_rate".into(), Json::Num(stats.leak_rate())),
                ("runahead_entries".into(), Json::Num(stats.runahead_entries as f64)),
                ("inv_branches".into(), Json::Num(stats.inv_branches as f64)),
                ("fingerprint".into(), Json::str(format!("{:#018x}", stats.fingerprint))),
            ]);
            Json::Obj(fields)
        })
        .collect();
    Json::obj(vec![
        ("pool_report".into(), Json::str("specrun")),
        ("seed".into(), Json::str(spec.seed.to_string())),
        ("secrets_per_shard".into(), Json::Num(spec.secrets.len() as f64)),
        ("unit_count".into(), Json::Num(spec.unit_count() as f64)),
        ("breaker_tripped".into(), Json::Bool(report.breaker_tripped)),
        ("shards_done".into(), Json::Num(report.completed() as f64)),
        ("total_units".into(), Json::Num(report.total_units() as f64)),
        (
            "total_leaks".into(),
            Json::Num(report.shards.iter().map(|s| s.stats.leaks).sum::<u64>() as f64),
        ),
        ("shards".into(), Json::Arr(shards)),
    ])
}

/// A fork campaign as a [`Campaign`]: one unit per shard, each warming
/// one snapshot and forking a session per secret; the artifact goes to
/// `out`. `pool run` executes it without a journal, so nothing is
/// journaled or recovered.
pub struct PoolCampaign {
    spec: CampaignSpec,
    out: PathBuf,
}

impl PoolCampaign {
    /// The campaign of a decoded (hence valid) spec.
    pub fn new(spec: CampaignSpec, out: PathBuf) -> PoolCampaign {
        PoolCampaign { spec, out }
    }
}

impl Campaign for PoolCampaign {
    type Unit = ShardSpec;
    type Payload = ShardStats;

    fn units(&self) -> &[ShardSpec] {
        &self.spec.shards
    }

    fn header(&self) -> String {
        format!("pool spec={:016x}", fnv1a(self.spec.to_json(0).as_bytes()))
    }

    fn noun(&self) -> &'static str {
        "shard"
    }

    fn key(&self, shard: &ShardSpec) -> String {
        shard.label()
    }

    fn run(&self, shard: &ShardSpec, ctx: &UnitCtx) -> Result<ShardStats, RunError> {
        specrun::pool::run_shard(&self.spec, shard, &ctx.token)
    }

    fn render(&self, report: SupervisedReport<ShardStats>) -> Rendered {
        let report = PoolReport::new(&self.spec.shards, report);
        say!(
            "{:<22} {:>6} {:>6} {:>10} {:>9}  status",
            "shard",
            "units",
            "leaks",
            "leak_rate",
            "runahead"
        );
        for shard in &report.shards {
            say!(
                "{:<22} {:>6} {:>6} {:>10.3} {:>9}  {}",
                shard.spec.label(),
                shard.stats.units,
                shard.stats.leaks,
                shard.stats.leak_rate(),
                shard.stats.runahead_entries,
                shard.status.label()
            );
        }
        let (done, total) = (report.completed(), report.shards.len());
        let mut verdict = format!("{done} of {total} shard(s) completed");
        if report.breaker_tripped {
            verdict.push_str("; campaign circuit breaker tripped, some shards were skipped");
        }
        let artifact = report_json(&self.spec, &report).render();
        Rendered {
            artifacts: Artifacts {
                files: vec![(self.out.clone(), artifact)],
                ..Artifacts::default()
            },
            passed: report.all_done(),
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrun_workloads::pool::{ShardOutcome, ShardStats};

    #[test]
    fn emitted_matrix_spec_round_trips_exactly() {
        let spec = CampaignSpec::paper_matrix();
        assert_eq!(parse_spec(&spec.to_json(0)).unwrap(), spec);
        // And at a nonzero indent (the rendering used when embedding).
        assert_eq!(parse_spec(&spec.to_json(2)).unwrap(), spec);
    }

    #[test]
    fn minimal_spec_defaults_to_the_paper_machine() {
        let spec = parse_spec(
            r#"{
                "pool_spec": "specrun",
                "training_rounds": 8,
                "attack_filler": 600,
                "max_cycles": 1000000,
                "secrets": [86],
                "shards": [{"gadget": "Pht", "policy": "Runahead"}]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.layout, AttackLayout::default());
        assert_eq!(spec.knobs, KnobSpec::default());
        assert!(spec.warm.is_empty());
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.shards[0].nop_slide, 0, "nop_slide defaults to the Fig. 9 shape");
    }

    #[test]
    fn hex_and_decimal_integers_both_decode() {
        let mut spec = CampaignSpec::paper_matrix();
        spec.seed = u64::MAX;
        let decoded = parse_spec(&spec.to_json(0)).unwrap();
        assert_eq!(decoded.seed, u64::MAX, "seeds above 2^53 survive (string-encoded)");
        assert_eq!(decoded.layout.probe_base, 0x0100_0000, "hex addresses decode");
    }

    #[test]
    fn malformed_specs_fail_loudly() {
        let cases: &[(&str, &str)] = &[
            ("{}", "pool_spec"),
            (r#"{"pool_spec": "other"}"#, "marker"),
            (
                r#"{"pool_spec": "specrun", "training_rounds": 1, "attack_filler": 1,
                   "max_cycles": 1, "secrets": [0],
                   "shards": [{"gadget": "Pht", "policy": "Runahead"}]}"#,
                "secret 0",
            ),
            (
                r#"{"pool_spec": "specrun", "training_rounds": 1, "attack_filler": 1,
                   "max_cycles": 1, "secrets": [86],
                   "shards": [{"gadget": "Smc", "policy": "Runahead"}]}"#,
                "unknown gadget",
            ),
            (
                r#"{"pool_spec": "specrun", "training_rounds": 1, "attack_filler": 1,
                   "max_cycles": 1, "secrets": [86],
                   "shards": [{"gadget": "Pht", "policy": "Paranoid"}]}"#,
                "unknown policy",
            ),
            (
                r#"{"pool_spec": "specrun", "max_cycles": 1, "secrets": [86], "typo_key": 1,
                   "training_rounds": 1, "attack_filler": 1,
                   "shards": [{"gadget": "Pht", "policy": "Runahead"}]}"#,
                "unknown key",
            ),
            (
                r#"{"pool_spec": "specrun", "training_rounds": 1, "attack_filler": 1,
                   "max_cycles": "0xZZ", "secrets": [86],
                   "shards": [{"gadget": "Pht", "policy": "Runahead"}]}"#,
                "malformed integer",
            ),
            (
                r#"{"pool_spec": "specrun", "training_rounds": 1, "attack_filler": 1,
                   "max_cycles": 1, "secrets": [86], "shards": []}"#,
                "no shards",
            ),
            ("not json at all", "parse error"),
        ];
        for (text, why) in cases {
            assert!(parse_spec(text).is_err(), "{why} must be rejected");
        }
    }

    #[test]
    fn report_artifact_is_deterministic_and_reparsable() {
        let spec = CampaignSpec::paper_matrix();
        let mut stats = ShardStats::default();
        for &s in &spec.secrets {
            stats.record(Some(s), s, 3, 2, u64::from(s) * 0x1234_5678_9abc);
        }
        let shards = spec
            .shards
            .iter()
            .map(|&shard| ShardOutcome {
                spec: shard,
                stats,
                status: ShardStatus::Done { attempts: 1 },
            })
            .collect();
        let report = PoolReport { shards, breaker_tripped: false };
        let a = report_json(&spec, &report).render();
        assert_eq!(a, report_json(&spec, &report).render());
        let parsed = Json::parse(&a).unwrap();
        assert_eq!(parsed.get("pool_report").and_then(Json::as_str), Some("specrun"));
        assert_eq!(parsed.get("unit_count").and_then(Json::as_num), Some(24.0));
        assert_eq!(parsed.get("total_leaks").and_then(Json::as_num), Some(24.0));
        let rows = parsed.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].get("label").and_then(Json::as_str), Some("pht_runahead"));
        assert_eq!(rows[0].get("leak_rate").and_then(Json::as_num), Some(1.0));
        let fp = rows[0].get("fingerprint").and_then(Json::as_str).unwrap();
        assert!(fp.starts_with("0x") && fp.len() == 18, "fixed-width hex fingerprint: {fp}");
    }

    #[test]
    fn failed_and_skipped_shards_render_wellformed_zero_rows() {
        let spec = CampaignSpec::paper_matrix();
        let shards = vec![
            ShardOutcome {
                spec: spec.shards[0],
                stats: ShardStats::default(),
                status: ShardStatus::Failed("cycle budget exceeded".into()),
            },
            ShardOutcome {
                spec: spec.shards[1],
                stats: ShardStats::default(),
                status: ShardStatus::Skipped,
            },
        ];
        let report = PoolReport { shards, breaker_tripped: true };
        let text = report_json(&spec, &report).render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("breaker_tripped"), Some(&Json::Bool(true)));
        let rows = parsed.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(rows[0].get("error").and_then(Json::as_str), Some("cycle budget exceeded"));
        assert_eq!(rows[0].get("leak_rate").and_then(Json::as_num), Some(0.0));
        assert_eq!(rows[1].get("status").and_then(Json::as_str), Some("skipped"));
        assert!(!text.contains("NaN") && !text.contains("nan"), "no NaN leaks into artifacts");
    }
}
