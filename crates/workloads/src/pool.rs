//! Declarative fork campaigns: one [`CampaignSpec`] fanned out to N
//! sessions over the supervised executor, aggregated per shard.
//!
//! A campaign is a matrix: shared geometry (layout, warm-up, machine
//! knobs, victim scale) crossed with per-shard axes (gadget × policy ×
//! nop slide) and a per-unit axis (the planted secrets). The spec expands
//! to `shards × secrets` sessions, but the executor never materializes
//! them: each *shard* is one work unit of
//! [`supervised_map_with`](crate::supervisor::supervised_map_with), and
//! the shard runner is expected to warm **one** snapshot machine per
//! shard, fork a session from it per secret (copy-on-write pages, shared
//! predecoded programs — see `specrun_mem::BackingStore` and
//! `specrun::pool`), and fold every outcome into a streaming
//! [`ShardStats`] instead of collecting per-session results.
//!
//! This module is deliberately *data plus aggregation*: it knows nothing
//! about sessions. [`PoolReport::new`] folds the supervised shard
//! outcomes into the report. The fork bridge that turns a [`ShardSpec`]
//! into warmed machines lives in `specrun::pool` (the crate that owns
//! sessions), mirroring how the fuzz [`Plan`](crate::plan::Plan) grammar
//! here pairs with `specrun::plan`.
//!
//! ```
//! use specrun_workloads::clock::WallClock;
//! use specrun_workloads::harness::RunError;
//! use specrun_workloads::pool::{CampaignSpec, PoolReport, ShardStats};
//! use specrun_workloads::supervisor::{supervised_map_with, SupervisorConfig};
//!
//! let spec = CampaignSpec::paper_matrix();
//! assert_eq!(spec.shards.len(), 8, "the paper's PHT/BTB/RSB × policy matrix");
//! // A stand-in runner: real campaigns fork sessions per secret here.
//! let outcomes = supervised_map_with(
//!     &spec.shards,
//!     2,
//!     &SupervisorConfig::default(),
//!     &WallClock::new(),
//!     |_, _shard, _ctx| {
//!         let mut stats = ShardStats::default();
//!         for &secret in &spec.secrets {
//!             stats.record(Some(secret), secret, 1, 0, u64::from(secret));
//!         }
//!         Ok::<_, RunError>(stats)
//!     },
//!     |_, _| {},
//! );
//! let report = PoolReport::new(&spec.shards, outcomes);
//! assert_eq!(report.shards.len(), 8);
//! let metrics = report.metrics();
//! assert_eq!(metrics.get("pht_runahead_units"), Some(spec.secrets.len() as f64));
//! assert_eq!(metrics.get("total_leaks"), Some(spec.unit_count() as f64));
//! ```

use crate::metrics::{metric_key, MetricSet, MetricSource};
use crate::plan::{push_spec_sections, AttackLayout, GadgetKind, KnobSpec, PlanPolicy, WarmStep};
use crate::supervisor::{SupervisedReport, UnitOutcome};

/// One cell of the campaign matrix: which gadget, under which policy,
/// with how long a nop slide. Everything else a shard needs (layout,
/// knobs, warm-up, victim scale, secrets) is campaign-global, which is
/// exactly what makes one warmed snapshot per shard sufficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Gadget kind of the shard's victim.
    pub gadget: GadgetKind,
    /// Machine policy the shard's sessions run under.
    pub policy: PlanPolicy,
    /// Nops between bounds check and secret access (0 = Fig. 9 shape,
    /// beyond the ROB = Fig. 11 shape).
    pub nop_slide: u32,
}

impl ShardSpec {
    /// Stable artifact/metric label, e.g. `pht_runahead` or
    /// `pht_runahead_s300` when the slide is nonzero.
    pub fn label(&self) -> String {
        let base = format!(
            "{}_{}",
            self.gadget.label().to_ascii_lowercase(),
            self.policy.label().to_ascii_lowercase()
        );
        if self.nop_slide == 0 {
            base
        } else {
            format!("{base}_s{}", self.nop_slide)
        }
    }
}

/// A declarative fork campaign: shared geometry plus the shard and secret
/// axes. See the [module docs](self) for the execution model and
/// `specrun-lab pool spec` for the JSON rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign seed, recorded in artifacts (supervision backoff derives
    /// from it; the attack itself is deterministic and does not use it).
    pub seed: u64,
    /// Memory geometry shared by every shard.
    pub layout: AttackLayout,
    /// Machine knobs applied on top of every shard's policy.
    pub knobs: KnobSpec,
    /// Cache warm-up steps applied to every shard's snapshot.
    pub warm: Vec<WarmStep>,
    /// PHT training iterations.
    pub training_rounds: u32,
    /// Filler between victim call and probe (see
    /// [`VictimSpec`](crate::plan::VictimSpec)).
    pub attack_filler: u32,
    /// Cycle budget per program run.
    pub max_cycles: u64,
    /// The per-unit axis: one forked session per planted secret, per
    /// shard. Secrets must be nonzero (probe entry 0 is excluded from the
    /// channel).
    pub secrets: Vec<u8>,
    /// The per-shard axes.
    pub shards: Vec<ShardSpec>,
}

impl CampaignSpec {
    /// The full paper matrix as one campaign — the eight PHT/BTB/RSB ×
    /// policy sweeps the per-figure scenarios run one at a time:
    /// vulnerable runahead (Fig. 9 and Fig. 11 shapes), the no-runahead
    /// baseline, both §6 defenses, and the §4.4 BTB/RSB variants. Every
    /// shard except the Fig. 9 one uses the Fig. 11 slide (> ROB): with no
    /// slide plain speculation reaches the gadget on *any* machine
    /// (ordinary Spectre), so only the long-slide shape isolates the
    /// runahead channel that the paper's variants ride and its defenses
    /// block.
    pub fn paper_matrix() -> CampaignSpec {
        const FIG11_SLIDE: u32 = 300;
        CampaignSpec {
            seed: 0xf199,
            layout: AttackLayout::default(),
            knobs: KnobSpec::default(),
            warm: Vec::new(),
            training_rounds: 24,
            attack_filler: 1200,
            max_cycles: 3_000_000,
            secrets: vec![86, 127, 201],
            shards: vec![
                ShardSpec { gadget: GadgetKind::Pht, policy: PlanPolicy::Runahead, nop_slide: 0 },
                ShardSpec {
                    gadget: GadgetKind::Pht,
                    policy: PlanPolicy::Runahead,
                    nop_slide: FIG11_SLIDE,
                },
                ShardSpec {
                    gadget: GadgetKind::Pht,
                    policy: PlanPolicy::NoRunahead,
                    nop_slide: FIG11_SLIDE,
                },
                ShardSpec {
                    gadget: GadgetKind::Pht,
                    policy: PlanPolicy::Secure,
                    nop_slide: FIG11_SLIDE,
                },
                ShardSpec {
                    gadget: GadgetKind::Pht,
                    policy: PlanPolicy::SkipInv,
                    nop_slide: FIG11_SLIDE,
                },
                ShardSpec {
                    gadget: GadgetKind::Btb,
                    policy: PlanPolicy::Runahead,
                    nop_slide: FIG11_SLIDE,
                },
                ShardSpec {
                    gadget: GadgetKind::Btb,
                    policy: PlanPolicy::Secure,
                    nop_slide: FIG11_SLIDE,
                },
                ShardSpec {
                    gadget: GadgetKind::Rsb,
                    policy: PlanPolicy::Runahead,
                    nop_slide: FIG11_SLIDE,
                },
            ],
        }
    }

    /// Total sessions the spec expands to: `shards × secrets`.
    pub fn unit_count(&self) -> u64 {
        self.shards.len() as u64 * self.secrets.len() as u64
    }

    /// Structural soundness: a valid layout, at least one shard, at least
    /// one secret, every secret nonzero, every warm step inside the
    /// scratch region.
    pub fn is_valid(&self) -> bool {
        self.layout.is_valid()
            && !self.shards.is_empty()
            && !self.secrets.is_empty()
            && self.secrets.iter().all(|&s| s != 0)
            && self.warm.iter().all(|w| w.addr >= crate::plan::WARM_SCRATCH_BASE)
    }

    /// Renders the spec as deterministic, insertion-ordered JSON —
    /// the document `specrun-lab pool run` accepts. `indent` is the
    /// nesting depth of the opening brace's line; the first line carries
    /// no leading whitespace.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = "  ".repeat(indent + 1);
        let pad2 = "  ".repeat(indent + 2);
        let close = "  ".repeat(indent);
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("{pad}\"pool_spec\": \"specrun\",\n"));
        // As a string: u64 seeds above 2^53 would round through f64.
        s.push_str(&format!("{pad}\"seed\": \"{}\",\n", self.seed));
        s.push_str(&format!("{pad}\"training_rounds\": {},\n", self.training_rounds));
        s.push_str(&format!("{pad}\"attack_filler\": {},\n", self.attack_filler));
        s.push_str(&format!("{pad}\"max_cycles\": {},\n", self.max_cycles));
        s.push_str(&format!("{pad}\"secrets\": ["));
        for (i, secret) in self.secrets.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&secret.to_string());
        }
        s.push_str("],\n");
        push_spec_sections(&mut s, &pad, &pad2, &self.layout, &self.warm, &self.knobs);
        s.push_str(&format!(",\n{pad}\"shards\": [\n"));
        for (i, shard) in self.shards.iter().enumerate() {
            s.push_str(&format!(
                "{pad2}{{\"gadget\": \"{}\", \"policy\": \"{}\", \"nop_slide\": {}}}{}\n",
                shard.gadget.label(),
                shard.policy.label(),
                shard.nop_slide,
                if i + 1 < self.shards.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!("{pad}]\n"));
        s.push_str(&format!("{close}}}"));
        s
    }
}

/// Streaming per-shard aggregation: the shard runner folds every forked
/// session's outcome into this accumulator and the per-session results are
/// dropped on the spot — a million-unit shard costs a constant few words.
///
/// The default value is the well-formed **empty** shard: all counts zero
/// and [`ShardStats::leak_rate`] exactly `0.0` (never NaN), which is what
/// a shard that the circuit breaker skipped contributes to the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Sessions aggregated.
    pub units: u64,
    /// Sessions whose channel recovered the planted secret.
    pub leaks: u64,
    /// Sessions whose channel recovered a *different* byte.
    pub wrong: u64,
    /// Sessions whose channel recovered nothing.
    pub silent: u64,
    /// Total runahead episodes across the shard's sessions.
    pub runahead_entries: u64,
    /// Total unresolved INV-source branches (the SPECRUN signature).
    pub inv_branches: u64,
    /// Order-sensitive FNV-style fold of every session's architectural
    /// fingerprint: two runs of the same shard must agree bit for bit, so
    /// this single word is the repro gate's whole-shard equality check.
    pub fingerprint: u64,
}

impl ShardStats {
    /// Folds one session outcome into the accumulator.
    pub fn record(
        &mut self,
        leaked: Option<u8>,
        expected: u8,
        runahead_entries: u64,
        inv_branches: u64,
        fingerprint: u64,
    ) {
        self.units += 1;
        match leaked {
            Some(byte) if byte == expected => self.leaks += 1,
            Some(_) => self.wrong += 1,
            None => self.silent += 1,
        }
        self.runahead_entries += runahead_entries;
        self.inv_branches += inv_branches;
        self.fingerprint = self
            .fingerprint
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(17)
            .wrapping_add(fingerprint ^ u64::from(expected));
    }

    /// Fraction of units that leaked their secret; `0.0` for an empty
    /// shard (a breaker-skipped shard must aggregate to a well-formed
    /// zero-count entry, not a NaN mean).
    pub fn leak_rate(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.leaks as f64 / self.units as f64
        }
    }
}

impl MetricSource for ShardStats {
    fn emit_metrics(&self, prefix: &str, out: &mut MetricSet) {
        out.push(metric_key(prefix, "units"), self.units as f64);
        out.push(metric_key(prefix, "leaks"), self.leaks as f64);
        out.push(metric_key(prefix, "wrong"), self.wrong as f64);
        out.push(metric_key(prefix, "silent"), self.silent as f64);
        out.push(metric_key(prefix, "leak_rate"), self.leak_rate());
        out.push(metric_key(prefix, "runahead_entries"), self.runahead_entries as f64);
        out.push(metric_key(prefix, "inv_branches"), self.inv_branches as f64);
    }
}

/// How one shard ended under supervision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// The shard ran to completion (possibly after retries).
    Done {
        /// Attempts consumed, counting the successful one.
        attempts: u32,
    },
    /// Every allowed attempt failed.
    Failed(String),
    /// The shard failed identically twice and was quarantined.
    Quarantined(String),
    /// The circuit breaker tripped before the shard started.
    Skipped,
}

impl ShardStatus {
    /// Stable artifact label.
    pub fn label(&self) -> &'static str {
        match self {
            ShardStatus::Done { .. } => "done",
            ShardStatus::Failed(_) => "failed",
            ShardStatus::Quarantined(_) => "quarantined",
            ShardStatus::Skipped => "skipped",
        }
    }
}

/// One shard's contribution to a [`PoolReport`]. A shard that did not
/// complete carries the empty [`ShardStats`] — zero counts, `0.0` rate —
/// so aggregation over a partially-run campaign stays well-formed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// The shard's matrix cell.
    pub spec: ShardSpec,
    /// The streamed aggregate (empty unless the shard completed).
    pub stats: ShardStats,
    /// How the shard ended.
    pub status: ShardStatus,
}

/// A completed (possibly partial) campaign: per-shard outcomes in spec
/// order plus the breaker verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolReport {
    /// Per-shard outcomes, index-aligned with [`CampaignSpec::shards`].
    pub shards: Vec<ShardOutcome>,
    /// Whether the circuit breaker tripped (some shards are `Skipped`).
    pub breaker_tripped: bool,
}

impl PoolReport {
    /// Folds the supervised outcomes of `shards` (index-aligned) into the
    /// report. A shard that did not complete keeps the empty
    /// [`ShardStats`] and carries its failure in its [`ShardStatus`].
    pub fn new(shards: &[ShardSpec], report: SupervisedReport<ShardStats>) -> PoolReport {
        let shards = shards
            .iter()
            .zip(report.outcomes)
            .map(|(&spec, outcome)| {
                let (stats, status) = match outcome {
                    UnitOutcome::Done { result, attempts } => {
                        (result, ShardStatus::Done { attempts })
                    }
                    UnitOutcome::Failed { error, .. } => {
                        (ShardStats::default(), ShardStatus::Failed(error.to_string()))
                    }
                    UnitOutcome::Quarantined { error, .. } => {
                        (ShardStats::default(), ShardStatus::Quarantined(error.to_string()))
                    }
                    UnitOutcome::Skipped => (ShardStats::default(), ShardStatus::Skipped),
                };
                ShardOutcome { spec, stats, status }
            })
            .collect();
        PoolReport { shards, breaker_tripped: report.breaker_tripped }
    }

    /// Shards that ran to completion.
    pub fn completed(&self) -> u64 {
        self.shards.iter().filter(|s| matches!(s.status, ShardStatus::Done { .. })).count() as u64
    }

    /// Total sessions aggregated across completed shards.
    pub fn total_units(&self) -> u64 {
        self.shards.iter().map(|s| s.stats.units).sum()
    }

    /// Whether every shard completed.
    pub fn all_done(&self) -> bool {
        self.completed() == self.shards.len() as u64
    }

    /// Flattens the campaign into one deterministic [`MetricSet`]: every
    /// shard's stats under its [`ShardSpec::label`] prefix — including
    /// zero-count entries for shards that never ran — then the
    /// campaign-level totals.
    pub fn metrics(&self) -> MetricSet {
        let mut out = MetricSet::new();
        for shard in &self.shards {
            shard.stats.emit_metrics(&shard.spec.label(), &mut out);
        }
        out.push("total_units", self.total_units() as f64);
        out.push("total_leaks", self.shards.iter().map(|s| s.stats.leaks).sum::<u64>() as f64);
        out.push("shards_done", self.completed() as f64);
        out.push(
            "shards_skipped",
            self.shards.iter().filter(|s| s.status == ShardStatus::Skipped).count() as f64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ChaosClock, Clock, WallClock};
    use crate::harness::RunError;
    use crate::supervisor::{supervised_map_with, SupervisorConfig, UnitCtx};

    /// The shards of `spec` on the supervised pool, folded into a report.
    fn run_pool<F>(
        spec: &CampaignSpec,
        threads: usize,
        cfg: &SupervisorConfig,
        clock: &dyn Clock,
        runner: F,
    ) -> PoolReport
    where
        F: Fn(&CampaignSpec, &ShardSpec, &UnitCtx) -> Result<ShardStats, RunError> + Sync,
    {
        let outcomes = supervised_map_with(
            &spec.shards,
            threads,
            cfg,
            clock,
            |_, shard, ctx| runner(spec, shard, ctx),
            |_, _| {},
        );
        PoolReport::new(&spec.shards, outcomes)
    }

    fn counting_runner(
        spec: &CampaignSpec,
        _shard: &ShardSpec,
        _ctx: &UnitCtx,
    ) -> Result<ShardStats, RunError> {
        let mut stats = ShardStats::default();
        for &secret in &spec.secrets {
            stats.record(Some(secret), secret, 2, 1, u64::from(secret) << 8);
        }
        Ok(stats)
    }

    #[test]
    fn paper_matrix_is_valid_and_covers_all_gadgets() {
        let spec = CampaignSpec::paper_matrix();
        assert!(spec.is_valid());
        assert_eq!(spec.shards.len(), 8);
        assert_eq!(spec.unit_count(), 24);
        for gadget in [GadgetKind::Pht, GadgetKind::Btb, GadgetKind::Rsb] {
            assert!(spec.shards.iter().any(|s| s.gadget == gadget), "{gadget:?} missing");
        }
        let labels: Vec<String> = spec.shards.iter().map(ShardSpec::label).collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "shard labels must be unique: {labels:?}");
    }

    #[test]
    fn shard_labels_encode_slide() {
        let spec =
            ShardSpec { gadget: GadgetKind::Pht, policy: PlanPolicy::Runahead, nop_slide: 0 };
        assert_eq!(spec.label(), "pht_runahead");
        let slid = ShardSpec { nop_slide: 300, ..spec };
        assert_eq!(slid.label(), "pht_runahead_s300");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = CampaignSpec::paper_matrix();
        spec.secrets = vec![0];
        assert!(!spec.is_valid(), "secret 0 is unrecoverable by construction");
        let mut spec = CampaignSpec::paper_matrix();
        spec.shards.clear();
        assert!(!spec.is_valid());
        let mut spec = CampaignSpec::paper_matrix();
        spec.secrets.clear();
        assert!(!spec.is_valid());
    }

    #[test]
    fn spec_json_is_deterministic_and_self_describing() {
        let spec = CampaignSpec::paper_matrix();
        let a = spec.to_json(0);
        assert_eq!(a, spec.to_json(0));
        assert!(a.contains("\"pool_spec\": \"specrun\""));
        assert!(a.contains("\"seed\": \"61849\""));
        assert!(a.contains("\"secrets\": [86, 127, 201]"));
        assert!(a.contains("\"gadget\": \"Rsb\""));
        assert!(a.contains("\"nop_slide\": 300"));
    }

    #[test]
    fn pool_streams_shard_stats_in_spec_order() {
        let spec = CampaignSpec::paper_matrix();
        let cfg = SupervisorConfig::default();
        let report = run_pool(&spec, 4, &cfg, &WallClock::new(), counting_runner);
        assert!(report.all_done());
        assert!(!report.breaker_tripped);
        assert_eq!(report.total_units(), spec.unit_count());
        for (outcome, shard) in report.shards.iter().zip(&spec.shards) {
            assert_eq!(outcome.spec, *shard, "outcomes keep spec order");
            assert_eq!(outcome.stats.units, spec.secrets.len() as u64);
            assert_eq!(outcome.stats.leak_rate(), 1.0);
        }
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let spec = CampaignSpec::paper_matrix();
        let (cfg, clock) = (SupervisorConfig::default(), WallClock::new());
        let one = run_pool(&spec, 1, &cfg, &clock, counting_runner);
        let many = run_pool(&spec, 8, &cfg, &clock, counting_runner);
        assert_eq!(one, many);
        assert_eq!(one.metrics(), many.metrics());
    }

    #[test]
    fn empty_shard_aggregates_to_zero_counts_not_nan() {
        // Regression: a breaker-skipped shard contributes a well-formed
        // zero-count entry. A NaN mean would panic inside MetricSet::push.
        let stats = ShardStats::default();
        assert_eq!(stats.leak_rate(), 0.0);
        let mut set = MetricSet::new();
        stats.emit_metrics("ghost", &mut set);
        assert_eq!(set.get("ghost_units"), Some(0.0));
        assert_eq!(set.get("ghost_leak_rate"), Some(0.0));
        assert!(set.entries().iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn breaker_trip_yields_skipped_shards_with_wellformed_metrics() {
        let mut spec = CampaignSpec::paper_matrix();
        spec.seed = 7;
        let cfg = SupervisorConfig {
            max_failure_rate: 0.2,
            breaker_min_units: 2,
            ..SupervisorConfig::default()
        };
        let report = run_pool(&spec, 1, &cfg, &ChaosClock::new(), |_, shard, _| {
            Err::<ShardStats, _>(RunError::Io { what: shard.label(), detail: "injected".into() })
        });
        assert!(report.breaker_tripped);
        assert!(report.shards.iter().any(|s| s.status == ShardStatus::Skipped));
        // The whole-campaign aggregation over failed + skipped shards must
        // still be finite and zero-counted (the NaN-mean regression).
        let metrics = report.metrics();
        assert_eq!(metrics.get("total_units"), Some(0.0));
        assert_eq!(metrics.get("shards_done"), Some(0.0));
        assert!(metrics.entries().iter().all(|(_, v)| v.is_finite()));
        assert!(metrics.get("shards_skipped").unwrap() > 0.0);
    }

    #[test]
    fn fingerprint_fold_is_order_sensitive_and_deterministic() {
        let mut a = ShardStats::default();
        a.record(Some(1), 1, 0, 0, 100);
        a.record(Some(2), 2, 0, 0, 200);
        let mut b = ShardStats::default();
        b.record(Some(2), 2, 0, 0, 200);
        b.record(Some(1), 1, 0, 0, 100);
        assert_ne!(a.fingerprint, b.fingerprint, "the fold is order-sensitive");
        let mut c = ShardStats::default();
        c.record(Some(1), 1, 0, 0, 100);
        c.record(Some(2), 2, 0, 0, 200);
        assert_eq!(a, c, "same sequence, same aggregate");
    }
}
