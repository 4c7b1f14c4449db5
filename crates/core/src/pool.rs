//! The `CampaignSpec → Session` fork bridge: one warmed snapshot per
//! shard, one copy-on-write fork per secret.
//!
//! The campaign grammar ([`CampaignSpec`], [`ShardSpec`], the streaming
//! [`ShardStats`]) lives in `specrun-workloads` as pure data; this module
//! owns the session side, mirroring how [`crate::plan`] pairs with the
//! fuzz plan grammar. Per shard it builds **one** [`ShardSnapshot`]: the
//! machine configured (policy, then knobs), the campaign's warm-up
//! applied, and the shard's [`Attack`] prepared — its programs predecoded
//! once into `Arc<DecodedProgram>`s (`specrun_isa`) and every
//! secret-independent step (text warming, BTB training) already executed.
//! Each unit then *forks* the snapshot and strikes: cloning a [`Session`]
//! clones the machine, whose backing store shares its pages `Arc`-per-page
//! and unshares only what the fork writes (see
//! `specrun_mem::BackingStore`), and whose program slots share the
//! snapshot's predecode. Planting the secret and running the victim
//! touches a handful of pages, so a fork costs a small fraction of a fresh
//! [`Session::builder`] build — that ratio is what `specrun-lab perf`
//! reports as `sessions_per_sec`.
//!
//! A pool unit is the same attack sequence as [`crate::attack::run_poc`]
//! (prepare, then strike), with the fork in between. A fresh
//! [`ShardSnapshot::prepare`] plus one [`ShardSnapshot::run_forked`] is
//! therefore the never-pooled control, and a forked unit must agree **bit
//! for bit** (leak verdict, signature counters, architectural fingerprint,
//! statistics) with `run_poc` on a fresh session built like the shard —
//! the property the tests below pin and the `pool-repro` CI gate re-checks
//! end to end.

use specrun_cpu::{CancelToken, CpuConfig};
use specrun_workloads::clock::WallClock;
use specrun_workloads::harness::RunError;
use specrun_workloads::pool::{CampaignSpec, PoolReport, ShardSpec, ShardStats};
use specrun_workloads::supervisor::{supervised_map_with, SupervisorConfig};

use crate::attack::{Attack, AttackLayout, PocConfig, DEFAULT_THRESHOLD};
use crate::session::{Policy, Session};

/// The machine configuration one shard describes: Table 1, then the
/// shard's policy, then the campaign's knobs — the same composition order
/// as [`crate::plan::config_for`], so defense-only knobs stay gated on
/// the policy having armed the defense.
pub fn shard_config(spec: &CampaignSpec, shard: &ShardSpec) -> CpuConfig {
    let mut cfg = CpuConfig::default();
    Policy::from(shard.policy).apply(&mut cfg);
    spec.knobs.apply(&mut cfg);
    cfg
}

/// The attack layout a campaign describes (shared by every shard).
pub fn campaign_layout(spec: &CampaignSpec) -> AttackLayout {
    spec.layout
}

/// The PoC configuration one shard describes. Its `secret` is a
/// placeholder: [`Attack::prepare`] never reads it, which is what makes
/// one prepared attack per shard sound.
fn shard_poc_config(spec: &CampaignSpec, shard: &ShardSpec) -> PocConfig {
    PocConfig {
        layout: spec.layout,
        secret: 0,
        training_rounds: spec.training_rounds,
        nop_slide: shard.nop_slide as usize,
        attack_filler: spec.attack_filler as usize,
        threshold: DEFAULT_THRESHOLD,
        max_cycles: spec.max_cycles,
    }
}

/// One shard's warmed parent session plus its prepared attack.
///
/// Everything secret-independent has already happened here; a unit is
/// [`ShardSnapshot::run_forked`] — clone, strike, check.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    session: Session,
    attack: Attack,
    label: String,
}

impl ShardSnapshot {
    /// Builds and warms the shard's parent session: configuration
    /// composed, campaign warm-up applied, attack prepared.
    pub fn prepare(spec: &CampaignSpec, shard: &ShardSpec) -> ShardSnapshot {
        ShardSnapshot::prepare_governed(spec, shard, None)
    }

    /// [`ShardSnapshot::prepare`] under `token`, so the BTB training runs
    /// stop when it trips (forks attach their own token).
    fn prepare_governed(
        spec: &CampaignSpec,
        shard: &ShardSpec,
        token: Option<&CancelToken>,
    ) -> ShardSnapshot {
        let mut session =
            Session::builder().config(shard_config(spec, shard)).layout(spec.layout).build();
        for w in &spec.warm {
            session.warm(w.addr, w.len);
        }
        session.set_cancel_token(token.cloned());
        let attack = Attack::prepare(&mut session, shard.gadget, &shard_poc_config(spec, shard));
        ShardSnapshot { session, attack, label: shard.label() }
    }

    /// The warmed parent session (read-only; forks clone it).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Runs one unit on a copy-on-write fork of the snapshot.
    pub fn run_forked(
        &self,
        secret: u8,
        token: Option<CancelToken>,
    ) -> Result<UnitResult, RunError> {
        self.strike_fork(secret, token).map(|(unit, _)| unit)
    }

    /// [`ShardSnapshot::run_forked`], also handing back the struck fork.
    fn strike_fork(
        &self,
        secret: u8,
        token: Option<CancelToken>,
    ) -> Result<(UnitResult, Session), RunError> {
        let mut session = self.session.clone();
        session.machine_mut().set_cancel_token(token);
        let outcome = self.attack.strike(&mut session, secret);
        session.check_halted(|| format!("pool shard {} secret {secret}", self.label))?;
        let unit = UnitResult {
            leaked: outcome.leaked,
            expected: secret,
            runahead_entries: outcome.runahead_entries,
            inv_branches: outcome.inv_branches,
            arch_fingerprint: session.machine().core().arch_fingerprint(),
        };
        Ok((unit, session))
    }
}

/// Everything one unit (one forked session, one secret) produced. Fork
/// and fresh runs of the same unit must compare equal — `PartialEq` *is*
/// the fork-fidelity invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitResult {
    /// Byte the covert channel recovered, if any.
    pub leaked: Option<u8>,
    /// The planted secret.
    pub expected: u8,
    /// Runahead episodes the victim caused.
    pub runahead_entries: u64,
    /// Unresolved INV-source branches (the SPECRUN signature).
    pub inv_branches: u64,
    /// Architectural-state fingerprint after the unit's last program.
    pub arch_fingerprint: u64,
}

/// Runs one shard: prepares its snapshot once, forks a session per
/// secret, folds every unit into a streaming [`ShardStats`]. Every
/// simulation runs under `token`.
pub fn run_shard(
    spec: &CampaignSpec,
    shard: &ShardSpec,
    token: &CancelToken,
) -> Result<ShardStats, RunError> {
    let snapshot = ShardSnapshot::prepare_governed(spec, shard, Some(token));
    let mut stats = ShardStats::default();
    for &secret in &spec.secrets {
        let unit = snapshot.run_forked(secret, Some(token.clone()))?;
        stats.record(
            unit.leaked,
            unit.expected,
            unit.runahead_entries,
            unit.inv_branches,
            unit.arch_fingerprint,
        );
    }
    Ok(stats)
}

/// Runs a whole campaign with fork-based pooling under passive
/// supervision: `spec.shards` fanned out over `threads` workers (`0` = all
/// host cores), one snapshot per shard, one fork per secret. Each shard
/// runs under its pool unit's own token, or under the caller's `token`
/// when one is given; a shard that fails is reported in its
/// [`ShardStatus`](specrun_workloads::pool::ShardStatus). The campaign
/// itself fails only with [`RunError::Cancelled`], when the caller's
/// token tripped and the report would be partial.
///
/// # Panics
///
/// Panics if `spec` fails [`CampaignSpec::is_valid`] — a malformed spec
/// is a caller bug, not a per-shard failure.
pub fn run_campaign(
    spec: &CampaignSpec,
    threads: usize,
    token: Option<&CancelToken>,
) -> Result<PoolReport, RunError> {
    assert!(spec.is_valid(), "invalid campaign spec: {spec:?}");
    let cfg = SupervisorConfig { seed: spec.seed, ..SupervisorConfig::default() };
    let outcomes = supervised_map_with(
        &spec.shards,
        threads,
        &cfg,
        &WallClock::new(),
        |_, shard, unit| run_shard(spec, shard, token.unwrap_or(&unit.token)),
        |_, _| {},
    );
    let report = PoolReport::new(&spec.shards, outcomes);
    match token {
        Some(token) if token.is_cancelled() => Err(RunError::Cancelled {
            what: "pool campaign".to_string(),
            committed: token.beat_committed(),
        }),
        _ => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::run_poc;
    use proptest::prelude::*;
    use specrun_workloads::plan::GadgetKind;
    use specrun_workloads::plan::PlanPolicy;
    use specrun_workloads::pool::ShardStatus;

    /// A cut-down campaign that still exercises every per-unit path.
    fn small_spec(shards: Vec<ShardSpec>) -> CampaignSpec {
        CampaignSpec { secrets: vec![86, 201], shards, ..CampaignSpec::paper_matrix() }
    }

    fn shard(gadget: GadgetKind, policy: PlanPolicy, nop_slide: u32) -> ShardSpec {
        ShardSpec { gadget, policy, nop_slide }
    }

    /// The pool and the PoC run the same attack: every forked unit of the
    /// paper matrix equals `run_poc` on a fresh session built like the
    /// shard (same configuration, layout and campaign warm-up) — verdict,
    /// counters, architectural fingerprint and the full statistics.
    #[test]
    fn forked_units_equal_fresh_run_poc_across_the_paper_matrix() {
        let spec = CampaignSpec::paper_matrix();
        for cell in &spec.shards {
            let snapshot = ShardSnapshot::prepare(&spec, cell);
            for &secret in &spec.secrets {
                let (forked, fork) = snapshot.strike_fork(secret, None).expect("forked unit runs");
                let mut fresh = Session::builder()
                    .config(shard_config(&spec, cell))
                    .layout(spec.layout)
                    .build();
                for w in &spec.warm {
                    fresh.warm(w.addr, w.len);
                }
                let cfg = PocConfig {
                    layout: spec.layout,
                    secret,
                    training_rounds: spec.training_rounds,
                    nop_slide: cell.nop_slide as usize,
                    attack_filler: spec.attack_filler as usize,
                    max_cycles: spec.max_cycles,
                    ..PocConfig::default()
                };
                let outcome = run_poc(&mut fresh, cell.gadget, &cfg);
                assert_eq!(fresh.first_non_halt(), None, "{} secret {secret}", cell.label());
                let what = format!("{} secret {secret}", cell.label());
                assert_eq!(forked.leaked, outcome.leaked, "{what}: verdict");
                assert_eq!(forked.expected, outcome.expected, "{what}: expected");
                assert_eq!(forked.runahead_entries, outcome.runahead_entries, "{what}");
                assert_eq!(forked.inv_branches, outcome.inv_branches, "{what}");
                assert_eq!(
                    forked.arch_fingerprint,
                    fresh.core().arch_fingerprint(),
                    "{what}: architectural state"
                );
                assert_eq!(fork.stats(), fresh.stats(), "{what}: statistics");
            }
        }
    }

    #[test]
    fn forked_units_leak_on_runahead_and_not_under_defenses() {
        let spec = small_spec(vec![]);
        let leak = shard(GadgetKind::Pht, PlanPolicy::Runahead, 0);
        let snapshot = ShardSnapshot::prepare(&spec, &leak);
        for &secret in &spec.secrets {
            let unit = snapshot.run_forked(secret, None).unwrap();
            assert_eq!(unit.leaked, Some(secret), "runahead machine leaks each fork's secret");
            assert!(unit.runahead_entries > 0);
        }
        // Fig. 11 shape: with the slide past the ROB only the runahead
        // channel can reach the gadget, which is what the defense blocks.
        let secure =
            ShardSnapshot::prepare(&spec, &shard(GadgetKind::Pht, PlanPolicy::Secure, 300));
        let unit = secure.run_forked(86, None).unwrap();
        assert_eq!(unit.leaked, None, "SL cache blocks the channel");
    }

    #[test]
    fn sibling_forks_see_their_own_secrets_only() {
        let spec = small_spec(vec![]);
        let snapshot =
            ShardSnapshot::prepare(&spec, &shard(GadgetKind::Pht, PlanPolicy::Runahead, 0));
        let layout = *snapshot.session().layout();
        let mut a = snapshot.session().clone();
        let mut b = snapshot.session().clone();
        a.plant(&layout, 0x11);
        b.plant(&layout, 0x22);
        assert_eq!(a.read_bytes(layout.secret_addr, 1), vec![0x11]);
        assert_eq!(b.read_bytes(layout.secret_addr, 1), vec![0x22]);
        assert_eq!(
            snapshot.session().read_bytes(layout.secret_addr, 1),
            vec![0],
            "the parent snapshot never held a secret"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// COW fidelity, memory-only: whatever a fork writes, parent and
        /// sibling reads are unaffected, and untouched addresses read
        /// through to the shared (parent) value.
        #[test]
        fn forked_session_writes_never_bleed(
            offset in 0u64..0x4000,
            parent_byte in any::<u8>(),
            fork_a_byte in any::<u8>(),
            fork_b_byte in any::<u8>(),
        ) {
            let base = specrun_workloads::plan::WARM_SCRATCH_BASE;
            let addr = base + offset;
            let spec = small_spec(vec![]);
            let cell = shard(GadgetKind::Pht, PlanPolicy::Runahead, 0);
            let mut snapshot = ShardSnapshot::prepare(&spec, &cell);
            snapshot.session.write_bytes(addr, &[parent_byte]);
            let mut a = snapshot.session().clone();
            let mut b = snapshot.session().clone();
            a.write_bytes(addr, &[fork_a_byte]);
            b.write_bytes(addr + 0x4000, &[fork_b_byte]);
            prop_assert_eq!(a.read_bytes(addr, 1), vec![fork_a_byte]);
            prop_assert_eq!(b.read_bytes(addr, 1), vec![parent_byte],
                "sibling must not see fork A's write");
            prop_assert_eq!(b.read_bytes(addr + 0x4000, 1), vec![fork_b_byte]);
            prop_assert_eq!(snapshot.session().read_bytes(addr, 1), vec![parent_byte],
                "parent must not see fork A's write");
            prop_assert_eq!(snapshot.session().read_bytes(addr + 0x4000, 1), vec![0u8],
                "parent must not see fork B's write");
            prop_assert_eq!(a.read_bytes(addr + 0x4000, 1), vec![0u8],
                "fork A must not see fork B's write");
        }
    }

    #[test]
    fn run_campaign_aggregates_mixed_policies() {
        let spec = small_spec(vec![
            shard(GadgetKind::Pht, PlanPolicy::Runahead, 0),
            shard(GadgetKind::Pht, PlanPolicy::Secure, 300),
        ]);
        let report = run_campaign(&spec, 2, None).unwrap();
        assert!(report.all_done(), "{:?}", report.shards);
        assert_eq!(report.total_units(), 4);
        assert_eq!(report.shards[0].stats.leaks, 2, "runahead shard leaks every secret");
        assert_eq!(report.shards[1].stats.leaks, 0, "secure shard leaks nothing");
        assert!(matches!(report.shards[0].status, ShardStatus::Done { attempts: 1 }));
    }

    #[test]
    fn campaign_report_is_thread_count_invariant() {
        let spec = small_spec(vec![
            shard(GadgetKind::Pht, PlanPolicy::Runahead, 0),
            shard(GadgetKind::Rsb, PlanPolicy::Runahead, 0),
        ]);
        let one = run_campaign(&spec, 1, None).unwrap();
        let four = run_campaign(&spec, 4, None).unwrap();
        assert_eq!(one, four, "shard fingerprints must not depend on scheduling");
    }

    #[test]
    fn starved_budget_surfaces_as_structured_error() {
        let mut spec = small_spec(vec![]);
        spec.max_cycles = 40;
        let cell = shard(GadgetKind::Pht, PlanPolicy::Runahead, 0);
        match ShardSnapshot::prepare(&spec, &cell).run_forked(86, None) {
            Err(RunError::CycleBudgetExceeded { what, budget, .. }) => {
                assert!(what.contains("pht_runahead"), "{what}");
                assert_eq!(budget, 40);
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
    }
}
