//! `paper_pool`: the paper matrix campaign (PHT/BTB/RSB × runahead, the
//! no-runahead baseline and both §6 defenses) run the way `specrun-lab
//! pool run` runs it, one worker thread, in four phases: render and parse
//! the spec, prepare every shard's snapshot (set-up), fork one session per
//! unit, render the report.
//!
//! Short attack units where copy-on-write fork, session plumbing, predecode
//! and lab parsing and serialisation weigh more than on `fig7_kernels`.

use specrun::attack::gadget::build_probe_program;
use specrun::attack::{
    build_btb_victim, build_pht_program, build_rsb_victim, PocConfig, DEFAULT_THRESHOLD,
};
use specrun::pool::{campaign_layout, ShardSnapshot, UnitResult};
use specrun_cpu::CancelToken;
use specrun_isa::{DecodedProgram, Program};
use specrun_lab::pool::{parse_spec, report_json};
use specrun_workloads::plan::{GadgetKind, PlanPolicy};
use specrun_workloads::pool::{
    CampaignSpec, PoolReport, ShardOutcome, ShardSpec, ShardStats, ShardStatus,
};
use specrun_workloads::SplitMix64;

use crate::measure::{setup_due, Spans, Tally};
use crate::Opts;

/// Campaign passes (rounds) per second of `--seconds`, sized so a run
/// lasts about that long on a 2-vCPU Firecracker guest. A pass runs every
/// unit of the campaign once and renders its report.
const PASSES_PER_S: f64 = 2.8;
/// The secrets axis: 13 bytes spread over 1..=255, so 8 shards × 13
/// secrets = 104 distinct units, enough for ten beyond p90 while every unit
/// still runs about a hundred times. A unit's simulated cycles depend
/// slightly on its secret, so the set is fixed and the seed draws only its
/// order: every seed then does the same simulated work.
const SECRET_STEP: usize = 20;

/// The paper matrix with a seed-shuffled secrets axis.
fn campaign(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::paper_matrix();
    let mut secrets: Vec<u8> = (1..=255).step_by(SECRET_STEP).collect();
    SplitMix64::new(seed).shuffle(&mut secrets);
    spec.secrets = secrets;
    spec
}

/// Runs the workload once, untraced or as the span run.
pub fn run(opts: &Opts, spans: &mut Spans) -> Tally {
    let mut tally = Tally::default();
    let (spec, snapshots) = match tally.setup(|| set_up(opts.seed, spans)) {
        Ok(prepared) => prepared,
        Err(why) => {
            // A broken set-up fails every unit it would have run.
            tally.unit(0, || ());
            tally.fail(why);
            return tally;
        }
    };
    if spans.enabled() {
        predecode_shard_programs(&spec, spans);
    }
    // Cycle of each parent snapshot: a fork's heartbeats count from here.
    let fork_cycle: Vec<u64> =
        snapshots.iter().map(|s| s.session().machine().core().cycle()).collect();

    let passes = (opts.seconds as f64 * PASSES_PER_S).round().max(1.0) as usize;
    let mut first_report: Option<String> = None;
    for pass in 0..passes {
        if setup_due(pass, passes) {
            // Timed only: the units keep using the first set-up.
            let _ = tally.setup(|| set_up(opts.seed, spans));
        }
        let mut stats = vec![ShardStats::default(); snapshots.len()];
        for (k, snapshot) in snapshots.iter().enumerate() {
            let shard = &spec.shards[k];
            for (i, &secret) in spec.secrets.iter().enumerate() {
                if spans.enabled() {
                    spans.time("core.fork", || drop(snapshot.session().clone()));
                }
                let token = CancelToken::new();
                let result = tally.unit(k * spec.secrets.len() + i, || {
                    spans.time("core.unit", || snapshot.run_forked(secret, Some(token.clone())))
                });
                let cycles = token.beat_cycle().saturating_sub(fork_cycle[k]);
                tally.sim_cycles += cycles;
                let checked = result.map_err(|e| e.to_string()).and_then(|unit| {
                    stats[k].record(
                        unit.leaked,
                        unit.expected,
                        unit.runahead_entries,
                        unit.inv_branches,
                        unit.arch_fingerprint,
                    );
                    spans.count("cpu.cycles", cycles as f64);
                    spans.count("cpu.committed", token.beat_committed() as f64);
                    spans.count("cpu.runahead_entries", unit.runahead_entries as f64);
                    spans.count("cpu.inv_unresolved_branches", unit.inv_branches as f64);
                    check_verdict(shard, secret, &unit)
                });
                if let Err(why) = checked {
                    tally.fail(format!("{}: {why}", shard.label()));
                }
            }
        }
        let report = PoolReport {
            shards: spec
                .shards
                .iter()
                .zip(stats)
                .map(|(&spec, stats)| ShardOutcome {
                    spec,
                    stats,
                    status: ShardStatus::Done { attempts: 1 },
                })
                .collect(),
            breaker_tripped: false,
        };
        let rendered = tally.round_step(|| {
            spans.time("lab.report_render", || report_json(&spec, &report).render())
        });
        spans.count("lab.report_bytes", rendered.len() as f64);
        // Every pass runs the same units, so the artifact is byte-stable.
        if first_report.get_or_insert_with(|| rendered.clone()) != &rendered {
            tally.fail("pool report changed between passes".into());
        }
    }
    tally
}

/// Phases 1 and 2: generate the campaign, render it and parse it back,
/// then prepare every shard's snapshot.
fn set_up(seed: u64, spans: &mut Spans) -> Result<(CampaignSpec, Vec<ShardSnapshot>), String> {
    let (spec, text) = spans.time("workloads.gen", || {
        let spec = campaign(seed);
        let text = spec.to_json(0);
        (spec, text)
    });
    let parsed = spans.time("lab.spec_parse", || parse_spec(&text))?;
    if parsed != spec {
        return Err("the spec did not survive render and parse".into());
    }
    let snapshots = parsed
        .shards
        .iter()
        .map(|shard| spans.time("core.prepare", || ShardSnapshot::prepare(&parsed, shard)))
        .collect();
    Ok((parsed, snapshots))
}

/// Span run only: predecodes the programs `ShardSnapshot::prepare` builds
/// for each shard, built with the same public builders, so the predecode
/// share of set-up can be read apart from the rest of `prepare`.
fn predecode_shard_programs(spec: &CampaignSpec, spans: &mut Spans) {
    let layout = campaign_layout(spec);
    for shard in &spec.shards {
        let slide = shard.nop_slide as usize;
        let programs: Vec<Program> = match shard.gadget {
            GadgetKind::Pht => vec![build_pht_program(&PocConfig {
                layout,
                secret: 0,
                training_rounds: spec.training_rounds,
                nop_slide: slide,
                attack_filler: spec.attack_filler as usize,
                threshold: DEFAULT_THRESHOLD,
                max_cycles: spec.max_cycles,
            })],
            GadgetKind::Btb => {
                let victim = build_btb_victim(&layout, slide);
                let trainer = specrun::attack::variants::build_btb_trainer(&victim);
                vec![victim, trainer, build_probe_program(&layout)]
            }
            GadgetKind::Rsb => vec![build_rsb_victim(&layout, slide), build_probe_program(&layout)],
        };
        for program in programs {
            let decoded = spans.time("isa.predecode", || DecodedProgram::new(program));
            spans.count("isa.uops", decoded.meta().len() as f64);
        }
    }
}

/// Whether the paper expects `shard` to leak: runahead leaks through every
/// gadget, and BTB also leaks under the SL-cache defense (the documented
/// scope hole: the defense guards conditional branches only). The
/// no-runahead baseline, the defended PHT shard and skip-INV do not leak.
fn expects_leak(shard: &ShardSpec) -> bool {
    match shard.policy {
        PlanPolicy::Runahead => true,
        PlanPolicy::Secure => shard.gadget == GadgetKind::Btb,
        PlanPolicy::NoRunahead
        | PlanPolicy::SkipInv
        | PlanPolicy::HeadMissTrigger
        | PlanPolicy::Precise
        | PlanPolicy::Vector => false,
    }
}

/// A unit's verdict matches its shard's paper expectation.
fn check_verdict(shard: &ShardSpec, secret: u8, unit: &UnitResult) -> Result<(), String> {
    let leaked = unit.leaked == Some(secret);
    if unit.expected != secret {
        Err(format!("unit planted {} instead of {secret}", unit.expected))
    } else if leaked != expects_leak(shard) {
        let expected = if leaked { "no leak" } else { "a leak" };
        Err(format!("secret {secret}: recovered {:?}, the paper expects {expected}", unit.leaked))
    } else {
        Ok(())
    }
}

/// Proves the verdict check can fail: a leaking unit judged against the
/// wrong secret, and against a shard that must not leak.
pub fn self_test() -> Vec<(&'static str, bool)> {
    let mut spec = CampaignSpec::paper_matrix();
    spec.secrets = vec![86];
    let shard = spec.shards[0];
    let baseline = ShardSpec { policy: PlanPolicy::NoRunahead, ..shard };
    let unit = ShardSnapshot::prepare(&spec, &shard)
        .run_forked(86, None)
        .expect("the self-test unit completes");
    vec![
        ("pool: the planted secret leaks on runahead", check_verdict(&shard, 86, &unit).is_ok()),
        ("pool: expecting the wrong secret fails", check_verdict(&shard, 87, &unit).is_err()),
        ("pool: a leak where none is expected fails", check_verdict(&baseline, 86, &unit).is_err()),
    ]
}
