//! `fuzz_forensics`: fuzz plans run the way `specrun-lab fuzz` runs them
//! (a fresh session per plan, run twice, invariants checked), plus the
//! forensic trace path: encode the recorded event stream, decode it and
//! replay it into a counting observer.
//!
//! Every unit builds its own session across varied knobs, policies and
//! gadgets (the pool's fork path is bypassed), and the `trace` layer is
//! used both ways: written with encode, read with decode and replay.

use specrun::{try_run_plan, try_run_plan_recorded};
use specrun_cpu::{CountingObserver, PipelineEvent};
use specrun_lab::fuzz::{violations_for, PlanEval};
use specrun_trace::{decode_events, encode_events, replay};
use specrun_workloads::{Plan, SplitMix64};

use crate::measure::{setup_due, Spans, Tally};
use crate::{count_cpu_stats, Opts};

/// The plan corpus: the CI fuzz campaign seed at full (non-quick) scale.
/// The run's `--seed` shuffles the order of the rounds' units, so every
/// seed does the same simulated work.
const CORPUS_SEED: u64 = 0xC0FFEE;
/// Distinct plans in the corpus.
const PLANS: u64 = 100;
/// Rounds (one run of every plan) per second of `--seconds`, sized so a
/// run lasts about that long on a 2-vCPU Firecracker guest.
const ROUNDS_PER_S: f64 = 2.0;
/// Quick-scale plans the set-up phase runs as a warm-up.
const WARM_UP_PLANS: u64 = 4;

/// The corpus: the first [`PLANS`] plans of the CI fuzz campaign.
fn corpus() -> Vec<Plan> {
    (0..PLANS).map(|i| Plan::generate(CORPUS_SEED, i, false)).collect()
}

/// The set-up phase: a few quick-scale plans through the whole unit path,
/// so the host's allocator and caches are warm before the first timed
/// unit, then the corpus.
fn set_up(spans: &mut Spans) -> Result<Vec<Plan>, String> {
    for i in 0..WARM_UP_PLANS {
        let plan = Plan::generate(CORPUS_SEED, i, true);
        run_unit(&plan, &mut Spans::new(false))
            .map_err(|why| format!("warm-up plan {i}: {why}"))?;
    }
    Ok(spans.time("workloads.gen", corpus))
}

/// Runs the workload once, untraced or as the span run.
pub fn run(opts: &Opts, spans: &mut Spans) -> Tally {
    let mut tally = Tally::default();
    let plans = match tally.setup(|| set_up(spans)) {
        Ok(plans) => plans,
        Err(why) => {
            tally.unit(0, || ());
            tally.fail(why);
            return tally;
        }
    };
    let rounds = (opts.seconds as f64 * ROUNDS_PER_S).round().max(1.0) as usize;
    let mut units: Vec<usize> = (0..rounds).flat_map(|_| 0..plans.len()).collect();
    SplitMix64::new(opts.seed).shuffle(&mut units);

    for (i, &id) in units.iter().enumerate() {
        if setup_due(i, units.len()) {
            // Timed only: the units keep using the first set-up.
            let _ = tally.setup(|| set_up(spans));
        }
        let plan = &plans[id];
        match tally.unit(id, || run_unit(plan, spans)) {
            Ok(cycles) => tally.sim_cycles += cycles,
            Err(why) => tally.fail(format!("plan {}: {why}", plan.index)),
        }
    }
    tally
}

/// One plan: the recorded run and its re-run, the fuzz invariants, then
/// encode → decode → replay. Returns the simulated cycles of both runs.
fn run_unit(plan: &Plan, spans: &mut Spans) -> Result<u64, String> {
    spans.enter("core.plan_run");
    let runs = try_run_plan_recorded(plan)
        .and_then(|(first, events)| Ok((PlanEval { first, second: try_run_plan(plan)? }, events)));
    spans.exit();
    let (eval, events) = runs.map_err(|e| e.to_string())?;
    let cycles = eval.first.stats.cycles + eval.second.stats.cycles;
    count_cpu_stats(spans, &eval.first.stats);
    count_cpu_stats(spans, &eval.second.stats);
    let bytes = spans.time("trace.encode", || encode_events(&events));
    check_unit(plan, &eval, &events, &bytes, None, spans)?;
    Ok(cycles)
}

/// The unit's checks: no fuzz invariant is violated, the trace decodes to
/// exactly the recorded events, and replaying it into a counting observer
/// reproduces the live run's counts. `invert` names an invariant whose
/// verdict is flipped (the self-test hook `violations_for` provides).
fn check_unit(
    plan: &Plan,
    eval: &PlanEval,
    events: &[PipelineEvent],
    bytes: &[u8],
    invert: Option<&str>,
    spans: &mut Spans,
) -> Result<(), String> {
    let violations = spans.time("lab.invariant", || violations_for(plan, eval, invert));
    spans.count("lab.violations", violations.len() as f64);
    if let Some(v) = violations.first() {
        return Err(format!("invariant {} violated: {}", v.invariant, v.detail));
    }
    let decoded = spans.time("trace.decode", || decode_events(bytes)).map_err(|e| e.to_string())?;
    spans.count("trace.events", events.len() as f64);
    spans.count("trace.bytes", bytes.len() as f64);
    if decoded.torn_tail || decoded.events != events {
        spans.count("trace.replay_mismatches", 1.0);
        return Err("decode(encode(events)) differs from the recorded events".into());
    }
    let replayed = spans.time("trace.replay", || {
        let mut counts = CountingObserver::default();
        replay(&decoded.events, &mut counts);
        counts
    });
    if replayed != eval.first.counts {
        spans.count("trace.replay_mismatches", 1.0);
        return Err(format!(
            "replayed counts {replayed:?} differ from live {:?}",
            eval.first.counts
        ));
    }
    Ok(())
}

/// Proves each check can fail on a real plan: an inverted invariant, a
/// trace with one event dropped, a flipped byte in the encoding, and live
/// counts that disagree with the trace.
pub fn self_test() -> Vec<(&'static str, bool)> {
    let plan = Plan::generate(CORPUS_SEED, 0, true);
    let (first, events) = try_run_plan_recorded(&plan).expect("the self-test plan runs");
    let eval = PlanEval { first, second: try_run_plan(&plan).expect("the self-test plan re-runs") };
    let bytes = encode_events(&events);
    let spans = &mut Spans::new(false);
    let invariant = specrun_lab::INVARIANTS[0].name;
    let short = encode_events(&events[..events.len() - 1]);
    let mut flipped = bytes.clone();
    let middle = flipped.len() / 2;
    flipped[middle] ^= 0x40;
    let mut miscounted = eval.clone();
    miscounted.first.counts.commits += 1;
    vec![
        (
            "fuzz: a faithful unit passes",
            check_unit(&plan, &eval, &events, &bytes, None, spans).is_ok(),
        ),
        (
            "fuzz: an inverted invariant fails",
            check_unit(&plan, &eval, &events, &bytes, Some(invariant), spans).is_err(),
        ),
        (
            "fuzz: a dropped event fails",
            check_unit(&plan, &eval, &events, &short, None, spans).is_err(),
        ),
        (
            "fuzz: a flipped byte fails",
            check_unit(&plan, &eval, &events, &flipped, None, spans).is_err(),
        ),
        (
            "fuzz: live counts that disagree with the trace fail",
            check_unit(&plan, &miscounted, &events, &bytes, None, spans).is_err(),
        ),
    ]
}
