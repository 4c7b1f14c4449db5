//! The SPECRUN simulator benchmark.
//!
//! ```text
//! perfbench --workload <fig7_kernels|paper_pool|fuzz_forensics>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Each workload is a closed loop on one thread over a fixed unit list
//! derived from `--seed`; `--seconds` sets how much fixed work the list
//! holds. Every unit's output is checked. `--trace 0` prints the end-to-end
//! metrics of an untraced run; `--trace 1` runs the workload untraced and
//! then again with spans around every layer call, and prints the per-layer
//! metrics plus the span run's overhead. The last line of standard output
//! is one JSON object; a human summary goes to standard error. See
//! `README.md` beside this package for every metric.

mod fig7;
mod fuzz;
mod measure;
mod pool;

use std::process::ExitCode;

use specrun_cpu::CpuStats;

use measure::{ratio, Spans, Tally, END_TO_END, PER_LAYER};

/// Parsed command line of a measuring run.
#[derive(Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed: unit order and drawn secrets derive from it.
    pub seed: u64,
    /// Nominal run length; the fixed work scales with it.
    pub seconds: u64,
    /// Whether to make the span run.
    pub trace: bool,
}

/// Runs a workload once, untraced or as the span run.
type Runner = fn(&Opts, &mut Spans) -> Tally;

/// Workload names and how to run each.
const WORKLOADS: [(&str, Runner); 3] =
    [("fig7_kernels", fig7::run), ("paper_pool", pool::run), ("fuzz_forensics", fuzz::run)];

const USAGE: &str = "usage: perfbench --workload <fig7_kernels|paper_pool|fuzz_forensics> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || parse_u64(value).ok_or_else(|| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Adds a core's counters to the span run's `cpu.*` and `bp.*` counts.
pub fn count_cpu_stats(spans: &mut Spans, stats: &CpuStats) {
    spans.count("cpu.cycles", stats.cycles as f64);
    spans.count("cpu.committed", stats.committed as f64);
    spans.count("cpu.dispatched", stats.dispatched as f64);
    spans.count("cpu.squashed", stats.squashed as f64);
    spans.count("cpu.runahead_entries", stats.runahead_entries as f64);
    spans.count("cpu.pseudo_retired", stats.pseudo_retired as f64);
    spans.count("cpu.runahead_prefetches", stats.runahead_prefetches as f64);
    spans.count("cpu.inv_unresolved_branches", stats.inv_unresolved_branches as f64);
    spans.count("cpu.sched_wakeups", stats.sched_wakeups as f64);
    spans.count("bp.branches", stats.branches as f64);
    spans.count("bp.mispredicts", stats.branch_mispredicts as f64);
}

/// The per-layer metrics of a span run, in [`PER_LAYER`] order.
fn per_layer(workload: &str, spans: &Spans, traced: &Tally, untraced: &Tally) -> Vec<f64> {
    let c = |name: &str| spans.counted(name);
    // The span that holds the simulation on each workload.
    let sim_span = match workload {
        "fig7_kernels" => "cpu.sim",
        "paper_pool" => "core.unit",
        _ => "core.plan_run",
    };
    let sim_ms = spans.total_ms(sim_span);
    let setups = traced.setup_s.len().max(1) as f64;
    let mem_accesses = ["mem.l1d_hits", "mem.l2_hits", "mem.l3_hits", "mem.dram_accesses"]
        .iter()
        .map(|n| c(n))
        .sum::<f64>()
        + c("mem.mshr_merges");
    let values: Vec<(&str, f64)> = vec![
        ("cpu.sim_ms", sim_ms),
        ("cpu.ns_per_cycle", ratio(sim_ms * 1e6, c("cpu.cycles"))),
        ("cpu.commit_frac", ratio(c("cpu.committed"), c("cpu.dispatched"))),
        ("bp.mispredict_frac", ratio(c("bp.mispredicts"), c("bp.branches"))),
        ("mem.l1d_hit_frac", ratio(c("mem.l1d_hits"), mem_accesses)),
        ("isa.predecode_ms", spans.total_ms("isa.predecode")),
        ("workloads.gen_ms", spans.total_ms("workloads.gen") / setups),
        ("core.prepare_ms", spans.total_ms("core.prepare") / setups),
        ("core.fork_ms", spans.total_ms("core.fork")),
        ("core.fork_share", ratio(spans.total_ms("core.fork"), spans.total_ms("core.unit"))),
        ("core.unit_ms", spans.total_ms("core.unit")),
        ("core.plan_run_ms", spans.total_ms("core.plan_run")),
        ("trace.bytes_per_event", ratio(c("trace.bytes"), c("trace.events"))),
        ("trace.encode_ms", spans.total_ms("trace.encode")),
        ("trace.decode_ms", spans.total_ms("trace.decode")),
        ("trace.replay_ms", spans.total_ms("trace.replay")),
        ("lab.spec_parse_ms", spans.total_ms("lab.spec_parse") / setups),
        ("lab.report_render_ms", spans.total_ms("lab.report_render")),
        ("lab.invariant_ms", spans.total_ms("lab.invariant")),
        ("span.overhead_frac", traced.round_s() / untraced.round_s() - 1.0),
        ("span.sim_cycles_match", f64::from(u8::from(traced.sim_cycles == untraced.sim_cycles))),
    ];
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            values.iter().find(|(n, _)| n == name).map_or_else(|| c(name), |&(_, v)| v)
        })
        .collect()
}

fn render_metrics(names: &[(&str, &str)], values: &[f64]) -> String {
    let fields: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), value)| {
            // Non-finite values cannot be written as JSON; `+ 0.0` turns
            // the -0.0 an empty float sum gives into 0.
            let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn describe(label: &str, tally: &Tally) {
    let distinct = tally.best_unit_ms().len() as u64;
    eprintln!(
        "{label}: {} unit runs ({distinct} distinct units, {} beyond p90) took {:.2} s \
         ({:.3} units/s as run, contention included), {} failed, {} simulated cycles",
        tally.attempted(),
        distinct - (0.9 * distinct as f64).ceil() as u64,
        tally.measured_s(),
        tally.attempted() as f64 / tally.measured_s(),
        tally.failed,
        tally.sim_cycles,
    );
    for ((name, unit), value) in END_TO_END.iter().zip(tally.end_to_end()) {
        eprintln!("  {name:<18} {value:>16.6} {unit}");
    }
    for problem in &tally.problems {
        eprintln!("  failure: {problem}");
    }
}

fn self_test() -> ExitCode {
    let cases: Vec<(&str, bool)> =
        fig7::self_test().into_iter().chain(pool::self_test()).chain(fuzz::self_test()).collect();
    for (what, ok) in &cases {
        println!("{} {what}", if *ok { "ok  " } else { "FAIL" });
    }
    if cases.iter().all(|(_, ok)| *ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--self-test" {
        return self_test();
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (_, run) = WORKLOADS.iter().find(|(name, _)| *name == opts.workload).expect("validated");

    let untraced = run(&opts, &mut Spans::new(false));
    describe("untraced run", &untraced);
    let (tallies, names, values) = if opts.trace {
        let mut spans = Spans::new(true);
        let traced = run(&opts, &mut spans);
        describe("span run", &traced);
        eprintln!("  {:<28} {:>9} {:>12} {:>12}", "span", "calls", "total ms", "self ms");
        for (name, calls, total, own) in spans.summary() {
            eprintln!("  {name:<28} {calls:>9} {total:>12.3} {own:>12.3}");
        }
        let values = per_layer(&opts.workload, &spans, &traced, &untraced);
        (vec![untraced, traced], &PER_LAYER[..], values)
    } else {
        let values = untraced.end_to_end();
        (vec![untraced], &END_TO_END[..], values)
    };

    let attempted: u64 = tallies.iter().map(Tally::attempted).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let cycles_agree = tallies.iter().all(|t| t.sim_cycles == tallies[0].sim_cycles);
    let correct = failed == 0 && attempted > 0 && cycles_agree;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        render_metrics(names, &values)
    );
    ExitCode::SUCCESS
}
