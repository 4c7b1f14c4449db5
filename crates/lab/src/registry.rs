//! The scenario registry: every paper artifact as a [`Scenario`] value.
//!
//! Adding a new experiment means adding one entry here — a run function
//! that produces metrics (through the [`MetricSource`] extraction traits),
//! config digests and paper-claim invariants — not a new binary.

use specrun::attack::{
    run_btb_poc, run_pht_poc, run_pht_sweep, run_rsb_poc, PocConfig, PocOutcome, SweepConfig,
};
use specrun::defense::verify_pht_blocked;
use specrun::session::{leak_trace_for, Policy, Session};
use specrun::window::measure_windows;
use specrun_cpu::probe::CountingObserver;
use specrun_cpu::{CpuConfig, RunaheadPolicy};
use specrun_workloads::ipc::{run_workload, IpcComparison};
use specrun_workloads::metrics::MetricSource;
use specrun_workloads::{geomean_speedup, parallel_map, suite_with_iters};

use crate::scenario::{RunContext, Scenario, ScenarioRun};

/// Every registered scenario, in the paper's order.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "table1",
            title: "Basic configuration of the processor",
            paper_ref: "Table 1",
            run: run_table1,
        },
        Scenario {
            name: "fig7",
            title: "Standardized performance (IPC) comparison",
            paper_ref: "Fig. 7",
            run: run_fig7,
        },
        Scenario {
            name: "fig9",
            title: "Probe-array access time after executing SPECRUN",
            paper_ref: "Fig. 9",
            run: run_fig9,
        },
        Scenario {
            name: "fig10",
            title: "Available transient window",
            paper_ref: "Fig. 10 / §5.3",
            run: run_fig10,
        },
        Scenario {
            name: "fig11",
            title: "Probe access time with the secret pushed beyond the ROB",
            paper_ref: "Fig. 11",
            run: run_fig11,
        },
        Scenario {
            name: "variants",
            title: "Attack applicability across policies and Spectre variants",
            paper_ref: "§4.3 / §4.4",
            run: run_variants,
        },
        Scenario {
            name: "defense",
            title: "Secure-runahead defense effectiveness and overhead",
            paper_ref: "§6",
            run: run_defense,
        },
        Scenario {
            name: "leak_trace",
            title: "Ground-truth transient-fill trace vs probe-timing inference",
            paper_ref: "§5 methodology",
            run: run_leak_trace,
        },
        Scenario {
            name: "trace_repro",
            title: "Record/replay losslessness and first-divergence forensics",
            paper_ref: "§5 methodology",
            run: run_trace_repro,
        },
        Scenario {
            name: "bench_step",
            title: "Simulator self-check: fast-forward invisibility and sweep accuracy",
            paper_ref: "methodology",
            run: run_bench_step,
        },
        Scenario {
            name: "pool_matrix",
            title: "Copy-on-write fork campaign across the attack/defense matrix",
            paper_ref: "§4.3/§4.4/§6",
            run: run_pool_matrix,
        },
    ]
}

/// Looks a scenario up by registry name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

fn scenario(name: &str) -> Scenario {
    find(name).expect("registry names its own scenarios")
}

/// Resolves `ctx.threads` for a `parallel_map` fan-out (`0` = all host
/// cores); `parallel_map` itself clamps to the job count.
fn worker_threads(ctx: &RunContext) -> usize {
    if ctx.threads == 0 {
        specrun_workloads::harness::default_threads()
    } else {
        ctx.threads
    }
}

// ---------------------------------------------------------------------------
// Table 1 — the machine configuration.
// ---------------------------------------------------------------------------

fn run_table1(ctx: &RunContext) -> ScenarioRun {
    let mut run = ScenarioRun::new(&scenario("table1"), ctx);
    let c = CpuConfig::default();
    run.digest("default", &c);

    run.metrics.push("freq_ghz", c.freq_ghz);
    run.metrics.push("width", c.width as f64);
    run.metrics.push("frontend_stages", c.frontend_stages as f64);
    run.metrics.push("rob_entries", c.rob_entries as f64);
    run.metrics.push("iq_entries", c.iq_entries as f64);
    run.metrics.push("lq_entries", c.lq_entries as f64);
    run.metrics.push("sq_entries", c.sq_entries as f64);
    run.metrics.push("int_prf", c.int_prf as f64);
    run.metrics.push("fp_prf", c.fp_prf as f64);
    for (name, cc) in
        [("l1i", &c.mem.l1i), ("l1d", &c.mem.l1d), ("l2", &c.mem.l2), ("l3", &c.mem.l3)]
    {
        run.metrics.push(format!("{name}_kb"), cc.size_bytes as f64 / 1024.0);
        run.metrics.push(format!("{name}_ways"), cc.ways as f64);
        run.metrics.push(format!("{name}_hit_latency"), cc.hit_latency as f64);
    }
    run.metrics.push("dram_latency", c.mem.dram.latency as f64);

    let core_ok = c.freq_ghz == 2.0 && c.width == 4 && c.frontend_stages == 6;
    run.check(
        "core_matches_table1",
        "2 GHz out-of-order core, 4-wide, 6 front-end stages",
        core_ok,
        format!("{} GHz, {}-wide, {} stages", c.freq_ghz, c.width, c.frontend_stages),
    );
    let windows_ok = c.rob_entries == 256
        && c.iq_entries == 40
        && c.lq_entries == 40
        && c.sq_entries == 40
        && c.int_prf == 80
        && c.fp_prf == 40;
    run.check(
        "windows_match_table1",
        "256-entry ROB; 40-entry issue/load/store queues; 80 int / 40 fp registers",
        windows_ok,
        format!(
            "rob {}, iq {}, lq {}, sq {}, prf {}/{}",
            c.rob_entries, c.iq_entries, c.lq_entries, c.sq_entries, c.int_prf, c.fp_prf
        ),
    );
    let caches_ok = c.mem.l1i.size_bytes == 16 * 1024
        && c.mem.l1d.size_bytes == 16 * 1024
        && c.mem.l2.size_bytes == 128 * 1024
        && c.mem.l3.size_bytes == 4 * 1024 * 1024
        && c.mem.dram.latency == 200;
    run.check(
        "memory_matches_table1",
        "16KB L1I/L1D, 128KB L2, 4MB L3, 200-cycle memory",
        caches_ok,
        format!(
            "l1i {}KB, l1d {}KB, l2 {}KB, l3 {}MB, dram {}",
            c.mem.l1i.size_bytes / 1024,
            c.mem.l1d.size_bytes / 1024,
            c.mem.l2.size_bytes / 1024,
            c.mem.l3.size_bytes / (1024 * 1024),
            c.mem.dram.latency
        ),
    );

    run.line("Table 1: The basic configuration of the processor".to_string());
    run.line(format!("{:-<66}", ""));
    run.line(format!("{:<18} Parameter", "Component"));
    run.line(format!("{:-<66}", ""));
    run.line(format!("{:<18} {} GHz, out-of-order", "Core", c.freq_ghz));
    run.line(format!("{:<18} {}-wide fetch/decode/dispatch/commit", "Processor width", c.width));
    run.line(format!("{:<18} {} front-end stages", "Pipeline depth", c.frontend_stages));
    run.line(format!("{:<18} two-level adaptive predictor", "Branch predictor"));
    run.line(format!(
        "{:<18} {} int add ({} cycle), {} int mult ({} cycle),",
        "Functional units",
        c.fu.int_add.count,
        c.fu.int_add.latency,
        c.fu.int_mul.count,
        c.fu.int_mul.latency
    ));
    run.line(format!(
        "{:<18} {} int div ({} cycle), {} fp add ({} cycle),",
        "", c.fu.int_div.count, c.fu.int_div.latency, c.fu.fp_add.count, c.fu.fp_add.latency
    ));
    run.line(format!(
        "{:<18} {} fp mult ({} cycle), {} fp div ({} cycle)",
        "", c.fu.fp_mul.count, c.fu.fp_mul.latency, c.fu.fp_div.count, c.fu.fp_div.latency
    ));
    run.line(format!(
        "{:<18} {} int (64 bit), {} fp (64 bit)",
        "Register file", c.int_prf, c.fp_prf
    ));
    run.line(format!("{:<18} {} entries", "ROB", c.rob_entries));
    run.line(format!(
        "{:<18} i ({}), load ({}), store ({})",
        "Queue", c.iq_entries, c.lq_entries, c.sq_entries
    ));
    let cache = |cc: &specrun_mem::CacheConfig| {
        format!("{}KB, {} way, {} cycle", cc.size_bytes / 1024, cc.ways, cc.hit_latency)
    };
    run.line(format!("{:<18} {}", "L1 I-cache", cache(&c.mem.l1i)));
    run.line(format!("{:<18} {}", "L1 D-cache", cache(&c.mem.l1d)));
    run.line(format!("{:<18} {}", "L2 cache", cache(&c.mem.l2)));
    run.line(format!(
        "{:<18} {}MB, {} way, {} cycle",
        "L3 cache",
        c.mem.l3.size_bytes / (1024 * 1024),
        c.mem.l3.ways,
        c.mem.l3.hit_latency
    ));
    run.line(format!(
        "{:<18} request-based contention model, {} cycle",
        "Memory", c.mem.dram.latency
    ));
    run
}

// ---------------------------------------------------------------------------
// Fig. 7 — runahead IPC on the kernel suite.
// ---------------------------------------------------------------------------

fn run_fig7(ctx: &RunContext) -> ScenarioRun {
    let mut run = ScenarioRun::new(&scenario("fig7"), ctx);
    let iters = ctx.sized(specrun_workloads::DEFAULT_ITERS, 400);
    run.note("iters", iters.to_string());
    run.digest("no_runahead", &CpuConfig::no_runahead());
    run.digest("runahead", &CpuConfig::default());

    let suite = suite_with_iters(iters);
    let results = specrun_workloads::ipc::compare_parallel(&suite, 50_000_000, ctx.threads);

    run.line("kernel,no_runahead,runahead,speedup,runahead_entries".to_string());
    let mut all_improve = true;
    for c in &results {
        let (base_norm, ra_norm) = c.normalized_ipc();
        run.line(format!(
            "{},{:.3},{:.3},{:.3},{}",
            c.name,
            base_norm,
            ra_norm,
            c.speedup(),
            c.runahead.runahead_entries
        ));
        c.emit_metrics(c.name, &mut run.metrics);
        all_improve &= c.speedup() > 0.99;
    }
    let mean = geomean_speedup(&results);
    run.metrics.push("geomean_speedup", mean);
    run.line(format!("geomean,1.000,{mean:.3},{mean:.3},-"));

    run.check(
        "every_kernel_improves",
        "runahead does not regress any Fig. 7 kernel (speedup > 0.99)",
        all_improve,
        results
            .iter()
            .map(|c| format!("{} {:.3}", c.name, c.speedup()))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let mcf = results.iter().find(|c| c.name == "mcf").expect("suite contains mcf");
    run.check(
        "mcf_runahead_speedup",
        "runahead speedup > 1 on mcf (the paper's pointer-chase headliner)",
        mcf.speedup() > 1.0,
        format!("{:.3}", mcf.speedup()),
    );
    run.check(
        "geomean_near_paper",
        "geomean speedup lands near the paper's +11% (within 1.02..1.35)",
        (1.02..1.35).contains(&mean),
        format!("{mean:.3}"),
    );
    let triggered = results.iter().all(|c| c.runahead.runahead_entries > 0);
    run.check(
        "runahead_triggers_everywhere",
        "every kernel enters at least one runahead episode",
        triggered,
        results
            .iter()
            .map(|c| format!("{} {}", c.name, c.runahead.runahead_entries))
            .collect::<Vec<_>>()
            .join(", "),
    );
    run
}

// ---------------------------------------------------------------------------
// Fig. 9 — the PoC leak.
// ---------------------------------------------------------------------------

fn emit_poc_lines(run: &mut ScenarioRun, outcome: &PocOutcome, threshold: u64) {
    run.line(format!(
        "leaked={:?} expected={} runahead_entries={} unresolved_inv_branches={}",
        outcome.leaked, outcome.expected, outcome.runahead_entries, outcome.inv_branches
    ));
    run.line(format!(
        "dip at index {:?} ({} cycles vs miss floor {:.0})",
        outcome.leaked,
        outcome.leaked.map(|i| outcome.timings.as_slice()[i as usize]).unwrap_or(0),
        outcome.timings.miss_floor(threshold)
    ));
}

fn run_fig9(ctx: &RunContext) -> ScenarioRun {
    let mut run = ScenarioRun::new(&scenario("fig9"), ctx);
    let cfg = PocConfig::default(); // secret 86, as in the paper
    run.note("secret", cfg.secret.to_string());
    run.digest("runahead", &CpuConfig::default());

    let mut session = Session::builder().policy(Policy::Runahead).build();
    let outcome = run_pht_poc(&mut session, &cfg);

    outcome.emit_metrics("poc", &mut run.metrics);
    let timings = outcome.timings.as_slice();
    run.metrics.push("probe_entries", timings.len() as f64);
    run.metrics.push("miss_floor", outcome.timings.miss_floor(cfg.threshold));
    if let Some(i) = outcome.leaked {
        run.metrics.push("dip_cycles", timings[i as usize] as f64);
    }

    run.check(
        "poc_leaks_secret",
        "SPECRUN leaks the planted secret (86) on the runahead machine",
        outcome.leaked == Some(86),
        format!("{:?}", outcome.leaked),
    );
    run.check(
        "runahead_triggered",
        "the attack drives the pipeline into runahead",
        outcome.runahead_entries > 0,
        outcome.runahead_entries,
    );
    run.check(
        "inv_branch_signature",
        "at least one INV-source branch never resolves (the SPECRUN signature)",
        outcome.inv_branches > 0,
        outcome.inv_branches,
    );
    // The figure's actual data series: probe access time per index.
    run.line("index,cycles".to_string());
    for (i, &t) in timings.iter().enumerate() {
        run.line(format!("{i},{t}"));
    }
    emit_poc_lines(&mut run, &outcome, cfg.threshold);
    run
}

// ---------------------------------------------------------------------------
// Fig. 10 / §5.3 — transient windows.
// ---------------------------------------------------------------------------

fn run_fig10(ctx: &RunContext) -> ScenarioRun {
    let mut run = ScenarioRun::new(&scenario("fig10"), ctx);
    run.digest("runahead", &CpuConfig::default());
    run.digest("no_runahead", &CpuConfig::no_runahead());

    let r = measure_windows();
    r.emit_metrics("", &mut run.metrics);

    run.line(format!("Fig. 10 / §5.3: available transient window (ROB = {})", r.rob_entries));
    run.line("scenario,measured,paper".to_string());
    run.line(format!("N1 normal flush-once,{},255", r.n1));
    run.line(format!("N2 runahead flush-once,{},480", r.n2));
    run.line(format!("N3 runahead repeated-flush,{},840", r.n3));
    run.line(format!("episodes in scenario 3: {}", r.episodes_n3));

    run.check(
        "n1_is_rob_minus_one",
        "the normal machine's window is bounded by the ROB (N1 = 255)",
        r.n1 == 255,
        r.n1,
    );
    run.check(
        "n2_exceeds_rob",
        "one runahead episode pushes the window past the ROB (N2 > 256)",
        r.n2 > r.rob_entries,
        r.n2,
    );
    run.check(
        "n3_exceeds_n2",
        "repeated flushes chain episodes and extend the window further (N3 > N2)",
        r.n3 > r.n2,
        format!("N3 {} vs N2 {}", r.n3, r.n2),
    );
    run.check(
        "episodes_chain",
        "scenario ➂ observes at least two runahead episodes",
        r.episodes_n3 >= 2,
        r.episodes_n3,
    );
    run
}

// ---------------------------------------------------------------------------
// Fig. 11 — beyond the ROB only the runahead machine leaks.
// ---------------------------------------------------------------------------

/// The Fig. 11 nop slide: longer than the 256-entry ROB. Shared with the
/// trace subsystem, which records the same fixed-geometry PoC so a replay
/// can rebuild its observers without metadata in the log.
pub(crate) const FIG11_SLIDE: usize = 300;

fn run_fig11(ctx: &RunContext) -> ScenarioRun {
    let mut run = ScenarioRun::new(&scenario("fig11"), ctx);
    run.note("nop_slide", FIG11_SLIDE.to_string());
    run.digest("no_runahead", &CpuConfig::no_runahead());
    run.digest("runahead", &CpuConfig::default());

    let policies = [Policy::NoRunahead, Policy::Runahead];
    let outcomes = parallel_map(&policies, worker_threads(ctx), |_, &policy| {
        let mut session = Session::builder().policy(policy).build();
        run_pht_poc(&mut session, &PocConfig::fig11(FIG11_SLIDE))
    });
    let (base, attacked) = (&outcomes[0], &outcomes[1]);
    base.emit_metrics("no_runahead", &mut run.metrics);
    attacked.emit_metrics("runahead", &mut run.metrics);

    run.line("index,no_runahead_cycles,runahead_cycles".to_string());
    let b = base.timings.as_slice();
    let r = attacked.timings.as_slice();
    for i in 0..b.len() {
        run.line(format!("{i},{},{}", b[i], r[i]));
    }
    run.line(format!(
        "no-runahead leaked: {:?} (paper: none); runahead leaked: {:?} (paper: 127)",
        base.leaked, attacked.leaked
    ));

    run.check(
        "baseline_does_not_leak",
        "with the secret beyond the ROB, the no-runahead machine leaks nothing",
        base.leaked.is_none(),
        format!("{:?}", base.leaked),
    );
    run.check(
        "runahead_leaks_beyond_rob",
        "the runahead machine leaks the secret (127) from beyond the ROB window",
        attacked.leaked == Some(127),
        format!("{:?}", attacked.leaked),
    );
    run
}

// ---------------------------------------------------------------------------
// §4.3/§4.4 — policies × Spectre variants.
// ---------------------------------------------------------------------------

fn run_variants(ctx: &RunContext) -> ScenarioRun {
    let mut run = ScenarioRun::new(&scenario("variants"), ctx);
    run.note("nop_slide", FIG11_SLIDE.to_string());

    enum Job {
        Policy(RunaheadPolicy),
        Variant(&'static str),
    }
    let jobs = [
        Job::Policy(RunaheadPolicy::Original),
        Job::Policy(RunaheadPolicy::Precise),
        Job::Policy(RunaheadPolicy::Vector),
        Job::Variant("pht"),
        Job::Variant("btb"),
        Job::Variant("rsb"),
    ];
    for policy in [RunaheadPolicy::Original, RunaheadPolicy::Precise, RunaheadPolicy::Vector] {
        let mut cfg = CpuConfig::default();
        cfg.runahead.policy = policy;
        run.digest(format!("{policy:?}"), &cfg);
    }
    let outcomes = parallel_map(&jobs, worker_threads(ctx), |_, job| match job {
        Job::Policy(policy) => {
            let mut session = Session::builder().policy(Policy::Variant(*policy)).build();
            run_pht_poc(&mut session, &PocConfig::fig11(FIG11_SLIDE))
        }
        Job::Variant(name) => {
            let cfg = PocConfig { nop_slide: FIG11_SLIDE, ..PocConfig::default() };
            let mut session = Session::builder().policy(Policy::Runahead).build();
            match *name {
                "pht" => run_pht_poc(&mut session, &cfg),
                "btb" => run_btb_poc(&mut session, &cfg),
                "rsb" => run_rsb_poc(&mut session, &cfg),
                other => unreachable!("unknown variant {other}"),
            }
        }
    });

    run.line("== SpectrePHT against runahead policies (nop slide 300) ==".to_string());
    run.line("policy,leaked,expected,runahead_entries,inv_branches".to_string());
    for (job, o) in jobs.iter().zip(&outcomes).take(3) {
        let Job::Policy(policy) = job else { unreachable!() };
        let label = format!("policy_{policy:?}").to_lowercase();
        o.emit_metrics(&label, &mut run.metrics);
        run.line(format!(
            "{label},{:?},{},{},{}",
            o.leaked, o.expected, o.runahead_entries, o.inv_branches
        ));
    }
    run.line(String::new());
    run.line("== Spectre variants nested in (original) runahead ==".to_string());
    run.line("variant,leaked,expected,runahead_entries".to_string());
    for (job, o) in jobs.iter().zip(&outcomes).skip(3) {
        let Job::Variant(name) = job else { unreachable!() };
        let label = format!("variant_{name}");
        o.emit_metrics(&label, &mut run.metrics);
        run.line(format!("{label},{:?},{},{}", o.leaked, o.expected, o.runahead_entries));
    }
    let observed = jobs
        .iter()
        .zip(&outcomes)
        .map(|(job, o)| {
            let label = match job {
                Job::Policy(policy) => format!("{policy:?}"),
                Job::Variant(name) => name.to_string(),
            };
            format!("{label}:{:?}", o.leaked)
        })
        .collect::<Vec<_>>()
        .join(", ");
    run.check(
        "all_policies_leak",
        "SPECRUN succeeds against the original, precise and vector runahead policies",
        outcomes[..3].iter().all(PocOutcome::success),
        observed.clone(),
    );
    run.check(
        "all_variants_leak",
        "SpectrePHT/BTB/RSB all leak when nested inside runahead",
        outcomes[3..].iter().all(PocOutcome::success),
        observed,
    );
    run
}

// ---------------------------------------------------------------------------
// §6 — the defense evaluation.
// ---------------------------------------------------------------------------

fn run_defense(ctx: &RunContext) -> ScenarioRun {
    let mut run = ScenarioRun::new(&scenario("defense"), ctx);
    run.note("nop_slide", FIG11_SLIDE.to_string());

    // Effectiveness: the Fig. 11 attack against the defended machines.
    let machines = [
        ("undefended", Policy::Runahead),
        ("secure_sl_cache", Policy::Secure),
        ("skip_inv_branch", Policy::SkipInv),
    ];
    let reports = parallel_map(&machines, worker_threads(ctx), |_, (_, policy)| {
        let mut session = Session::builder().policy(*policy).build();
        verify_pht_blocked(&mut session, &PocConfig::fig11(FIG11_SLIDE))
    });
    run.line("machine,leaked,blocked,sl_promotions,sl_deletions,skipped_inv".to_string());
    for ((name, _), report) in machines.iter().zip(&reports) {
        report.emit_metrics(name, &mut run.metrics);
        run.line(format!(
            "{name},{:?},{},{},{},{}",
            report.outcome.leaked,
            report.blocked(),
            report.sl_promotions,
            report.sl_deletions,
            report.skipped_inv_branches
        ));
    }
    run.check(
        "undefended_leaks",
        "the undefended runahead machine leaks (the attack the defense must stop)",
        reports[0].outcome.success(),
        format!("{:?}", reports[0].outcome.leaked),
    );
    run.check(
        "secure_runahead_blocks",
        "secure runahead leakage = 0: the SL-cache defense blocks the leak",
        reports[1].blocked(),
        format!("{:?}", reports[1].outcome.leaked),
    );
    run.check(
        "skip_inv_blocks",
        "the skip-INV-branch mitigation blocks the leak",
        reports[2].blocked(),
        format!("{:?}", reports[2].outcome.leaked),
    );

    // Overhead: the Fig. 7 kernels across four machine configurations.
    let iters = ctx.sized(600, 200);
    run.note("overhead_iters", iters.to_string());
    let suite = suite_with_iters(iters);
    let mut skip_cfg = CpuConfig::default();
    skip_cfg.runahead.secure = specrun_cpu::SecureConfig::skip_inv_default();
    let configs =
        [CpuConfig::no_runahead(), CpuConfig::default(), CpuConfig::secure_runahead(), skip_cfg];
    for (label, cfg) in ["no_runahead", "runahead", "secure", "skip_inv"].iter().zip(&configs) {
        run.digest(*label, cfg);
    }
    let jobs: Vec<(usize, usize)> =
        (0..suite.len()).flat_map(|w| (0..configs.len()).map(move |c| (w, c))).collect();
    let results = parallel_map(&jobs, worker_threads(ctx), |_, &(w, c)| {
        run_workload(&suite[w], configs[c].clone(), 50_000_000)
    });
    let compared = |w: usize, c: usize| IpcComparison {
        name: suite[w].name,
        baseline: results[w * configs.len()],
        runahead: results[w * configs.len() + c],
    };
    run.line(
        "kernel,runahead,secure_runahead,skip_inv,secure_overhead_vs_runahead_pct".to_string(),
    );
    let (mut plain, mut secure, mut skip) = (Vec::new(), Vec::new(), Vec::new());
    for (w, workload) in suite.iter().enumerate() {
        let p = compared(w, 1);
        let s = compared(w, 2);
        let k = compared(w, 3);
        let overhead = (1.0 - s.runahead.ipc / p.runahead.ipc) * 100.0;
        run.line(format!(
            "{},{:.3},{:.3},{:.3},{:.1}%",
            workload.name,
            p.speedup(),
            s.speedup(),
            k.speedup(),
            overhead
        ));
        run.metrics.push(format!("{}_runahead_speedup", workload.name), p.speedup());
        run.metrics.push(format!("{}_secure_speedup", workload.name), s.speedup());
        run.metrics.push(format!("{}_skip_inv_speedup", workload.name), k.speedup());
        run.metrics.push(format!("{}_secure_overhead_pct", workload.name), overhead);
        plain.push(p);
        secure.push(s);
        skip.push(k);
    }
    let (gp, gs, gk) = (geomean_speedup(&plain), geomean_speedup(&secure), geomean_speedup(&skip));
    let overhead_pct = (1.0 - gs / gp) * 100.0;
    run.metrics.push("geomean_runahead_speedup", gp);
    run.metrics.push("geomean_secure_speedup", gs);
    run.metrics.push("geomean_skip_inv_speedup", gk);
    run.metrics.push("geomean_secure_overhead_pct", overhead_pct);
    run.line(format!("geomean,{gp:.3},{gs:.3},{gk:.3},{overhead_pct:.1}%"));

    run.check(
        "secure_overhead_small",
        "the SL-cache defense costs little performance (geomean overhead < 5%)",
        overhead_pct < 5.0,
        format!("{overhead_pct:.2}%"),
    );
    run.check(
        "secure_keeps_runahead_win",
        "secure runahead still beats the no-runahead baseline (geomean speedup > 1)",
        gs > 1.0,
        format!("{gs:.3}"),
    );
    run
}

// ---------------------------------------------------------------------------
// leak_trace — ground-truth leakage tracing. A LeakTraceObserver watches
// the pipeline's own TransientLoad/CacheFill events (the SPECULOSE
// methodology: observe the transient accesses, don't just time their side
// effects), cross-checks the direct observation against the probe-timing
// inference, and carries the "secure runahead transient secret fills = 0"
// invariant — a scenario class the timing-only API could not express.
// ---------------------------------------------------------------------------

fn run_leak_trace(ctx: &RunContext) -> ScenarioRun {
    let mut run = ScenarioRun::new(&scenario("leak_trace"), ctx);
    // The Fig. 11 shape (slide > ROB): with the gadget beyond the reorder
    // window, ordinary speculation cannot reach it, so *every* probe-line
    // fill is a runahead-transient fill and the ground-truth observer sees
    // the whole channel. (With a short slide the first transmit happens
    // under plain speculation — architecturally-attributed fills — and the
    // trace would rightly blame Spectre, not SPECRUN.)
    let cfg = PocConfig::fig11(FIG11_SLIDE); // secret 127
    run.note("secret", cfg.secret.to_string());
    run.note("nop_slide", FIG11_SLIDE.to_string());
    run.note("scale", "fixed (one PoC run per machine; quick = full)");
    run.digest("runahead", &CpuConfig::default());
    run.digest("secure", &CpuConfig::secure_runahead());

    let jobs = [("runahead", Policy::Runahead), ("secure_sl_cache", Policy::Secure)];
    let results = parallel_map(&jobs, worker_threads(ctx), |_, (_, policy)| {
        let tracer = leak_trace_for(&cfg.layout, &CpuConfig::default());
        let mut session = Session::builder()
            .policy(*policy)
            .observer((CountingObserver::default(), tracer))
            .build();
        let outcome = run_pht_poc(&mut session, &cfg);
        let stats = *session.stats();
        let (counts, trace) = session.observer().clone();
        (outcome, stats, counts, trace)
    });

    run.line("machine,timing_leaked,ground_truth,transient_secret_fills,secret_reads".to_string());
    for ((name, _), (outcome, _stats, counts, trace)) in jobs.iter().zip(&results) {
        outcome.emit_metrics(name, &mut run.metrics);
        run.metrics
            .push(format!("{name}_transient_secret_fills"), trace.transient_secret_fills() as f64);
        run.metrics.push(format!("{name}_secret_reads"), trace.secret_reads() as f64);
        run.metrics.push(format!("{name}_transient_loads"), trace.transient_loads() as f64);
        run.metrics.push(format!("{name}_squash_events"), counts.squash_events as f64);
        run.metrics.push(format!("{name}_observer_commits"), counts.commits as f64);
        run.metrics.push(format!("{name}_observer_squashed"), counts.squashed_total as f64);
        run.line(format!(
            "{name},{:?},{:?},{},{}",
            outcome.leaked,
            trace.ground_truth_byte(&[0]),
            trace.transient_secret_fills(),
            trace.secret_reads()
        ));
    }

    let (attacked, attacked_stats, attacked_counts, attacked_trace) = &results[0];
    let (secured, _, _, secured_trace) = &results[1];

    // The inference and the ground truth must name the same probe indices
    // (probe entry 0 is excluded on both sides: training touches it
    // architecturally).
    let timing_hot: Vec<usize> =
        attacked.timings.hot_indices(cfg.threshold).into_iter().filter(|&i| i != 0).collect();
    let truth_hot = attacked_trace.hot_indices(&[0]);
    run.check(
        "ground_truth_matches_timing",
        "the probe indices the observer saw transiently filled are exactly the ones \
         the timing inference flags hot",
        timing_hot == truth_hot,
        format!("timing {timing_hot:?} vs ground truth {truth_hot:?}"),
    );
    run.check(
        "ground_truth_recovers_secret",
        format!(
            "the observer's directly-counted transient fill names the planted secret ({})",
            cfg.secret
        ),
        attacked_trace.ground_truth_byte(&[0]) == Some(cfg.secret)
            && attacked.leaked == Some(cfg.secret),
        format!(
            "ground truth {:?}, timing {:?}",
            attacked_trace.ground_truth_byte(&[0]),
            attacked.leaked
        ),
    );
    run.check(
        "secret_read_transiently",
        "the runahead machine reads the secret line during runahead (the access that \
         architecturally never happens)",
        attacked_trace.secret_reads() > 0,
        attacked_trace.secret_reads(),
    );
    run.check(
        "secure_runahead_zero_transient_secret_fills",
        "secure runahead transient secret fills = 0: the SL-cache defense leaves no \
         transient fill in any probe line",
        secured_trace.transient_secret_fills() == 0,
        secured_trace.transient_secret_fills(),
    );
    run.check(
        "secure_timing_agrees",
        "the timing inference agrees with the ground truth that the defended machine \
         leaks nothing",
        secured.leaked.is_none(),
        format!("{:?}", secured.leaked),
    );
    run.check(
        "observer_reconciles_with_stats",
        "observer event totals reconcile with CpuStats (runahead enters, squashed sum, \
         commits)",
        attacked_counts.runahead_enters == attacked_stats.runahead_entries
            && attacked_counts.squashed_total == attacked_stats.squashed
            && attacked_counts.commits == attacked_stats.committed,
        format!(
            "enters {}/{}, squashed {}/{}, commits {}/{}",
            attacked_counts.runahead_enters,
            attacked_stats.runahead_entries,
            attacked_counts.squashed_total,
            attacked_stats.squashed,
            attacked_counts.commits,
            attacked_stats.committed
        ),
    );
    run
}

// ---------------------------------------------------------------------------
// trace_repro — the trace subsystem's paper-facing self-check. A recording
// observer rides the leak_trace PoC on both the attacked and the defended
// machine; the binary log must round-trip losslessly, a detached replay
// must reconcile bit-identically with the live observers (the property
// that makes offline forensics trustworthy), and the first-divergence
// aligner must name the exact suppressed transient secret fill.
// ---------------------------------------------------------------------------

fn run_trace_repro(ctx: &RunContext) -> ScenarioRun {
    use specrun_trace::{decode_events, encode_events, first_divergence, RecordingObserver};

    let mut run = ScenarioRun::new(&scenario("trace_repro"), ctx);
    let cfg = PocConfig::fig11(FIG11_SLIDE); // secret 127, slide > ROB
    run.note("secret", cfg.secret.to_string());
    run.note("nop_slide", FIG11_SLIDE.to_string());
    run.note("scale", "fixed (one PoC run per machine; quick = full)");
    run.digest("runahead", &CpuConfig::default());
    run.digest("secure", &CpuConfig::secure_runahead());

    let jobs = [("runahead", Policy::Runahead), ("secure_sl_cache", Policy::Secure)];
    let results = parallel_map(&jobs, worker_threads(ctx), |_, (_, policy)| {
        let tracer = leak_trace_for(&cfg.layout, &CpuConfig::default());
        let mut session = Session::builder()
            .policy(*policy)
            .observer(((CountingObserver::default(), tracer), RecordingObserver::new()))
            .build();
        let outcome = run_pht_poc(&mut session, &cfg);
        let ((counts, trace), recorder) = session.observer().clone();
        (outcome, counts, trace, recorder.into_events())
    });

    run.line("machine,events,trace_bytes,lossless,replay_identical".to_string());
    let mut replays = Vec::new();
    for ((name, _), (_, counts, tracer, events)) in jobs.iter().zip(&results) {
        let bytes = encode_events(events);
        let decoded = decode_events(&bytes).expect("a freshly encoded log decodes");
        let lossless = decoded.events == *events && !decoded.torn_tail;
        let mut fresh =
            (CountingObserver::default(), leak_trace_for(&cfg.layout, &CpuConfig::default()));
        specrun_trace::replay(&decoded.events, &mut fresh);
        let identical = fresh.0 == *counts && fresh.1 == *tracer;
        run.metrics.push(format!("{name}_events"), events.len() as f64);
        run.metrics.push(format!("{name}_trace_bytes"), bytes.len() as f64);
        run.metrics.push(format!("{name}_replay_commits"), fresh.0.commits as f64);
        run.metrics.push(
            format!("{name}_replay_transient_secret_fills"),
            fresh.1.transient_secret_fills() as f64,
        );
        run.line(format!("{name},{},{},{lossless},{identical}", events.len(), bytes.len()));
        replays.push((lossless, identical, fresh.1));
    }

    run.check(
        "round_trip_lossless",
        "encode → decode reproduces both machines' event streams exactly, with no torn tail",
        replays.iter().all(|(lossless, _, _)| *lossless),
        format!("{:?}", replays.iter().map(|(l, _, _)| *l).collect::<Vec<_>>()),
    );
    run.check(
        "replay_reconciles_bit_identically",
        "re-driving fresh observers from the log alone reproduces the live CountingObserver \
         and LeakTraceObserver bit for bit, on both machines",
        replays.iter().all(|(_, identical, _)| *identical),
        format!("{:?}", replays.iter().map(|(_, i, _)| *i).collect::<Vec<_>>()),
    );
    let replayed_attacked = &replays[0].2;
    run.check(
        "replayed_trace_recovers_secret",
        format!(
            "the replayed attacked-machine trace recovers the planted secret ({}) with the \
             same per-probe fill counts as the live observer",
            cfg.secret
        ),
        replayed_attacked.ground_truth_byte(&[0]) == Some(cfg.secret)
            && replayed_attacked.fills_per_entry() == results[0].2.fills_per_entry(),
        format!("{:?}", replayed_attacked.ground_truth_byte(&[0])),
    );
    run.check(
        "replayed_secure_trace_shows_no_fills",
        "the replayed defended-machine trace has zero transient secret fills",
        replays[1].2.transient_secret_fills() == 0,
        replays[1].2.transient_secret_fills(),
    );

    // The forensic verdict: diffing the two machines' traces must name the
    // suppressed transient fill of the secret's probe line — not the
    // timing skew the SL cache also causes.
    let secret_line = (cfg.layout.probe_base + u64::from(cfg.secret) * cfg.layout.probe_stride)
        / CpuConfig::default().mem.l1d.line_bytes;
    let divergence = first_divergence(&results[0].3, &results[1].3);
    let pinpoints = matches!(
        divergence.as_ref().map(|d| d.a),
        Some(Some(specrun_trace::PipelineEvent::CacheFill { line, transient: true, .. }))
            if line == secret_line
    );
    if let Some(d) = &divergence {
        run.metrics.push("divergence_index", d.index as f64);
        run.metrics.push("divergence_commit_anchor", d.commit_anchor as f64);
        run.metrics.push("divergence_runahead_episode", d.runahead_episode as f64);
        run.line(d.describe());
    }
    run.check(
        "divergence_pinpoints_secret_fill",
        format!(
            "the first divergence between the attacked and defended traces is the transient \
             fill of the secret's probe line ({secret_line:#x})"
        ),
        pinpoints,
        divergence.map_or("<no divergence>".to_string(), |d| d.describe()),
    );
    run
}

// ---------------------------------------------------------------------------
// bench_step — the deterministic simulator self-check behind the perf
// anchor. Wall-clock rates live in `specrun-lab perf`; this scenario holds
// the reproducible part: cycle counts, fast-forward invisibility and sweep
// accuracy.
// ---------------------------------------------------------------------------

fn run_bench_step(ctx: &RunContext) -> ScenarioRun {
    use specrun_workloads::ipc::run_workload as run_w;
    use specrun_workloads::kernels;

    let mut run = ScenarioRun::new(&scenario("bench_step"), ctx);
    let iters = ctx.sized(1200, 240);
    run.note("iters", iters.to_string());
    run.digest("no_runahead", &CpuConfig::no_runahead());
    run.digest("runahead", &CpuConfig::default());

    let chase = kernels::pointer_chase(iters);
    let mcf = kernels::mcf(iters / 2);
    run.line("kernel,machine,cycles,committed,ff_invisible".to_string());
    let mut all_invisible = true;
    for (label, w, cfg) in [
        ("pointer_chase_no_runahead", &chase, CpuConfig::no_runahead()),
        ("pointer_chase_runahead", &chase, CpuConfig::default()),
        ("mcf_no_runahead", &mcf, CpuConfig::no_runahead()),
        ("mcf_runahead", &mcf, CpuConfig::default()),
    ] {
        let mut naive_cfg = cfg.clone();
        naive_cfg.fast_forward = false;
        let mut ff_cfg = cfg;
        ff_cfg.fast_forward = true;
        let naive = run_w(w, naive_cfg, 500_000_000);
        let ff = run_w(w, ff_cfg, 500_000_000);
        let invisible = naive.cycles == ff.cycles && naive.committed == ff.committed;
        all_invisible &= invisible;
        run.metrics.push(format!("{label}_cycles"), ff.cycles as f64);
        run.metrics.push(format!("{label}_committed"), ff.committed as f64);
        run.line(format!("{label},{},{},{invisible}", ff.cycles, ff.committed));
    }
    run.check(
        "fast_forward_invisible",
        "idle-cycle fast-forward is architecturally invisible (identical cycles and commits)",
        all_invisible,
        all_invisible,
    );

    let sweep_cfg = SweepConfig {
        trials: ctx.sized(16, 4),
        threads: ctx.threads,
        seed: ctx.seed,
        ..SweepConfig::default()
    };
    run.note("sweep_trials", sweep_cfg.trials.to_string());
    let sweep = run_pht_sweep(&sweep_cfg);
    sweep.emit_metrics("sweep", &mut run.metrics);
    run.line(format!(
        "sweep: {}/{} secrets recovered (accuracy {:.2})",
        sweep.successes(),
        sweep.trials.len(),
        sweep.accuracy()
    ));
    run.check(
        "sweep_full_accuracy",
        "every multi-trial sweep secret is recovered on the runahead machine",
        sweep.accuracy() == 1.0,
        format!("{}/{}", sweep.successes(), sweep.trials.len()),
    );
    run
}

// ---------------------------------------------------------------------------
// pool_matrix — the whole attack/defense matrix as ONE fork campaign:
// every shard warms a single snapshot session and forks it copy-on-write
// per planted secret, instead of rebuilding a machine per cell the way the
// per-figure scenarios do. The invariants re-state the per-figure verdicts
// (Fig. 9/11 leaks, §6 defenses, the §4.4 BTB/RSB variants and the
// SL-does-not-cover-BTB finding) over the pooled execution, plus the
// thread-count invariance the CI pool-repro byte compare depends on.
// ---------------------------------------------------------------------------

fn run_pool_matrix(ctx: &RunContext) -> ScenarioRun {
    use specrun_workloads::plan::PlanPolicy;
    use specrun_workloads::pool::CampaignSpec;

    let mut run = ScenarioRun::new(&scenario("pool_matrix"), ctx);
    let mut spec = CampaignSpec::paper_matrix();
    spec.seed = ctx.seed;
    if ctx.quick {
        spec.secrets.truncate(2); // [86, 127] — the paper's two figure secrets
    }
    run.note("shards", spec.shards.len().to_string());
    run.note("secrets_per_shard", spec.secrets.len().to_string());
    run.note("forked_sessions", spec.unit_count().to_string());
    for shard in &spec.shards {
        run.digest(shard.label(), &specrun::pool::shard_config(&spec, shard));
    }

    let report = specrun::run_campaign(&spec, worker_threads(ctx));
    run.metrics = report.metrics();

    run.line("shard,units,leaks,leak_rate,runahead_entries,inv_branches,status".to_string());
    for shard in &report.shards {
        run.line(format!(
            "{},{},{},{:.3},{},{},{}",
            shard.spec.label(),
            shard.stats.units,
            shard.stats.leaks,
            shard.stats.leak_rate(),
            shard.stats.runahead_entries,
            shard.stats.inv_branches,
            shard.status.label()
        ));
    }

    let rate = |label: &str| {
        report
            .shards
            .iter()
            .find(|s| s.spec.label() == label)
            .map_or(f64::NAN, |s| s.stats.leak_rate())
    };
    run.check(
        "all_shards_complete",
        "every shard of the campaign runs to completion on the first attempt",
        report.all_done() && !report.breaker_tripped,
        format!("{}/{} done", report.completed(), report.shards.len()),
    );
    let vulnerable =
        ["pht_runahead", "pht_runahead_s300", "btb_runahead_s300", "rsb_runahead_s300"];
    run.check(
        "runahead_shards_leak",
        "every forked session on the vulnerable runahead machine recovers its secret \
         (PHT in the Fig. 9 and Fig. 11 shapes, plus the §4.4 BTB/RSB variants)",
        vulnerable.iter().all(|l| rate(l) == 1.0),
        vulnerable.iter().map(|l| format!("{l} {:.2}", rate(l))).collect::<Vec<_>>().join(", "),
    );
    let defended = ["pht_norunahead_s300", "pht_secure_s300", "pht_skipinv_s300"];
    run.check(
        "pht_defenses_hold",
        "past the ROB, the no-runahead baseline and both §6 defenses leak nothing",
        defended.iter().all(|l| rate(l) == 0.0),
        defended.iter().map(|l| format!("{l} {:.2}", rate(l))).collect::<Vec<_>>().join(", "),
    );
    run.check(
        "sl_cache_does_not_cover_btb",
        "SpectreBTB still leaks on the SL-cache machine (the paper's finding that the \
         §6 scheme does not cover the BTB/RSB variants)",
        rate("btb_secure_s300") == 1.0,
        format!("{:.2}", rate("btb_secure_s300")),
    );
    let signatures_ok = report.shards.iter().all(|s| {
        if s.spec.policy == PlanPolicy::NoRunahead {
            s.stats.runahead_entries == 0
        } else {
            s.stats.runahead_entries > 0
        }
    });
    run.check(
        "runahead_signature_per_policy",
        "runahead-capable shards enter runahead; the disabled baseline never does",
        signatures_ok,
        report
            .shards
            .iter()
            .map(|s| format!("{} {}", s.spec.label(), s.stats.runahead_entries))
            .collect::<Vec<_>>()
            .join(", "),
    );
    // The in-process half of the CI pool-repro byte compare: a serial
    // re-run of the same spec must reproduce the parallel report exactly,
    // shard fingerprints included.
    let serial = specrun::run_campaign(&spec, 1);
    run.check(
        "thread_count_invariant",
        "a serial re-run reproduces the pooled report bit for bit (fingerprints included)",
        serial == report,
        format!(
            "fingerprints {:?}",
            report.shards.iter().map(|s| s.stats.fingerprint).collect::<Vec<_>>()
        ),
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate scenario names");
        for legacy in
            ["fig7", "fig9", "fig10", "fig11", "table1", "variants", "defense", "bench_step"]
        {
            assert!(names.contains(&legacy), "legacy experiment {legacy} missing from registry");
        }
    }

    #[test]
    fn find_resolves_by_name() {
        assert_eq!(find("fig7").unwrap().name, "fig7");
        assert!(find("fig12").is_none());
    }

    #[test]
    fn table1_passes_quickly() {
        let run = run_table1(&RunContext::quick());
        assert!(run.passed(), "failures: {:?}", run.failures());
        assert_eq!(run.metrics.get("rob_entries"), Some(256.0));
    }

    #[test]
    fn pool_matrix_passes_quickly() {
        let run = run_pool_matrix(&RunContext::quick());
        assert!(run.passed(), "failures: {:?}", run.failures());
        // Quick mode: 8 shards × 2 secrets, every session forked from its
        // shard's snapshot.
        assert_eq!(run.metrics.get("total_units"), Some(16.0));
        assert_eq!(run.metrics.get("total_leaks"), Some(10.0), "5 leaking shards × 2 secrets");
    }
}
