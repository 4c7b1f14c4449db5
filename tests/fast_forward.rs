//! Fast-forward and event-scheduler equivalence: for every workload kernel
//! and every machine variant, the fast-forwarding simulator must be
//! *bit-identical* to the naive one-cycle-at-a-time loop — same cycle
//! count, same retired instructions, same full statistics block, same
//! architectural registers — and the event-driven scheduler must reach the
//! same decisions as the retired scan-based one (`sched_check`). The
//! kernels contain no `rdcycle`, `clflush`, SL-cache fill or skip-INV park,
//! so the attack PoCs and the generated fuzz plans cover those.

use specrun::attack::{run_poc, GadgetKind, PocConfig};
use specrun::plan::try_run_plan;
use specrun::session::Session;
use specrun_cpu::{Core, CpuConfig, CpuStats, RunExit};
use specrun_isa::IntReg;
use specrun_workloads::plan::Plan;
use specrun_workloads::{kernels, suite_with_iters, Workload};

/// Runs `w` to completion and returns (stats, architectural registers).
fn run(w: &Workload, cfg: CpuConfig) -> (CpuStats, Vec<u64>) {
    let mut core = Core::new(cfg);
    for (addr, bytes) in &w.setup {
        core.mem_mut().write_bytes(*addr, bytes);
    }
    core.load_program(&w.program);
    let exit = core.run(100_000_000);
    assert_eq!(exit, RunExit::Halted, "{} must halt", w.name);
    let regs = (1..32).map(|i| core.read_int_reg(IntReg::new(i).unwrap())).collect();
    (*core.stats(), regs)
}

fn workloads() -> Vec<Workload> {
    let mut ws = suite_with_iters(150);
    ws.push(kernels::pointer_chase(60));
    ws
}

#[test]
fn fast_forward_matches_naive_loop_exactly() {
    for w in workloads() {
        for (machine, base) in [
            ("no_runahead", CpuConfig::no_runahead()),
            ("runahead", CpuConfig::default()),
            ("secure", CpuConfig::secure_runahead()),
        ] {
            let mut ff = base.clone();
            ff.fast_forward = true;
            let mut naive = base;
            naive.fast_forward = false;
            let (ff_stats, ff_regs) = run(&w, ff);
            let (naive_stats, naive_regs) = run(&w, naive);
            assert_eq!(ff_stats, naive_stats, "stats diverge on {}/{machine}", w.name);
            assert_eq!(
                ff_regs, naive_regs,
                "architectural registers diverge on {}/{machine}",
                w.name
            );
        }
    }
}

/// The self-checking mode: every jump is re-validated by stepping a cloned
/// core through the skipped window. Any unsound skip panics inside run().
#[test]
fn ff_check_mode_validates_every_jump() {
    for w in [kernels::pointer_chase(40), kernels::mcf(60)] {
        for base in [CpuConfig::no_runahead(), CpuConfig::default()] {
            let mut cfg = base;
            cfg.ff_check = true;
            let (stats, _) = run(&w, cfg);
            assert!(stats.cycles > 0);
        }
    }
}

/// The event-scheduler self-check: the retired scan-based logic runs in
/// parallel every cycle (writeback due-sets recomputed by a full ROB scan,
/// the issue-ready queue audited against every waiting entry's operands)
/// and any divergence panics inside run(). The checked run must also be
/// bit-identical — stats and architectural state — to the unchecked one.
#[test]
fn sched_check_validates_event_scheduler() {
    let mut ws = suite_with_iters(60);
    ws.push(kernels::pointer_chase(30));
    for w in ws {
        for (machine, base) in [
            ("no_runahead", CpuConfig::no_runahead()),
            ("runahead", CpuConfig::default()),
            ("secure", CpuConfig::secure_runahead()),
        ] {
            let mut checked = base.clone();
            checked.sched_check = true;
            let (checked_stats, checked_regs) = run(&w, checked);
            let (plain_stats, plain_regs) = run(&w, base);
            assert_eq!(
                checked_stats, plain_stats,
                "sched_check changes stats on {}/{machine}",
                w.name
            );
            assert_eq!(
                checked_regs, plain_regs,
                "sched_check changes architectural state on {}/{machine}",
                w.name
            );
        }
    }
}

/// Extended fast-forward (jumps with instructions in flight) must be
/// invisible to the end-to-end SpectrePHT-in-runahead proof of concept:
/// same leaked byte, same probe-relevant statistics, with and without it.
#[test]
fn fast_forward_is_invisible_to_the_attack_poc() {
    let mut outcomes = Vec::new();
    for ff in [true, false] {
        let cfg = CpuConfig { fast_forward: ff, ..CpuConfig::default() };
        let mut session = Session::builder().config(cfg).build();
        let out = run_poc(&mut session, GadgetKind::Pht, &PocConfig::default());
        outcomes.push((out.leaked, out.expected, *session.core().stats()));
    }
    assert_eq!(outcomes[0], outcomes[1], "fast-forward changed the PoC outcome");
    assert_eq!(outcomes[0].0, Some(86), "the runahead machine must leak the secret");
}

/// Fast-forward over the attack campaign's own inputs: each of the first
/// quick fuzz plans (PHT/BTB/RSB gadgets under every policy, with
/// `rdcycle` probes, `clflush`es, SL-cache fills and skip-INV parks) runs
/// with fast-forward forced on and off, and the two runs must agree on the
/// statistics, the architectural fingerprint and the leak verdict.
#[test]
fn fast_forward_is_invisible_to_fuzz_plans() {
    let (mut sl_fills, mut inv_parks) = (0, 0);
    for index in 0..40 {
        let mut plan = Plan::generate(0xC0FFEE, index, true);
        plan.knobs.fast_forward = true;
        let ff = try_run_plan(&plan).expect("quick plan runs");
        plan.knobs.fast_forward = false;
        let naive = try_run_plan(&plan).expect("quick plan runs");
        assert_eq!(ff.stats, naive.stats, "stats diverge on plan {index}");
        assert_eq!(
            ff.arch_fingerprint, naive.arch_fingerprint,
            "architectural state diverges on plan {index}"
        );
        assert_eq!(ff.leaked, naive.leaked, "leak verdict diverges on plan {index}");
        assert_eq!(ff, naive, "outcome diverges on plan {index}");
        sl_fills += ff.stats.sl_promotions + ff.stats.sl_deletions;
        inv_parks += ff.stats.skipped_inv_branches;
    }
    assert!(sl_fills > 0, "the plans must exercise SL-cache fills");
    assert!(inv_parks > 0, "the plans must exercise skip-INV parks");
}

/// `ff_check` over the three attack PoCs: every jump across the
/// `rdcycle`-timed probe loop and the runahead episodes is re-validated by
/// naive stepping, and each variant still leaks the planted byte.
#[test]
fn ff_check_validates_the_attack_pocs() {
    let cfg = CpuConfig { ff_check: true, ..CpuConfig::default() };
    let poc = PocConfig::default();
    let pht = run_poc(&mut Session::builder().config(cfg.clone()).build(), GadgetKind::Pht, &poc);
    let btb = run_poc(&mut Session::builder().config(cfg.clone()).build(), GadgetKind::Btb, &poc);
    let rsb = run_poc(&mut Session::builder().config(cfg).build(), GadgetKind::Rsb, &poc);
    for (name, out) in [("pht", pht), ("btb", btb), ("rsb", rsb)] {
        assert!(out.success(), "{name} PoC leaked {:?} under ff_check", out.leaked);
    }
}

/// `sched_check` over the `rdcycle`-heavy PHT PoC: serializers wait off the
/// ready queue until they reach the ROB head, and the audit checks that
/// rule exactly every cycle. Checked and unchecked runs must agree on the
/// outcome and the statistics, on the runahead and the secure machine.
#[test]
fn sched_check_validates_the_serializing_poc() {
    for (machine, base) in
        [("runahead", CpuConfig::default()), ("secure", CpuConfig::secure_runahead())]
    {
        let mut outcomes = Vec::new();
        for check in [true, false] {
            let cfg = CpuConfig { sched_check: check, ..base.clone() };
            let mut session = Session::builder().config(cfg).build();
            let out = run_poc(&mut session, GadgetKind::Pht, &PocConfig::default());
            outcomes.push((out.leaked, out.runahead_entries, *session.core().stats()));
        }
        assert_eq!(outcomes[0], outcomes[1], "sched_check changes the PoC on {machine}");
    }
}

/// The predecode layer must be semantically invisible: a `predecode_check`
/// run — which re-derives every fetched micro-op's `UopMeta` from the
/// `Inst` enum with the retired per-site derivations and panics on any
/// divergence — over the end-to-end SpectrePHT-in-runahead proof of
/// concept leaks the same byte with bit-identical statistics.
#[test]
fn predecode_check_is_invisible_to_the_attack_poc() {
    let mut outcomes = Vec::new();
    for check in [true, false] {
        let cfg = CpuConfig { predecode_check: check, ..CpuConfig::default() };
        let mut session = Session::builder().config(cfg).build();
        let out = run_poc(&mut session, GadgetKind::Pht, &PocConfig::default());
        outcomes.push((out.leaked, out.expected, *session.core().stats()));
    }
    assert_eq!(outcomes[0], outcomes[1], "predecode_check changed the PoC outcome");
    assert_eq!(outcomes[0].0, Some(86), "the runahead machine must leak the secret");
}

/// `predecode_check` over the workload kernels, on every machine variant:
/// the audit must pass (no panic) and stats and architectural state stay
/// bit-identical to the unchecked run.
#[test]
fn predecode_check_validates_kernels() {
    for w in [kernels::mcf(60), kernels::pointer_chase(30)] {
        for (machine, base) in [
            ("no_runahead", CpuConfig::no_runahead()),
            ("runahead", CpuConfig::default()),
            ("secure", CpuConfig::secure_runahead()),
        ] {
            let mut checked = base.clone();
            checked.predecode_check = true;
            let (checked_stats, checked_regs) = run(&w, checked);
            let (plain_stats, plain_regs) = run(&w, base);
            assert_eq!(
                checked_stats, plain_stats,
                "predecode_check changes stats on {}/{machine}",
                w.name
            );
            assert_eq!(
                checked_regs, plain_regs,
                "predecode_check changes architectural state on {}/{machine}",
                w.name
            );
        }
    }
}
