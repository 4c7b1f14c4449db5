//! End-to-end attack tests: the paper's headline results as assertions.

use specrun::attack::{run_poc, GadgetKind, PocConfig};
use specrun::session::{Policy, Session};
use specrun_cpu::RunaheadPolicy;

/// Fig. 9: the Fig. 8 PoC leaks the planted secret (86) on the runahead
/// machine, through a clear latency dip in the probe series.
#[test]
fn fig9_pht_poc_leaks_on_runahead_machine() {
    let cfg = PocConfig::default();
    let mut machine = Session::builder().policy(Policy::Runahead).build();
    let outcome = run_poc(&mut machine, GadgetKind::Pht, &cfg);
    assert!(outcome.runahead_entries >= 1, "attack must trigger runahead");
    assert!(outcome.inv_branches >= 1, "the poisoned branch must stay unresolved");
    assert_eq!(outcome.leaked, Some(86), "timings: {:?}", outcome.timings.as_slice());
    // The dip must be sharp: hit far below the miss floor.
    let dip = outcome.timings.as_slice()[86];
    let floor = outcome.timings.miss_floor(cfg.threshold);
    assert!((dip as f64) < floor / 3.0, "dip {dip} should be far below the miss floor {floor}");
}

/// Fig. 11: with a nop slide longer than the ROB, the no-runahead machine
/// shows no leak while the runahead machine still leaks (secret 127).
#[test]
fn fig11_nop_slide_separates_machines() {
    let cfg = PocConfig::fig11(300);
    let mut plain = Session::builder().policy(Policy::NoRunahead).build();
    let baseline = run_poc(&mut plain, GadgetKind::Pht, &cfg);
    assert_eq!(baseline.leaked, None, "no-runahead machine must not leak past the ROB");

    let mut runahead = Session::builder().policy(Policy::Runahead).build();
    let attacked = run_poc(&mut runahead, GadgetKind::Pht, &cfg);
    assert_eq!(attacked.leaked, Some(127), "runahead machine leaks beyond the ROB");
}

/// Short slides leak on *both* machines (ordinary Spectre): the runahead
/// advantage is specifically the windows beyond the ROB.
#[test]
fn short_slide_leaks_even_without_runahead() {
    let cfg = PocConfig::default();
    let mut plain = Session::builder().policy(Policy::NoRunahead).build();
    let outcome = run_poc(&mut plain, GadgetKind::Pht, &cfg);
    assert_eq!(outcome.leaked, Some(86), "plain Spectre-PHT works within the ROB");
    assert_eq!(outcome.runahead_entries, 0);
}

/// §4.3: the attack applies to precise and vector runahead as well.
#[test]
fn variants_of_runahead_all_leak() {
    for policy in [RunaheadPolicy::Original, RunaheadPolicy::Precise, RunaheadPolicy::Vector] {
        let cfg = PocConfig::fig11(300);
        let mut machine = Session::builder().policy(Policy::Variant(policy)).build();
        let outcome = run_poc(&mut machine, GadgetKind::Pht, &cfg);
        assert_eq!(
            outcome.leaked,
            Some(127),
            "{policy:?} runahead must leak (runahead_entries={})",
            outcome.runahead_entries
        );
    }
}

/// §4.4 / Fig. 4a: SpectreBTB nested in runahead — cross-address-space BTB
/// training steers the victim's unresolvable indirect jump into the gadget.
#[test]
fn btb_variant_leaks_via_congruent_training() {
    let cfg = PocConfig { nop_slide: 300, ..PocConfig::default() };
    let mut machine = Session::builder().policy(Policy::Runahead).build();
    let outcome = run_poc(&mut machine, GadgetKind::Btb, &cfg);
    assert!(outcome.runahead_entries >= 1, "victim must enter runahead");
    assert_eq!(outcome.leaked, Some(86));

    // Control: without training, the same victim does not leak.
    let mut fresh = Session::builder().policy(Policy::Runahead).build();
    let cfg2 = PocConfig { nop_slide: 300, ..PocConfig::default() };
    fresh.plant(&cfg2.layout, cfg2.secret);
    let victim = specrun::attack::build_btb_victim(&cfg2.layout, cfg2.nop_slide);
    let benign = victim.symbol("benign").unwrap();
    fresh.write_value(cfg2.layout.bound_addr + 64, 8, benign);
    fresh.flush(cfg2.layout.bound_addr + 64);
    fresh.run_program(&victim, cfg2.max_cycles);
    assert_eq!(
        fresh.residency(cfg2.layout.probe_addr(86_u64)),
        specrun_mem::HitLevel::Mem,
        "untrained BTB must not reach the gadget"
    );
}

/// §4.4 / Fig. 4b: SpectreRSB nested in runahead — the return address is
/// overwritten with a value derived from the stalling load, the `ret` never
/// resolves, and the RSB-predicted return site (the gadget) executes.
#[test]
fn rsb_variant_leaks_via_poisoned_return() {
    let cfg = PocConfig { nop_slide: 300, ..PocConfig::default() };
    let mut machine = Session::builder().policy(Policy::Runahead).build();
    let outcome = run_poc(&mut machine, GadgetKind::Rsb, &cfg);
    assert!(outcome.runahead_entries >= 1, "victim must enter runahead");
    assert_eq!(outcome.leaked, Some(86));

    // The architectural path skipped the gadget: no mis-commit happened.
    // (The gadget would have halted at `benign` either way; what matters is
    // that the leak came from runahead, which `runahead_entries` shows.)
}

/// The PoC is deterministic: identical runs leak identical bytes with
/// identical timing series.
#[test]
fn poc_is_deterministic() {
    let run = || {
        let cfg = PocConfig::default();
        let mut machine = Session::builder().policy(Policy::Runahead).build();
        let o = run_poc(&mut machine, GadgetKind::Pht, &cfg);
        (o.leaked, o.timings.as_slice().to_vec())
    };
    assert_eq!(run(), run());
}

/// Different secrets leak faithfully (sweep a few byte values).
#[test]
fn leaks_arbitrary_secret_values() {
    for secret in [1u8, 42, 171, 254] {
        let cfg = PocConfig { secret, ..PocConfig::default() };
        let mut machine = Session::builder().policy(Policy::Runahead).build();
        let outcome = run_poc(&mut machine, GadgetKind::Pht, &cfg);
        assert_eq!(outcome.leaked, Some(secret), "secret {secret}");
    }
}
