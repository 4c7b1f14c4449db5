//! Repository-level integration tests: one test per headline claim of the
//! paper, spanning all crates through the public APIs.

use specrun::attack::{run_poc, GadgetKind, PocConfig};
use specrun::defense::verify_pht_blocked;
use specrun::session::{Policy, Session};
use specrun::window::measure_windows;
use specrun_cpu::CpuConfig;
use specrun_workloads::{geomean_speedup, suite_with_iters, try_compare};

/// Fig. 9: SPECRUN leaks a secret from the victim on the runahead machine.
#[test]
fn claim_fig9_leak() {
    let cfg = PocConfig::default();
    let mut session = Session::builder().policy(Policy::Runahead).build();
    let outcome = run_poc(&mut session, GadgetKind::Pht, &cfg);
    assert_eq!(outcome.leaked, Some(86));
    assert!(outcome.runahead_entries > 0);
}

/// §5.3: runahead eliminates the ROB-size limit on transient instructions.
#[test]
fn claim_window_shape() {
    let report = measure_windows(None).expect("window programs halt");
    assert_eq!(report.n1, 255, "N1 must be ROB - 1");
    assert!(report.n2 > 256, "N2 = {} must exceed the ROB", report.n2);
    assert!(report.n3 > report.n2, "N3 = {} must exceed N2 = {}", report.n3, report.n2);
}

/// Fig. 11: beyond the ROB, only the runahead machine leaks.
#[test]
fn claim_fig11_separation() {
    let cfg = PocConfig::fig11(300);
    let mut plain = Session::builder().policy(Policy::NoRunahead).build();
    assert_eq!(run_poc(&mut plain, GadgetKind::Pht, &cfg).leaked, None);
    let cfg = PocConfig::fig11(300);
    let mut ra = Session::builder().policy(Policy::Runahead).build();
    assert_eq!(run_poc(&mut ra, GadgetKind::Pht, &cfg).leaked, Some(127));
}

/// Fig. 7: runahead improves IPC on every kernel; the mean lands near the
/// paper's 11%.
#[test]
fn claim_fig7_speedup() {
    let results = try_compare(&suite_with_iters(400), &[CpuConfig::default()], 50_000_000, 0, None)
        .expect("every kernel halts");
    for c in &results {
        assert!(
            c.speedup() > 0.99,
            "{} must not regress under runahead: {:.3}",
            c.name,
            c.speedup()
        );
    }
    let mean = geomean_speedup(&results);
    assert!(
        (1.02..1.35).contains(&mean),
        "geomean speedup {mean:.3} should be near the paper's 1.11"
    );
}

/// §6: the secure-runahead scheme blocks the attack.
#[test]
fn claim_defense_blocks() {
    let cfg = PocConfig::fig11(300);
    let mut session = Session::builder().policy(Policy::Secure).build();
    let report = verify_pht_blocked(&mut session, &cfg);
    assert!(report.blocked());
    assert!(report.outcome.runahead_entries > 0, "runahead still ran");
}

/// The whole stack is deterministic end to end.
#[test]
fn claim_deterministic() {
    let run = || {
        let cfg = PocConfig::default();
        let mut session = Session::builder().policy(Policy::Runahead).build();
        let o = run_poc(&mut session, GadgetKind::Pht, &cfg);
        (o.leaked, session.stats().cycles, session.stats().committed)
    };
    assert_eq!(run(), run());
}
