//! Quickstart: one `Session` is the whole experiment — build the Table 1
//! runahead machine, plant a secret, run the SPECRUN proof of concept, and
//! watch the pipeline leak it (with ground-truth event tracing attached).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use specrun::attack::{run_poc, GadgetKind, PocConfig};
use specrun::session::{leak_trace_for, Policy, Session};
use specrun_cpu::CpuConfig;

fn main() {
    // The attack configuration: Fig. 9's planted secret byte 86 ('V'),
    // pushed beyond the 256-entry ROB by a nop slide (the Fig. 11 shape)
    // so runahead is the *only* channel — every probe-line fill the
    // observer sees is then a transient, secret-dependent one.
    let cfg = PocConfig { nop_slide: 300, ..PocConfig::default() };

    // One builder chain replaces the old Machine presets + hand plumbing:
    // machine policy, attack layout, planted secret, and a ground-truth
    // observer that counts transient secret-dependent cache fills as the
    // pipeline makes them.
    let mut session = Session::builder()
        .policy(Policy::Runahead)
        .layout(cfg.layout)
        .observer(leak_trace_for(&cfg.layout, &CpuConfig::default()))
        .build();

    let outcome = run_poc(&mut session, GadgetKind::Pht, &cfg);

    println!("planted secret:  {} ({:?})", cfg.secret, cfg.secret as char);
    match outcome.leaked {
        Some(byte) => println!("leaked byte: {byte} ({:?})", byte as char),
        None => println!("leaked byte: none"),
    }
    let trace = session.observer();
    println!(
        "ground truth:    {} transient secret-dependent fill(s), {} transient read(s) of the \
         secret line, observer says byte {:?}",
        trace.transient_secret_fills(),
        trace.secret_reads(),
        trace.ground_truth_byte(&[0]),
    );
    println!(
        "signature:       {} runahead episode(s), {} never-resolving INV branch(es)",
        outcome.runahead_entries, outcome.inv_branches
    );
    println!();
    println!("{}", session.stats());

    assert_eq!(outcome.leaked, Some(cfg.secret), "the runahead machine must leak");
    assert_eq!(trace.ground_truth_byte(&[0]), Some(cfg.secret), "ground truth must agree");
}
