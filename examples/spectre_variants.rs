//! §4.4: the BTB and RSB Spectre variants nested inside runahead execution,
//! run as multi-program attacks (attacker trains from its own address
//! space, victim leaks during runahead, attacker probes).
//!
//! ```sh
//! cargo run --release --example spectre_variants
//! ```

use specrun::attack::{run_poc, GadgetKind, PocConfig};
use specrun::session::{Policy, Session};

fn main() {
    let cfg = PocConfig { nop_slide: 300, ..PocConfig::default() };
    let mut session = Session::builder().policy(Policy::Runahead).build();
    let btb = run_poc(&mut session, GadgetKind::Btb, &cfg);
    println!(
        "SpectreBTB-in-runahead: leaked = {:?} (expected {}), episodes = {}",
        btb.leaked, btb.expected, btb.runahead_entries
    );
    assert!(btb.success());

    let cfg = PocConfig { nop_slide: 300, ..PocConfig::default() };
    let mut session = Session::builder().policy(Policy::Runahead).build();
    let rsb = run_poc(&mut session, GadgetKind::Rsb, &cfg);
    println!(
        "SpectreRSB-in-runahead: leaked = {:?} (expected {}), episodes = {}",
        rsb.leaked, rsb.expected, rsb.runahead_entries
    );
    assert!(rsb.success());

    println!();
    println!("both variants steer the unresolvable control flow into the gadget.");
}
