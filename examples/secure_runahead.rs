//! The §6 defense demo: the same attack that leaks on the plain runahead
//! machine is blocked by the SL-cache scheme and by the skip-INV-branch
//! mitigation.
//!
//! ```sh
//! cargo run --release --example secure_runahead
//! ```

use specrun::attack::{run_poc, GadgetKind, PocConfig};
use specrun::defense::verify_pht_blocked;
use specrun::session::{Policy, Session};

fn main() {
    // Control: undefended runahead machine.
    let cfg = PocConfig::fig11(300);
    let mut undefended = Session::builder().policy(Policy::Runahead).build();
    let outcome = run_poc(&mut undefended, GadgetKind::Pht, &cfg);
    println!("undefended runahead machine: leaked = {:?} (secret 127)", outcome.leaked);
    assert_eq!(outcome.leaked, Some(127));

    // SL cache + taint tracking (Algorithm 1).
    let cfg = PocConfig::fig11(300);
    let mut secure = Session::builder().policy(Policy::Secure).build();
    let report = verify_pht_blocked(&mut secure, &cfg);
    println!(
        "secure runahead (SL cache):  leaked = {:?}, promotions = {}, deletions = {}",
        report.outcome.leaked, report.sl_promotions, report.sl_deletions
    );
    assert!(report.blocked());

    // Skip-INV-branch mitigation.
    let cfg = PocConfig::fig11(300);
    let mut skip = Session::builder().policy(Policy::SkipInv).build();
    let report = verify_pht_blocked(&mut skip, &cfg);
    println!(
        "skip-INV-branch mitigation:  leaked = {:?}, suppressed branches = {}",
        report.outcome.leaked, report.skipped_inv_branches
    );
    assert!(report.blocked());

    println!();
    println!("both §6 defenses block the leak while runahead keeps running.");
}
