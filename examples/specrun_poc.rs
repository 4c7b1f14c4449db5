//! The headline demo: SPECRUN leaks a whole secret string byte-by-byte
//! through the runahead covert channel (paper Fig. 8 / Fig. 9).
//!
//! ```sh
//! cargo run --release --example specrun_poc
//! ```

use specrun::attack::{run_poc, AttackLayout, GadgetKind, PocConfig};
use specrun::session::{Policy, Session};

fn main() {
    let secret = b"SPECRUN!";
    println!("planted secret: {:?}", String::from_utf8_lossy(secret));
    print!("leaked:          ");

    let mut recovered = Vec::new();
    for (i, &byte) in secret.iter().enumerate() {
        // Each byte sits at its own address; the attacker picks the
        // malicious index x = secret_addr - array1_base accordingly.
        let layout = AttackLayout {
            secret_addr: AttackLayout::default().secret_addr + i as u64 * 64,
            ..AttackLayout::default()
        };
        let cfg = PocConfig { layout, secret: byte, ..PocConfig::default() };
        let mut session = Session::builder().policy(Policy::Runahead).layout(layout).build();
        let outcome = run_poc(&mut session, GadgetKind::Pht, &cfg);
        let got = outcome.leaked.unwrap_or(b'?');
        print!("{}", got as char);
        recovered.push(got);
    }
    println!();
    assert_eq!(recovered, secret, "the covert channel must recover every byte");
    println!("every byte recovered through the runahead covert channel.");
}
