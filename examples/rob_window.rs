//! The §5.3 experiment: how many instructions fit in the transient window?
//! Runahead logically enlarges the ROB (paper: N1 = 255, N2 = 480,
//! N3 = 840 on a 256-entry ROB).
//!
//! ```sh
//! cargo run --release --example rob_window
//! ```

use specrun::window::measure_windows;

fn main() {
    let report = measure_windows(None).expect("window programs halt");
    println!("ROB capacity:                        {}", report.rob_entries);
    println!("N1 (normal machine, flush once):     {}  (paper: 255)", report.n1);
    println!("N2 (runahead, flush once):           {}  (paper: 480)", report.n2);
    println!(
        "N3 (runahead, repeated flush):       {}  (paper: 840, {} episodes here)",
        report.n3, report.episodes_n3
    );
    println!();
    if report.shape_holds() {
        println!("shape holds: N1 < ROB <= N2 < N3 — runahead removes the ROB limit.");
    } else {
        println!("WARNING: expected shape N1 < ROB <= N2 < N3 did not hold!");
    }
}
