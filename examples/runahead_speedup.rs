//! The Fig. 7 experiment: IPC of the six SPEC2006-like kernels with and
//! without runahead execution.
//!
//! ```sh
//! cargo run --release --example runahead_speedup
//! ```

use specrun_cpu::CpuConfig;
use specrun_workloads::{geomean_speedup, suite_with_iters, try_compare};

fn main() {
    println!("{:<10} {:>12} {:>12} {:>9}", "kernel", "no-runahead", "runahead", "speedup");
    let results = try_compare(&suite_with_iters(800), &[CpuConfig::default()], 50_000_000, 0, None)
        .expect("every kernel halts within its budget");
    for c in &results {
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>8.1}%",
            c.name,
            c.baseline.ipc,
            c.runahead.ipc,
            (c.speedup() - 1.0) * 100.0
        );
    }
    let mean = geomean_speedup(&results);
    println!("{:<10} {:>12} {:>12} {:>8.1}%", "geomean", "", "", (mean - 1.0) * 100.0);
    println!();
    println!("paper reports a mean improvement of 11% on this configuration.");
}
