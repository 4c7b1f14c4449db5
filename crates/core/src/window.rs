//! Transient-window measurement (paper §5.3, Fig. 10).
//!
//! Three scenarios measure how many instructions the machine can hold or
//! pseudo-retire behind a stalled DRAM load:
//!
//! * **➀ normal, flush once** — the no-runahead machine. The window is the
//!   ROB occupancy behind the stalled head: `N1 ≈ ROB − 1` (paper: 255).
//! * **➁ runahead, flush once** — one runahead episode. The window is
//!   everything in the ROB at entry plus everything dispatched during the
//!   episode: `N2 > ROB` (paper: 480).
//! * **➂ runahead, flush repeatedly** — a co-resident attacker re-flushes
//!   the trigger line so the reloaded line misses again and a second
//!   episode chains onto the first: `N3 > N2` (paper: 840). The paper calls
//!   this probabilistic; here the host schedules the flushes precisely.

use specrun_cpu::{CancelToken, CpuConfig};
use specrun_isa::{IntReg, Program, ProgramBuilder};
use specrun_workloads::harness::RunError;

use crate::session::{Policy, Session};

/// Address of the flushed trigger line `x` in the Fig. 10 snippets.
const TRIGGER_ADDR: u64 = 0x0009_0000;

/// The runahead machine with efficiency throttling disabled: a pure nop
/// window yields no prefetches, and the paper's §5.3 measurement assumes
/// the raw scheme re-enters whenever the trigger condition holds.
fn unthrottled_runahead() -> Session {
    let mut cfg = CpuConfig::default();
    cfg.runahead.min_episode_yield = 0;
    Session::builder().config(cfg).build()
}

/// The three window sizes of §5.3 plus context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowReport {
    /// ➀ normal machine, flush once (paper: 255).
    pub n1: u64,
    /// ➁ runahead machine, flush once (paper: 480).
    pub n2: u64,
    /// ➂ runahead machine, repeated flush (paper: 840).
    pub n3: u64,
    /// ROB capacity for reference (paper: 256).
    pub rob_entries: u64,
    /// Runahead episodes observed in scenario ➂.
    pub episodes_n3: u64,
}

impl WindowReport {
    /// The qualitative claims of §5.3: `N1 < ROB ≤ N2 < N3`.
    pub fn shape_holds(&self) -> bool {
        self.n1 < self.rob_entries && self.n2 > self.rob_entries && self.n3 > self.n2
    }
}

/// Builds the Fig. 10 measurement snippet: `clflush x; load x; nop…; halt`.
pub fn build_window_program(nops: usize) -> Program {
    let mut b = ProgramBuilder::new(0x1000);
    let rx = IntReg::new(1).unwrap();
    b.li(rx, TRIGGER_ADDR as i32);
    b.flush(rx, 0);
    b.ld(IntReg::new(2).unwrap(), rx, 0);
    b.nops(nops);
    b.halt();
    b.build().expect("window program is closed")
}

/// Scenario ➀: the no-runahead machine's window (`N1`).
pub fn measure_n1(nops: usize, token: Option<&CancelToken>) -> Result<u64, RunError> {
    let mut m = Session::builder().policy(Policy::NoRunahead).build();
    m.set_cancel_token(token.cloned());
    m.warm(TRIGGER_ADDR, 8);
    m.run_program(&build_window_program(nops), 1_000_000);
    m.check_halted(|| "window N1".to_string())?;
    Ok(m.stats().max_stall_window)
}

/// Scenario ➁: one runahead episode's window (`N2`).
pub fn measure_n2(nops: usize, token: Option<&CancelToken>) -> Result<u64, RunError> {
    let mut m = unthrottled_runahead();
    m.set_cancel_token(token.cloned());
    m.warm(TRIGGER_ADDR, 8);
    m.run_program(&build_window_program(nops), 1_000_000);
    m.check_halted(|| "window N2".to_string())?;
    Ok(m.stats().total_episode_window)
}

/// Scenario ➂: chained episodes via host-scheduled re-flushes (`N3`).
///
/// Returns the cumulative window and the number of episodes.
pub fn measure_n3(
    nops: usize,
    extra_flushes: usize,
    token: Option<&CancelToken>,
) -> Result<(u64, u64), RunError> {
    let mut m = unthrottled_runahead();
    m.set_cancel_token(token.cloned());
    m.warm(TRIGGER_ADDR, 8);
    m.load(&build_window_program(nops));
    // The first episode ends when the trigger load's data returns (~200
    // cycles after it issues). Re-flushing in a band around each expected
    // completion chains further episodes, like the paper's co-resident
    // attacker who "waits until all instructions in the ROB have retired
    // before immediately flushing x".
    let mut cycle = 180;
    for _ in 0..extra_flushes {
        for offset in (0..240).step_by(12) {
            m.schedule_flush(cycle + offset, TRIGGER_ADDR);
        }
        cycle += 240;
    }
    m.run(2_000_000);
    m.check_halted(|| "window N3".to_string())?;
    Ok((m.stats().total_episode_window, m.stats().runahead_exits))
}

/// Runs all three scenarios — in parallel, one machine per worker, every
/// run governed by `token` — with a slide long enough that the window, not
/// the program, is the limit.
pub fn measure_windows(token: Option<&CancelToken>) -> Result<WindowReport, RunError> {
    let nops = 4096;
    let scenarios = [1u8, 2, 3];
    let results = specrun_workloads::parallel_map(&scenarios, 3, |_, &s| match s {
        1 => measure_n1(nops, token).map(|n| (n, 0)),
        2 => measure_n2(nops, token).map(|n| (n, 0)),
        _ => measure_n3(nops, 1, token),
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (n3, episodes_n3) = results[2];
    Ok(WindowReport { n1: results[0].0, n2: results[1].0, n3, rob_entries: 256, episodes_n3 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_shape() {
        let p = build_window_program(10);
        assert_eq!(p.len(), 3 + 10 + 1);
    }

    #[test]
    fn n1_is_rob_minus_one() {
        assert_eq!(measure_n1(2048, None).unwrap(), 255);
    }

    #[test]
    fn n2_exceeds_rob() {
        let n2 = measure_n2(2048, None).unwrap();
        assert!(n2 > 256, "N2 = {n2} must exceed the ROB");
    }

    #[test]
    fn n3_exceeds_n2() {
        let n2 = measure_n2(4096, None).unwrap();
        let (n3, episodes) = measure_n3(4096, 1, None).unwrap();
        assert!(episodes >= 2, "re-flush must chain a second episode (got {episodes})");
        assert!(n3 > n2, "N3 = {n3} must exceed N2 = {n2}");
    }

    #[test]
    fn full_report_shape() {
        let report = measure_windows(None).unwrap();
        assert!(report.shape_holds(), "{report:?}");
    }
}
