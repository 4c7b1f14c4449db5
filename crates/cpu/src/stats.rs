//! Core performance and security counters.

use core::fmt;

/// Counters accumulated by the core while running.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Instructions dispatched into the ROB.
    pub dispatched: u64,
    /// Instructions architecturally committed.
    pub committed: u64,
    /// Instructions squashed on misprediction recovery.
    pub squashed: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub branch_mispredicts: u64,
    /// Loads executed (including returns).
    pub loads: u64,
    /// Stores committed (including call-pushes).
    pub stores: u64,
    /// Times the core entered runahead mode.
    pub runahead_entries: u64,
    /// Times the core exited runahead mode.
    pub runahead_exits: u64,
    /// Instructions pseudo-retired during runahead.
    pub pseudo_retired: u64,
    /// Instructions dispatched while in runahead mode.
    pub runahead_dispatched: u64,
    /// Branches whose sources were INV and therefore never resolved — the
    /// microarchitectural signature SPECRUN exploits.
    pub inv_unresolved_branches: u64,
    /// Prefetch requests issued by runahead loads that missed to DRAM.
    pub runahead_prefetches: u64,
    /// Extra prefetch lanes issued by the vector-runahead stride engine.
    pub vector_lane_prefetches: u64,
    /// Largest observed ROB occupancy behind a stalled DRAM load in normal
    /// mode (the paper's N1 measurement: ≈ ROB size − 1).
    pub max_stall_window: u64,
    /// Per-episode transient window, maximum over episodes (instructions in
    /// the window at entry plus those dispatched during the episode).
    pub max_episode_window: u64,
    /// Sum of per-episode transient windows over the whole run (the paper's
    /// N2/N3 measurement: cumulative across repeated-flush episodes).
    pub total_episode_window: u64,
    /// Loads serviced from the SL cache after runahead exit (defense).
    pub sl_hits: u64,
    /// SL-cache entries promoted to L1 by Algorithm 1.
    pub sl_promotions: u64,
    /// SL-cache entries deleted because their branch mispredicted.
    pub sl_deletions: u64,
    /// Loads that had to wait on a branch verdict before leaving the SL
    /// cache.
    pub sl_verdict_waits: u64,
    /// INV-source branches suppressed by the skip-INV-branch mitigation.
    pub skipped_inv_branches: u64,
    /// Operand wakeups delivered by the event-driven scheduler (a waiting
    /// instruction's last unproduced operand arriving moves it to the
    /// issue-ready set). Identical across fast-forward and naive runs:
    /// wakeups only happen on cycles where state changes.
    pub sched_wakeups: u64,
}

impl CpuStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for CpuStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles               {:>12}", self.cycles)?;
        writeln!(f, "committed            {:>12}", self.committed)?;
        writeln!(f, "IPC                  {:>12.3}", self.ipc())?;
        writeln!(f, "fetched              {:>12}", self.fetched)?;
        writeln!(f, "dispatched           {:>12}", self.dispatched)?;
        writeln!(f, "squashed             {:>12}", self.squashed)?;
        writeln!(f, "branches             {:>12}", self.branches)?;
        writeln!(f, "mispredicts          {:>12}", self.branch_mispredicts)?;
        writeln!(f, "loads                {:>12}", self.loads)?;
        writeln!(f, "stores               {:>12}", self.stores)?;
        writeln!(f, "runahead entries     {:>12}", self.runahead_entries)?;
        writeln!(f, "pseudo-retired       {:>12}", self.pseudo_retired)?;
        writeln!(f, "INV branches         {:>12}", self.inv_unresolved_branches)?;
        writeln!(f, "runahead prefetches  {:>12}", self.runahead_prefetches)?;
        writeln!(f, "max stall window     {:>12}", self.max_stall_window)?;
        writeln!(f, "max episode window   {:>12}", self.max_episode_window)?;
        write!(f, "total episode window {:>12}", self.total_episode_window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_division() {
        let s = CpuStats { cycles: 200, committed: 100, ..CpuStats::default() };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert_eq!(CpuStats::default().ipc(), 0.0);
    }

    #[test]
    fn display_mentions_key_counters() {
        let text = CpuStats::default().to_string();
        assert!(text.contains("IPC"));
        assert!(text.contains("runahead"));
    }
}
