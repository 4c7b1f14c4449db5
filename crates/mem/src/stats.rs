//! Counters collected by the memory subsystem.

use core::fmt;

use crate::hierarchy::HitLevel;

/// Hit/miss and traffic counters for the whole hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Data-side L1 hits.
    pub l1d_hits: u64,
    /// Instruction-side L1 hits.
    pub l1i_hits: u64,
    /// L2 hits (both ports).
    pub l2_hits: u64,
    /// L3 hits (both ports).
    pub l3_hits: u64,
    /// Accesses that went to DRAM (MSHR allocations).
    pub dram_accesses: u64,
    /// Accesses that merged onto an existing MSHR entry.
    pub mshr_merges: u64,
    /// Completed fills installed into the caches.
    pub fills: u64,
    /// Dirty lines displaced.
    pub writebacks: u64,
    /// `clflush` operations performed.
    pub flushes: u64,
}

impl MemStats {
    pub(crate) fn record_hit(&mut self, level: HitLevel, ifetch: bool) {
        match level {
            HitLevel::L1 if ifetch => self.l1i_hits += 1,
            HitLevel::L1 => self.l1d_hits += 1,
            HitLevel::L2 => self.l2_hits += 1,
            HitLevel::L3 => self.l3_hits += 1,
            HitLevel::Mem => self.dram_accesses += 1,
        }
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "L1D hits      {:>12}", self.l1d_hits)?;
        writeln!(f, "L1I hits      {:>12}", self.l1i_hits)?;
        writeln!(f, "L2 hits       {:>12}", self.l2_hits)?;
        writeln!(f, "L3 hits       {:>12}", self.l3_hits)?;
        writeln!(f, "DRAM accesses {:>12}", self.dram_accesses)?;
        writeln!(f, "MSHR merges   {:>12}", self.mshr_merges)?;
        writeln!(f, "fills         {:>12}", self.fills)?;
        writeln!(f, "writebacks    {:>12}", self.writebacks)?;
        write!(f, "flushes       {:>12}", self.flushes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        assert!(!MemStats::default().to_string().is_empty());
    }
}
