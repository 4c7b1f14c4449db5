//! Request-based contention model for main memory (Table 1: "request-based
//! contention model, 200 cycle").
//!
//! Every request pays the fixed access latency; the single memory channel
//! additionally serializes request *issue* with a configurable gap, so bursts
//! of misses queue behind each other. This is the property runahead
//! execution exploits: overlapping independent misses hides the 200-cycle
//! latency but still pays the per-request channel occupancy.

/// Timing parameters of the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Fixed access latency in cycles (paper: 200).
    pub latency: u64,
    /// Minimum cycles between consecutive request issues on the channel.
    pub issue_gap: u64,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig { latency: 200, issue_gap: 4 }
    }
}

/// The main-memory timing model.
///
/// ```
/// use specrun_mem::{Dram, DramConfig};
/// let mut dram = Dram::new(DramConfig { latency: 200, issue_gap: 10 });
/// assert_eq!(dram.request(0), 200);   // issues at 0
/// assert_eq!(dram.request(0), 210);   // channel busy until 10
/// assert_eq!(dram.request(1000), 1200);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    next_free: u64,
    requests: u64,
}

impl Dram {
    /// Creates the model with the given timing parameters.
    pub fn new(config: DramConfig) -> Dram {
        Dram { config, next_free: 0, requests: 0 }
    }

    /// This model's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Issues a request at cycle `now`; returns its completion cycle.
    pub fn request(&mut self, now: u64) -> u64 {
        let issue = now.max(self.next_free);
        self.next_free = issue + self.config.issue_gap;
        self.requests += 1;
        issue + self.config.latency
    }

    /// Total requests issued so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_when_idle() {
        let mut d = Dram::new(DramConfig::default());
        assert_eq!(d.request(100), 300);
    }

    #[test]
    fn contention_serializes_bursts() {
        let mut d = Dram::new(DramConfig { latency: 200, issue_gap: 6 });
        let a = d.request(0);
        let b = d.request(0);
        let c = d.request(0);
        assert_eq!(a, 200);
        assert_eq!(b, 206);
        assert_eq!(c, 212);
        assert_eq!(d.requests(), 3);
    }

    #[test]
    fn channel_frees_up_over_time() {
        let mut d = Dram::new(DramConfig { latency: 200, issue_gap: 6 });
        d.request(0);
        assert_eq!(d.request(50), 250); // gap already elapsed
    }

    #[test]
    fn overlap_beats_serial_total_latency() {
        // The MLP argument behind runahead: 4 overlapped misses finish far
        // sooner than 4 dependent (serial) ones.
        let mut overlapped = Dram::new(DramConfig::default());
        let finish_overlapped = (0..4).map(|_| overlapped.request(0)).max().unwrap();
        let mut serial = Dram::new(DramConfig::default());
        let mut t = 0;
        for _ in 0..4 {
            t = serial.request(t);
        }
        assert!(finish_overlapped < t / 2);
    }
}
