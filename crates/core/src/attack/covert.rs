//! Covert-channel analysis: turning probe timings into leaked bytes.

use crate::attack::AttackLayout;
use crate::machine::Machine;

/// Default hit/miss decision threshold in cycles.
///
/// An L3 hit costs 32 cycles and a DRAM access 200+ on the Table 1 machine,
/// so anything under 100 cycles is a cache hit.
pub const DEFAULT_THRESHOLD: u64 = 100;

/// The 256 probe-entry access times measured by an attack's probe loop
/// (the paper's Fig. 9 / Fig. 11 series).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeTimings {
    timings: Vec<u64>,
}

impl ProbeTimings {
    /// Wraps raw timings (index = byte value).
    pub fn new(timings: Vec<u64>) -> ProbeTimings {
        ProbeTimings { timings }
    }

    /// Reads the probe loop's results buffer from machine memory.
    pub fn read_from<O: specrun_cpu::probe::PipelineObserver>(
        machine: &Machine<O>,
        layout: &AttackLayout,
    ) -> ProbeTimings {
        let timings = (0..layout.probe_entries)
            .map(|v| machine.read_value(layout.result_addr(v), 8))
            .collect();
        ProbeTimings { timings }
    }

    /// The raw series (index = probed byte value, value = cycles).
    pub fn as_slice(&self) -> &[u64] {
        &self.timings
    }

    /// Indices that measured faster than `threshold` (cache hits).
    pub fn hot_indices(&self, threshold: u64) -> Vec<usize> {
        self.timings.iter().enumerate().filter(|(_, &t)| t < threshold).map(|(i, _)| i).collect()
    }

    /// Recovers the leaked byte: the unique sub-threshold index, ignoring
    /// `exclude` (e.g. the value warmed by the training loop).
    ///
    /// Returns `None` when no index is hot — the no-leak outcome the paper's
    /// Fig. 11 shows for the no-runahead machine and §6 shows for the
    /// defended machine.
    pub fn leaked_byte(&self, threshold: u64, exclude: &[usize]) -> Option<u8> {
        self.timings
            .iter()
            .enumerate()
            .filter(|(i, &t)| t < threshold && !exclude.contains(i))
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i as u8)
    }

    /// Mean access time of the non-hot entries (the miss floor).
    pub fn miss_floor(&self, threshold: u64) -> f64 {
        let misses: Vec<u64> = self.timings.iter().copied().filter(|&t| t >= threshold).collect();
        if misses.is_empty() {
            0.0
        } else {
            misses.iter().sum::<u64>() as f64 / misses.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with_dip(dip: usize) -> ProbeTimings {
        let mut t = vec![210u64; 256];
        t[dip] = 12;
        ProbeTimings::new(t)
    }

    #[test]
    fn single_dip_is_recovered() {
        let t = series_with_dip(86);
        assert_eq!(t.leaked_byte(DEFAULT_THRESHOLD, &[]), Some(86));
        assert_eq!(t.hot_indices(DEFAULT_THRESHOLD), vec![86]);
    }

    #[test]
    fn excluded_indices_are_ignored() {
        let mut t = vec![210u64; 256];
        t[0] = 10; // training artifact
        t[127] = 15;
        let t = ProbeTimings::new(t);
        assert_eq!(t.leaked_byte(DEFAULT_THRESHOLD, &[0]), Some(127));
    }

    #[test]
    fn flat_series_means_no_leak() {
        let t = ProbeTimings::new(vec![205; 256]);
        assert_eq!(t.leaked_byte(DEFAULT_THRESHOLD, &[]), None);
        assert!(t.hot_indices(DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn miss_floor_excludes_hits() {
        let t = series_with_dip(9);
        assert!((t.miss_floor(DEFAULT_THRESHOLD) - 210.0).abs() < 1e-9);
    }

    #[test]
    fn fastest_hot_index_wins() {
        let mut v = vec![210u64; 256];
        v[3] = 90;
        v[200] = 8;
        let t = ProbeTimings::new(v);
        assert_eq!(t.leaked_byte(DEFAULT_THRESHOLD, &[]), Some(200));
    }
}
