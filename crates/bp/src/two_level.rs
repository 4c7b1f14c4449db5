//! Two-level adaptive direction predictor (Table 1: "two-level adaptive
//! predictor").
//!
//! Level one is a table of per-branch local histories; level two is a
//! pattern history table (PHT) of 2-bit saturating counters indexed by the
//! local history hashed with the branch PC. Neither table is tagged or
//! tagged per-process — which is precisely what lets an attacker running in
//! its own address space train entries used by a victim (SpectrePHT, paper
//! step ①: "poison PHT").

use crate::counter::SaturatingCounter;

/// Geometry of the two-level predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoLevelConfig {
    /// Entries in the level-one branch history table (power of two).
    pub bht_entries: usize,
    /// Bits of local history kept per branch.
    pub history_bits: u32,
    /// Entries in the pattern history table (power of two).
    pub pht_entries: usize,
    /// Width of each PHT counter in bits.
    pub counter_bits: u8,
}

impl Default for TwoLevelConfig {
    fn default() -> TwoLevelConfig {
        TwoLevelConfig { bht_entries: 1024, history_bits: 8, pht_entries: 4096, counter_bits: 2 }
    }
}

/// The two-level adaptive predictor.
#[derive(Debug, Clone)]
pub struct TwoLevel {
    config: TwoLevelConfig,
    histories: Vec<u64>,
    pht: Vec<SaturatingCounter>,
}

impl TwoLevel {
    /// Creates a predictor; all counters start strongly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if table sizes are not powers of two.
    pub fn new(config: TwoLevelConfig) -> TwoLevel {
        assert!(config.bht_entries.is_power_of_two(), "BHT size must be a power of two");
        assert!(config.pht_entries.is_power_of_two(), "PHT size must be a power of two");
        TwoLevel {
            config,
            histories: vec![0; config.bht_entries],
            pht: vec![SaturatingCounter::new(config.counter_bits); config.pht_entries],
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &TwoLevelConfig {
        &self.config
    }

    fn bht_index(&self, pc: u64) -> usize {
        ((pc >> 3) as usize) & (self.config.bht_entries - 1)
    }

    fn pht_index(&self, pc: u64, history: u64) -> usize {
        let mask = (1u64 << self.config.history_bits) - 1;
        (((history & mask) ^ (pc >> 3)) as usize) & (self.config.pht_entries - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        let history = self.histories[self.bht_index(pc)];
        self.pht[self.pht_index(pc, history)].is_taken()
    }

    /// Trains with the resolved outcome of the branch at `pc`.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let bht = self.bht_index(pc);
        let history = self.histories[bht];
        let pht = self.pht_index(pc, history);
        self.pht[pht].update(taken);
        self.histories[bht] = (history << 1) | u64::from(taken);
    }

    /// Snapshot of the level-one histories (checkpointed at runahead entry
    /// by the original scheme; pattern-table counters are *not* part of the
    /// checkpoint and keep their training).
    pub fn histories_snapshot(&self) -> Vec<u64> {
        self.histories.clone()
    }

    /// Restores a snapshot taken by [`TwoLevel::histories_snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a different geometry.
    pub fn restore_histories(&mut self, snapshot: &[u64]) {
        assert_eq!(snapshot.len(), self.histories.len(), "snapshot geometry mismatch");
        self.histories.copy_from_slice(snapshot);
    }
}

impl Default for TwoLevel {
    fn default() -> TwoLevel {
        TwoLevel::new(TwoLevelConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_says_not_taken() {
        let p = TwoLevel::default();
        assert!(!p.predict(0x1000));
    }

    #[test]
    fn repeated_training_flips_prediction() {
        let mut p = TwoLevel::default();
        // Needs history saturation (8 bits) plus counter hysteresis (2).
        for _ in 0..16 {
            p.update(0x1000, true);
        }
        assert!(p.predict(0x1000));
    }

    #[test]
    fn training_learns_alternating_pattern() {
        let mut p = TwoLevel::default();
        for i in 0..64 {
            p.update(0x2000, i % 2 == 0);
        }
        let mut correct = 0;
        for i in 64..96 {
            let taken = i % 2 == 0;
            if p.predict(0x2000) == taken {
                correct += 1;
            }
            p.update(0x2000, taken);
        }
        assert!(correct >= 28, "two-level should learn alternation, got {correct}/32");
    }

    #[test]
    fn congruent_pcs_share_entries() {
        // Two PCs equal modulo the BHT/PHT index width alias to the same
        // entries: the cross-address-space training primitive.
        let mut p = TwoLevel::default();
        let victim_pc = 0x0000_1008;
        let attacker_pc = victim_pc + (1024u64 << 3) * 4; // same low index bits
        for _ in 0..16 {
            p.update(attacker_pc, true);
        }
        assert!(p.predict(victim_pc), "aliased training must transfer");
    }

    #[test]
    fn distinct_branches_do_not_interfere_when_not_aliased() {
        let mut p = TwoLevel::default();
        for _ in 0..16 {
            p.update(0x1000, true);
        }
        assert!(!p.predict(0x1008), "neighboring branch keeps its own state");
    }
}
