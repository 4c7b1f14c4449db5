//! Combined front-end predictor: direction (two-level) + target (BTB) +
//! returns (RSB).

use crate::btb::{Btb, BtbConfig};
use crate::rsb::Rsb;
use crate::two_level::{TwoLevel, TwoLevelConfig};

/// Classification of a control instruction for prediction purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct jump.
    Direct,
    /// Indirect jump through a register.
    Indirect,
    /// Direct or indirect call (pushes the RSB).
    Call,
    /// Return (pops the RSB).
    Return,
}

/// A front-end prediction for one control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional control).
    pub taken: bool,
    /// Predicted next PC.
    pub target: u64,
}

/// Configuration of the combined predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Direction predictor geometry.
    pub two_level: TwoLevelConfig,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// RSB depth.
    pub rsb_entries: usize,
}

impl Default for PredictorConfig {
    fn default() -> PredictorConfig {
        PredictorConfig {
            two_level: TwoLevelConfig::default(),
            btb: BtbConfig::default(),
            rsb_entries: 16,
        }
    }
}

/// Counters kept by the predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Direction predictions made.
    pub direction_predictions: u64,
    /// Direction mispredictions reported.
    pub direction_mispredicts: u64,
    /// Target predictions made for indirect control.
    pub target_predictions: u64,
    /// Target mispredictions reported.
    pub target_mispredicts: u64,
}

/// The combined branch predictor shared by all contexts on the core.
///
/// The structure is deliberately untagged across processes: anything that
/// runs on the core trains it, which is the paper's threat-model assumption
/// for all three Spectre variants.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    two_level: TwoLevel,
    btb: Btb,
    rsb: Rsb,
    stats: PredictorStats,
}

impl BranchPredictor {
    /// Creates a predictor with the given geometry.
    pub fn new(config: PredictorConfig) -> BranchPredictor {
        BranchPredictor {
            two_level: TwoLevel::new(config.two_level),
            btb: Btb::new(config.btb),
            rsb: Rsb::new(config.rsb_entries),
            stats: PredictorStats::default(),
        }
    }

    /// Predicts the outcome of the control instruction at `pc`.
    ///
    /// `direct_target` is the statically-known target (`None` for indirect
    /// control); `fallthrough` is `pc + inst_size`. Calls push the RSB;
    /// returns pop it — side effects that happen at prediction time, exactly
    /// as in a real front end.
    pub fn predict(
        &mut self,
        pc: u64,
        kind: BranchKind,
        direct_target: Option<u64>,
        fallthrough: u64,
    ) -> Prediction {
        match kind {
            BranchKind::Conditional => {
                self.stats.direction_predictions += 1;
                let taken = self.two_level.predict(pc);
                let target = if taken {
                    direct_target.or_else(|| self.btb.predict(pc)).unwrap_or(fallthrough)
                } else {
                    fallthrough
                };
                Prediction { taken, target }
            }
            BranchKind::Direct => {
                Prediction { taken: true, target: direct_target.unwrap_or(fallthrough) }
            }
            BranchKind::Indirect => {
                self.stats.target_predictions += 1;
                let target = self.btb.predict(pc).unwrap_or(fallthrough);
                Prediction { taken: true, target }
            }
            BranchKind::Call => {
                self.rsb.push(fallthrough);
                match direct_target {
                    Some(t) => Prediction { taken: true, target: t },
                    None => {
                        self.stats.target_predictions += 1;
                        let target = self.btb.predict(pc).unwrap_or(fallthrough);
                        Prediction { taken: true, target }
                    }
                }
            }
            BranchKind::Return => {
                self.stats.target_predictions += 1;
                Prediction { taken: true, target: self.rsb.pop() }
            }
        }
    }

    /// Trains the predictor with a resolved conditional branch.
    pub fn resolve_conditional(&mut self, pc: u64, taken: bool, mispredicted: bool) {
        self.two_level.update(pc, taken);
        if mispredicted {
            self.stats.direction_mispredicts += 1;
        }
    }

    /// Trains the BTB with a resolved taken target (indirect or call).
    pub fn resolve_target(&mut self, pc: u64, target: u64, mispredicted: bool) {
        self.btb.update(pc, target);
        if mispredicted {
            self.stats.target_mispredicts += 1;
        }
    }

    /// Records a return misprediction (the RSB itself self-corrects as the
    /// correct return address is architecturally popped).
    pub fn resolve_return(&mut self, mispredicted: bool) {
        if mispredicted {
            self.stats.target_mispredicts += 1;
        }
    }

    /// Snapshot of the direction-predictor histories (runahead entry
    /// checkpoint; see [`TwoLevel::histories_snapshot`]).
    pub fn history_checkpoint(&self) -> Vec<u64> {
        self.two_level.histories_snapshot()
    }

    /// Restores a history snapshot (runahead exit).
    pub fn history_restore(&mut self, snapshot: &[u64]) {
        self.two_level.restore_histories(snapshot);
    }

    /// RSB checkpoint for speculation repair (top-of-stack pointer).
    pub fn rsb_checkpoint(&self) -> usize {
        self.rsb.checkpoint()
    }

    /// Restores an RSB checkpoint.
    pub fn rsb_restore(&mut self, checkpoint: usize) {
        self.rsb.restore(checkpoint);
    }

    /// Direct access to the RSB (training loops, tests).
    pub fn rsb_mut(&mut self) -> &mut Rsb {
        &mut self.rsb
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    /// Clears counters (table contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = PredictorStats::default();
    }
}

impl Default for BranchPredictor {
    fn default() -> BranchPredictor {
        BranchPredictor::new(PredictorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditional_cold_predicts_fallthrough() {
        let mut p = BranchPredictor::default();
        let pred = p.predict(0x100, BranchKind::Conditional, Some(0x200), 0x108);
        assert!(!pred.taken);
        assert_eq!(pred.target, 0x108);
    }

    #[test]
    fn trained_conditional_predicts_target() {
        let mut p = BranchPredictor::default();
        for _ in 0..16 {
            p.resolve_conditional(0x100, true, false);
        }
        let pred = p.predict(0x100, BranchKind::Conditional, Some(0x200), 0x108);
        assert!(pred.taken);
        assert_eq!(pred.target, 0x200);
    }

    #[test]
    fn indirect_uses_btb() {
        let mut p = BranchPredictor::default();
        let cold = p.predict(0x300, BranchKind::Indirect, None, 0x308);
        assert_eq!(cold.target, 0x308);
        p.resolve_target(0x300, 0x4000, true);
        let warm = p.predict(0x300, BranchKind::Indirect, None, 0x308);
        assert_eq!(warm.target, 0x4000);
        assert_eq!(p.stats().target_mispredicts, 1);
    }

    #[test]
    fn call_return_pair_round_trips() {
        let mut p = BranchPredictor::default();
        let call = p.predict(0x500, BranchKind::Call, Some(0x1000), 0x508);
        assert_eq!(call.target, 0x1000);
        let ret = p.predict(0x1040, BranchKind::Return, None, 0x1048);
        assert_eq!(ret.target, 0x508);
    }

    #[test]
    fn rsb_checkpoint_repair() {
        let mut p = BranchPredictor::default();
        p.predict(0x500, BranchKind::Call, Some(0x1000), 0x508);
        let cp = p.rsb_checkpoint();
        // Wrong-path call pushed speculatively…
        p.predict(0x600, BranchKind::Call, Some(0x2000), 0x608);
        // …then squashed.
        p.rsb_restore(cp);
        let ret = p.predict(0x1040, BranchKind::Return, None, 0x1048);
        assert_eq!(ret.target, 0x508);
    }

    #[test]
    fn stats_accumulate() {
        let mut p = BranchPredictor::default();
        p.predict(0x100, BranchKind::Conditional, Some(0x200), 0x108);
        p.resolve_conditional(0x100, true, true);
        assert_eq!(p.stats().direction_predictions, 1);
        assert_eq!(p.stats().direction_mispredicts, 1);
        p.reset_stats();
        assert_eq!(p.stats(), &PredictorStats::default());
    }
}
