//! Property-based tests for the branch prediction structures.

use proptest::prelude::*;
use specrun_bp::{BranchKind, BranchPredictor, Btb, BtbConfig, Rsb, SaturatingCounter, TwoLevel};

proptest! {
    /// Counter value stays within [0, 2^bits).
    #[test]
    fn counter_bounded(bits in 1u8..=7, outcomes in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut c = SaturatingCounter::new(bits);
        let max = (1u16 << bits) - 1;
        for taken in outcomes {
            c.update(taken);
            prop_assert!(u16::from(c.value()) <= max);
        }
    }

    /// A counter trained with k consecutive identical outcomes (k >= width)
    /// always predicts that outcome.
    #[test]
    fn counter_converges(bits in 1u8..=7, taken in any::<bool>()) {
        let mut c = SaturatingCounter::new(bits);
        for _ in 0..(1u16 << bits) {
            c.update(taken);
        }
        prop_assert_eq!(c.is_taken(), taken);
    }

    /// The two-level predictor never panics and eventually tracks a constant
    /// branch, regardless of PC.
    #[test]
    fn two_level_constant_branch(pc in any::<u64>(), taken in any::<bool>()) {
        let mut p = TwoLevel::default();
        for _ in 0..32 {
            p.update(pc, taken);
        }
        prop_assert_eq!(p.predict(pc), taken);
    }

    /// BTB predict-after-update returns the installed target for arbitrary
    /// PCs and targets.
    #[test]
    fn btb_update_then_predict(pc in any::<u64>(), target in any::<u64>()) {
        let mut btb = Btb::new(BtbConfig::default());
        btb.update(pc, target);
        prop_assert_eq!(btb.predict(pc), Some(target));
    }

    /// The BTB never exceeds its capacity.
    #[test]
    fn btb_capacity(updates in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..500)) {
        let cfg = BtbConfig { sets: 16, ways: 2, tag_bits: 8 };
        let mut btb = Btb::new(cfg);
        for (pc, t) in updates {
            btb.update(pc, t);
            prop_assert!(btb.len() <= cfg.sets * cfg.ways);
        }
    }

    /// RSB push/pop is LIFO while within capacity.
    #[test]
    fn rsb_lifo_within_capacity(addrs in proptest::collection::vec(any::<u64>(), 1..16)) {
        let mut rsb = Rsb::new(16);
        for &a in &addrs {
            rsb.push(a);
        }
        for &a in addrs.iter().rev() {
            prop_assert_eq!(rsb.pop(), a);
        }
    }

    /// Checkpoint/restore around any number of speculative pushes brings the
    /// next pop back to the checkpointed value (up to capacity-1 pushes).
    #[test]
    fn rsb_checkpoint_repair(spec_pushes in proptest::collection::vec(any::<u64>(), 0..15)) {
        let mut rsb = Rsb::new(16);
        rsb.push(0xabcd);
        let cp = rsb.checkpoint();
        for a in spec_pushes {
            rsb.push(a);
        }
        rsb.restore(cp);
        prop_assert_eq!(rsb.pop(), 0xabcd);
    }

    /// Predictions are pure in the absence of calls/returns: predicting the
    /// same conditional twice gives the same answer.
    #[test]
    fn conditional_prediction_is_stable(pc in any::<u64>(), target in any::<u64>()) {
        let mut p = BranchPredictor::default();
        let a = p.predict(pc, BranchKind::Conditional, Some(target), pc.wrapping_add(8));
        let b = p.predict(pc, BranchKind::Conditional, Some(target), pc.wrapping_add(8));
        prop_assert_eq!(a, b);
    }
}

/// The naive reference BTB: one `Vec` of optional `(tag, target, stamp)`
/// ways per set, indexed and tagged exactly as the BTB documents.
struct ModelBtb {
    sets: Vec<Vec<Option<(u64, u64, u64)>>>,
    tag_bits: u32,
    stamp: u64,
}

impl ModelBtb {
    fn split(&self, pc: u64) -> (usize, u64) {
        let sets = self.sets.len();
        let tag = pc >> (3 + sets.trailing_zeros());
        let tag = if self.tag_bits >= 64 { tag } else { tag & ((1 << self.tag_bits) - 1) };
        ((pc >> 3) as usize & (sets - 1), tag)
    }

    fn predict(&self, pc: u64) -> Option<u64> {
        let (set, tag) = self.split(pc);
        self.sets[set].iter().flatten().find(|e| e.0 == tag).map(|e| e.1)
    }

    fn update(&mut self, pc: u64, target: u64) {
        self.stamp += 1;
        let (set, tag) = self.split(pc);
        let ways = &mut self.sets[set];
        let way = ways
            .iter()
            .position(|w| w.is_some_and(|e| e.0 == tag))
            .or_else(|| ways.iter().position(Option::is_none))
            .unwrap_or_else(|| (0..ways.len()).min_by_key(|&w| ways[w].unwrap().2).unwrap());
        ways[way] = Some((tag, target, self.stamp));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flattened BTB matches the naive reference model: predictions
    /// after every update, under partial-tag aliasing (few tag bits, so
    /// distinct PCs collide) and with full tags, plus `len` and `clear`.
    #[test]
    fn btb_matches_reference_model(
        set_bits in 0u32..3,
        ways in 1usize..5,
        tag_bits in prop_oneof![Just(1u32), Just(2), Just(3), Just(64)],
        ops in proptest::collection::vec((0u8..10, 0u64..64, 0usize..3, any::<u64>()), 1..300),
    ) {
        let config = BtbConfig { sets: 1 << set_bits, ways, tag_bits };
        let mut btb = Btb::new(config);
        let mut model = ModelBtb { sets: vec![vec![None; ways]; 1 << set_bits], tag_bits, stamp: 0 };
        for (i, &(kind, word, high, target)) in ops.iter().enumerate() {
            let pc = [0u64, 1 << 40, 1 << 63][high] | (word << 3);
            match kind {
                0..=5 => {
                    btb.update(pc, target);
                    model.update(pc, target);
                }
                6..=8 => {}
                _ => {
                    btb.clear();
                    model.sets.iter_mut().for_each(|s| s.fill(None));
                }
            }
            prop_assert_eq!(btb.predict(pc), model.predict(pc), "op {} pc {:#x}", i, pc);
            prop_assert_eq!(btb.len(), model.sets.iter().flatten().flatten().count(), "op {}", i);
        }
    }
}
