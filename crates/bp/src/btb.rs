//! Branch Target Buffer.
//!
//! Set-associative, LRU-replaced, with *partial* tags: two PCs that agree in
//! their index and low tag bits alias to the same entry even if they live in
//! different address-space regions. That aliasing is the SpectreBTB training
//! primitive (paper Fig. 4a: the attacker trains a congruent `src` in her own
//! space so the victim's indirect branch predicts the attacker-chosen
//! `dst2`).

/// Geometry of the BTB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Number of tag bits kept (partial tagging enables cross-space
    /// aliasing; 64 disables aliasing).
    pub tag_bits: u32,
}

impl Default for BtbConfig {
    fn default() -> BtbConfig {
        BtbConfig { sets: 512, ways: 4, tag_bits: 8 }
    }
}

#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    tag: u64,
    target: u64,
    last_used: u64,
}

/// The branch target buffer.
///
/// ```
/// use specrun_bp::{Btb, BtbConfig};
/// let mut btb = Btb::new(BtbConfig::default());
/// assert_eq!(btb.predict(0x1000), None);
/// btb.update(0x1000, 0x4000);
/// assert_eq!(btb.predict(0x1000), Some(0x4000));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    config: BtbConfig,
    /// `sets × ways` entries in one allocation, way-major within a set.
    entries: Box<[Option<BtbEntry>]>,
    stamp: u64,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(config: BtbConfig) -> Btb {
        assert!(config.sets.is_power_of_two(), "BTB sets must be a power of two");
        assert!(config.ways > 0, "BTB needs at least one way");
        Btb { config, entries: vec![None; config.sets * config.ways].into_boxed_slice(), stamp: 0 }
    }

    /// The BTB's configuration.
    pub fn config(&self) -> &BtbConfig {
        &self.config
    }

    /// The entry range of `pc`'s set and `pc`'s partial tag.
    fn set_and_tag(&self, pc: u64) -> (core::ops::Range<usize>, u64) {
        let idx = ((pc >> 3) as usize) & (self.config.sets - 1);
        let tag_shift = 3 + self.config.sets.trailing_zeros();
        let tag_mask =
            if self.config.tag_bits >= 64 { u64::MAX } else { (1 << self.config.tag_bits) - 1 };
        let ways = self.config.ways;
        (idx * ways..(idx + 1) * ways, (pc >> tag_shift) & tag_mask)
    }

    /// Predicted target of the control instruction at `pc`, if any.
    pub fn predict(&self, pc: u64) -> Option<u64> {
        let (set, tag) = self.set_and_tag(pc);
        self.entries[set].iter().flatten().find(|e| e.tag == tag).map(|e| e.target)
    }

    /// Installs or refreshes the target for `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set, tag) = self.set_and_tag(pc);
        let set = &mut self.entries[set];
        if let Some(e) = set.iter_mut().flatten().find(|e| e.tag == tag) {
            e.target = target;
            e.last_used = stamp;
            return;
        }
        if let Some(slot) = set.iter_mut().find(|w| w.is_none()) {
            *slot = Some(BtbEntry { tag, target, last_used: stamp });
            return;
        }
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.map_or(0, |e| e.last_used))
            .map(|(i, _)| i)
            .expect("nonzero ways");
        set[victim] = Some(BtbEntry { tag, target, last_used: stamp });
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Whether the BTB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.entries.fill(None);
    }
}

impl Default for Btb {
    fn default() -> Btb {
        Btb::new(BtbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_update_then_hit() {
        let mut btb = Btb::default();
        assert_eq!(btb.predict(0x40), None);
        btb.update(0x40, 0x999);
        assert_eq!(btb.predict(0x40), Some(0x999));
        assert_eq!(btb.len(), 1);
    }

    #[test]
    fn congruent_addresses_alias() {
        // Same index (512 sets → bits 3..12) and same 8-bit partial tag:
        // stride = 512 << 3 << 8 = 1 MiB.
        let mut btb = Btb::default();
        let victim = 0x0010_0040u64;
        let attacker = victim + (512u64 << 3 << 8);
        btb.update(attacker, 0xdead);
        assert_eq!(btb.predict(victim), Some(0xdead), "cross-space aliasing");
    }

    #[test]
    fn full_tags_prevent_aliasing() {
        let mut btb = Btb::new(BtbConfig { tag_bits: 64, ..BtbConfig::default() });
        let victim = 0x0010_0040u64;
        let attacker = victim + (512u64 << 3 << 8);
        btb.update(attacker, 0xdead);
        assert_eq!(btb.predict(victim), None);
    }

    #[test]
    fn lru_within_set() {
        let mut btb = Btb::new(BtbConfig { sets: 2, ways: 2, tag_bits: 16 });
        // All PCs with (pc>>3) even map to set 0.
        let pcs = [0x0u64, 0x10, 0x20];
        btb.update(pcs[0], 1);
        btb.update(pcs[1], 2);
        btb.predict(pcs[0]); // prediction does not refresh LRU (stamp only on update)
        btb.update(pcs[2], 3);
        assert_eq!(btb.predict(pcs[0]), None, "LRU entry evicted");
        assert_eq!(btb.predict(pcs[1]), Some(2));
        assert_eq!(btb.predict(pcs[2]), Some(3));
    }

    #[test]
    fn retarget_in_place() {
        let mut btb = Btb::default();
        btb.update(0x80, 1);
        btb.update(0x80, 2);
        assert_eq!(btb.predict(0x80), Some(2));
        assert_eq!(btb.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut btb = Btb::default();
        btb.update(0x80, 1);
        btb.clear();
        assert!(btb.is_empty());
    }
}
