//! Set-associative cache with true-LRU replacement.
//!
//! Caches model presence and timing only; data bytes live in the
//! [`BackingStore`](crate::BackingStore). This matches how the attack works:
//! what leaks is *which lines are resident*, not their contents.
//!
//! Storage grows with the sets a run fills, not with the geometry: a
//! set → row table (4 bytes per set, 0 = never filled) points at rows
//! allocated on a set's first fill, each holding the set's valid and dirty
//! bitmasks, with the rows' tags and LRU stamps in two flat vectors. A
//! 4 MiB L3 that a run touches in a few hundred sets therefore costs a few
//! tens of KiB to build, clone and hold instead of its full `sets × ways`
//! line array, while the per-access path stays one extra index plus a
//! short masked scan of contiguous tags.

use core::fmt;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u64,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
    /// Access latency in cycles for a hit at this level.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Creates a configuration and validates its geometry.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or the geometry is inconsistent
    /// (capacity not divisible into `ways × line_bytes` sets).
    pub fn new(size_bytes: u64, ways: u64, line_bytes: u64, hit_latency: u64) -> CacheConfig {
        let cfg = CacheConfig { size_bytes, ways, line_bytes, hit_latency };
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.num_sets() >= 1, "cache must have at least one set");
        assert!(
            cfg.num_sets().is_power_of_two(),
            "set count must be a power of two (size={size_bytes}, ways={ways})"
        );
        assert!((1..=64).contains(&ways), "associativity must be in 1..=64");
        cfg
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Occupancy of one filled set: bit `w` is way `w`.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    valid: u64,
    dirty: u64,
}

/// Result of inserting a line: what was evicted, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// The set had a free way; nothing was displaced.
    None,
    /// A clean line was displaced.
    Clean(u64),
    /// A dirty line was displaced (counts as a writeback).
    Dirty(u64),
}

/// One level of set-associative cache with true-LRU replacement.
///
/// All methods take *line addresses* (byte address divided by the line
/// size); use [`Cache::line_of`] to convert.
///
/// ```
/// use specrun_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64, 2));
/// let line = c.line_of(0x1040);
/// assert!(!c.access(line, 0));
/// c.fill(line, 1, false);
/// assert!(c.access(line, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Row of each set; 0 for a set never filled. Row 0 is a permanently
    /// empty sentinel, so a lookup in an untouched set needs no branch.
    row_of: Box<[u32]>,
    /// One row per filled set, in first-fill order.
    rows: Vec<Row>,
    /// Tags and LRU stamps of every row's ways: way `w` of row `r` is at
    /// `r << way_bits | w` (that index is a line's *slot*).
    tags: Vec<u64>,
    stamps: Vec<u64>,
    ways: usize,
    /// `ways` rounded up to a power of two, as a shift.
    way_bits: u32,
    set_mask: u64,
    set_shift: u32,
    stamp: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.num_sets();
        let ways = config.ways as usize;
        let stride = ways.next_power_of_two();
        Cache {
            row_of: vec![0u32; sets as usize].into_boxed_slice(),
            rows: vec![Row::default()],
            tags: vec![0; stride],
            stamps: vec![0; stride],
            ways,
            way_bits: stride.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            stamp: 0,
            config,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Converts a byte address to a line address for this cache's geometry.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes
    }

    #[inline]
    fn set_and_tag(&self, line: u64) -> (usize, u64) {
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }

    #[inline]
    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// The row holding `slot` and the slot's way bit within it.
    #[inline]
    fn row_and_bit(&self, slot: usize) -> (usize, u64) {
        (slot >> self.way_bits, 1u64 << (slot & ((1 << self.way_bits) - 1)))
    }

    /// Slot holding `tag` in `set`, if resident.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let row = self.row_of[set] as usize;
        let base = row << self.way_bits;
        let mut mask = self.rows[row].valid;
        while mask != 0 {
            let slot = base + mask.trailing_zeros() as usize;
            if self.tags[slot] == tag {
                return Some(slot);
            }
            mask &= mask - 1;
        }
        None
    }

    /// Whether the line is resident, without touching LRU state.
    pub fn probe(&self, line: u64) -> bool {
        let (set, tag) = self.set_and_tag(line);
        self.find(set, tag).is_some()
    }

    /// Looks up the line, updating LRU state on hit. Returns whether it hit.
    pub fn access(&mut self, line: u64, _now: u64) -> bool {
        self.access_slot(line).is_some()
    }

    /// [`Cache::access`], additionally returning the hit line's *slot* — an
    /// index into the cache's storage that stays valid while the line stays
    /// resident (i.e. until any fill, invalidate or clear on this cache).
    /// Callers memoize it to re-touch a just-hit line without repeating the
    /// tag search; see [`Cache::touch_slot`].
    pub fn access_slot(&mut self, line: u64) -> Option<usize> {
        let stamp = self.bump();
        let (set, tag) = self.set_and_tag(line);
        let slot = self.find(set, tag)?;
        self.stamps[slot] = stamp;
        Some(slot)
    }

    /// Re-touches a slot previously returned by [`Cache::access_slot`] for
    /// a line known to still be resident there. Exactly equivalent to
    /// another `access` hit of that line: one LRU stamp is consumed and the
    /// line becomes most-recently used.
    pub fn touch_slot(&mut self, slot: usize) {
        let stamp = self.bump();
        self.stamps[slot] = stamp;
    }

    /// Marks a resident slot dirty (store hit on a memoized line);
    /// equivalent to [`Cache::mark_dirty`] on its line.
    pub fn mark_dirty_slot(&mut self, slot: usize) {
        let (row, bit) = self.row_and_bit(slot);
        self.rows[row].dirty |= bit;
    }

    /// Marks the line dirty if resident (store hit). Returns whether it hit.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let (set, tag) = self.set_and_tag(line);
        let Some(slot) = self.find(set, tag) else { return false };
        self.mark_dirty_slot(slot);
        true
    }

    /// Installs the line (no-op if already resident), evicting the LRU way
    /// of a full set.
    pub fn fill(&mut self, line: u64, _now: u64, dirty: bool) -> Evicted {
        let stamp = self.bump();
        let (set, tag) = self.set_and_tag(line);
        // Already resident: refresh.
        if let Some(slot) = self.find(set, tag) {
            self.stamps[slot] = stamp;
            if dirty {
                self.mark_dirty_slot(slot);
            }
            return Evicted::None;
        }
        // A set's first fill gives it a row.
        if self.row_of[set] == 0 {
            self.row_of[set] = self.rows.len() as u32;
            self.rows.push(Row::default());
            let len = self.tags.len() + (1 << self.way_bits);
            self.tags.resize(len, 0);
            self.stamps.resize(len, 0);
        }
        let row = self.row_of[set] as usize;
        let base = row << self.way_bits;
        let Row { valid, dirty: dirty_mask } = self.rows[row];
        // Free way (lowest index first), else the true-LRU way.
        let free = (!valid).trailing_zeros() as usize;
        let (way, evicted) = if free < self.ways {
            (free, Evicted::None)
        } else {
            let lru = &self.stamps[base..base + self.ways];
            let way = (0..self.ways).min_by_key(|&w| lru[w]).expect("nonzero ways");
            let victim = (self.tags[base + way] << self.set_shift) | set as u64;
            if dirty_mask & (1u64 << way) != 0 {
                (way, Evicted::Dirty(victim))
            } else {
                (way, Evicted::Clean(victim))
            }
        };
        let bit = 1u64 << way;
        self.tags[base + way] = tag;
        self.stamps[base + way] = stamp;
        let r = &mut self.rows[row];
        r.valid |= bit;
        r.dirty = if dirty { r.dirty | bit } else { r.dirty & !bit };
        evicted
    }

    /// Removes the line if resident; returns whether it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let (set, tag) = self.set_and_tag(line);
        let Some(slot) = self.find(set, tag) else { return false };
        let (row, bit) = self.row_and_bit(slot);
        self.rows[row].valid &= !bit;
        true
    }

    /// Empties the cache, releasing every row.
    pub fn clear(&mut self) {
        self.row_of.fill(0);
        self.rows.truncate(1);
        self.tags.truncate(1 << self.way_bits);
        self.stamps.truncate(1 << self.way_bits);
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.rows.iter().map(|r| r.valid.count_ones() as usize).sum()
    }

    /// Number of sets holding storage: those filled at least once since
    /// the cache was created or last cleared. A cache's footprint grows
    /// with this count, not with its geometry.
    pub fn touched_sets(&self) -> usize {
        self.rows.len() - 1
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KiB {}-way {}B-line cache ({} cycles, {} resident)",
            self.config.size_bytes / 1024,
            self.config.ways,
            self.config.line_bytes,
            self.config.hit_latency,
            self.resident_lines()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 64 B
        Cache::new(CacheConfig::new(512, 2, 64, 2))
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 4);
        assert_eq!(c.line_of(0x100), 4);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.access(10, 0));
        assert_eq!(c.fill(10, 1, false), Evicted::None);
        assert!(c.access(10, 2));
        assert!(c.probe(10));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, 0, false);
        c.fill(4, 1, false);
        c.access(0, 2); // 0 is now MRU; 4 is LRU
        assert_eq!(c.fill(8, 3, false), Evicted::Clean(4));
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.fill(0, 0, false);
        c.mark_dirty(0);
        c.fill(4, 1, false);
        c.access(4, 2);
        assert_eq!(c.fill(8, 3, false), Evicted::Dirty(0));
    }

    #[test]
    fn refill_refreshes_lru_not_duplicate() {
        let mut c = small();
        c.fill(0, 0, false);
        c.fill(4, 1, false);
        c.fill(0, 2, false); // refresh, not duplicate
        assert_eq!(c.resident_lines(), 2);
        assert_eq!(c.fill(8, 3, false), Evicted::Clean(4));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.fill(7, 0, false);
        assert!(c.invalidate(7));
        assert!(!c.probe(7));
        assert!(!c.invalidate(7));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small();
        c.fill(0, 0, false);
        c.fill(4, 1, false);
        assert!(c.probe(0)); // must not promote line 0
        assert_eq!(c.fill(8, 2, false), Evicted::Clean(0));
    }

    #[test]
    fn clear_empties() {
        let mut c = small();
        c.fill(1, 0, false);
        c.fill(2, 0, false);
        c.clear();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn invalidated_way_is_reused() {
        let mut c = small();
        c.fill(0, 0, false);
        c.fill(4, 1, false);
        c.invalidate(0);
        assert_eq!(c.fill(8, 2, false), Evicted::None, "freed way must be reused");
        assert!(c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn high_tags_round_trip() {
        let mut c = small();
        let line = (1u64 << 40) | 3; // large tag, set 3
        c.fill(line, 0, false);
        assert!(c.probe(line));
        c.mark_dirty(line);
        // Conflict-evict it and check the victim line address is exact.
        let other1 = (1u64 << 41) | 3;
        let other2 = (1u64 << 42) | 3;
        c.fill(other1, 1, false);
        assert_eq!(c.fill(other2, 2, false), Evicted::Dirty(line));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheConfig::new(500, 2, 64, 2);
    }
}
