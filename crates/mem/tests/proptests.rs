//! Property-based tests for the memory subsystem.

use proptest::prelude::*;
use specrun_mem::{
    AccessKind, BackingStore, Cache, CacheConfig, Evicted, FillPolicy, HitLevel, MemHierarchy,
    RunaheadCache, RunaheadRead, SlCache, SlTags,
};

proptest! {
    /// Backing store reads return exactly what was last written, for any
    /// interleaving of writes at any width.
    #[test]
    fn backing_store_last_write_wins(
        writes in proptest::collection::vec((0u64..0x10000, prop_oneof![Just(1u64), Just(2), Just(4), Just(8)], any::<u64>()), 1..50)
    ) {
        let mut mem = BackingStore::new();
        let mut model = std::collections::HashMap::<u64, u8>::new();
        for (addr, width, value) in &writes {
            mem.write(*addr, *width, *value);
            for i in 0..*width {
                model.insert(addr + i, (value >> (8 * i)) as u8);
            }
        }
        for (addr, _, _) in &writes {
            let expect = *model.get(addr).unwrap_or(&0);
            prop_assert_eq!(mem.read_u8(*addr), expect);
        }
    }

    /// A cache never holds more lines than its capacity, and a line that was
    /// just filled is always resident.
    #[test]
    fn cache_capacity_invariant(lines in proptest::collection::vec(0u64..4096, 1..300)) {
        let cfg = CacheConfig::new(4096, 4, 64, 2); // 16 sets x 4 ways
        let capacity = (cfg.size_bytes / cfg.line_bytes) as usize;
        let mut cache = Cache::new(cfg);
        for (i, &line) in lines.iter().enumerate() {
            cache.fill(line, i as u64, false);
            prop_assert!(cache.probe(line), "just-filled line resident");
            prop_assert!(cache.resident_lines() <= capacity);
        }
    }

    /// After an access completes, re-accessing the same address at a later
    /// time is always at least as fast (monotone warming), absent flushes.
    #[test]
    fn warming_is_monotone(addrs in proptest::collection::vec(0u64..0x40000, 1..60)) {
        let mut mem = MemHierarchy::default();
        let mut now = 0u64;
        for &addr in &addrs {
            let first = mem.access(addr, now, AccessKind::Load, FillPolicy::Normal);
            let first_latency = first.ready_at - now;
            now = first.ready_at + 1;
            let second = mem.access(addr, now, AccessKind::Load, FillPolicy::Normal);
            prop_assert!(second.ready_at - now <= first_latency);
            prop_assert_ne!(second.level, HitLevel::Mem);
            now = second.ready_at + 1;
        }
    }

    /// Flushing any subset of addresses evicts exactly those lines.
    #[test]
    fn flush_is_precise(
        warm in proptest::collection::hash_set(0u64..256, 1..40),
        flush in proptest::collection::hash_set(0u64..256, 1..40),
    ) {
        let mut mem = MemHierarchy::default();
        let line = mem.line_bytes();
        for &w in &warm {
            mem.warm(w * line);
        }
        for &f in &flush {
            mem.flush_line(f * line, 0);
        }
        for &w in &warm {
            let resident = mem.residency(w * line) != HitLevel::Mem;
            prop_assert_eq!(resident, !flush.contains(&w), "line {}", w);
        }
    }

    /// Runahead-cache reads reproduce the most recent valid write at any
    /// overlap, and INV writes never produce a Hit.
    #[test]
    fn runahead_cache_forwarding(
        ops in proptest::collection::vec((0u64..64, prop_oneof![Just(1u64), Just(2), Just(4), Just(8)], any::<u64>(), any::<bool>()), 1..40)
    ) {
        let mut rc = RunaheadCache::new(4096);
        let mut bytes = std::collections::HashMap::<u64, (u8, bool)>::new();
        for (addr, width, value, inv) in &ops {
            rc.write(*addr, *width, *value, *inv);
            for i in 0..*width {
                bytes.insert(addr + i, ((value >> (8 * i)) as u8, *inv));
            }
        }
        for (addr, width, _, _) in &ops {
            let mut expect_val = 0u64;
            let mut poisoned = false;
            for i in 0..*width {
                let (v, inv) = bytes[&(addr + i)];
                expect_val |= u64::from(v) << (8 * i);
                poisoned |= inv;
            }
            match rc.read(*addr, *width) {
                RunaheadRead::Hit(v) => {
                    prop_assert!(!poisoned);
                    prop_assert_eq!(v, expect_val);
                }
                RunaheadRead::Invalid => prop_assert!(poisoned),
                RunaheadRead::Miss => prop_assert!(false, "bytes were written"),
            }
        }
    }

    /// The SL-cache counter always equals the number of resident entries,
    /// through any mix of inserts and bulk removals.
    #[test]
    fn sl_counter_consistent(
        ops in proptest::collection::vec((0u64..64, 0u32..4, any::<bool>()), 1..80)
    ) {
        let mut sl = SlCache::new(32);
        for (line, branch, remove) in ops {
            if remove {
                sl.remove_tainted_by(1u64 << branch);
            } else {
                let tags = if branch == 0 {
                    SlTags::safe()
                } else {
                    SlTags { btag: Some(specrun_mem::Btag { branch, ordinal: 1 }), is_mask: 1u64 << branch }
                };
                sl.insert(line, tags);
            }
            prop_assert_eq!(sl.counter(), sl.iter().count());
            prop_assert!(sl.counter() <= 32);
        }
    }
}

/// Tags the model test draws from: a few low ones (so sets conflict and
/// hit often) and high ones that exercise the victim line reconstruction.
const MODEL_TAGS: [u64; 8] = [0, 1, 2, 3, 1 << 40, (1 << 50) + 7, 1 << 57, (1 << 58) - 1];

/// The naive reference cache: one `Vec` of optional `(tag, stamp, dirty)`
/// ways per set, true LRU by scanning stamps, free ways lowest index first.
struct ModelCache {
    sets: Vec<Vec<Option<(u64, u64, bool)>>>,
    set_bits: u32,
    stamp: u64,
}

impl ModelCache {
    fn new(sets: usize, ways: usize) -> ModelCache {
        ModelCache { sets: vec![vec![None; ways]; sets], set_bits: sets.trailing_zeros(), stamp: 0 }
    }

    fn split(&self, line: u64) -> (usize, u64) {
        ((line as usize) & (self.sets.len() - 1), line >> self.set_bits)
    }

    fn way_of(&self, line: u64) -> Option<(usize, usize)> {
        let (set, tag) = self.split(line);
        let way = self.sets[set].iter().position(|w| w.is_some_and(|(t, _, _)| t == tag))?;
        Some((set, way))
    }

    fn access(&mut self, line: u64) -> bool {
        self.stamp += 1;
        let Some((set, way)) = self.way_of(line) else { return false };
        self.sets[set][way].as_mut().unwrap().1 = self.stamp;
        true
    }

    fn mark_dirty(&mut self, line: u64) -> bool {
        let Some((set, way)) = self.way_of(line) else { return false };
        self.sets[set][way].as_mut().unwrap().2 = true;
        true
    }

    fn fill(&mut self, line: u64, dirty: bool) -> Evicted {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some((set, way)) = self.way_of(line) {
            let entry = self.sets[set][way].as_mut().unwrap();
            entry.1 = stamp;
            entry.2 |= dirty;
            return Evicted::None;
        }
        let (set, tag) = self.split(line);
        let ways = &mut self.sets[set];
        if let Some(free) = ways.iter().position(Option::is_none) {
            ways[free] = Some((tag, stamp, dirty));
            return Evicted::None;
        }
        let lru = (0..ways.len()).min_by_key(|&w| ways[w].unwrap().1).unwrap();
        let (old_tag, _, old_dirty) = ways[lru].replace((tag, stamp, dirty)).unwrap();
        let victim = (old_tag << self.set_bits) | set as u64;
        if old_dirty {
            Evicted::Dirty(victim)
        } else {
            Evicted::Clean(victim)
        }
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let Some((set, way)) = self.way_of(line) else { return false };
        self.sets[set][way] = None;
        true
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The cache matches the naive reference model op for op: every hit
    /// and miss, every `Evicted` value (dirty victims included) and the
    /// resident line count, over small geometries (non-power-of-two ways
    /// too) and high tags. The slot fast path is checked as well: a touch
    /// through a just-returned slot is another access hit, and a slot
    /// dirty mark is a `mark_dirty`.
    #[test]
    fn cache_matches_reference_model(
        set_bits in 0u32..4,
        ways in prop_oneof![Just(1u64), Just(2), Just(3), Just(4), Just(5), Just(8), Just(64)],
        ops in proptest::collection::vec((0u8..16, 0usize..8, 0u64..16, any::<bool>()), 1..400),
    ) {
        let sets = 1u64 << set_bits;
        let mut cache = Cache::new(CacheConfig::new(sets * ways * 64, ways, 64, 2));
        let mut model = ModelCache::new(sets as usize, ways as usize);
        for (i, &(kind, tag, set, dirty)) in ops.iter().enumerate() {
            let line = (MODEL_TAGS[tag] << set_bits) | (set & (sets - 1));
            let op = ops[i];
            match kind {
                0..=5 => prop_assert_eq!(cache.fill(line, 0, dirty), model.fill(line, dirty),
                    "op {} {:?}", i, op),
                6..=8 => prop_assert_eq!(cache.access(line, 0), model.access(line), "op {} {:?}", i, op),
                9 => prop_assert_eq!(cache.probe(line), model.way_of(line).is_some(), "op {} {:?}", i, op),
                10 => prop_assert_eq!(cache.invalidate(line), model.invalidate(line), "op {} {:?}", i, op),
                11 => prop_assert_eq!(cache.mark_dirty(line), model.mark_dirty(line), "op {} {:?}", i, op),
                12..=14 => {
                    let slot = cache.access_slot(line);
                    prop_assert_eq!(slot.is_some(), model.access(line), "op {} {:?}", i, op);
                    if let Some(slot) = slot {
                        cache.touch_slot(slot);
                        model.access(line);
                        if dirty {
                            cache.mark_dirty_slot(slot);
                            model.mark_dirty(line);
                        }
                    }
                }
                _ => {
                    cache.clear();
                    model.sets.iter_mut().for_each(|s| s.fill(None));
                    prop_assert_eq!(cache.touched_sets(), 0);
                }
            }
            prop_assert_eq!(cache.resident_lines(), model.resident_lines(), "op {} {:?}", i, op);
            prop_assert!(cache.touched_sets() <= sets as usize);
        }
    }

    /// A cache's storage is what a run touches: a fresh Table 1
    /// hierarchy holds no rows at all, and `warm_range` over `k`
    /// consecutive lines then gives the 4 MiB L3 exactly `k` rows (each
    /// line a distinct set) and the smaller levels one row per set they
    /// cover.
    #[test]
    fn warm_range_allocates_one_row_per_touched_set(base in 0u64..1 << 30, k in 1u64..600) {
        let mut mem = MemHierarchy::default();
        let line = mem.line_bytes();
        prop_assert_eq!(mem.config().l3.size_bytes, 4 << 20);
        prop_assert_eq!(mem.caches().map(Cache::touched_sets), [0, 0, 0, 0]);
        mem.warm_range(base * line, k * line);
        let cfg = *mem.config();
        let rows = [0, k.min(cfg.l1d.num_sets()), k.min(cfg.l2.num_sets()), k].map(|r| r as usize);
        prop_assert_eq!(mem.caches().map(Cache::touched_sets), rows);
    }
}
