//! The full memory hierarchy: split L1 I/D, unified L2 and L3, DRAM.
//!
//! The hierarchy is *non-blocking*: a miss returns the cycle at which the
//! fill completes and tracks the line as in flight (an MSHR entry); repeated
//! accesses to an in-flight line merge onto the same entry. Completed fills
//! are installed lazily on the next call that observes time passing — the
//! hierarchy never needs a clock tick of its own.
//!
//! The `clflush` path and the host-side [`MemHierarchy::warm`] helper are
//! the two functions the paper had to add to Multi2Sim ("loading data into
//! the cache and adding a cache flush instruction", §5.1).

use crate::backing::BackingStore;
use crate::cache::{Cache, CacheConfig, Evicted};
use crate::dram::{Dram, DramConfig};
use crate::stats::MemStats;

/// Which structure serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// L1 instruction or data cache.
    L1,
    /// Unified L2.
    L2,
    /// Unified L3 (last level cache).
    L3,
    /// Main memory (the access allocated or merged into an MSHR).
    Mem,
}

/// Kind of access, selecting the L1 port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data load.
    Load,
    /// Data store (write-allocate, marks the L1 line dirty).
    Store,
    /// Instruction fetch (L1 I-cache port).
    IFetch,
}

/// How a miss may change cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPolicy {
    /// Normal operation: misses fill all levels; hits promote to L1.
    Normal,
    /// Secure-runahead operation: DRAM fills are *not* installed (the CPU
    /// routes them to the SL cache instead) and hits do not promote.
    NoFill,
}

/// Timing outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Cycle at which the data is available.
    pub ready_at: u64,
    /// Structure that serviced the request.
    pub level: HitLevel,
    /// Whether this access created new cache state: a hit below L1 promoted
    /// the line upward, or a DRAM miss allocated an installing fill. `false`
    /// for L1 hits, [`FillPolicy::NoFill`] accesses, and MSHR merges into an
    /// already-inflight line — the ground truth a cache-fill observer needs
    /// to attribute each fill to exactly one access. (A later `clflush` can
    /// still cancel an allocated DRAM fill before it lands.)
    pub filled: bool,
}

/// Cache geometry and latency for the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 instruction cache (Table 1: 16 KiB, 4-way, 2 cycles).
    pub l1i: CacheConfig,
    /// L1 data cache (Table 1: 16 KiB, 4-way, 2 cycles).
    pub l1d: CacheConfig,
    /// Unified L2 (Table 1: 128 KiB, 8-way, 8 cycles).
    pub l2: CacheConfig,
    /// Unified L3 (Table 1: 4 MiB, 8-way, 32 cycles).
    pub l3: CacheConfig,
    /// Main memory model (Table 1: request-based contention, 200 cycles).
    pub dram: DramConfig,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            l1i: CacheConfig::new(16 * 1024, 4, 64, 2),
            l1d: CacheConfig::new(16 * 1024, 4, 64, 2),
            l2: CacheConfig::new(128 * 1024, 8, 64, 8),
            l3: CacheConfig::new(4 * 1024 * 1024, 8, 64, 32),
            dram: DramConfig::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    line: u64,
    complete_at: u64,
    /// Cleared when the line is flushed while in flight, or when the fill
    /// was requested under [`FillPolicy::NoFill`].
    install: bool,
    ifetch: bool,
}

/// One-entry L1-hit memo for one L1 port: the last line that hit and its
/// slot in the cache's storage (see [`Cache::access_slot`]). Valid only
/// while the port's contents are untouched (any fill/invalidate/clear
/// resets the memo), so a memo hit can replay the L1-hit path — LRU
/// touch, hit statistic, latency — exactly, without the tag search or the
/// miss/MSHR machinery. This is the common case on both ports: demand
/// fetch re-probes the same 64-byte text line once per instruction per
/// cycle, and data loads stream within lines.
#[derive(Debug, Clone, Copy)]
struct PortMemo {
    line: u64,
    slot: usize,
}

impl PortMemo {
    const INVALID: PortMemo = PortMemo { line: u64::MAX, slot: 0 };
}

/// The complete memory subsystem: backing data, caches, MSHRs and DRAM.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    config: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    dram: Dram,
    inflight: Vec<Inflight>,
    /// Mirror of `inflight`'s line addresses, kept in lockstep: the MSHR
    /// merge check scans this compact array on every miss instead of
    /// striding over the entry structs.
    inflight_lines: Vec<u64>,
    /// Earliest `complete_at` among in-flight fills (`u64::MAX` when none):
    /// lets the per-access drain bail in O(1) instead of sweeping the MSHRs
    /// while nothing is due.
    next_complete: u64,
    /// `line_bytes` is a power of two; addresses convert to lines with a
    /// shift instead of a 64-bit division on the hottest path.
    line_shift: u32,
    /// L1-hit fast-path memos, one per L1 port.
    l1i_memo: PortMemo,
    l1d_memo: PortMemo,
    /// Bumped on every change to L1I *contents* (fill, invalidate, clear).
    /// While unchanged, a line once observed L1I-resident still is — the
    /// core's stream prefetcher uses this to skip redundant probes.
    l1i_gen: u64,
    data: BackingStore,
    stats: MemStats,
}

impl MemHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: MemConfig) -> MemHierarchy {
        MemHierarchy {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            dram: Dram::new(config.dram),
            inflight: Vec::new(),
            inflight_lines: Vec::new(),
            next_complete: u64::MAX,
            line_shift: config.l1d.line_bytes.trailing_zeros(),
            l1i_memo: PortMemo::INVALID,
            l1d_memo: PortMemo::INVALID,
            l1i_gen: 0,
            data: BackingStore::new(),
            stats: MemStats::default(),
        }
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Line size in bytes (shared by all levels).
    pub fn line_bytes(&self) -> u64 {
        self.config.l1d.line_bytes
    }

    /// Aligns a byte address down to its line address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The L1I content generation: bumped on every L1I fill, invalidation
    /// or clear, so "line X was L1I-resident at generation G" stays provably
    /// true while the counter reads G.
    pub fn l1i_generation(&self) -> u64 {
        self.l1i_gen
    }

    /// Invalidates the fast-path memo(s) of the L1 port(s) whose contents
    /// changed; I-side changes also bump the generation counter.
    fn touched_l1(&mut self, ifetch: bool) {
        if ifetch {
            self.l1i_memo = PortMemo::INVALID;
            self.l1i_gen += 1;
        } else {
            self.l1d_memo = PortMemo::INVALID;
        }
    }

    fn install_line(
        l1: &mut Cache,
        l2: &mut Cache,
        l3: &mut Cache,
        stats: &mut MemStats,
        line: u64,
    ) {
        for cache in [&mut *l3, &mut *l2, &mut *l1] {
            if let Evicted::Dirty(_) = cache.fill(line, 0, false) {
                stats.writebacks += 1;
            }
        }
    }

    /// Installs fills whose DRAM access has completed by `now`. O(1) while
    /// nothing is due (the common case on a hot access path).
    fn drain(&mut self, now: u64) {
        if now < self.next_complete {
            return;
        }
        let mut next = u64::MAX;
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].complete_at <= now {
                self.inflight_lines.swap_remove(i);
                let fill = self.inflight.swap_remove(i);
                if fill.install {
                    self.touched_l1(fill.ifetch);
                    let l1 = if fill.ifetch { &mut self.l1i } else { &mut self.l1d };
                    Self::install_line(l1, &mut self.l2, &mut self.l3, &mut self.stats, fill.line);
                    self.stats.fills += 1;
                }
            } else {
                next = next.min(self.inflight[i].complete_at);
                i += 1;
            }
        }
        self.next_complete = next;
    }

    /// Installs any fills whose DRAM access has completed by `now` (the
    /// hierarchy otherwise drains lazily on the next access; call this when
    /// simulation pauses so [`MemHierarchy::residency`] reflects landed
    /// fills).
    pub fn drain_completed(&mut self, now: u64) {
        self.drain(now);
    }

    /// Performs a timed access at cycle `now`.
    ///
    /// Returns when the data will be ready and which level serviced it.
    /// Under [`FillPolicy::NoFill`] no cache state is created: hits do not
    /// promote into L1 and DRAM fills are not installed (the caller is
    /// expected to capture them, e.g. into the SL cache).
    pub fn access(&mut self, addr: u64, now: u64, kind: AccessKind, policy: FillPolicy) -> Access {
        let line = addr >> self.line_shift;
        let is_ifetch = matches!(kind, AccessKind::IFetch);

        // L1-hit fast path: the port's one-entry memo proves residency
        // while `next_complete` shows no fill is due (so the lazy drain is
        // a no-op) and no fill/invalidate has reset the memo. The replay is
        // exact — same LRU touch, same hit statistic, same latency — it
        // merely skips the tag search and the L2/L3/MSHR machinery below.
        if now < self.next_complete {
            let memo = if is_ifetch { self.l1i_memo } else { self.l1d_memo };
            if memo.line == line {
                let l1 = if is_ifetch { &mut self.l1i } else { &mut self.l1d };
                l1.touch_slot(memo.slot);
                if matches!(kind, AccessKind::Store) {
                    l1.mark_dirty_slot(memo.slot);
                }
                self.stats.record_hit(HitLevel::L1, is_ifetch);
                let latency = if is_ifetch {
                    self.config.l1i.hit_latency
                } else {
                    self.config.l1d.hit_latency
                };
                return Access { ready_at: now + latency, level: HitLevel::L1, filled: false };
            }
        }

        self.drain(now);
        let promote = policy == FillPolicy::Normal;

        // L1 port.
        let (l1, l1_cfg) = if is_ifetch {
            (&mut self.l1i, &self.config.l1i)
        } else {
            (&mut self.l1d, &self.config.l1d)
        };
        if let Some(slot) = l1.access_slot(line) {
            if matches!(kind, AccessKind::Store) {
                l1.mark_dirty_slot(slot);
            }
            let memo = PortMemo { line, slot };
            if is_ifetch {
                self.l1i_memo = memo;
            } else {
                self.l1d_memo = memo;
            }
            self.stats.record_hit(HitLevel::L1, is_ifetch);
            return Access {
                ready_at: now + l1_cfg.hit_latency,
                level: HitLevel::L1,
                filled: false,
            };
        }

        // L2.
        if self.l2.access(line, now) {
            if promote {
                let evicted = l1.fill(line, now, matches!(kind, AccessKind::Store));
                if let Evicted::Dirty(_) = evicted {
                    self.stats.writebacks += 1;
                }
                self.touched_l1(is_ifetch);
            }
            self.stats.record_hit(HitLevel::L2, is_ifetch);
            return Access {
                ready_at: now + self.config.l2.hit_latency,
                level: HitLevel::L2,
                filled: promote,
            };
        }

        // L3.
        if self.l3.access(line, now) {
            if promote {
                if let Evicted::Dirty(_) = self.l2.fill(line, now, false) {
                    self.stats.writebacks += 1;
                }
                if let Evicted::Dirty(_) = l1.fill(line, now, matches!(kind, AccessKind::Store)) {
                    self.stats.writebacks += 1;
                }
                self.touched_l1(is_ifetch);
            }
            self.stats.record_hit(HitLevel::L3, is_ifetch);
            return Access {
                ready_at: now + self.config.l3.hit_latency,
                level: HitLevel::L3,
                filled: promote,
            };
        }

        // MSHR merge. A later Normal-policy access does *not* flip a NoFill
        // entry to installing: under the secure-runahead defense the fill's
        // destination (the SL cache) was decided when the runahead load
        // issued, and letting a speculative post-exit re-execution upgrade
        // it would reopen the leak the defense closes. The merged access
        // still observes the data's arrival time.
        if let Some(i) = self.inflight_lines.iter().position(|&l| l == line) {
            let entry = &mut self.inflight[i];
            entry.ifetch &= is_ifetch;
            self.stats.mshr_merges += 1;
            return Access { ready_at: entry.complete_at, level: HitLevel::Mem, filled: false };
        }

        // DRAM.
        let complete_at = self.dram.request(now);
        self.inflight.push(Inflight { line, complete_at, install: promote, ifetch: is_ifetch });
        self.inflight_lines.push(line);
        self.next_complete = self.next_complete.min(complete_at);
        self.stats.record_hit(HitLevel::Mem, is_ifetch);
        Access { ready_at: complete_at, level: HitLevel::Mem, filled: promote }
    }

    /// `clflush`: evicts the line containing `addr` from every level and
    /// cancels installation of a pending fill of that line.
    pub fn flush_line(&mut self, addr: u64, now: u64) {
        self.drain(now);
        let line = self.line_of(addr);
        self.touched_l1(true);
        self.touched_l1(false);
        self.l1i.invalidate(line);
        self.l1d.invalidate(line);
        self.l2.invalidate(line);
        self.l3.invalidate(line);
        if let Some(i) = self.inflight_lines.iter().position(|&l| l == line) {
            self.inflight[i].install = false;
        }
        self.stats.flushes += 1;
    }

    /// Host helper: installs the line containing `addr` into L1D/L2/L3
    /// without advancing time (the "load data into the cache" function the
    /// paper added to Multi2Sim).
    pub fn warm(&mut self, addr: u64) {
        let line = self.line_of(addr);
        self.touched_l1(false);
        Self::install_line(&mut self.l1d, &mut self.l2, &mut self.l3, &mut self.stats, line);
    }

    /// Warms every line overlapping `addr .. addr + len`.
    pub fn warm_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = self.line_of(addr);
        let last = self.line_of(addr + len - 1);
        self.touched_l1(false);
        for line in first..=last {
            Self::install_line(&mut self.l1d, &mut self.l2, &mut self.l3, &mut self.stats, line);
        }
    }

    /// Warms every line overlapping `addr .. addr + len` on the
    /// *instruction* side (L1I + L2 + L3) — models code that has executed
    /// recently, e.g. a victim function the attacker already trained on.
    pub fn warm_ifetch_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = self.line_of(addr);
        let last = self.line_of(addr + len - 1);
        self.touched_l1(true);
        for line in first..=last {
            Self::install_line(&mut self.l1i, &mut self.l2, &mut self.l3, &mut self.stats, line);
        }
    }

    /// Installs a line into the data-side hierarchy (used when the secure
    /// runahead defense promotes an SL-cache entry to L1, Algorithm 1).
    pub fn install(&mut self, addr: u64) {
        let line = self.line_of(addr);
        self.touched_l1(false);
        Self::install_line(&mut self.l1d, &mut self.l2, &mut self.l3, &mut self.stats, line);
    }

    /// Where `addr` currently resides, without disturbing any state.
    ///
    /// Prefers the data-side L1. In-flight lines report [`HitLevel::Mem`].
    pub fn residency(&self, addr: u64) -> HitLevel {
        let line = self.line_of(addr);
        if self.l1d.probe(line) || self.l1i.probe(line) {
            HitLevel::L1
        } else if self.l2.probe(line) {
            HitLevel::L2
        } else if self.l3.probe(line) {
            HitLevel::L3
        } else {
            HitLevel::Mem
        }
    }

    /// Reads `width` bytes of functional data (timing-free).
    pub fn read_data(&self, addr: u64, width: u64) -> u64 {
        self.data.read(addr, width)
    }

    /// Writes `width` bytes of functional data (timing-free).
    pub fn write_data(&mut self, addr: u64, width: u64, value: u64) {
        self.data.write(addr, width, value);
    }

    /// Copies bytes into data memory (host-side setup).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        self.data.write_bytes(addr, bytes);
    }

    /// Reads bytes from data memory (host-side inspection).
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        self.data.read_bytes(addr, len)
    }

    /// Fills `out` with bytes from data memory — the allocation-free
    /// variant of [`MemHierarchy::read_bytes`] for callers that read
    /// repeatedly into the same buffer.
    pub fn read_bytes_into(&self, addr: u64, out: &mut [u8]) {
        self.data.read_bytes_into(addr, out);
    }

    /// The cache levels in the order L1I, L1D, L2, L3 (host-side
    /// inspection, e.g. of how many sets a run has touched).
    pub fn caches(&self) -> [&Cache; 4] {
        [&self.l1i, &self.l1d, &self.l2, &self.l3]
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Clears statistics counters (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Latest completion cycle among in-flight fills, if any — the exact
    /// settle horizon for end-of-run draining (no fill lands later).
    pub fn latest_inflight_completion(&self) -> Option<u64> {
        self.inflight.iter().map(|f| f.complete_at).max()
    }
}

impl Default for MemHierarchy {
    fn default() -> MemHierarchy {
        MemHierarchy::new(MemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemHierarchy {
        MemHierarchy::default()
    }

    #[test]
    fn cold_miss_pays_dram_latency() {
        let mut m = mem();
        let a = m.access(0x1000, 0, AccessKind::Load, FillPolicy::Normal);
        assert_eq!(a.level, HitLevel::Mem);
        assert_eq!(a.ready_at, 200);
    }

    #[test]
    fn fill_installs_after_completion() {
        let mut m = mem();
        m.access(0x1000, 0, AccessKind::Load, FillPolicy::Normal);
        // Before completion: still a merge onto the MSHR.
        let merge = m.access(0x1000, 50, AccessKind::Load, FillPolicy::Normal);
        assert_eq!(merge.level, HitLevel::Mem);
        assert_eq!(merge.ready_at, 200);
        // After completion: L1 hit.
        let hit = m.access(0x1000, 250, AccessKind::Load, FillPolicy::Normal);
        assert_eq!(hit.level, HitLevel::L1);
        assert_eq!(hit.ready_at, 252);
    }

    #[test]
    fn same_line_different_addr_merges() {
        let mut m = mem();
        m.access(0x1000, 0, AccessKind::Load, FillPolicy::Normal);
        let a = m.access(0x1020, 10, AccessKind::Load, FillPolicy::Normal);
        assert_eq!(a.ready_at, 200);
        assert_eq!(m.stats().mshr_merges, 1);
    }

    #[test]
    fn flush_evicts_and_causes_remiss() {
        let mut m = mem();
        m.warm(0x2000);
        let hit = m.access(0x2000, 0, AccessKind::Load, FillPolicy::Normal);
        assert_eq!(hit.level, HitLevel::L1);
        m.flush_line(0x2000, 10);
        let miss = m.access(0x2000, 20, AccessKind::Load, FillPolicy::Normal);
        assert_eq!(miss.level, HitLevel::Mem);
    }

    #[test]
    fn flush_cancels_inflight_install() {
        let mut m = mem();
        m.access(0x3000, 0, AccessKind::Load, FillPolicy::Normal);
        m.flush_line(0x3000, 5);
        // Fill completes but must not install.
        let again = m.access(0x3000, 400, AccessKind::Load, FillPolicy::Normal);
        assert_eq!(again.level, HitLevel::Mem);
    }

    #[test]
    fn nofill_leaves_no_trace_on_miss() {
        let mut m = mem();
        m.access(0x4000, 0, AccessKind::Load, FillPolicy::NoFill);
        let later = m.access(0x4000, 500, AccessKind::Load, FillPolicy::Normal);
        assert_eq!(later.level, HitLevel::Mem, "NoFill fill must not install");
    }

    #[test]
    fn nofill_does_not_promote_on_l3_hit() {
        let mut m = mem();
        m.warm(0x5000);
        // Evict from L1/L2 only by flushing then re-installing via L3 path:
        // warm() installs everywhere, so flush and re-warm L3 by hand is not
        // possible through the public API; instead verify promotion by
        // comparing hit levels after a NoFill L2/L3 hit.
        m.flush_line(0x5000, 0);
        m.warm(0x5000);
        let h1 = m.access(0x5000, 0, AccessKind::Load, FillPolicy::NoFill);
        assert_eq!(h1.level, HitLevel::L1);
    }

    #[test]
    fn residency_is_side_effect_free() {
        let mut m = mem();
        m.warm(0x6000);
        assert_eq!(m.residency(0x6000), HitLevel::L1);
        assert_eq!(m.residency(0x7000), HitLevel::Mem);
        // probing must not install
        assert_eq!(m.residency(0x7000), HitLevel::Mem);
    }

    #[test]
    fn ifetch_uses_separate_l1() {
        let mut m = mem();
        let a = m.access(0x8000, 0, AccessKind::IFetch, FillPolicy::Normal);
        assert_eq!(a.level, HitLevel::Mem);
        let b = m.access(0x8000, 300, AccessKind::IFetch, FillPolicy::Normal);
        assert_eq!(b.level, HitLevel::L1);
        // Data port never saw the line in its L1, but shares L2/L3.
        let c = m.access(0x8000, 600, AccessKind::Load, FillPolicy::Normal);
        assert_eq!(c.level, HitLevel::L2);
    }

    #[test]
    fn store_hits_mark_dirty_and_writebacks_counted() {
        let mut m = mem();
        m.warm(0x9000);
        m.access(0x9000, 0, AccessKind::Store, FillPolicy::Normal);
        // Fill enough conflicting lines to evict the dirty one from L1
        // (16 KiB, 4-way, 64 B lines → 64 sets; stride of 4 KiB conflicts).
        for i in 1..=8u64 {
            m.warm(0x9000 + i * 4096);
        }
        assert!(m.stats().writebacks > 0);
    }

    #[test]
    fn functional_data_independent_of_timing() {
        let mut m = mem();
        m.write_data(0xa000, 8, 42);
        assert_eq!(m.read_data(0xa000, 8), 42);
        assert_eq!(m.residency(0xa000), HitLevel::Mem);
    }

    #[test]
    fn dram_contention_visible_through_hierarchy() {
        let mut m = mem();
        let a = m.access(0x10000, 0, AccessKind::Load, FillPolicy::Normal);
        let b = m.access(0x20000, 0, AccessKind::Load, FillPolicy::Normal);
        assert!(b.ready_at > a.ready_at);
    }

    #[test]
    fn inflight_completion_horizons_track_mshrs() {
        let mut m = mem();
        assert_eq!(m.latest_inflight_completion(), None);
        let a = m.access(0x1000, 0, AccessKind::Load, FillPolicy::Normal);
        let b = m.access(0x2000, 0, AccessKind::Load, FillPolicy::Normal);
        assert!(a.ready_at < b.ready_at);
        assert_eq!(m.latest_inflight_completion(), Some(b.ready_at));
        // Draining past the first fill leaves the second in flight.
        m.drain_completed(a.ready_at);
        assert_eq!(m.latest_inflight_completion(), Some(b.ready_at));
        m.drain_completed(b.ready_at);
        assert_eq!(m.latest_inflight_completion(), None);
        assert_eq!(m.residency(0x1000), HitLevel::L1);
        assert_eq!(m.residency(0x2000), HitLevel::L1);
    }

    #[test]
    fn warm_range_covers_partial_lines() {
        let mut m = mem();
        m.warm_range(0x1fc0 - 4, 8); // straddles two lines
        assert_eq!(m.residency(0x1fb0), HitLevel::L1);
        assert_eq!(m.residency(0x1fc0), HitLevel::L1);
    }
}
