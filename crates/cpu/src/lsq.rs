//! Store queue and load/store disambiguation.
//!
//! Loads are conservatively ordered: a load may not issue while any older
//! store's address is unknown. Once addresses are known, a fully-covering
//! older store forwards its data; partial overlaps (and pending `clflush`es
//! of the same line) make the load wait until the conflicting entry commits.
//! This conservative policy is what gives the attack programs their required
//! `clflush → load` ordering without explicit fences.

/// One store-queue slot (stores, call-pushes and `clflush`es).
#[derive(Debug, Clone, Copy)]
pub struct StoreEntry {
    /// ROB sequence number of the owning instruction.
    pub seq: u64,
    /// Effective address (None until the store issues).
    pub addr: Option<u64>,
    /// Access width in bytes (line-granular for flushes).
    pub width: u64,
    /// Store data (None until issue; always None for flushes).
    pub value: Option<u64>,
    /// Whether this is a `clflush` rather than a data store.
    pub is_flush: bool,
    /// Whether the store data is INV (runahead poison).
    pub inv: bool,
}

/// Outcome of querying the store queue on behalf of a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCheck {
    /// No older store overlaps; the load may access memory.
    NoConflict,
    /// An older store's address is still unknown; retry later.
    UnknownAddr,
    /// The youngest fully-covering older store forwards this value
    /// (`inv` set when the forwarded data is runahead-poisoned).
    Forward {
        /// Forwarded data.
        value: u64,
        /// Whether the forwarded data carries the INV bit.
        inv: bool,
    },
    /// Partial overlap or same-line `clflush`; wait until it drains.
    Conflict,
}

/// The store queue.
#[derive(Debug, Clone, Default)]
pub struct StoreQueue {
    entries: Vec<StoreEntry>,
    capacity: usize,
}

impl StoreQueue {
    /// Creates a queue with `capacity` slots.
    pub fn new(capacity: usize) -> StoreQueue {
        StoreQueue { entries: Vec::with_capacity(capacity), capacity }
    }

    /// Current occupancy.
    #[allow(dead_code)] // part of the container API; exercised in tests
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no entries.
    #[allow(dead_code)] // part of the container API; exercised in tests
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether dispatch of another store must stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Allocates a slot at dispatch (address/data arrive at issue).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn allocate(&mut self, seq: u64, width: u64, is_flush: bool) {
        assert!(!self.is_full(), "SQ overflow");
        self.entries.push(StoreEntry { seq, addr: None, width, value: None, is_flush, inv: false });
    }

    /// Fills in address (and data for stores) at issue.
    pub fn fill(&mut self, seq: u64, addr: u64, value: Option<u64>, inv: bool) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.addr = Some(addr);
            e.value = value;
            e.inv = inv;
        }
    }

    /// Fills in the address only (store address generation, phase A).
    pub fn fill_addr(&mut self, seq: u64, addr: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.addr = Some(addr);
        }
    }

    /// Fills in the data only (store data arrival, phase B).
    pub fn fill_data(&mut self, seq: u64, value: u64, inv: bool) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.value = Some(value);
            e.inv = inv;
        }
    }

    /// Removes the entry for `seq` at commit, returning it.
    pub fn release(&mut self, seq: u64) -> Option<StoreEntry> {
        let idx = self.entries.iter().position(|e| e.seq == seq)?;
        Some(self.entries.remove(idx))
    }

    /// Removes all entries younger than `seq` (squash).
    pub fn squash_younger(&mut self, seq: u64) {
        self.entries.retain(|e| e.seq <= seq);
    }

    /// Empties the queue (runahead exit, program load), keeping the
    /// allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Checks whether a load at `load_seq` of `[addr, addr+width)` may
    /// proceed, forward, or must wait. `line_bytes` defines `clflush`
    /// conflict granularity.
    pub fn check_load(&self, load_seq: u64, addr: u64, width: u64, line_bytes: u64) -> LoadCheck {
        // Any older store with an unknown address blocks (conservative).
        if self.entries.iter().any(|e| e.seq < load_seq && e.addr.is_none()) {
            return LoadCheck::UnknownAddr;
        }
        // Wrong-path loads can carry wild addresses; saturate instead of
        // overflowing.
        let load_end = addr.saturating_add(width);
        // Youngest-first scan for forwarding priority.
        let mut best: Option<&StoreEntry> = None;
        let mut conflict = false;
        for e in self.entries.iter().filter(|e| e.seq < load_seq) {
            let e_addr = e.addr.expect("checked above");
            if e.is_flush {
                // clflush conflicts at line granularity.
                if e_addr / line_bytes == addr / line_bytes {
                    conflict = true;
                }
                continue;
            }
            let e_end = e_addr.saturating_add(e.width);
            let overlaps = e_addr < load_end && addr < e_end;
            if !overlaps {
                continue;
            }
            let covers = e_addr <= addr && load_end <= e_end;
            if covers {
                match best {
                    Some(b) if b.seq > e.seq => {}
                    _ => best = Some(e),
                }
            } else {
                conflict = true;
            }
        }
        if let Some(store) = best {
            // A younger partial overlap (between the covering store and the
            // load) would still conflict; the scan above set `conflict` for
            // any partial overlap, which is conservative but safe.
            if conflict {
                return LoadCheck::Conflict;
            }
            // Address known but data not yet produced: wait for it.
            let Some(value) = store.value else { return LoadCheck::Conflict };
            let offset = addr - store.addr.expect("filled");
            let data = value >> (8 * offset);
            let mask = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
            return LoadCheck::Forward { value: data & mask, inv: store.inv };
        }
        if conflict {
            LoadCheck::Conflict
        } else {
            LoadCheck::NoConflict
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq() -> StoreQueue {
        StoreQueue::new(8)
    }

    #[test]
    fn unknown_addr_blocks() {
        let mut q = sq();
        q.allocate(1, 8, false);
        assert_eq!(q.check_load(2, 0x100, 8, 64), LoadCheck::UnknownAddr);
    }

    #[test]
    fn younger_stores_do_not_block() {
        let mut q = sq();
        q.allocate(5, 8, false);
        assert_eq!(q.check_load(2, 0x100, 8, 64), LoadCheck::NoConflict);
    }

    #[test]
    fn exact_forwarding() {
        let mut q = sq();
        q.allocate(1, 8, false);
        q.fill(1, 0x100, Some(0xdeadbeef), false);
        assert_eq!(
            q.check_load(2, 0x100, 8, 64),
            LoadCheck::Forward { value: 0xdeadbeef, inv: false }
        );
    }

    #[test]
    fn subset_forwarding_extracts_bytes() {
        let mut q = sq();
        q.allocate(1, 8, false);
        q.fill(1, 0x100, Some(0x8877_6655_4433_2211), false);
        assert_eq!(q.check_load(2, 0x102, 2, 64), LoadCheck::Forward { value: 0x4433, inv: false });
    }

    #[test]
    fn partial_overlap_conflicts() {
        let mut q = sq();
        q.allocate(1, 4, false);
        q.fill(1, 0x102, Some(7), false);
        assert_eq!(q.check_load(2, 0x100, 8, 64), LoadCheck::Conflict);
    }

    #[test]
    fn youngest_covering_store_wins() {
        let mut q = sq();
        q.allocate(1, 8, false);
        q.fill(1, 0x100, Some(1), false);
        q.allocate(3, 8, false);
        q.fill(3, 0x100, Some(2), false);
        assert_eq!(q.check_load(4, 0x100, 8, 64), LoadCheck::Forward { value: 2, inv: false });
    }

    #[test]
    fn flush_conflicts_at_line_granularity() {
        let mut q = sq();
        q.allocate(1, 64, true);
        q.fill(1, 0x1000, None, false);
        assert_eq!(q.check_load(2, 0x1020, 8, 64), LoadCheck::Conflict, "same line");
        assert_eq!(q.check_load(2, 0x1040, 8, 64), LoadCheck::NoConflict, "next line");
    }

    #[test]
    fn inv_store_forwards_poison() {
        let mut q = sq();
        q.allocate(1, 8, false);
        q.fill(1, 0x200, Some(0), true);
        assert_eq!(q.check_load(2, 0x200, 8, 64), LoadCheck::Forward { value: 0, inv: true });
    }

    #[test]
    fn release_and_squash() {
        let mut q = sq();
        q.allocate(1, 8, false);
        q.allocate(2, 8, false);
        q.allocate(3, 8, false);
        assert!(q.release(2).is_some());
        assert_eq!(q.len(), 2);
        q.squash_younger(1);
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn no_false_forward_after_release() {
        let mut q = sq();
        q.allocate(1, 8, false);
        q.fill(1, 0x100, Some(42), false);
        q.release(1);
        assert_eq!(q.check_load(2, 0x100, 8, 64), LoadCheck::NoConflict);
    }
}
