//! Reorder buffer.

use specrun_bp::BranchKind;
use specrun_isa::{ArchReg, Inst, UopMeta};
use specrun_mem::HitLevel;

use crate::regs::PhysRef;

/// Lifecycle of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Dispatched, waiting for operands or a functional unit.
    Waiting,
    /// Issued to a functional unit; result arrives at `ready_at`.
    Executing,
    /// Result produced; eligible for (pseudo-)retirement.
    Done,
}

/// Destination-rename record used for ROB-walk recovery.
#[derive(Debug, Clone, Copy)]
pub struct DestInfo {
    /// Architectural destination.
    pub arch: ArchReg,
    /// Newly allocated physical register.
    pub new: PhysRef,
    /// Previous mapping of `arch` (restored on squash, freed on commit).
    pub prev: PhysRef,
}

/// Control-flow bookkeeping for branch entries.
#[derive(Debug, Clone, Copy)]
pub struct BranchInfo {
    /// Predictor classification.
    pub kind: BranchKind,
    /// Predicted direction.
    pub predicted_taken: bool,
    /// Predicted next PC.
    pub predicted_target: u64,
    /// RSB top-of-stack before this instruction's prediction side effects.
    pub rsb_checkpoint: usize,
    /// Whether the branch has resolved (INV-source branches in runahead
    /// mode never do — the SPECRUN vulnerability).
    pub resolved: bool,
    /// Actual direction (valid once executed with valid sources).
    pub actual_taken: bool,
    /// Actual target (valid once executed with valid sources).
    pub actual_target: u64,
    /// Taint-scope id assigned by the secure-runahead tracker.
    pub scope_id: Option<u32>,
}

/// One in-flight instruction.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Global sequence number (also the SQ key).
    pub seq: u64,
    /// Instruction PC.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Predecoded static metadata (classification flags, FU class, memory
    /// width) — the pipeline consults this instead of re-matching `inst`.
    pub meta: UopMeta,
    /// Lifecycle state.
    pub state: EntryState,
    /// Completion cycle while `Executing`.
    pub ready_at: u64,
    /// Destination rename record.
    pub dest: Option<DestInfo>,
    /// Renamed sources.
    pub srcs: [Option<PhysRef>; 3],
    /// Result value to write at completion (loads read memory lazily).
    pub result: u64,
    /// Result taint mask (secure runahead).
    pub taint: u64,
    /// Whether the result is INV (runahead poison).
    pub inv: bool,
    /// Branch bookkeeping.
    pub branch: Option<BranchInfo>,
    /// Whether this entry occupies a load-queue slot.
    pub is_load: bool,
    /// Whether this entry occupies a store-queue slot (stores and flushes).
    pub is_store: bool,
    /// Where a load hit in the hierarchy.
    pub load_level: Option<HitLevel>,
    /// Load address (valid once issued).
    pub load_addr: Option<u64>,
    /// `Ret`'s stack-pointer update (its destination value; `result` holds
    /// the popped target).
    pub aux_sp: u64,
    /// Innermost branch scope open when this instruction entered the window
    /// (secure runahead; feeds the SL cache's `Btag`).
    pub dispatch_scope: Option<u32>,
    /// Store address generated (stores compute their address as soon as the
    /// base register is ready, before the data arrives, so younger loads
    /// can disambiguate instead of stalling).
    pub addr_ready: bool,
    /// Unproduced gating operands remaining (operand-wakeup network): the
    /// entry joins the issue-ready set when this reaches zero.
    pub wait_count: u8,
}

/// The reorder buffer: a bounded FIFO of in-flight instructions, stored as
/// a power-of-two ring so that a sequence number maps to its slot with one
/// subtraction and a mask.
///
/// Sequence numbers are pushed in ascending order and removed only at
/// either end, so the resident ones are always sorted. Until a squash they
/// are also dense, and the slot of `seq` is `head + (seq - head_seq)`;
/// after a squash leaves a gap, lookups past it fall back to a binary
/// search. `seqs` mirrors each slot's sequence number so that both paths
/// probe a compact `u64` array instead of the entries themselves.
///
/// The ring also holds the scheduler's issue-ready set: one bit per slot in
/// `ready`, set while the entry is an issue candidate, and `ready_count`
/// set bits so the empty test is O(1). The ring is in program order from
/// the head, so walking set bits from the head visits candidates oldest
/// first, and a bit leaves with its entry at either end. A bit is never
/// set on a slot outside the live window.
///
/// The ring materialises slots lazily: `slots` is allocated at its ring
/// size on the first push that needs a new slot and then filled one push
/// at a time, so a core that never dispatches (or a fork of a mostly
/// empty window) initialises no unused entries. While `slots` is still
/// growing the ring has never wrapped, so `head + len <= slots.len()` and
/// the next free slot is either an old one or exactly `slots.len()`.
#[derive(Debug)]
pub struct Rob {
    /// Ring storage, `mask + 1` slots once fully grown.
    slots: Vec<RobEntry>,
    /// `seqs[i]` is the sequence number of `slots[i]`.
    seqs: Vec<u64>,
    /// Bit `i % 64` of `ready[i / 64]` is set while `slots[i]` is an issue
    /// candidate (allocated whole: a 512-slot ring needs eight words).
    ready: Vec<u64>,
    /// Number of set bits in `ready`.
    ready_count: usize,
    /// Slot of the oldest entry.
    head: usize,
    /// Number of live entries.
    len: usize,
    /// Ring size minus one (the ring size is `capacity` rounded up to a
    /// power of two).
    mask: usize,
    /// Maximum occupancy.
    capacity: usize,
}

impl Clone for Rob {
    /// Copies only the live entries, packed to the front of the new ring,
    /// so cloning a core costs what is in flight rather than the capacity.
    /// Ready bits move with their entries: the `i`-th oldest lands on slot
    /// `i`.
    fn clone(&self) -> Rob {
        let mut ready = vec![0; self.ready.len()];
        let mut from = 0;
        while let Some(i) = self.next_ready(from) {
            ready[i / 64] |= 1 << (i % 64);
            from = i + 1;
        }
        Rob {
            slots: self.iter().cloned().collect(),
            seqs: self.iter().map(|e| e.seq).collect(),
            ready,
            ready_count: self.ready_count,
            head: 0,
            len: self.len,
            mask: self.mask,
            capacity: self.capacity,
        }
    }
}

impl Rob {
    /// Creates an empty ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Rob {
        let ring = capacity.next_power_of_two();
        Rob {
            slots: Vec::new(),
            seqs: Vec::new(),
            ready: vec![0; ring.div_ceil(64)],
            ready_count: 0,
            head: 0,
            len: 0,
            mask: ring - 1,
            capacity,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ROB holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Slot of the `i`-th oldest entry.
    #[inline(always)]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// Appends a dispatched entry, writing it straight into its slot, and
    /// makes it an issue candidate if `ready`.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full (callers must check [`Rob::is_full`]).
    #[inline(always)]
    pub fn push(&mut self, entry: RobEntry, ready: bool) {
        assert!(!self.is_full(), "ROB overflow");
        let tail = self.slot(self.len);
        self.len += 1;
        if ready {
            self.set_bit(tail);
        }
        if tail < self.slots.len() {
            self.seqs[tail] = entry.seq;
            self.slots[tail] = entry;
        } else {
            debug_assert_eq!(tail, self.slots.len(), "a growing ring has not wrapped");
            // Allocate the whole ring at once (a no-op once it is), not by
            // doubling; the slots themselves are still written one by one.
            let ring = self.mask + 1;
            self.slots.reserve_exact(ring - self.slots.len());
            self.seqs.reserve_exact(ring - self.seqs.len());
            self.seqs.push(entry.seq);
            self.slots.push(entry);
        }
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    /// Removes the oldest entry (the retire stages copy the handful of
    /// fields they need out of [`Rob::head`] first, so the entry is never
    /// moved out of its slot).
    pub fn pop_head_discard(&mut self) {
        if self.len > 0 {
            self.clear_bit(self.head);
            self.len -= 1;
            // A drained ring restarts at slot 0, so a window that keeps
            // draining (serializers, short programs) reuses the same
            // host-cache-resident slots instead of sweeping the whole ring.
            self.head = if self.len == 0 { 0 } else { self.slot(1) };
        }
    }

    /// Removes the youngest entry if its sequence number is greater than
    /// `seq`, and returns it. The entry stays readable in its slot until
    /// the next push, so a squash unwinds renames youngest-first without
    /// copying entries out.
    pub fn pop_younger(&mut self, seq: u64) -> Option<&RobEntry> {
        let tail = self.slot(self.len.checked_sub(1)?);
        if self.seqs[tail] <= seq {
            return None;
        }
        self.clear_bit(tail);
        self.len -= 1;
        Some(&self.slots[tail])
    }

    /// How many live entries sit past the end of `slots`, wrapped around to
    /// its front.
    fn wrapped(&self) -> usize {
        (self.head + self.len).saturating_sub(self.slots.len())
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        let wrap = self.wrapped();
        let (front, from_head) = self.slots.split_at(self.head);
        from_head[..self.len - wrap].iter().chain(&front[..wrap])
    }

    /// Mutably iterates oldest → youngest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RobEntry> {
        let wrap = self.wrapped();
        let (front, from_head) = self.slots.split_at_mut(self.head);
        from_head[..self.len - wrap].iter_mut().chain(&mut front[..wrap])
    }

    /// Drops every entry without returning them, for squashes whose
    /// unwinding is wholesale (runahead exit and program load rebuild the
    /// RAT and free lists from scratch, so the removed entries are never
    /// inspected). Keeps the allocation.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.ready.fill(0);
        self.ready_count = 0;
    }

    /// Slot of sequence number `seq`, if resident.
    #[inline(always)]
    fn index_of(&self, seq: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // Dense fast path: with no squash gap in range, the entry sits
        // exactly `seq - head_seq` slots past the head.
        let offset = seq.wrapping_sub(self.seqs[self.head]);
        if offset < self.len as u64 {
            let slot = self.slot(offset as usize);
            if self.seqs[slot] == seq {
                return Some(slot);
            }
        }
        self.search(seq)
    }

    /// Binary search over the sorted resident sequence numbers, for lookups
    /// that cross a squash gap (or miss).
    #[cold]
    #[inline(never)]
    fn search(&self, seq: u64) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.seqs[self.slot(mid)] < seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let slot = self.slot(lo);
        (lo < self.len && self.seqs[slot] == seq).then_some(slot)
    }

    /// The entry with sequence number `seq`, if present.
    #[inline(always)]
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        let slot = self.index_of(seq)?;
        Some(&self.slots[slot])
    }

    /// Mutable [`Rob::get`].
    #[inline(always)]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let slot = self.index_of(seq)?;
        Some(&mut self.slots[slot])
    }

    /// The `i`-th oldest entry.
    #[inline(always)]
    pub fn nth(&self, i: usize) -> &RobEntry {
        debug_assert!(i < self.len);
        &self.slots[self.slot(i)]
    }

    // -----------------------------------------------------------------
    // Issue-ready set
    // -----------------------------------------------------------------

    // Both write only on a change: retiring a head (never ready in the
    // core) then costs one load and a well-predicted branch.

    #[inline(always)]
    fn set_bit(&mut self, slot: usize) {
        let word = &mut self.ready[slot / 64];
        let bit = 1 << (slot % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.ready_count += 1;
        }
    }

    #[inline(always)]
    fn clear_bit(&mut self, slot: usize) {
        let word = &mut self.ready[slot / 64];
        let bit = 1 << (slot % 64);
        if *word & bit != 0 {
            *word &= !bit;
            self.ready_count -= 1;
        }
    }

    /// Whether any entry is an issue candidate. O(1).
    #[inline(always)]
    pub fn has_ready(&self) -> bool {
        self.ready_count > 0
    }

    /// Makes the `i`-th oldest entry an issue candidate.
    pub fn mark_ready_nth(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.set_bit(self.slot(i));
    }

    /// Withdraws `seq` from the issue candidates.
    pub fn unmark_ready(&mut self, seq: u64) {
        if let Some(slot) = self.index_of(seq) {
            self.clear_bit(slot);
        }
    }

    /// Withdraws the `i`-th oldest entry from the issue candidates.
    #[inline(always)]
    pub fn unmark_ready_nth(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.clear_bit(self.slot(i));
    }

    /// Whether `seq` is an issue candidate.
    pub fn is_ready(&self, seq: u64) -> bool {
        self.index_of(seq).is_some_and(|slot| self.ready[slot / 64] & (1 << (slot % 64)) != 0)
    }

    /// Delivers one produced operand to a `Waiting` entry `seq`: its
    /// pending-operand count drops, and at zero it becomes an issue
    /// candidate unless it is a serializer behind the head (`commit` marks
    /// those once they are the head). Returns whether the count reached
    /// zero; `false` for an entry that is not resident or not `Waiting`
    /// (a stale waiter).
    #[inline(always)]
    pub fn wake(&mut self, seq: u64) -> bool {
        let Some(slot) = self.index_of(seq) else { return false };
        let e = &mut self.slots[slot];
        if e.state != EntryState::Waiting {
            return false;
        }
        e.wait_count = e.wait_count.saturating_sub(1);
        if e.wait_count > 0 {
            return false;
        }
        if !e.meta.is_serializing() || slot == self.head {
            self.set_bit(slot);
        }
        true
    }

    /// Position from the head of the oldest issue candidate at or after
    /// the `from`-th oldest entry ([`Rob::nth`] reads it). O(1) when no
    /// entry is a candidate; otherwise at most one word per 64 ring slots,
    /// plus one.
    #[inline(always)]
    pub fn next_ready(&self, from: usize) -> Option<usize> {
        if self.ready_count == 0 || from >= self.len {
            return None;
        }
        // Slots within a word are consecutive ring slots, so a candidate
        // in the word of `from`, short of the window's end, sits that many
        // positions further on (past the window's end the word may hold
        // the oldest entries again, in a nearly full ring).
        let start = self.slot(from);
        let mut bits = self.ready[start / 64] >> (start % 64);
        if self.len - from < 64 {
            bits &= (1 << (self.len - from)) - 1;
        }
        if bits != 0 {
            return Some(from + bits.trailing_zeros() as usize);
        }
        self.next_ready_in_later_words(start, from)
    }

    /// [`Rob::next_ready`] past the word of `from`'s slot `start`: walks
    /// the ring's words circularly. Every set bit lies in the live window,
    /// and along this walk positions rise from `from` to `len - 1` before
    /// the free slots and then the older entries come around. So the first
    /// set bit met is the answer if its position is at least `from`, and
    /// there is none otherwise.
    #[inline(always)]
    fn next_ready_in_later_words(&self, start: usize, from: usize) -> Option<usize> {
        let last = self.ready.len() - 1;
        let mut w = start / 64;
        for _ in 0..=last {
            w = (w + 1) & last;
            let bits = self.ready[w];
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                let i = slot.wrapping_sub(self.head) & self.mask;
                debug_assert!(i < self.len, "ready bit on a free slot");
                return (i >= from).then_some(i);
            }
        }
        None
    }

    /// `sched_check`: asserts that no ready bit is set on a slot outside
    /// the live window and that the set-bit count is the popcount. The
    /// per-entry audit in `Core::check_issue_invariants` walks only live
    /// entries, so it cannot see a bit left behind on a freed slot.
    pub fn check_ready_bits(&self) {
        let popcount: usize = self.ready.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(
            self.ready_count, popcount,
            "sched_check: ready count {} but {popcount} ready bits are set",
            self.ready_count
        );
        for slot in 0..=self.mask {
            let live = (slot.wrapping_sub(self.head) & self.mask) < self.len;
            assert!(
                live || self.ready[slot / 64] & (1 << (slot % 64)) == 0,
                "sched_check: ready bit set on free slot {slot} (head {}, len {})",
                self.head,
                self.len
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};

    use proptest::prelude::*;

    use super::*;
    use crate::sched::Scheduler;
    use crate::{Core, CpuConfig};
    use specrun_isa::{IntReg, ProgramBuilder};

    /// A freshly dispatched entry, lowering `inst` on the spot.
    fn entry_for(seq: u64, pc: u64, inst: Inst) -> RobEntry {
        let meta = UopMeta::of(&inst, pc);
        RobEntry {
            seq,
            pc,
            inst,
            meta,
            state: EntryState::Waiting,
            ready_at: 0,
            dest: None,
            srcs: [None; 3],
            result: 0,
            taint: 0,
            inv: false,
            branch: None,
            is_load: meta.is_load(),
            is_store: meta.needs_sq(),
            load_level: None,
            load_addr: None,
            aux_sp: 0,
            dispatch_scope: None,
            addr_ready: false,
            wait_count: 0,
        }
    }

    fn entry(seq: u64) -> RobEntry {
        entry_for(seq, seq * 8, Inst::Nop)
    }

    fn seqs(rob: &Rob) -> Vec<u64> {
        rob.iter().map(|e| e.seq).collect()
    }

    /// Marks resident `seq` ready, as a wakeup would.
    fn mark(rob: &mut Rob, seq: u64) {
        let slot = rob.index_of(seq).expect("resident");
        rob.set_bit(slot);
    }

    /// The next ready `(position, seq)` at or after position `from`.
    fn ready_from(rob: &Rob, from: usize) -> Option<(usize, u64)> {
        rob.next_ready(from).map(|i| (i, rob.nth(i).seq))
    }

    /// The ready seqs, walked from the head the way `issue` walks them.
    fn walk_ready(rob: &Rob) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cursor = 0;
        while let Some((i, seq)) = ready_from(rob, cursor) {
            out.push(seq);
            cursor = i + 1;
        }
        rob.check_ready_bits();
        out
    }

    #[test]
    fn fifo_order() {
        let mut rob = Rob::new(4);
        rob.push(entry(1), false);
        rob.push(entry(2), false);
        assert_eq!(rob.head().unwrap().seq, 1);
        rob.pop_head_discard();
        assert_eq!(rob.head().unwrap().seq, 2);
        rob.pop_head_discard();
        assert!(rob.head().is_none());
        rob.push(entry(3), false);
        assert_eq!(rob.head, 0, "a drained ring restarts at slot 0");
        assert_eq!(rob.head().map(|e| e.seq), Some(3));
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(entry(1), false);
        rob.push(entry(2), false);
        assert!(rob.is_full());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(1), false);
        rob.push(entry(2), false);
    }

    #[test]
    fn squash_younger_removes_in_reverse_order() {
        let mut rob = Rob::new(8);
        for s in 1..=5 {
            rob.push(entry(s), false);
        }
        let mut removed = Vec::new();
        while let Some(e) = rob.pop_younger(2) {
            removed.push(e.seq);
        }
        assert_eq!(removed, vec![5, 4, 3]);
        assert_eq!(seqs(&rob), vec![1, 2]);
    }

    #[test]
    fn squash_all_empties() {
        let mut rob = Rob::new(8);
        for s in 1..=3 {
            rob.push(entry(s), false);
        }
        rob.clear();
        assert!(rob.is_empty());
        assert!(rob.head().is_none() && rob.get(2).is_none());
        rob.push(entry(9), false);
        assert_eq!(seqs(&rob), vec![9], "a cleared ring reuses its slots");
    }

    #[test]
    fn get_binary_search_handles_seq_gaps() {
        let mut rob = Rob::new(8);
        // Squashes leave gaps in the resident sequence numbers.
        for s in [3, 4, 9, 12] {
            rob.push(entry(s), false);
        }
        for s in [3, 4, 9, 12] {
            assert_eq!(rob.get(s).map(|e| e.seq), Some(s));
            assert_eq!(rob.get_mut(s).map(|e| e.seq), Some(s));
        }
        for s in [0, 5, 10, 13] {
            assert!(rob.get(s).is_none());
            assert!(rob.get_mut(s).is_none());
        }
    }

    #[test]
    fn push_and_pop_across_the_wrap() {
        let mut rob = Rob::new(4);
        let mut next = 0;
        // Twelve pushes through a four-slot ring: the head and tail wrap
        // three times, and every lookup takes the dense path.
        for _ in 0..3 {
            while !rob.is_full() {
                rob.push(entry(next), false);
                next += 1;
            }
            for s in next - 4..next {
                assert_eq!(rob.get(s).map(|e| e.pc), Some(s * 8));
            }
            rob.pop_head_discard();
            rob.pop_head_discard();
            rob.pop_head_discard();
            assert_eq!(rob.head().map(|e| e.seq), Some(next - 1));
        }
        assert_eq!(rob.slots.len(), 4, "the ring never outgrows its size");
        rob.push(entry(next), false);
        assert_eq!(seqs(&rob), vec![next - 1, next]);
        assert!(rob.get(next - 2).is_none(), "retired entries are gone");
    }

    #[test]
    fn lookups_after_a_squash_gap_take_the_search_path() {
        let mut rob = Rob::new(8);
        for s in 10..16 {
            rob.push(entry(s), false);
        }
        // Retire three so the live window wraps once it refills.
        for _ in 0..3 {
            rob.pop_head_discard();
        }
        while rob.pop_younger(13).is_some() {}
        for s in 20..26 {
            rob.push(entry(s), false);
        }
        assert_eq!(seqs(&rob), vec![13, 20, 21, 22, 23, 24, 25]);
        assert!(rob.wrapped() > 0, "the live window wraps");
        for s in [13, 20, 22, 25] {
            assert_eq!(rob.get(s).map(|e| e.seq), Some(s));
            assert_eq!(rob.get_mut(s).map(|e| e.seq), Some(s));
        }
        for s in [12, 14, 16, 19, 26] {
            assert!(rob.get(s).is_none(), "{s} is not resident");
        }
    }

    #[test]
    fn non_power_of_two_capacity_is_full_at_capacity() {
        let mut rob = Rob::new(100);
        for s in 0..100 {
            assert!(!rob.is_full());
            rob.push(entry(s), false);
        }
        assert!(rob.is_full(), "full at exactly 100, not at the ring size 128");
        assert_eq!(rob.len(), 100);
        // Cycle the window past the 128-slot ring boundary.
        for s in 100..300 {
            rob.pop_head_discard();
            rob.push(entry(s), false);
            assert!(rob.is_full());
        }
        assert_eq!(rob.head().map(|e| e.seq), Some(200));
        assert_eq!(rob.get(299).map(|e| e.seq), Some(299));
        assert_eq!(rob.slots.len(), 128);
    }

    #[test]
    fn clone_of_a_wrapped_ring_is_compact_and_equal() {
        let mut rob = Rob::new(8);
        for s in 0..8 {
            rob.push(entry(s), false);
        }
        for _ in 0..5 {
            rob.pop_head_discard();
        }
        for s in 8..12 {
            rob.push(entry(s), false);
        }
        while rob.pop_younger(10).is_some() {}
        let clone = rob.clone();
        assert_eq!(clone.head, 0);
        assert_eq!(clone.slots.len(), rob.len(), "only live entries are copied");
        assert_eq!(seqs(&clone), seqs(&rob));
        for (a, b) in clone.iter().zip(rob.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        for s in 5..=10 {
            assert_eq!(clone.get(s).map(|e| e.seq), Some(s));
        }
        // The clone keeps growing lazily and wraps like the original.
        let mut clone = clone;
        for s in 20..22 {
            clone.push(entry(s), false);
        }
        assert!(clone.is_full());
        assert_eq!(seqs(&clone), vec![5, 6, 7, 8, 9, 10, 20, 21]);
        for e in clone.iter_mut() {
            e.result = e.seq;
        }
        assert!(clone.iter().all(|e| e.result == e.seq));
    }

    #[test]
    fn fresh_and_cloned_cores_hold_no_unpushed_slots() {
        let fresh = Core::new(CpuConfig::default());
        assert!(fresh.rob.slots.is_empty() && fresh.rob.seqs.is_empty());

        let r = |i| IntReg::new(i).unwrap();
        let mut b = ProgramBuilder::new(0);
        b.li(r(1), 0);
        b.for_loop(r(2), 50, |b| {
            b.add(r(1), r(1), r(2));
        });
        b.halt();
        let mut core = Core::new(CpuConfig::default());
        core.load_program(&b.build().unwrap());
        // Step past the cold instruction fetch until work is in flight.
        for _ in 0..10_000 {
            if core.rob.len() >= 4 {
                break;
            }
            core.step();
        }
        assert!(core.rob.len() >= 4, "instructions are in flight");
        assert!(core.rob.slots.len() as u64 <= core.stats().dispatched);
        let fork = core.clone();
        assert_eq!(fork.rob.slots.len(), core.rob.len());
        assert_eq!(fork.rob.seqs.len(), core.rob.len());
    }

    #[test]
    fn classification_flags() {
        let load = entry_for(1, 0, Inst::Ret);
        assert!(load.is_load, "ret pops the stack through the LQ");
        assert!(!load.is_store);
        let flush = entry_for(2, 0, Inst::Flush { base: IntReg::new(1).unwrap(), offset: 0 });
        assert!(flush.is_store);
        assert!(!flush.is_load);
    }

    #[test]
    fn ready_queue_cursor_iteration() {
        let mut rob = Rob::new(16);
        for s in 0..10 {
            rob.push(entry(s), false);
        }
        for s in [5, 2, 9] {
            mark(&mut rob, s);
        }
        let (i, seq) = ready_from(&rob, 0).unwrap();
        assert_eq!(seq, 2);
        let (i, seq) = ready_from(&rob, i + 1).unwrap();
        assert_eq!(seq, 5);
        // Wakeups landing mid-iteration are seen if younger than the cursor.
        mark(&mut rob, 7);
        let (_, seq) = ready_from(&rob, i + 1).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(ready_from(&rob, 10), None, "nothing is ready past seq 9");
    }

    #[test]
    fn squash_prunes_ready_and_serializers() {
        let mut rob = Rob::new(16);
        let mut s = Scheduler::new(4, 2);
        for seq in 1..=9 {
            rob.push(entry(seq), [1, 4, 6, 9].contains(&seq));
        }
        s.add_serializer(3);
        s.add_serializer(8);
        s.squash_younger(4);
        while rob.pop_younger(4).is_some() {}
        assert!(rob.is_ready(1) && rob.is_ready(4));
        assert!(!rob.is_ready(6) && !rob.is_ready(9));
        assert_eq!(s.serializer_gate(), Some(3));
        s.retire_serializer(3);
        assert_eq!(s.serializer_gate(), None, "seq 8 was squashed");
    }

    #[test]
    fn mid_walk_marks_before_the_cursor_wait_for_the_next_walk() {
        let mut rob = Rob::new(8);
        for s in 10..16 {
            rob.push(entry(s), s == 13);
        }
        let (i, seq) = ready_from(&rob, 0).unwrap();
        assert_eq!((i, seq), (3, 13));
        mark(&mut rob, 11);
        mark(&mut rob, 15);
        assert_eq!(ready_from(&rob, i + 1), Some((5, 15)), "only the younger mark is visited");
        assert_eq!(ready_from(&rob, 6), None);
        assert_eq!(walk_ready(&rob), vec![11, 13, 15], "the next walk sees the older mark");
    }

    #[test]
    fn ready_bits_survive_a_wrap() {
        let mut rob = Rob::new(4);
        for s in 0..4 {
            rob.push(entry(s), s % 2 == 1);
        }
        for _ in 0..3 {
            rob.pop_head_discard();
        }
        for s in 4..7 {
            rob.push(entry(s), s != 5);
        }
        assert!(rob.wrapped() > 0, "the live window wraps");
        assert_eq!(seqs(&rob), vec![3, 4, 5, 6]);
        assert_eq!(walk_ready(&rob), vec![3, 4, 6]);
        assert_eq!(ready_from(&rob, 1), Some((1, 4)), "a walk from past the head skips it");
        assert_eq!(ready_from(&rob, 2), Some((3, 6)), "the walk crosses the wrap");
        rob.unmark_ready_nth(3);
        assert_eq!(ready_from(&rob, 2), None);
    }

    #[test]
    fn removals_drop_their_ready_bits() {
        let mut rob = Rob::new(8);
        for s in 0..6 {
            rob.push(entry(s), true);
        }
        rob.pop_head_discard();
        assert_eq!(walk_ready(&rob), vec![1, 2, 3, 4, 5]);
        while rob.pop_younger(3).is_some() {}
        assert_eq!(walk_ready(&rob), vec![1, 2, 3]);
        assert_eq!(rob.ready_count, 3);
        // Pushing unready entries over the freed slots exposes no stale bit.
        for s in 10..15 {
            rob.push(entry(s), false);
        }
        assert_eq!(walk_ready(&rob), vec![1, 2, 3]);
        rob.clear();
        assert_eq!(rob.ready_count, 0);
        assert_eq!(ready_from(&rob, 0), None);
        for s in 20..28 {
            rob.push(entry(s), false);
        }
        assert!(walk_ready(&rob).is_empty(), "a cleared ring holds no ready bit");
    }

    #[test]
    fn clone_of_a_wrapped_ring_keeps_its_ready_bits() {
        let mut rob = Rob::new(8);
        for s in 0..8 {
            rob.push(entry(s), false);
        }
        for _ in 0..5 {
            rob.pop_head_discard();
        }
        for s in 8..13 {
            rob.push(entry(s), s % 2 == 0);
        }
        mark(&mut rob, 5);
        while rob.pop_younger(11).is_some() {}
        assert!(rob.wrapped() > 0);
        let clone = rob.clone();
        assert_eq!(clone.head, 0);
        assert_eq!(walk_ready(&clone), vec![5, 8, 10]);
        assert_eq!(walk_ready(&clone), walk_ready(&rob));
        for s in 5..=11 {
            assert_eq!(clone.is_ready(s), rob.is_ready(s), "seq {s}");
        }
    }

    #[test]
    fn a_512_slot_ring_walks_across_word_boundaries() {
        let mut rob = Rob::new(320);
        assert_eq!(rob.ready.len(), 8, "320 entries round up to a 512-slot ring");
        let ready = |s: u64| s % 7 == 0 || (60..70).contains(&(s % 128));
        let mut next = 0;
        // Slide the 320-entry window around the ring twice; every window
        // straddles several 64-slot words, and from the second lap on it
        // wraps from slot 511 to slot 0.
        for _ in 0..4 {
            while !rob.is_full() {
                rob.push(entry(next), ready(next));
                next += 1;
            }
            let expected: Vec<u64> = (next - 320..next).filter(|&s| ready(s)).collect();
            assert_eq!(walk_ready(&rob), expected);
            // A walk started mid-window begins at the first ready seq there.
            for from in [0, 63, 64, 191, 319] {
                let want = (next - 320 + from as u64..next).find(|&s| ready(s));
                assert_eq!(ready_from(&rob, from).map(|(_, s)| s), want, "from {from}");
            }
            for _ in 0..250 {
                rob.pop_head_discard();
            }
        }
        assert!(rob.wrapped() > 0);
    }

    #[test]
    fn wake_marks_at_zero_pending_unless_a_serializer_is_behind_the_head() {
        let mut rob = Rob::new(8);
        let pending = |seq, inst| RobEntry { wait_count: 1, ..entry_for(seq, seq * 8, inst) };
        rob.push(pending(1, Inst::Nop), false);
        rob.push(pending(2, Inst::RdCycle { rd: IntReg::new(1).unwrap() }), false);
        rob.push(RobEntry { wait_count: 2, ..entry(3) }, false);
        assert!(rob.wake(2), "the serializer's last operand arrived");
        assert!(!rob.is_ready(2), "but it is behind the head");
        assert!(!rob.wake(3) && !rob.is_ready(3), "one operand still pending");
        assert!(rob.wake(3) && rob.is_ready(3));
        rob.get_mut(1).unwrap().state = EntryState::Done;
        assert!(!rob.wake(1), "a non-waiting entry ignores a stale wakeup");
        assert!(!rob.wake(99), "a squashed entry ignores a stale wakeup");
        rob.pop_head_discard();
        rob.mark_ready_nth(0);
        assert_eq!(walk_ready(&rob), vec![2, 3], "commit marks the serializer at the head");
    }

    /// One step of a random ready-set workload.
    #[derive(Debug, Clone)]
    enum Op {
        Push(bool),
        PopHead,
        Mark(usize),
        Unmark(usize),
        Squash(usize),
        Clear,
        Clone,
        Walk(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<bool>().prop_map(Op::Push),
            any::<bool>().prop_map(Op::Push),
            any::<bool>().prop_map(Op::Push),
            Just(Op::PopHead),
            Just(Op::PopHead),
            (0usize..400).prop_map(Op::Mark),
            (0usize..400).prop_map(Op::Unmark),
            (0usize..400).prop_map(Op::Squash),
            Just(Op::Clear),
            Just(Op::Clone),
            (0usize..400).prop_map(Op::Walk),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bit set against a `BTreeSet` model of the sorted ready
        /// queue it replaced: marks by seq, issue by position, head pops,
        /// squashes, clears and clones agree on the ready seqs, in order.
        #[test]
        fn ready_bits_match_a_sorted_set_model(
            capacity in prop_oneof![Just(4usize), Just(100), Just(320)],
            ops in proptest::collection::vec(op(), 1..400),
        ) {
            let mut rob = Rob::new(capacity);
            let mut live: VecDeque<u64> = VecDeque::new();
            let mut ready: BTreeSet<u64> = BTreeSet::new();
            let mut next = 0u64;
            for op in ops {
                match op {
                    Op::Push(r) if !rob.is_full() => {
                        rob.push(entry(next), r);
                        live.push_back(next);
                        if r {
                            ready.insert(next);
                        }
                        next += 1;
                    }
                    Op::Push(_) => {}
                    Op::PopHead => {
                        rob.pop_head_discard();
                        if let Some(s) = live.pop_front() {
                            ready.remove(&s);
                        }
                    }
                    Op::Mark(k) if !live.is_empty() => {
                        let s = live[k % live.len()];
                        mark(&mut rob, s);
                        ready.insert(s);
                    }
                    Op::Unmark(k) if !live.is_empty() => {
                        // Issue clears by position, the store park by seq.
                        let i = k % live.len();
                        if k % 2 == 0 {
                            rob.unmark_ready_nth(i);
                        } else {
                            rob.unmark_ready(live[i]);
                        }
                        ready.remove(&live[i]);
                    }
                    Op::Squash(k) if !live.is_empty() => {
                        let s = live[k % live.len()];
                        while rob.pop_younger(s).is_some() {}
                        while live.back().is_some_and(|&b| b > s) {
                            live.pop_back();
                        }
                        ready = ready.range(..=s).copied().collect();
                    }
                    Op::Clear => {
                        rob.clear();
                        live.clear();
                        ready.clear();
                    }
                    Op::Clone => rob = rob.clone(),
                    Op::Walk(k) if !live.is_empty() => {
                        let from = k % live.len();
                        let want = ready.range(live[from]..).next().copied();
                        prop_assert_eq!(ready_from(&rob, from).map(|(_, s)| s), want);
                    }
                    Op::Mark(_) | Op::Unmark(_) | Op::Squash(_) | Op::Walk(_) => {}
                }
                prop_assert_eq!(seqs(&rob), live.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(walk_ready(&rob), ready.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(rob.ready_count, ready.len());
            }
        }
    }
}
