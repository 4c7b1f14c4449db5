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
    /// entry joins the issue-ready queue when this reaches zero.
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
    fn clone(&self) -> Rob {
        Rob {
            slots: self.iter().cloned().collect(),
            seqs: self.iter().map(|e| e.seq).collect(),
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
        Rob {
            slots: Vec::new(),
            seqs: Vec::new(),
            head: 0,
            len: 0,
            mask: capacity.next_power_of_two() - 1,
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

    /// Appends a dispatched entry, writing it straight into its slot.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full (callers must check [`Rob::is_full`]).
    #[inline(always)]
    pub fn push(&mut self, entry: RobEntry) {
        assert!(!self.is_full(), "ROB overflow");
        let tail = self.slot(self.len);
        self.len += 1;
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
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn fifo_order() {
        let mut rob = Rob::new(4);
        rob.push(entry(1));
        rob.push(entry(2));
        assert_eq!(rob.head().unwrap().seq, 1);
        rob.pop_head_discard();
        assert_eq!(rob.head().unwrap().seq, 2);
        rob.pop_head_discard();
        assert!(rob.head().is_none());
        rob.push(entry(3));
        assert_eq!(rob.head, 0, "a drained ring restarts at slot 0");
        assert_eq!(rob.head().map(|e| e.seq), Some(3));
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(entry(1));
        rob.push(entry(2));
        assert!(rob.is_full());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(1));
        rob.push(entry(2));
    }

    #[test]
    fn squash_younger_removes_in_reverse_order() {
        let mut rob = Rob::new(8);
        for s in 1..=5 {
            rob.push(entry(s));
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
            rob.push(entry(s));
        }
        rob.clear();
        assert!(rob.is_empty());
        assert!(rob.head().is_none() && rob.get(2).is_none());
        rob.push(entry(9));
        assert_eq!(seqs(&rob), vec![9], "a cleared ring reuses its slots");
    }

    #[test]
    fn get_binary_search_handles_seq_gaps() {
        let mut rob = Rob::new(8);
        // Squashes leave gaps in the resident sequence numbers.
        for s in [3, 4, 9, 12] {
            rob.push(entry(s));
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
                rob.push(entry(next));
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
        rob.push(entry(next));
        assert_eq!(seqs(&rob), vec![next - 1, next]);
        assert!(rob.get(next - 2).is_none(), "retired entries are gone");
    }

    #[test]
    fn lookups_after_a_squash_gap_take_the_search_path() {
        let mut rob = Rob::new(8);
        for s in 10..16 {
            rob.push(entry(s));
        }
        // Retire three so the live window wraps once it refills.
        for _ in 0..3 {
            rob.pop_head_discard();
        }
        while rob.pop_younger(13).is_some() {}
        for s in 20..26 {
            rob.push(entry(s));
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
            rob.push(entry(s));
        }
        assert!(rob.is_full(), "full at exactly 100, not at the ring size 128");
        assert_eq!(rob.len(), 100);
        // Cycle the window past the 128-slot ring boundary.
        for s in 100..300 {
            rob.pop_head_discard();
            rob.push(entry(s));
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
            rob.push(entry(s));
        }
        for _ in 0..5 {
            rob.pop_head_discard();
        }
        for s in 8..12 {
            rob.push(entry(s));
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
            clone.push(entry(s));
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
}
