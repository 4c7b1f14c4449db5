//! Reorder buffer.

use specrun_bp::BranchKind;
use specrun_isa::{ArchReg, Inst, UopMeta};
use specrun_mem::HitLevel;
use std::collections::VecDeque;

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
    /// Dispatched during runahead mode.
    pub runahead: bool,
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

impl RobEntry {
    /// Creates a freshly dispatched entry, lowering `inst` on the spot
    /// (tests and cold paths; the dispatch stage uses
    /// [`RobEntry::with_meta`] with the program's predecoded table).
    #[allow(dead_code)] // constructor API; exercised in tests
    pub fn new(seq: u64, pc: u64, inst: Inst) -> RobEntry {
        RobEntry::with_meta(seq, pc, inst, UopMeta::of(&inst, pc))
    }

    /// Creates a freshly dispatched entry from predecoded metadata.
    pub fn with_meta(seq: u64, pc: u64, inst: Inst, meta: UopMeta) -> RobEntry {
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
            runahead: false,
            dispatch_scope: None,
            addr_ready: false,
            wait_count: 0,
        }
    }
}

/// The reorder buffer: a bounded FIFO of in-flight instructions.
#[derive(Debug, Clone, Default)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    /// Mirror of the entries' sequence numbers, kept in lockstep. Seq→slot
    /// lookups run every cycle from writeback, issue and the wakeup network;
    /// searching this compact array (2 KiB at 256 entries) stays resident in
    /// the host's L1 cache, where a binary search striding over the ~300-byte
    /// `RobEntry` structs themselves missed on nearly every probe.
    seqs: VecDeque<u64>,
    capacity: usize,
}

impl Rob {
    /// Creates an empty ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Rob {
        Rob {
            entries: VecDeque::with_capacity(capacity),
            seqs: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum occupancy.
    #[allow(dead_code)] // part of the container API; exercised in tests
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends a dispatched entry.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full (callers must check [`Rob::is_full`]).
    pub fn push(&mut self, entry: RobEntry) {
        assert!(!self.is_full(), "ROB overflow");
        self.seqs.push_back(entry.seq);
        self.entries.push_back(entry);
    }

    /// The oldest entry.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry.
    #[allow(dead_code)] // container API; the core retires via head+discard
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        self.seqs.pop_front();
        self.entries.pop_front()
    }

    /// Removes the oldest entry without returning it (the retire stages
    /// copy the handful of fields they need out of [`Rob::head`] first, so
    /// the ~200-byte entry never has to be moved out of the buffer).
    pub fn pop_head_discard(&mut self) {
        self.seqs.pop_front();
        self.entries.pop_front();
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Mutably iterates oldest → youngest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RobEntry> {
        self.entries.iter_mut()
    }

    /// Removes all entries younger than `seq`, youngest first, and returns
    /// them in removal order (for rename unwinding).
    pub fn squash_younger(&mut self, seq: u64) -> Vec<RobEntry> {
        let mut removed = Vec::new();
        while let Some(back) = self.entries.back() {
            if back.seq > seq {
                self.seqs.pop_back();
                removed.push(self.entries.pop_back().expect("back exists"));
            } else {
                break;
            }
        }
        removed
    }

    /// Removes every entry, youngest first (runahead exit).
    #[allow(dead_code)] // container API; the core uses `clear` (no return)
    pub fn squash_all(&mut self) -> Vec<RobEntry> {
        self.seqs.clear();
        let mut removed = Vec::with_capacity(self.entries.len());
        while let Some(e) = self.entries.pop_back() {
            removed.push(e);
        }
        removed
    }

    /// Drops every entry without returning them, for squashes whose
    /// unwinding is wholesale (runahead exit and program load rebuild the
    /// RAT and free lists from scratch, so the removed entries are never
    /// inspected). Keeps the allocation.
    pub fn clear(&mut self) {
        self.seqs.clear();
        self.entries.clear();
    }

    /// Slot of sequence number `seq`. Entries are pushed in ascending
    /// sequence order and removed only at either end, so the (mirrored)
    /// sequence deque is always sorted and a binary search suffices; gaps
    /// from squashes simply fail the final equality check.
    #[inline]
    fn index_of(&self, seq: u64) -> Option<usize> {
        // Dense fast path: with no squash gap in range, the slot is exactly
        // `seq - head_seq` (the overwhelmingly common case).
        let head = *self.seqs.front()?;
        let guess = seq.wrapping_sub(head) as usize;
        if self.seqs.get(guess) == Some(&seq) {
            return Some(guess);
        }
        let i = self.seqs.partition_point(|&s| s < seq);
        (self.seqs.get(i) == Some(&seq)).then_some(i)
    }

    /// The entry with sequence number `seq`, if present.
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        let i = self.index_of(seq)?;
        self.entries.get(i)
    }

    /// Mutable [`Rob::get`].
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let i = self.index_of(seq)?;
        self.entries.get_mut(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64) -> RobEntry {
        RobEntry::new(seq, seq * 8, Inst::Nop)
    }

    #[test]
    fn fifo_order() {
        let mut rob = Rob::new(4);
        rob.push(entry(1));
        rob.push(entry(2));
        assert_eq!(rob.head().unwrap().seq, 1);
        assert_eq!(rob.pop_head().unwrap().seq, 1);
        assert_eq!(rob.head().unwrap().seq, 2);
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
        let removed = rob.squash_younger(2);
        assert_eq!(removed.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5, 4, 3]);
        assert_eq!(rob.len(), 2);
    }

    #[test]
    fn squash_all_empties() {
        let mut rob = Rob::new(8);
        for s in 1..=3 {
            rob.push(entry(s));
        }
        let removed = rob.squash_all();
        assert_eq!(removed.len(), 3);
        assert!(rob.is_empty());
        assert_eq!(removed[0].seq, 3, "youngest first");
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
    fn classification_flags() {
        let load = RobEntry::new(1, 0, Inst::Ret);
        assert!(load.is_load, "ret pops the stack through the LQ");
        assert!(!load.is_store);
        let flush = RobEntry::new(
            2,
            0,
            Inst::Flush { base: specrun_isa::IntReg::new(1).unwrap(), offset: 0 },
        );
        assert!(flush.is_store);
        assert!(!flush.is_load);
    }
}
