//! Event-driven pipeline scheduling: the unified event queue and the
//! operand-wakeup network that replace the per-cycle O(ROB) scans.
//!
//! Before this module, every simulated cycle paid a full reorder-buffer walk
//! in `writeback` (looking for due completions) and another in `issue`
//! (re-checking every waiting entry's operands), plus `retain` sweeps over
//! the host-scheduled flush list and the secure-mode SL-fill list. All of
//! that is replaced by three structures:
//!
//! * [`CompletionQueue`] — events keyed on `(ready_at, seq)`: a 4-slot
//!   cycle wheel for near completions and a min-heap for the rest. Every
//!   ROB entry that enters `Executing` schedules exactly one completion
//!   event; `writeback` pops the due events instead of scanning, and
//!   returns at once when [`CompletionQueue::nothing_due`] (an empty wheel
//!   slot and a later heap minimum). Squashed entries leave stale events
//!   behind; they are validated lazily against the ROB and discarded on
//!   pop. Because issue always produces `ready_at > now` and writeback
//!   runs every live cycle, all events due at a given cycle share that
//!   cycle as their key, so the `(ready_at, seq)` pop order is exactly the
//!   oldest-first ROB-scan order the scan-based scheduler used.
//! * [`TimerQueue`] — a min-heap of `(cycle, insertion order, payload)`
//!   used for host-scheduled `clflush`es and secure-runahead SL fills.
//!   Same-cycle events pop in insertion order, matching the retired
//!   `retain` sweeps bit for bit, and an idle queue costs one O(1) peek
//!   per cycle instead of a sweep.
//! * [`Scheduler`] — the operand-wakeup network: per-physical-register
//!   waiter lists and the pending-serializer list that gates issue. A
//!   dispatched entry whose gating operands are unready parks on the
//!   producers' waiter lists; when a producer writes back (or poisons its
//!   destination with INV) the waiters' pending counts drop and entries
//!   whose count reaches zero become issue candidates. The candidate set
//!   itself is one bit per ROB ring slot, kept by `Rob` beside the
//!   entries (`Rob::next_ready`): the ring is in program order from the
//!   head, so `issue` walks only the set bits, oldest first, and a bit
//!   leaves with its entry on commit or squash. A serializer (`rdcycle`)
//!   additionally waits for the ROB head: it becomes a candidate on
//!   dispatch into an empty ROB or when `commit` makes it the head, so it
//!   is never retried while older work is still in flight.
//!
//! The `CpuConfig::sched_check` mode re-runs the retired scan logic in
//! parallel each cycle and asserts the event-driven structures reach
//! identical decisions (see `Core::check_issue_invariants` and
//! `Core::check_writeback_set`).

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::regs::{PhysRef, RegClass};

// ---------------------------------------------------------------------
// Completion events
// ---------------------------------------------------------------------

/// Completion events `(ready_at, seq)` for `Executing` ROB entries. Stale
/// events (squashed or runahead-poisoned entries) are the caller's
/// responsibility to detect on pop.
///
/// Two tiers: most completions land 1–3 cycles out (single-cycle ALU work,
/// L1 hits), so those go into a tiny 4-slot cycle wheel — a push is one
/// `Vec` append and the per-cycle drain empties exactly one slot. Only
/// long-latency events (DRAM fills, which can also linger as stale entries
/// for hundreds of cycles after a runahead poison) pay the binary heap.
/// A cycle with nothing due is told apart by two loads
/// ([`CompletionQueue::nothing_due`]), before any buffer is touched.
///
/// Wheel invariant: an event is scheduled at most `NEAR-1` cycles ahead, so
/// its slot is visited for the first time exactly at its due cycle (or
/// later, if fast-forward proved the window event-free — then the event is
/// necessarily stale and is discarded by `at < now`).
#[derive(Debug, Clone, Default)]
pub(crate) struct CompletionQueue {
    near: [Vec<(u64, u64)>; NEAR],
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

/// Wheel span: events within `NEAR - 1` cycles go to the wheel.
const NEAR: usize = 4;

impl CompletionQueue {
    /// Schedules entry `seq` to complete at `ready_at` (strictly after the
    /// current cycle `now`; `CpuConfig::validate` rejects zero latencies).
    pub fn schedule(&mut self, now: u64, ready_at: u64, seq: u64) {
        debug_assert!(ready_at > now, "completions must land in the future");
        if ready_at - now < NEAR as u64 {
            self.near[(ready_at as usize) & (NEAR - 1)].push((ready_at, seq));
        } else {
            self.heap.push(Reverse((ready_at, seq)));
        }
    }

    /// Drains every event due at or before `now` into `out` (unsorted; the
    /// caller orders by `(ready_at, seq)`). Only the current cycle's wheel
    /// slot is swept: older events in other slots are provably stale and
    /// are discarded lazily when their slot comes around.
    pub fn pop_due_into(&mut self, now: u64, out: &mut Vec<(u64, u64)>) {
        let slot = &mut self.near[(now as usize) & (NEAR - 1)];
        if !slot.is_empty() {
            out.extend(slot.iter().copied().filter(|&(at, _)| at == now));
            slot.clear();
        }
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            out.push((at, seq));
        }
    }

    /// Whether [`CompletionQueue::pop_due_into`] at `now` would neither
    /// return nor discard any event: this cycle's wheel slot is empty and
    /// the heap's earliest event is later. O(1); `writeback`'s idle exit.
    #[inline(always)]
    pub fn nothing_due(&self, now: u64) -> bool {
        self.near[(now as usize) & (NEAR - 1)].is_empty()
            && self.heap.peek().map_or(true, |&Reverse((at, _))| at > now)
    }

    /// The earliest `(ready_at, seq)` event, if any (stale events
    /// included).
    pub fn peek(&self) -> Option<(u64, u64)> {
        let near_min = self.near.iter().flat_map(|s| s.iter().copied()).min();
        let heap_min = self.heap.peek().map(|Reverse(e)| *e);
        match (near_min, heap_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Removes and returns the earliest event (the one [`peek`] reports).
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        let min = self.peek()?;
        for slot in &mut self.near {
            if let Some(i) = slot.iter().position(|&e| e == min) {
                slot.swap_remove(i);
                return Some(min);
            }
        }
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Drops every event (pipeline flush).
    pub fn clear(&mut self) {
        for slot in &mut self.near {
            slot.clear();
        }
        self.heap.clear();
    }
}

// ---------------------------------------------------------------------
// Timed host events
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct TimerEvent<T> {
    at: u64,
    order: u64,
    payload: T,
}

impl<T> PartialEq for TimerEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.order == other.order
    }
}

impl<T> Eq for TimerEvent<T> {}

impl<T> PartialOrd for TimerEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for TimerEvent<T> {
    // Reversed so the `BinaryHeap` becomes a min-heap on (cycle, order).
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.order).cmp(&(self.at, self.order))
    }
}

/// A min-heap of timed events carrying a payload. Events due at the same
/// cycle pop in insertion order, so replacing an insertion-ordered `Vec`
/// swept with `retain` preserves processing order exactly.
#[derive(Debug, Clone)]
pub(crate) struct TimerQueue<T> {
    heap: BinaryHeap<TimerEvent<T>>,
    next_order: u64,
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        TimerQueue { heap: BinaryHeap::new(), next_order: 0 }
    }
}

impl<T> TimerQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: u64, payload: T) {
        let order = self.next_order;
        self.next_order += 1;
        self.heap.push(TimerEvent { at, order, payload });
    }

    /// Pops the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.at <= now) {
            self.heap.pop().map(|e| e.payload)
        } else {
            None
        }
    }

    /// Cycle of the earliest pending event.
    pub fn peek_at(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.at)
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

// ---------------------------------------------------------------------
// Operand-wakeup network
// ---------------------------------------------------------------------

/// The wakeup network plus completion queue: everything the core needs to
/// schedule issue and writeback without scanning the ROB.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    /// Completion events for `Executing` entries.
    pub completions: CompletionQueue,
    /// Per-physical-register waiter lists (sequence numbers of entries
    /// blocked on this register's production).
    int_waiters: Vec<Vec<u64>>,
    fp_waiters: Vec<Vec<u64>>,
    /// In-flight serializing instructions, oldest first. The front entry
    /// gates issue of everything younger until it leaves `Waiting`+`Executing`.
    serializers: Vec<u64>,
    /// Reusable drain buffer for wakeups (the hot loop must not allocate).
    pub scratch: Vec<u64>,
}

impl Scheduler {
    /// Creates a network sized to the physical register files.
    pub fn new(int_prf: usize, fp_prf: usize) -> Scheduler {
        Scheduler {
            completions: CompletionQueue::default(),
            int_waiters: vec![Vec::new(); int_prf],
            fp_waiters: vec![Vec::new(); fp_prf],
            serializers: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn waiters_mut(&mut self, p: PhysRef) -> &mut Vec<u64> {
        match p.class {
            RegClass::Int => &mut self.int_waiters[p.index as usize],
            RegClass::Fp => &mut self.fp_waiters[p.index as usize],
        }
    }

    /// Registers `seq` as blocked on the production of `p`.
    pub fn add_waiter(&mut self, p: PhysRef, seq: u64) {
        self.waiters_mut(p).push(seq);
    }

    /// Moves the waiter list of `p` into the empty `out` (called when `p`
    /// is produced, valid or INV). The two buffers swap, so no element is
    /// copied and `p` keeps `out`'s allocation for its next waiters.
    pub fn take_waiters(&mut self, p: PhysRef, out: &mut Vec<u64>) {
        debug_assert!(out.is_empty(), "the drain buffer is empty");
        std::mem::swap(out, self.waiters_mut(p));
    }

    /// Drops any waiters parked on `p` (defensive: called when `p` is
    /// reallocated; the list is provably empty then, see `wake_reg`).
    pub fn clear_waiters(&mut self, p: PhysRef) {
        self.waiters_mut(p).clear();
    }

    /// Records a dispatched serializing instruction (dispatch order is
    /// ascending, so the list stays sorted).
    pub fn add_serializer(&mut self, seq: u64) {
        self.serializers.push(seq);
    }

    /// Removes a serializing instruction that reached `Done`.
    pub fn retire_serializer(&mut self, seq: u64) {
        self.serializers.retain(|&s| s != seq);
    }

    /// The oldest in-flight serializing instruction: entries younger than
    /// it must not issue this cycle.
    pub fn serializer_gate(&self) -> Option<u64> {
        self.serializers.first().copied()
    }

    /// Drops all bookkeeping for entries younger than `seq` (misprediction
    /// squash; their ready bits leave the ROB with them). Waiter-list
    /// entries are left to lazy validation: squashed sequence numbers are
    /// never reused, so a stale wakeup is ignored.
    pub fn squash_younger(&mut self, seq: u64) {
        self.serializers.retain(|&s| s <= seq);
    }

    /// Drops all in-flight bookkeeping (pipeline flush, runahead exit).
    pub fn clear_inflight(&mut self) {
        self.completions.clear();
        self.serializers.clear();
        for w in &mut self.int_waiters {
            w.clear();
        }
        for w in &mut self.fp_waiters {
            w.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(i: u16) -> PhysRef {
        PhysRef { class: RegClass::Int, index: i }
    }

    #[test]
    fn completion_queue_orders_by_cycle_then_seq() {
        let mut q = CompletionQueue::default();
        q.schedule(0, 10, 7);
        q.schedule(0, 5, 9);
        q.schedule(0, 10, 3);
        assert_eq!(q.pop(), Some((5, 9)));
        assert_eq!(q.pop(), Some((10, 3)), "same cycle pops oldest seq first");
        assert_eq!(q.pop(), Some((10, 7)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn completion_queue_near_wheel_and_heap_agree() {
        let mut q = CompletionQueue::default();
        q.schedule(9, 10, 4); // wheel (1 ahead)
        q.schedule(9, 12, 2); // wheel (3 ahead)
        q.schedule(9, 300, 1); // heap
        assert_eq!(q.peek(), Some((10, 4)), "peek spans wheel and heap");
        let mut due = Vec::new();
        q.pop_due_into(10, &mut due);
        assert_eq!(due, vec![(10, 4)]);
        due.clear();
        q.pop_due_into(11, &mut due);
        assert!(due.is_empty(), "nothing lands at 11");
        q.pop_due_into(12, &mut due);
        assert_eq!(due, vec![(12, 2)]);
        assert_eq!(q.pop(), Some((300, 1)));
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn completion_queue_drops_skipped_stale_wheel_events() {
        let mut q = CompletionQueue::default();
        q.schedule(9, 10, 4);
        // The core fast-forwarded past cycle 10 (the event was stale); the
        // slot is visited again at cycle 14, which shares its wheel slot.
        let mut due = Vec::new();
        q.pop_due_into(14, &mut due);
        assert!(due.is_empty(), "an overdue wheel event is provably stale");
        assert_eq!(q.peek(), None, "the slot was reclaimed");
    }

    #[test]
    fn timer_queue_same_cycle_is_fifo() {
        let mut q: TimerQueue<u32> = TimerQueue::new();
        q.push(20, 1);
        q.push(10, 2);
        q.push(10, 3);
        assert_eq!(q.peek_at(), Some(10));
        assert_eq!(q.pop_due(9), None, "nothing due before its cycle");
        assert_eq!(q.pop_due(10), Some(2));
        assert_eq!(q.pop_due(10), Some(3), "same-cycle events keep insertion order");
        assert_eq!(q.pop_due(10), None);
        assert_eq!(q.pop_due(25), Some(1));
        assert!(q.is_empty());
    }

    #[test]
    fn waiters_drain_once() {
        let mut s = Scheduler::new(4, 2);
        s.add_waiter(int(1), 10);
        s.add_waiter(int(1), 11);
        let mut out = Vec::new();
        s.take_waiters(int(1), &mut out);
        assert_eq!(out, vec![10, 11]);
        out.clear();
        s.take_waiters(int(1), &mut out);
        assert!(out.is_empty(), "a produced register has no residual waiters");
    }
}
