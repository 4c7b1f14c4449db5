//! The out-of-order core: fetch → decode → rename/dispatch → issue →
//! execute → writeback → commit, with runahead mode layered on top.
//!
//! The pipeline is cycle-stepped. Stages run back-to-front within
//! [`Core::step`] so results written this cycle wake dependants this cycle;
//! the 6-stage front end is modelled as a fetch-to-rename delay line.

use std::collections::HashMap;
use std::sync::Arc;

use specrun_bp::{BranchKind, BranchPredictor, Prediction};
use specrun_isa::{
    ArchReg, BranchCond, CtrlClass, DecodedProgram, Inst, IntReg, Program, UopMeta, INST_BYTES,
};
use specrun_mem::{
    AccessKind, FillPolicy, HitLevel, MemHierarchy, RunaheadCache, RunaheadRead, SlCache,
};

use crate::config::CpuConfig;
use crate::fu::{FuKind, FuPool};
use crate::lsq::{LoadCheck, StoreQueue};
use crate::probe::{NoopObserver, PipelineEvent, PipelineObserver};
use crate::regs::{ArchCheckpoint, FreeLists, PhysRef, Rat, RegClass, RegFile};
use crate::rob::{BranchInfo, DestInfo, EntryState, Rob, RobEntry};
use crate::runahead::{Episode, StrideEntry};
use crate::sched::{Scheduler, TimerQueue};
use crate::secure::SecureState;
use crate::stats::CpuStats;
use crate::taint::TaintTracker;

/// Why [`Core::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The program committed a `halt`.
    Halted,
    /// The cycle limit elapsed first.
    CycleLimit,
    /// Control flow left the program image with nothing left in flight
    /// (e.g. an indirect jump to an unmapped address); no further progress
    /// is possible.
    Wedged,
    /// A [`RunGovernor`](crate::cancel::RunGovernor) checkpoint asked the
    /// run to stop ([`Core::run_governed`]); state is consistent and the
    /// run could in principle be continued.
    Cancelled,
}

/// Execution mode of the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Ordinary out-of-order execution.
    Normal,
    /// Runahead mode (paper §2.1): the stalling load pseudo-retired, all
    /// retirement is pseudo-retirement, INV bits propagate.
    Runahead(Episode),
}

/// One slot of the front-end delay line ([`FetchRing`]): an instruction
/// with its predecoded metadata, so rename never re-derives static facts.
/// `fetch` writes the fields in place and `dispatch` reads them out of the
/// slot; a `Fetched` is never built whole and moved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetched {
    pub pc: u64,
    pub inst: Inst,
    pub meta: UopMeta,
    /// First cycle at which dispatch may rename it (fetch cycle plus the
    /// front-end depth).
    pub available_at: u64,
    pub pred: Option<PredInfo>,
}

/// The front-end delay line: a FIFO ring of `fetch_queue` slots (any size;
/// it is not rounded to a power of two). `fetch` fills the tail slot field
/// by field ([`FetchRing::push_slot`]), and `dispatch` reads the front
/// slot's fields and then advances the head ([`FetchRing::pop_front`]).
///
/// Slots are materialised lazily, like `Rob`'s: the ring is reserved whole
/// on the first push that needs a new slot and then filled one push at a
/// time, so a core that never fetches (or a fork of a short queue) writes
/// no unused slots. While `slots` is still growing the ring has never
/// wrapped, so the tail is either an old slot or exactly `slots.len()`.
#[derive(Debug)]
pub(crate) struct FetchRing {
    slots: Vec<Fetched>,
    /// Slot of the oldest entry.
    head: usize,
    /// Number of live entries.
    len: usize,
    /// Ring size (`fetch_queue`).
    capacity: usize,
}

impl Clone for FetchRing {
    /// Copies only the live entries, packed to slot 0 in FIFO order (pool
    /// forks and `ff_check` shadows clone cores with fetches in flight).
    fn clone(&self) -> FetchRing {
        FetchRing {
            slots: self.iter().copied().collect(),
            head: 0,
            len: self.len,
            capacity: self.capacity,
        }
    }
}

impl FetchRing {
    /// Creates an empty ring of `capacity` slots.
    pub(crate) fn new(capacity: usize) -> FetchRing {
        FetchRing { slots: Vec::new(), head: 0, len: 0, capacity }
    }

    /// Whether nothing waits for dispatch.
    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether fetch must stop: every slot is taken.
    #[inline(always)]
    pub(crate) fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Slot of the `i`-th oldest entry.
    #[inline(always)]
    fn slot(&self, i: usize) -> usize {
        let s = self.head + i;
        if s >= self.capacity {
            s - self.capacity
        } else {
            s
        }
    }

    /// The oldest entry.
    #[inline(always)]
    pub(crate) fn front(&self) -> Option<&Fetched> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    /// Appends an entry and returns its slot, which still holds whatever
    /// the slot held last: the caller writes every field.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full (callers check [`FetchRing::is_full`]).
    #[inline(always)]
    pub(crate) fn push_slot(&mut self) -> &mut Fetched {
        assert!(!self.is_full(), "fetch queue overflow");
        let tail = self.slot(self.len);
        self.len += 1;
        if tail == self.slots.len() {
            self.grow();
        }
        &mut self.slots[tail]
    }

    /// Materialises the next slot of a ring that has not wrapped yet.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        self.slots.reserve_exact(self.capacity - self.slots.len());
        self.slots.push(Fetched {
            pc: 0,
            inst: Inst::Nop,
            meta: UopMeta::of(&Inst::Nop, 0),
            available_at: 0,
            pred: None,
        });
    }

    /// Removes the oldest entry (dispatch has read the fields it needs).
    #[inline(always)]
    pub(crate) fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop from an empty fetch queue");
        self.len -= 1;
        // A drained ring restarts at slot 0, as `Rob` does, so a front end
        // that keeps draining reuses the same host-cache-resident slots.
        self.head = if self.len == 0 { 0 } else { self.slot(1) };
    }

    /// Drops every entry (redirects, squashes, runahead exit). Keeps the
    /// allocation.
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Iterates oldest → youngest.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Fetched> {
        (0..self.len).map(|i| &self.slots[self.slot(i)])
    }
}

/// The slice of a ROB entry that (pseudo-)retirement consumes.
#[derive(Debug, Clone, Copy)]
struct RetireInfo {
    seq: u64,
    pc: u64,
    dest: Option<DestInfo>,
    is_load: bool,
    is_store: bool,
    is_halt: bool,
}

/// Prediction attached to a fetched control instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PredInfo {
    pub kind: BranchKind,
    pub taken: bool,
    pub target: u64,
    pub rsb_checkpoint: usize,
}

/// Runahead bookkeeping that lives across the episode.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunaheadMachinery {
    pub cache: Option<RunaheadCache>,
    /// Cleared cache allocation parked between episodes (entry/exit happen
    /// hundreds of times per run; reusing the buffers keeps the allocator
    /// off that path).
    pub cache_pool: Option<RunaheadCache>,
    pub checkpoint: Option<ArchCheckpoint>,
    pub rsb_checkpoint: usize,
    pub history_checkpoint: Option<Vec<u64>>,
}

/// The simulated processor core, including its memory hierarchy.
///
/// The core is generic over a [`PipelineObserver`] that receives typed
/// microarchitectural events ([`crate::probe`]). The default
/// [`NoopObserver`] is statically inert — a detached core compiles to
/// exactly the un-instrumented pipeline.
#[derive(Debug, Clone)]
pub struct Core<O: PipelineObserver = NoopObserver> {
    pub(crate) cfg: CpuConfig,
    /// The attached pipeline observer (see [`crate::probe`]).
    obs: O,
    pub(crate) mem: MemHierarchy,
    pub(crate) bp: BranchPredictor,
    pub(crate) regs: RegFile,
    pub(crate) rat: Rat,
    pub(crate) retire_rat: Rat,
    pub(crate) free: FreeLists,
    pub(crate) rob: Rob,
    pub(crate) sq: StoreQueue,
    pub(crate) lq_occupancy: usize,
    pub(crate) iq_occupancy: usize,
    pub(crate) fu: FuPool,
    pub(crate) program: Option<Arc<DecodedProgram>>,
    pub(crate) scope_map: HashMap<u64, u64>,
    // Front end.
    pub(crate) fetch_pc: u64,
    pub(crate) fetch_stalled_until: u64,
    pub(crate) fetch_halted: bool,
    /// The front-end delay line between fetch and rename.
    pub(crate) pipe: FetchRing,
    pub(crate) ipf_frontier: u64,
    /// Stream-prefetch probe memo: the last frontier line that hit L1I and
    /// the L1I content generation it was observed under. While the
    /// generation is unchanged the line is still resident, so re-probing it
    /// (after a redirect re-anchors the frontier) is skipped.
    ipf_probe_memo: (u64, u64),
    // Sequencing.
    pub(crate) next_seq: u64,
    pub(crate) cycle: u64,
    pub(crate) halted: bool,
    // Runahead.
    pub(crate) mode: Mode,
    pub(crate) ra: RunaheadMachinery,
    pub(crate) tracker: TaintTracker,
    pub(crate) secure: SecureState,
    pub(crate) strides: HashMap<u64, StrideEntry>,
    pub(crate) ra_backoff_until: u64,
    pub(crate) scheduled_flushes: TimerQueue<u64>,
    // Event-driven scheduling: completion events, wakeups, serializers
    // (the issue-ready set is a bit per `rob` slot).
    pub(crate) sched: Scheduler,
    pub(crate) stats: CpuStats,
    // Reusable per-cycle scratch buffers (the hot loop must not allocate).
    scratch_completed: Vec<u64>,
    scratch_resolutions: Vec<u64>,
    scratch_due: Vec<(u64, u64)>,
}

impl Core {
    /// Creates a detached core ([`NoopObserver`]) with empty caches and
    /// predictor state.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CpuConfig::validate`]).
    pub fn new(cfg: CpuConfig) -> Core {
        Core::with_observer(cfg, NoopObserver)
    }
}

impl<O: PipelineObserver> Core<O> {
    /// Creates a core with `obs` attached as its pipeline observer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CpuConfig::validate`]).
    pub fn with_observer(cfg: CpuConfig, obs: O) -> Core<O> {
        cfg.validate();
        let sl_entries = cfg.runahead.secure.sl_entries.max(1);
        Core {
            obs,
            mem: MemHierarchy::new(cfg.mem),
            bp: BranchPredictor::new(cfg.predictor),
            regs: RegFile::new(cfg.int_prf, cfg.fp_prf),
            rat: Rat::identity(),
            retire_rat: Rat::identity(),
            free: FreeLists::new(cfg.int_prf, cfg.fp_prf),
            rob: Rob::new(cfg.rob_entries),
            sq: StoreQueue::new(cfg.sq_entries),
            lq_occupancy: 0,
            iq_occupancy: 0,
            fu: FuPool::new(&cfg.fu),
            program: None,
            scope_map: HashMap::new(),
            fetch_pc: 0,
            fetch_stalled_until: 0,
            fetch_halted: true,
            pipe: FetchRing::new(cfg.fetch_queue),
            ipf_frontier: 0,
            ipf_probe_memo: (u64::MAX, 0),
            next_seq: 0,
            cycle: 0,
            halted: true,
            mode: Mode::Normal,
            ra: RunaheadMachinery::default(),
            tracker: TaintTracker::new(),
            secure: SecureState::new(SlCache::new(sl_entries)),
            strides: HashMap::new(),
            ra_backoff_until: 0,
            scheduled_flushes: TimerQueue::new(),
            sched: Scheduler::new(cfg.int_prf, cfg.fp_prf),
            stats: CpuStats::default(),
            scratch_completed: Vec::new(),
            scratch_resolutions: Vec::new(),
            scratch_due: Vec::new(),
            cfg,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// The attached pipeline observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Consumes the core, returning the observer with everything it saw.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// Hands an event to the observer. With an inert observer
    /// (`O::ACTIVE == false`) the whole call — including the event
    /// construction at the emission site — monomorphizes away.
    #[inline(always)]
    pub(crate) fn emit(&mut self, event: PipelineEvent) {
        if O::ACTIVE {
            self.obs.on_event(&event);
        }
    }

    /// Loads a program: architectural state is reset (registers zeroed,
    /// `r31` set to the configured stack top, PC at the entry point) while
    /// **microarchitectural state persists** — caches, predictor tables and
    /// DRAM contention carry over, which is what lets one program train
    /// structures another program will consult (the paper's threat model).
    pub fn load_program(&mut self, program: &Program) {
        // Predecode once: every instruction is lowered to its `UopMeta`
        // here, and the pipeline never re-derives static facts per cycle.
        self.load_program_predecoded(Arc::new(DecodedProgram::new(program.clone())));
    }

    /// [`Core::load_program`] for an already-predecoded program. The `Arc`
    /// is stored as-is, so campaign forks running the same attack program
    /// share one `DecodedProgram` (it is immutable after construction)
    /// instead of re-lowering and re-allocating it per session.
    pub fn load_program_predecoded(&mut self, decoded: Arc<DecodedProgram>) {
        self.flush_pipeline();
        self.rat = Rat::identity();
        self.retire_rat = Rat::identity();
        self.free = FreeLists::new(self.cfg.int_prf, self.cfg.fp_prf);
        self.regs = RegFile::new(self.cfg.int_prf, self.cfg.fp_prf);
        let sp = self.retire_rat.get(ArchReg::Int(IntReg::SP));
        self.regs.restore(sp, self.cfg.stack_top);
        let program = decoded.program();
        self.scope_map = program.branch_scopes().iter().map(|s| (s.branch_pc, s.end_pc)).collect();
        self.fetch_pc = program.entry();
        self.program = Some(decoded);
        self.fetch_halted = false;
        self.halted = false;
        self.mode = Mode::Normal;
        self.ra = RunaheadMachinery::default();
        self.tracker.reset();
        self.strides.clear();
    }

    /// Clears all in-flight state (used on program load).
    fn flush_pipeline(&mut self) {
        self.rob.clear();
        self.sq.clear();
        self.pipe.clear();
        self.lq_occupancy = 0;
        self.iq_occupancy = 0;
        self.fu.clear();
        self.sched.clear_inflight();
        self.fetch_stalled_until = 0;
    }

    /// Current cycle count (monotonic across [`Core::load_program`] calls so
    /// `rdcycle` deltas remain meaningful between programs).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the machine has committed a `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Resets statistics (state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CpuStats::default();
        self.mem.reset_stats();
        self.bp.reset_stats();
    }

    /// The memory subsystem.
    pub fn mem(&self) -> &MemHierarchy {
        &self.mem
    }

    /// Mutable access to the memory subsystem (host-side setup: writing
    /// arrays, warming or flushing lines).
    pub fn mem_mut(&mut self) -> &mut MemHierarchy {
        &mut self.mem
    }

    /// The branch predictor.
    pub fn predictor(&self) -> &BranchPredictor {
        &self.bp
    }

    /// Committed (architectural) value of an integer register.
    pub fn read_int_reg(&self, r: IntReg) -> u64 {
        self.regs.value(self.retire_rat.get(ArchReg::Int(r)))
    }

    /// Committed (architectural) value of a floating-point register.
    pub fn read_fp_reg(&self, r: specrun_isa::FpReg) -> u64 {
        self.regs.value(self.retire_rat.get(ArchReg::Fp(r)))
    }

    /// FNV-1a fingerprint of the committed architectural state: every
    /// integer and floating-point register plus the halt flag. Two runs of
    /// the same program on identically configured cores must agree — this
    /// is the oracle `specrun-lab fuzz`'s determinism invariant re-runs
    /// plans against. Microarchitectural state (caches, predictors, cycle
    /// count) is deliberately excluded: the fingerprint answers "did the
    /// program compute the same thing", not "did it take the same time".
    pub fn arch_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for i in 0..specrun_isa::NUM_INT_REGS {
            let r = IntReg::new(i as u8).expect("index in range");
            mix(self.read_int_reg(r));
        }
        for i in 0..specrun_isa::NUM_FP_REGS {
            let r = specrun_isa::FpReg::new(i as u8).expect("index in range");
            mix(self.read_fp_reg(r));
        }
        mix(u64::from(self.halted));
        h
    }

    /// Injects a host-scheduled `clflush` of `addr` at `cycle` — models the
    /// co-resident attacker thread of the paper's §5.3 scenario ➂, which
    /// re-flushes the trigger line to chain runahead episodes.
    pub fn schedule_flush(&mut self, cycle: u64, addr: u64) {
        self.scheduled_flushes.push(cycle, addr);
    }

    /// Runs until `halt` commits, progress becomes impossible, or
    /// `max_cycles` cycles elapse.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        self.run_governed(max_cycles, &crate::cancel::NeverCancel)
    }

    /// [`Core::run`] under a [`RunGovernor`](crate::cancel::RunGovernor):
    /// every [`CHECK_INTERVAL_CYCLES`](crate::cancel::CHECK_INTERVAL_CYCLES)
    /// simulated cycles the governor is polled (publishing a heartbeat) and
    /// may stop the run with [`RunExit::Cancelled`]. With a statically
    /// inactive governor (`G::ACTIVE == false` — the [`Core::run`] default)
    /// the checkpoint site compiles away entirely, so the ungoverned loop
    /// pays nothing; the perf gate enforces that. A run started under an
    /// already-tripped governor stops before its first cycle.
    pub fn run_governed<G: crate::cancel::RunGovernor>(
        &mut self,
        max_cycles: u64,
        governor: &G,
    ) -> RunExit {
        if G::ACTIVE && governor.tripped() {
            return RunExit::Cancelled;
        }
        let limit = self.cycle.saturating_add(max_cycles);
        let mut exit = RunExit::CycleLimit;
        let mut next_check = self.cycle.saturating_add(crate::cancel::CHECK_INTERVAL_CYCLES);
        while !self.halted && self.cycle < limit {
            let acted = self.step();
            if self.fetch_halted
                && !self.halted
                && self.pipe.is_empty()
                && self.rob.is_empty()
                && !self.in_runahead()
            {
                exit = RunExit::Wedged;
                break;
            }
            // `>=` rather than `==`: fast-forward can jump the cycle
            // counter past the threshold in one step.
            if G::ACTIVE && self.cycle >= next_check {
                if governor.checkpoint(self.cycle, self.stats.committed) {
                    exit = RunExit::Cancelled;
                    break;
                }
                next_check = self.cycle.saturating_add(crate::cancel::CHECK_INTERVAL_CYCLES);
            }
            if self.cfg.fast_forward && !acted {
                self.fast_forward(limit);
            }
        }
        if self.halted {
            exit = RunExit::Halted;
        }
        // Land any fills that completed during the run so host-side
        // residency checks see them. A halted program's last loads may
        // still be travelling; drain exactly to the latest pending fill
        // (the MSHR view of the event queue) rather than a fixed slack.
        let settle =
            self.mem.latest_inflight_completion().map_or(self.cycle, |at| at.max(self.cycle));
        self.mem.drain_completed(settle);
        exit
    }

    /// Advances the machine by one cycle. Returns whether any stage acted:
    /// something was written back, (pseudo-)retired, issued, dispatched or
    /// fetched. [`Core::run`] probes for a fast-forward window only after
    /// a step in which none did (see [`CpuConfig::fast_forward`]).
    pub fn step(&mut self) -> bool {
        self.cycle += 1;
        let now = self.cycle;
        self.stats.cycles += 1;
        self.apply_scheduled_flushes(now);
        self.check_runahead_exit(now);
        self.drain_sl_fills(now);
        let wrote_back = self.writeback(now);
        let retired = self.commit(now);
        let issued = self.issue(now);
        let dispatched = self.dispatch(now);
        let fetched = self.fetch(now);
        wrote_back || retired || issued || dispatched || fetched
    }

    fn apply_scheduled_flushes(&mut self, now: u64) {
        // O(1) peek when the queue is idle; due events pop in insertion
        // order, matching the retired `retain` sweep.
        while let Some(addr) = self.scheduled_flushes.pop_due(now) {
            self.mem.flush_line(addr, now);
            self.emit(PipelineEvent::Flush { cycle: now, line: self.mem.line_of(addr) });
        }
    }

    pub(crate) fn in_runahead(&self) -> bool {
        matches!(self.mode, Mode::Runahead(_))
    }

    fn seq_of_head(&self) -> Option<u64> {
        self.rob.head().map(|e| e.seq)
    }

    // ------------------------------------------------------------------
    // Idle-cycle fast-forward
    // ------------------------------------------------------------------

    /// Jumps the cycle counter to just before the next scheduled event when
    /// the whole pipeline is provably quiescent (see
    /// [`Core::next_quiet_event`]). Equivalent to stepping the skipped
    /// cycles one at a time: statistics advance only by the skipped cycle
    /// count, all other state is untouched.
    ///
    /// [`Core::run_governed`] probes only after a step in which no stage
    /// acted ([`Core::step`] returns `false`). A quiet window is entered
    /// one idle step late at most — a quiet pipeline's next step is idle by
    /// definition — and a busy pipeline never pays for a probe. Where the
    /// probe is made changes host time only: every jump is proven, so the
    /// simulated machine is the same whichever idle steps probe.
    fn fast_forward(&mut self, limit: u64) {
        let Some(event) = self.next_quiet_event() else { return };
        debug_assert!(event > self.cycle, "quiet event must lie in the future");
        let target = event.min(limit).saturating_sub(1);
        if target <= self.cycle {
            return;
        }
        let skipped = target - self.cycle;
        if self.cfg.ff_check {
            self.verify_fast_forward(skipped);
        }
        self.cycle = target;
        self.stats.cycles += skipped;
    }

    /// If no pipeline stage can change any state before some future cycle,
    /// returns that cycle (the earliest scheduled event). Returns `None`
    /// when any stage could act on the next step, or when no event is
    /// pending at all.
    ///
    /// The argument is inductive: every state change the core can make —
    /// writeback, commit, runahead entry/exit, issue, dispatch, fetch,
    /// stream prefetch, SL-fill drain, scheduled flushes — is shown below
    /// to be impossible *now* for a reason that can only lapse at one of the
    /// collected event cycles. Since the state is therefore identical at
    /// `now + 1`, the same reasoning applies until the earliest event.
    ///
    /// With the event-driven scheduler this check reads one issue candidate
    /// off the ready bits instead of scanning the ROB: every `Executing`
    /// entry's completion is in the event queue (its minimum is the
    /// earliest writeback), and every `Waiting` entry outside the ready set
    /// is operand-blocked, so the pipeline can jump even while instructions are *in flight* — the busy-but-stalled state
    /// (e.g. runahead mcf waiting on a DRAM batch) where the old full-scan
    /// check was too expensive to pay every cycle and bailed out behind a
    /// minimum-stall heuristic.
    fn next_quiet_event(&mut self) -> Option<u64> {
        if self.halted {
            return None;
        }
        let now = self.cycle;
        let mut next = u64::MAX;

        // Cheap O(1) gates first: an actively fetching or dispatching core
        // is the common non-quiescent state.

        // Fetch and the stream prefetcher.
        if !self.fetch_halted {
            let stalled = self.fetch_stalled_until > now;
            let has_room = !self.pipe.is_full();
            if !stalled && has_room {
                // Fetch is live and has room: it will act next step. This
                // is the common busy-pipeline case — reject it before the
                // prefetcher check below pays a division.
                return None;
            }
            // The prefetcher must have saturated its lookahead, or it will
            // issue requests next step regardless of the demand stall.
            let depth = self.cfg.ifetch_prefetch_lines;
            if depth > 0 && !self.ipf_saturated(depth) {
                return None;
            }
            if stalled && has_room {
                // Demand fetch resumes at the stall deadline — an event
                // only if the pipe has room by then; a full pipe gates the
                // resumption on dispatch, which is tracked below.
                next = next.min(self.fetch_stalled_until);
            }
        }

        // Dispatch: the pipe front either matures at a known cycle or is
        // blocked on a back-end resource that only commits/issues free up.
        if let Some(front) = self.pipe.front() {
            if front.available_at > now {
                next = next.min(front.available_at);
            } else {
                let blocked = self.rob.is_full()
                    || self.iq_occupancy >= self.cfg.iq_entries
                    || (front.meta.is_load() && self.lq_occupancy >= self.cfg.lq_entries)
                    || (front.meta.needs_sq() && self.sq.is_full())
                    || front.meta.dest.is_some_and(|d| self.free.available(RegClass::of(d)) == 0);
                if !blocked {
                    return None;
                }
            }
        }

        // Commit: a Done head would (pseudo-)retire next step; any other
        // head advances only on a tracked completion event. The commit-side
        // observations while a DRAM load stalls at the head (stall-window
        // maximum, runahead entry trigger) are frozen during quiescence:
        // occupancies cannot change, and the only time-varying input — the
        // useless-episode backoff — is collected below.
        if self.rob.head().is_some_and(|h| h.state == EntryState::Done) {
            return None;
        }

        // Host-scheduled flushes fire at fixed cycles.
        if let Some(at) = self.scheduled_flushes.peek_at() {
            if at <= now {
                return None;
            }
            next = next.min(at);
        }
        // Runahead exit is scheduled for the stalling load's data return.
        if let Mode::Runahead(ep) = self.mode {
            if ep.exit_at <= now {
                return None;
            }
            next = next.min(ep.exit_at);
        }
        // SL-cache fills land at their DRAM completion cycles.
        if let Some(at) = self.secure.pending_fills.peek_at() {
            if at <= now {
                return None;
            }
            next = next.min(at);
        }
        // Runahead entry while a DRAM load stalls at the head: the trigger
        // conditions (queue occupancies, policy) are frozen while quiescent,
        // except the useless-episode backoff, which lapses at a known cycle.
        if !self.in_runahead() && self.ra_backoff_until > now {
            next = next.min(self.ra_backoff_until);
        }

        // Execute/writeback: every `Executing` entry has a completion event
        // in the queue, so its minimum (after shedding stale events left by
        // squashes) is the earliest possible writeback.
        self.prune_stale_completions();
        if let Some((at, _)) = self.sched.completions.peek() {
            if at <= now {
                return None;
            }
            next = next.min(at);
        }

        // Issue: `Waiting` entries outside the ready set are blocked on an
        // operand whose production is itself a tracked completion event (or
        // a runahead entry/exit, both tracked), or are serializers behind
        // the head, which reach it only through commit (a Done head,
        // rejected above). Ready entries younger than a pending serializer
        // stay pinned until it completes — a tracked event; any other
        // issue candidate, which exists iff the oldest one is not younger
        // than the gate, may act (or at least probe a functional unit or
        // the store queue) next step: not quiescent.
        let gate = self.sched.serializer_gate();
        if self.rob.next_ready(0).is_some_and(|i| gate.map_or(true, |g| self.rob.nth(i).seq <= g)) {
            return None;
        }

        (next != u64::MAX).then_some(next)
    }

    /// Discards completion events whose ROB entry no longer exists or is no
    /// longer `Executing` with that deadline (misprediction squashes and
    /// runahead-entry poisoning orphan their events).
    fn prune_stale_completions(&mut self) {
        while let Some((at, seq)) = self.sched.completions.peek() {
            let live = self
                .rob
                .get(seq)
                .is_some_and(|e| e.state == EntryState::Executing && e.ready_at == at);
            if live {
                break;
            }
            self.sched.completions.pop();
        }
    }

    /// Whether a `Waiting` entry cannot issue (nor make partial progress,
    /// such as a store's address phase) until an operand is produced. This
    /// is the scan-side twin of the wakeup network's ready criterion, used
    /// by the `sched_check` audit.
    fn stuck_on_operands(&self, e: &RobEntry) -> bool {
        match e.inst {
            // Two-phase stores make progress per phase; mirror the operand
            // layout of `issue_store_two_phase`.
            Inst::Store { .. } | Inst::FpStore { .. } => {
                let (data_phys, base_phys) = store_operand_phys(&e.inst, &e.srcs);
                let gating = if e.addr_ready { data_phys } else { base_phys };
                gating.is_some_and(|p| !self.regs.is_ready(p))
            }
            // Everything else issues in one shot once all sources are
            // ready; a single pending source pins it (INV counts as ready —
            // poisoned registers complete instantly at issue).
            _ => e.srcs.iter().flatten().any(|p| !self.regs.is_ready(*p)),
        }
    }

    /// Fast-forward self-check (`CpuConfig::ff_check`): steps a cloned core
    /// through the window about to be skipped and asserts that nothing but
    /// the cycle counter advanced.
    fn verify_fast_forward(&self, skipped: u64) {
        let mut shadow = self.clone();
        shadow.cfg.ff_check = false;
        shadow.cfg.fast_forward = false;
        for _ in 0..skipped {
            shadow.step();
        }
        let mut expected = self.stats;
        expected.cycles += skipped;
        assert_eq!(
            shadow.stats, expected,
            "fast-forward would skip a state change over {skipped} cycles at cycle {}",
            self.cycle
        );
        assert_eq!(shadow.cycle, self.cycle + skipped);
    }

    // ------------------------------------------------------------------
    // Writeback
    // ------------------------------------------------------------------

    /// Writes back every completion due at `now`; returns whether any was.
    ///
    /// The three scratch buffers stay in place: each loop below indexes
    /// (or iterates) its buffer while the stages it calls borrow the rest
    /// of the core, and none of those touches the buffers.
    fn writeback(&mut self, now: u64) -> bool {
        // Idle exit: nothing is due and this cycle's wheel slot holds no
        // stale event to shed, so no buffer is touched.
        if self.sched.completions.nothing_due(now) {
            if self.cfg.sched_check {
                self.check_writeback_set(&[], now);
            }
            return false;
        }
        // Pop due completion events instead of scanning the ROB. Issue
        // always schedules completions in the future and writeback runs on
        // every live cycle, so all *live* due events carry the same
        // `ready_at` and sorting by `(ready_at, seq)` reproduces the old
        // oldest-first scan order exactly (stale events sort first but are
        // dropped by the liveness check anyway). Stale events are ones left
        // behind by squashes or runahead-entry poisoning.
        self.scratch_due.clear();
        self.sched.completions.pop_due_into(now, &mut self.scratch_due);
        self.scratch_due.sort_unstable();
        self.scratch_completed.clear();
        for &(at, seq) in &self.scratch_due {
            let live = self
                .rob
                .get(seq)
                .is_some_and(|e| e.state == EntryState::Executing && e.ready_at == at);
            if live {
                self.scratch_completed.push(seq);
            }
        }
        if self.cfg.sched_check {
            self.check_writeback_set(&self.scratch_completed, now);
        }
        self.scratch_resolutions.clear();
        for k in 0..self.scratch_completed.len() {
            let seq = self.scratch_completed[k];
            let e = self.rob.get_mut(seq).expect("entry exists");
            // Loads from memory read their data at completion so stores
            // that committed in the meantime are visible.
            if e.is_load && !e.inv && e.load_level.is_some() {
                if let Some(addr) = e.load_addr {
                    e.result = self.mem.read_data(addr, u64::from(e.meta.mem_width));
                }
            }
            let is_ret = e.meta.ctrl == CtrlClass::Return;
            let result = e.result;
            let aux_sp = e.aux_sp;
            let serializing = e.meta.is_serializing();
            let mut dest_write: Option<(PhysRef, u64, bool, u64)> = None;
            if let Some(d) = e.dest {
                // `Ret` writes the SP update, not the loaded value.
                let value = if is_ret { aux_sp } else { result };
                dest_write = Some((d.new, value, e.inv, e.taint));
            }
            e.state = EntryState::Done;
            let resolve = e.branch.is_some_and(|b| !b.resolved) && !e.inv;
            if resolve {
                if let Some(b) = e.branch.as_mut() {
                    if is_ret {
                        b.actual_target = result;
                        b.actual_taken = true;
                    }
                }
                self.scratch_resolutions.push(seq);
            }
            if serializing {
                // A completed serializer stops gating younger issue.
                self.sched.retire_serializer(seq);
            }
            if let Some((phys, value, inv, taint)) = dest_write {
                if inv {
                    self.produce_inv(phys);
                } else {
                    self.produce(phys, value);
                }
                self.regs.set_taint(phys, taint);
            }
        }
        // Branches resolve after every completion of the cycle is written
        // back, oldest first.
        for k in 0..self.scratch_resolutions.len() {
            self.resolve_branch(self.scratch_resolutions[k], now);
        }
        !self.scratch_completed.is_empty()
    }

    // ------------------------------------------------------------------
    // Operand-wakeup network
    // ------------------------------------------------------------------

    /// Produces a valid value into `p` and wakes its waiters.
    pub(crate) fn produce(&mut self, p: PhysRef, value: u64) {
        self.regs.write(p, value);
        self.wake_reg(p);
    }

    /// Produces an INV (poisoned) result into `p` and wakes its waiters —
    /// poison satisfies operand readiness just like a valid value.
    pub(crate) fn produce_inv(&mut self, p: PhysRef) {
        self.regs.write_inv(p);
        self.wake_reg(p);
    }

    /// Delivers wakeups for a newly produced register: every waiter's
    /// pending-operand count drops, and entries reaching zero join the
    /// issue-ready set — except a serializer behind the ROB head, which
    /// `commit` marks once it becomes the head (see `Rob::wake`). Waiter
    /// lists never hold live entries for a *reallocated* register — a
    /// physical register is freed only when the instruction that
    /// overwrote its architectural mapping commits, by which point every
    /// reader of the old mapping has retired (or, on a squash, the readers
    /// died in the same squash) — so a stale sequence number here simply
    /// no longer resolves in the ROB and is skipped.
    fn wake_reg(&mut self, p: PhysRef) {
        let mut woken = std::mem::take(&mut self.sched.scratch);
        self.sched.take_waiters(p, &mut woken);
        for seq in woken.drain(..) {
            if self.rob.wake(seq) {
                self.stats.sched_wakeups += 1;
            }
        }
        self.sched.scratch = woken;
    }

    /// `sched_check`: recomputes writeback's due set with the retired full
    /// ROB scan and asserts the event queue delivered exactly it, in order.
    fn check_writeback_set(&self, completed: &[u64], now: u64) {
        let expected: Vec<u64> = self
            .rob
            .iter()
            .filter(|e| e.state == EntryState::Executing && e.ready_at <= now)
            .map(|e| e.seq)
            .collect();
        assert_eq!(
            completed,
            &expected[..],
            "sched_check: completion events diverge from the ROB scan at cycle {now}"
        );
    }

    /// `sched_check`: audits the ready set and serializer gate against
    /// the retired scan-based issue logic. A `Waiting` entry is ready
    /// exactly when its gating operands are produced and it is not a
    /// serializer behind the ROB head; no other entry, live or freed, has
    /// its ready bit set.
    fn check_issue_invariants(&self) {
        self.rob.check_ready_bits();
        let scan_gate = self
            .rob
            .iter()
            .find(|e| e.inst.is_serializing() && e.state != EntryState::Done)
            .map(|e| e.seq);
        assert_eq!(
            self.sched.serializer_gate(),
            scan_gate,
            "sched_check: serializer gate diverges from the ROB scan"
        );
        let head_seq = self.seq_of_head();
        for e in self.rob.iter() {
            if e.state == EntryState::Waiting {
                let behind_head = e.meta.is_serializing() && head_seq != Some(e.seq);
                let expected = !self.stuck_on_operands(e) && !behind_head;
                assert_eq!(
                    self.rob.is_ready(e.seq),
                    expected,
                    "sched_check: waiting entry {} (pc {:#x}) is {} the ready set",
                    e.seq,
                    e.pc,
                    if expected { "absent from" } else { "wrongly in" }
                );
            } else {
                assert!(
                    !self.rob.is_ready(e.seq),
                    "sched_check: non-waiting entry {} in the ready set",
                    e.seq
                );
            }
        }
    }

    /// Resolves a branch whose operands were valid. May squash.
    fn resolve_branch(&mut self, seq: u64, now: u64) {
        let Some(e) = self.rob.get_mut(seq) else { return };
        let pc = e.pc;
        let Some(b) = e.branch.as_mut() else { return };
        if b.resolved {
            return;
        }
        b.resolved = true;
        let info = *b;
        let mispredicted = info.actual_taken != info.predicted_taken
            || (info.actual_taken && info.actual_target != info.predicted_target);
        self.emit(PipelineEvent::BranchResolved {
            cycle: now,
            pc,
            taken: info.actual_taken,
            mispredicted,
        });
        let in_runahead = self.in_runahead();
        let train = !in_runahead || self.cfg.runahead.train_predictor;
        match info.kind {
            BranchKind::Conditional => {
                self.stats.branches += 1;
                if mispredicted {
                    self.stats.branch_mispredicts += 1;
                }
                if train {
                    self.bp.resolve_conditional(pc, info.actual_taken, mispredicted);
                }
            }
            BranchKind::Indirect | BranchKind::Call => {
                if train {
                    self.bp.resolve_target(pc, info.actual_target, mispredicted);
                }
            }
            BranchKind::Return => {
                if train {
                    self.bp.resolve_return(mispredicted);
                }
            }
            BranchKind::Direct => {}
        }
        // Secure-runahead verdict bookkeeping (Algorithm 1's S[] / deletion).
        if matches!(info.kind, BranchKind::Conditional) {
            self.secure_on_resolution(pc, info.actual_taken, info.scope_id, in_runahead);
        }
        if mispredicted {
            let redirect = if info.actual_taken { info.actual_target } else { pc + INST_BYTES };
            self.squash_after(seq, now);
            // Repair the RSB to just-after this branch's own effects.
            self.bp.rsb_restore(info.rsb_checkpoint);
            match info.kind {
                BranchKind::Call => {
                    self.bp.rsb_mut().push(pc + INST_BYTES);
                }
                BranchKind::Return => {
                    self.bp.rsb_mut().pop();
                }
                _ => {}
            }
            self.redirect_fetch(redirect, now + 1);
        }
    }

    /// Removes all entries younger than `seq`, unwinding renames.
    pub(crate) fn squash_after(&mut self, seq: u64, now: u64) {
        self.sched.squash_younger(seq);
        // Unwind youngest-first, reading each entry in its slot.
        let mut squashed = 0;
        while let Some(e) = self.rob.pop_younger(seq) {
            if let Some(d) = e.dest {
                self.rat.set(d.arch, d.prev);
                self.free.free(d.new);
            }
            if e.is_load {
                self.lq_occupancy = self.lq_occupancy.saturating_sub(1);
            }
            if e.state == EntryState::Waiting {
                self.iq_occupancy = self.iq_occupancy.saturating_sub(1);
            }
            squashed += 1;
        }
        self.stats.squashed += squashed;
        self.emit(PipelineEvent::Squash { cycle: now, squashed });
        self.sq.squash_younger(seq);
        self.pipe.clear();
    }

    /// Points fetch at `target` starting from cycle `from` (any stall
    /// belonging to the abandoned path is discarded).
    pub(crate) fn redirect_fetch(&mut self, target: u64, from: u64) {
        self.fetch_pc = target;
        self.fetch_stalled_until = from;
        self.fetch_halted = false;
        self.pipe.clear();
    }

    // ------------------------------------------------------------------
    // Commit / pseudo-retire
    // ------------------------------------------------------------------

    /// (Pseudo-)retires up to `width` Done entries from the ROB head;
    /// returns whether any left.
    fn commit(&mut self, now: u64) -> bool {
        let mut retired = false;
        for _ in 0..self.cfg.width {
            let Some(head) = self.rob.head() else { break };
            if head.state != EntryState::Done {
                // A DRAM-bound load stalling at the head: record the window
                // statistic and consider entering runahead.
                if head.is_load
                    && head.state == EntryState::Executing
                    && head.load_level == Some(HitLevel::Mem)
                    && head.ready_at > now
                {
                    let behind = self.rob.len() as u64 - 1;
                    if behind > self.stats.max_stall_window {
                        self.stats.max_stall_window = behind;
                    }
                    if !self.in_runahead() && self.runahead_trigger_met() {
                        self.enter_runahead(now);
                    }
                }
                break;
            }
            // Retirement needs only a handful of the entry's fields; copy
            // them out and discard the entry in place instead of moving the
            // whole ~200-byte struct out of the buffer.
            let retire = RetireInfo {
                seq: head.seq,
                pc: head.pc,
                dest: head.dest,
                is_load: head.is_load,
                is_store: head.is_store,
                is_halt: head.meta.is_halt(),
            };
            self.rob.pop_head_discard();
            retired = true;
            if self.in_runahead() {
                self.pseudo_retire(retire);
            } else {
                self.commit_entry(retire, now);
                if self.halted {
                    break;
                }
            }
        }
        if retired {
            // A serializer waits off the ready set until it is the
            // oldest instruction (all older work, stores included, has
            // committed); it issues in the same cycle it reaches the head.
            if let Some(h) = self.rob.head() {
                if h.state == EntryState::Waiting && h.meta.is_serializing() && h.wait_count == 0 {
                    self.rob.mark_ready_nth(0);
                }
            }
        }
        retired
    }

    fn commit_entry(&mut self, e: RetireInfo, now: u64) {
        if let Some(d) = e.dest {
            self.retire_rat.set(d.arch, d.new);
            self.free.free(d.prev);
        }
        if e.is_load {
            self.lq_occupancy = self.lq_occupancy.saturating_sub(1);
            self.stats.loads += 1;
        }
        if e.is_store {
            if let Some(se) = self.sq.release(e.seq) {
                let addr = se.addr.expect("committed store has an address");
                if se.is_flush {
                    self.mem.flush_line(addr, now);
                    self.emit(PipelineEvent::Flush { cycle: now, line: self.mem.line_of(addr) });
                } else {
                    let access = self.mem.access(addr, now, AccessKind::Store, FillPolicy::Normal);
                    if access.filled {
                        self.emit(PipelineEvent::CacheFill {
                            cycle: now,
                            level: access.level,
                            line: self.mem.line_of(addr),
                            transient: false,
                        });
                    }
                    self.mem.write_data(addr, se.width, se.value.unwrap_or(0));
                    self.stats.stores += 1;
                }
            }
        }
        if e.is_halt {
            self.halted = true;
        }
        self.stats.committed += 1;
        self.emit(PipelineEvent::Commit { cycle: now, pc: e.pc });
    }

    fn pseudo_retire(&mut self, e: RetireInfo) {
        if let Some(d) = e.dest {
            self.retire_rat.set(d.arch, d.new);
            self.free.free(d.prev);
        }
        if e.is_load {
            self.lq_occupancy = self.lq_occupancy.saturating_sub(1);
        }
        if e.is_store {
            // Runahead stores touched only the runahead cache at issue.
            self.sq.release(e.seq);
        }
        self.stats.pseudo_retired += 1;
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Issues up to `width` ready entries in program order; returns whether
    /// any left `Waiting`.
    fn issue(&mut self, now: u64) -> bool {
        if self.cfg.sched_check {
            self.check_issue_invariants();
        }
        // Idle exit: no entry is an issue candidate.
        if !self.rob.has_ready() {
            return false;
        }
        let mut issued = 0usize;
        // The oldest in-flight serializer blocks everything younger, even in
        // the cycle it issues itself (it stops gating only once Done). If it
        // is squashed mid-loop the stale gate is harmless: every entry the
        // gate would wrongly block is younger and died in the same squash.
        let gate = self.sched.serializer_gate();
        // Walk the ready bits in program order through a cursor (a position
        // from the ROB head, which issue never moves), so wakeups delivered
        // mid-issue (an older entry poisoning its INV destination) are
        // picked up this same cycle if they lie past the cursor, exactly
        // like the in-order scan, while a squash (only ever of entries past
        // the cursor) takes their bits with them.
        let mut cursor = 0;
        while issued < self.cfg.width {
            let Some(i) = self.rob.next_ready(cursor) else { break };
            cursor = i + 1;
            // Gather operand state without holding a ROB borrow.
            let e = self.rob.nth(i);
            if gate.is_some_and(|g| e.seq > g) {
                break;
            }
            debug_assert!(e.state == EntryState::Waiting, "ready set holds only Waiting entries");
            let (seq, inst, meta, pc, srcs) = (e.seq, e.inst, e.meta, e.pc, e.srcs);
            if self.try_issue_entry(seq, inst, meta, pc, srcs, now) {
                issued += 1;
                self.rob.unmark_ready_nth(i);
                self.iq_occupancy = self.iq_occupancy.saturating_sub(1);
            }
        }
        issued > 0
    }

    /// Attempts to issue one entry (its invariant fields pre-gathered by
    /// the caller's single ROB lookup). Returns whether it left `Waiting`.
    #[allow(clippy::too_many_arguments)]
    fn try_issue_entry(
        &mut self,
        seq: u64,
        inst: Inst,
        meta: UopMeta,
        pc: u64,
        srcs: [Option<PhysRef>; 3],
        now: u64,
    ) -> bool {
        // Stores split into address generation (base ready) and data
        // delivery (data ready), so younger loads can disambiguate without
        // waiting for the store's data.
        if meta.is_data_store() {
            return self.issue_store_two_phase(seq, inst, now);
        }
        let mut vals = [0u64; 3];
        let mut inv = false;
        let mut taint = 0u64;
        for (i, src) in srcs.iter().enumerate() {
            if let Some(phys) = src {
                if !self.regs.is_ready(*phys) {
                    return false;
                }
                vals[i] = self.regs.value(*phys);
                inv |= self.regs.is_inv(*phys);
                taint |= self.regs.taint(*phys);
            }
        }
        // Precise runahead executes only the address-generating slices;
        // suppressed work completes instantly as INV.
        if self.runahead_suppressed(&inst) {
            let e = self.rob.get_mut(seq).expect("entry exists");
            e.state = EntryState::Done;
            e.inv = true;
            let dest = e.dest;
            if let Some(d) = dest {
                self.produce_inv(d.new);
            }
            return true;
        }
        match inst {
            Inst::RdCycle { .. } => {
                // Serializing: the scheduler queues it only at the ROB head.
                debug_assert_eq!(self.seq_of_head(), Some(seq), "serializer issued off the head");
                self.finish_alu(seq, now, 1, now, false, 0)
            }
            Inst::Branch { cond, rs1, rs2, offset } => {
                self.issue_branch(seq, pc, cond, rs1, rs2, offset, vals, inv, taint, now)
            }
            Inst::Load { .. } | Inst::FpLoad { .. } | Inst::Ret => {
                self.issue_load(seq, pc, inst, vals, inv, taint, now)
            }
            Inst::Flush { .. } => self.issue_store(seq, inst, vals, inv, taint, now),
            Inst::Call { offset } => {
                self.issue_call(seq, pc, Some(offset), None, vals, inv, taint, now)
            }
            Inst::CallInd { .. } => {
                self.issue_call(seq, pc, None, Some(vals[0]), vals, inv, taint, now)
            }
            Inst::JumpInd { base, offset } => {
                if inv && self.in_runahead() {
                    // An INV-target indirect jump never resolves: the (BTB)
                    // prediction steers the rest of the episode — the
                    // SpectreBTB-in-runahead primitive.
                    self.stats.inv_unresolved_branches += 1;
                    self.skip_inv_park(seq, now);
                    let e = self.rob.get_mut(seq).expect("entry exists");
                    e.state = EntryState::Done;
                    e.inv = true;
                    e.taint = taint;
                    return true;
                }
                let Some(latency) = self.fu.try_issue(FuKind::IntAdd, now) else { return false };
                let base_val = if base.is_zero() { 0 } else { vals[0] };
                let target = base_val.wrapping_add_signed(i64::from(offset));
                let e = self.rob.get_mut(seq).expect("entry exists");
                e.state = EntryState::Executing;
                e.ready_at = now + latency;
                e.taint = taint;
                if let Some(b) = e.branch.as_mut() {
                    b.actual_taken = true;
                    b.actual_target = target;
                }
                self.sched.completions.schedule(now, now + latency, seq);
                true
            }
            _ => {
                let result = eval_simple(&inst, vals, now);
                let Some(latency) = self.fu.try_issue(FuKind::of_class(meta.exec), now) else {
                    return false;
                };
                self.finish_alu(seq, now, latency, result, inv, taint)
            }
        }
    }

    /// The skip-INV mitigation ("the branch is skipped rather than
    /// unresolved", §6): suppress speculation past unresolvable control
    /// flow by squashing its shadow and parking fetch for the episode.
    /// Applies uniformly to INV conditional branches, indirect jumps and
    /// returns — following either static direction of an unresolvable
    /// branch would still execute attacker-chosen code.
    fn skip_inv_park(&mut self, seq: u64, now: u64) {
        if !self.cfg.runahead.secure.skip_inv_branches || !self.in_runahead() {
            return;
        }
        self.stats.skipped_inv_branches += 1;
        let exit_at = match self.mode {
            Mode::Runahead(ep) => ep.exit_at,
            Mode::Normal => now,
        };
        self.squash_after(seq, now);
        self.fetch_stalled_until = self.fetch_stalled_until.max(exit_at);
        self.fetch_halted = true;
    }

    /// Completes issue of a simple (register-result) operation.
    fn finish_alu(
        &mut self,
        seq: u64,
        now: u64,
        latency: u64,
        result: u64,
        inv: bool,
        taint: u64,
    ) -> bool {
        let e = self.rob.get_mut(seq).expect("entry exists");
        e.state = EntryState::Executing;
        e.ready_at = now + latency;
        e.result = result;
        e.inv = inv;
        e.taint = taint;
        if let Some(b) = e.branch.as_mut() {
            // Only direct jumps reach this path; their prediction is exact.
            debug_assert!(matches!(e.inst, Inst::Jump { .. } | Inst::RdCycle { .. }));
            b.actual_taken = b.predicted_taken;
            b.actual_target = b.predicted_target;
        }
        self.sched.completions.schedule(now, now + latency, seq);
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_branch(
        &mut self,
        seq: u64,
        pc: u64,
        cond: BranchCond,
        rs1: IntReg,
        rs2: IntReg,
        offset: i32,
        vals: [u64; 3],
        inv: bool,
        taint: u64,
        now: u64,
    ) -> bool {
        // Operand values: sources() skips r0 reads, so reconstruct operand
        // positions — a branch reading r0 compares against zero.
        let (v1, v2) = two_operands(rs1, rs2, vals);
        if inv && self.in_runahead() {
            // The SPECRUN vulnerability: an INV-source branch never resolves;
            // the (attacker-trained) prediction stands for the whole episode.
            self.stats.inv_unresolved_branches += 1;
            self.skip_inv_park(seq, now);
            let e = self.rob.get_mut(seq).expect("entry exists");
            e.state = EntryState::Done;
            e.inv = true;
            e.taint = taint;
            return true;
        }
        let Some(latency) = self.fu.try_issue(FuKind::IntAdd, now) else { return false };
        let taken = cond.eval(v1, v2);
        let e = self.rob.get_mut(seq).expect("entry exists");
        e.state = EntryState::Executing;
        e.ready_at = now + latency;
        e.taint = taint;
        if let Some(b) = e.branch.as_mut() {
            b.actual_taken = taken;
            b.actual_target =
                if taken { pc.wrapping_add_signed(i64::from(offset)) } else { pc + INST_BYTES };
        }
        self.sched.completions.schedule(now, now + latency, seq);
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_call(
        &mut self,
        seq: u64,
        pc: u64,
        direct_offset: Option<i32>,
        indirect_target: Option<u64>,
        vals: [u64; 3],
        inv: bool,
        taint: u64,
        now: u64,
    ) -> bool {
        // Source layout: a direct call reads [SP]; an indirect call reads
        // [target_base, SP].
        let sp_val = match direct_offset {
            Some(_) => vals[0],
            None => vals[1],
        };
        if self.fu.try_issue(FuKind::Mem, now).is_none() {
            return false;
        }
        let new_sp = sp_val.wrapping_sub(8);
        let ret_addr = pc + INST_BYTES;
        self.sq.fill(seq, new_sp, Some(ret_addr), inv);
        if self.in_runahead() {
            if let Some(rc) = self.ra.cache.as_mut() {
                rc.write(new_sp, 8, ret_addr, inv);
            }
        }
        let actual_target = match direct_offset {
            Some(off) => pc.wrapping_add_signed(i64::from(off)),
            None => indirect_target.unwrap_or(0),
        };
        let e = self.rob.get_mut(seq).expect("entry exists");
        e.state = EntryState::Executing;
        e.ready_at = now + 1;
        e.result = new_sp;
        e.inv = inv;
        e.taint = taint;
        if let Some(b) = e.branch.as_mut() {
            b.actual_taken = true;
            b.actual_target = actual_target;
            if direct_offset.is_some() {
                b.resolved = true; // direct target can never mispredict
            }
        }
        self.sched.completions.schedule(now, now + 1, seq);
        true
    }

    /// Issues a `clflush` (address-only store-queue occupant).
    #[allow(clippy::too_many_arguments)]
    fn issue_store(
        &mut self,
        seq: u64,
        inst: Inst,
        vals: [u64; 3],
        inv: bool,
        taint: u64,
        now: u64,
    ) -> bool {
        let Inst::Flush { base, offset } = inst else {
            unreachable!("issue_store handles flushes only")
        };
        let base_v = if base.is_zero() { 0 } else { vals[0] };
        let addr = base_v.wrapping_add_signed(i64::from(offset));
        if inv && self.in_runahead() {
            // INV-address flushes vanish (their slot still drains at retire).
            let e = self.rob.get_mut(seq).expect("entry exists");
            e.state = EntryState::Done;
            e.inv = true;
            return true;
        }
        if self.fu.try_issue(FuKind::Mem, now).is_none() {
            return false;
        }
        self.sq.fill(seq, addr, None, inv);
        let e = self.rob.get_mut(seq).expect("entry exists");
        e.state = EntryState::Executing;
        e.ready_at = now + 1;
        e.inv = inv;
        e.taint = taint;
        e.load_addr = Some(addr);
        self.sched.completions.schedule(now, now + 1, seq);
        true
    }

    /// Two-phase store issue: phase A generates the address once the base
    /// register is ready (claiming an AGU port); phase B delivers the data
    /// once it is ready and completes the store. Returns whether the entry
    /// left `Waiting`.
    fn issue_store_two_phase(&mut self, seq: u64, inst: Inst, now: u64) -> bool {
        let (width, offset) = match inst {
            Inst::Store { width, offset, .. } => (width.bytes(), offset),
            Inst::FpStore { offset, .. } => (8, offset),
            _ => unreachable!("two-phase issue is for data stores"),
        };
        let (data_phys, base_phys, addr_done) = {
            let e = self.rob.get(seq).expect("entry exists");
            let (data, base) = store_operand_phys(&e.inst, &e.srcs);
            (data, base, e.addr_ready)
        };
        let in_runahead = self.in_runahead();
        // Phase A: address generation.
        if !addr_done {
            let (base_val, base_inv, base_taint) = match base_phys {
                Some(p) => {
                    if !self.regs.is_ready(p) {
                        return false;
                    }
                    (self.regs.value(p), self.regs.is_inv(p), self.regs.taint(p))
                }
                None => (0, false, 0),
            };
            if base_inv && in_runahead {
                // INV-address stores vanish.
                let e = self.rob.get_mut(seq).expect("entry exists");
                e.state = EntryState::Done;
                e.inv = true;
                return true;
            }
            if self.fu.try_issue(FuKind::Mem, now).is_none() {
                return false;
            }
            let addr = base_val.wrapping_add_signed(i64::from(offset));
            self.sq.fill_addr(seq, addr);
            let e = self.rob.get_mut(seq).expect("entry exists");
            e.addr_ready = true;
            e.load_addr = Some(addr);
            e.taint |= base_taint;
        }
        // Phase B: data delivery.
        let (value, data_inv, data_taint) = match data_phys {
            Some(p) => {
                if !self.regs.is_ready(p) {
                    // Address done, data still in flight: park on the data
                    // register's waiter list instead of burning a retry
                    // every cycle — its production re-queues the entry.
                    self.rob.unmark_ready(seq);
                    self.sched.add_waiter(p, seq);
                    let e = self.rob.get_mut(seq).expect("entry exists");
                    e.wait_count = 1;
                    return false;
                }
                (self.regs.value(p), self.regs.is_inv(p), self.regs.taint(p))
            }
            None => (0, false, 0),
        };
        let inv = data_inv && in_runahead;
        let (addr, taint) = {
            let e = self.rob.get_mut(seq).expect("entry exists");
            (e.load_addr.expect("phase A filled the address"), e.taint | data_taint)
        };
        self.sq.fill_data(seq, value, inv);
        if in_runahead {
            if let Some(rc) = self.ra.cache.as_mut() {
                rc.write(addr, width, value, inv);
            }
        }
        let e = self.rob.get_mut(seq).expect("entry exists");
        e.state = EntryState::Executing;
        e.ready_at = now + 1;
        e.inv = inv;
        e.taint = taint;
        self.sched.completions.schedule(now, now + 1, seq);
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_load(
        &mut self,
        seq: u64,
        pc: u64,
        inst: Inst,
        vals: [u64; 3],
        inv: bool,
        taint: u64,
        now: u64,
    ) -> bool {
        let in_runahead = self.in_runahead();
        let (addr, width, sp_like) = match inst {
            Inst::Load { base, offset, width, .. } => {
                let base_v = if base.is_zero() { 0 } else { vals[0] };
                (base_v.wrapping_add_signed(i64::from(offset)), width.bytes(), false)
            }
            Inst::FpLoad { base, offset, .. } => {
                let base_v = if base.is_zero() { 0 } else { vals[0] };
                (base_v.wrapping_add_signed(i64::from(offset)), 8, false)
            }
            Inst::Ret => (vals[0], 8, true),
            _ => unreachable!("issue_load on non-load"),
        };
        if inv && in_runahead {
            // INV address: poison the destination immediately.
            let e = self.rob.get_mut(seq).expect("entry exists");
            e.state = EntryState::Done;
            e.inv = true;
            e.taint = taint;
            let dest = e.dest;
            if let Some(d) = dest {
                self.produce_inv(d.new);
                self.regs.set_taint(d.new, taint);
            }
            if sp_like {
                self.stats.inv_unresolved_branches += 1; // ret never resolves
                self.skip_inv_park(seq, now);
            }
            return true;
        }
        // Store-queue disambiguation first (no FU consumed on a stall).
        let line_bytes = self.mem.line_bytes();
        match self.sq.check_load(seq, addr, width, line_bytes) {
            LoadCheck::UnknownAddr | LoadCheck::Conflict => return false,
            LoadCheck::Forward { value, inv: fwd_inv } => {
                if self.fu.try_issue(FuKind::Mem, now).is_none() {
                    return false;
                }
                if in_runahead {
                    self.emit(PipelineEvent::TransientLoad {
                        cycle: now,
                        pc,
                        addr,
                        tainted: taint != 0,
                    });
                }
                let poison = fwd_inv && in_runahead;
                if poison && sp_like {
                    // A ret popping poisoned data never resolves
                    // (SpectreRSB-in-runahead, Fig. 4b).
                    self.stats.inv_unresolved_branches += 1;
                    self.skip_inv_park(seq, now);
                }
                return self.complete_load(
                    seq,
                    addr,
                    None,
                    value,
                    poison,
                    taint,
                    now + 1,
                    sp_like,
                    now,
                );
            }
            LoadCheck::NoConflict => {}
        }
        // Runahead cache (runahead store-to-load forwarding). Empty until
        // the episode's first store, so the common probe is one counter
        // read, not a hash lookup.
        if in_runahead {
            if let Some(rc) = self.ra.cache.as_ref().filter(|rc| !rc.is_empty()) {
                match rc.read(addr, width) {
                    RunaheadRead::Hit(value) => {
                        if self.fu.try_issue(FuKind::Mem, now).is_none() {
                            return false;
                        }
                        self.emit(PipelineEvent::TransientLoad {
                            cycle: now,
                            pc,
                            addr,
                            tainted: taint != 0,
                        });
                        return self.complete_load(
                            seq,
                            addr,
                            None,
                            value,
                            false,
                            taint,
                            now + 2,
                            sp_like,
                            now,
                        );
                    }
                    RunaheadRead::Invalid => {
                        if sp_like {
                            self.stats.inv_unresolved_branches += 1;
                            self.skip_inv_park(seq, now);
                        }
                        let e = self.rob.get_mut(seq).expect("entry exists");
                        e.state = EntryState::Done;
                        e.inv = true;
                        e.taint = taint;
                        let dest = e.dest;
                        if let Some(d) = dest {
                            self.produce_inv(d.new);
                            self.regs.set_taint(d.new, taint);
                        }
                        return true;
                    }
                    RunaheadRead::Miss => {}
                }
            }
        }
        // SL cache (defense): consulted while its counter is nonzero.
        if self.cfg.runahead.secure.sl_cache && self.secure.sl.counter() != 0 {
            match self.secure_load_check(seq, addr, now, in_runahead) {
                crate::secure::SlOutcome::NotPresent => {}
                crate::secure::SlOutcome::Wait => {
                    self.stats.sl_verdict_waits += 1;
                    return false;
                }
                crate::secure::SlOutcome::Serve { latency } => {
                    if self.fu.try_issue(FuKind::Mem, now).is_none() {
                        return false;
                    }
                    if in_runahead {
                        self.emit(PipelineEvent::TransientLoad {
                            cycle: now,
                            pc,
                            addr,
                            tainted: taint != 0,
                        });
                    }
                    let value = self.mem.read_data(addr, width);
                    return self.complete_load(
                        seq,
                        addr,
                        None,
                        value,
                        false,
                        taint,
                        now + latency,
                        sp_like,
                        now,
                    );
                }
            }
        }
        // Memory hierarchy.
        if self.fu.try_issue(FuKind::Mem, now).is_none() {
            return false;
        }
        let policy = if in_runahead && self.cfg.runahead.secure.sl_cache {
            FillPolicy::NoFill
        } else {
            FillPolicy::Normal
        };
        let sl_penalty = if self.cfg.runahead.secure.sl_cache && self.secure.sl.counter() != 0 {
            self.cfg.runahead.secure.sl_latency
        } else {
            0
        };
        let access = self.mem.access(addr, now, AccessKind::Load, policy);
        if in_runahead {
            self.emit(PipelineEvent::TransientLoad { cycle: now, pc, addr, tainted: taint != 0 });
        }
        if access.filled {
            self.emit(PipelineEvent::CacheFill {
                cycle: now,
                level: access.level,
                line: self.mem.line_of(addr),
                transient: in_runahead,
            });
        }
        if in_runahead && access.level == HitLevel::Mem {
            // Long-latency runahead load: issue the request (the prefetch
            // that carries the covert channel) and poison the destination.
            self.stats.runahead_prefetches += 1;
            self.vector_prefetch(pc, addr, now);
            if self.cfg.runahead.secure.sl_cache {
                self.secure_record_fill(seq, addr, access.ready_at, taint);
            }
            if sp_like {
                // A ret whose pop misses to DRAM never resolves
                // (SpectreRSB-in-runahead, Fig. 4c).
                self.stats.inv_unresolved_branches += 1;
                self.skip_inv_park(seq, now);
            }
            let e = self.rob.get_mut(seq).expect("entry exists");
            e.state = EntryState::Done;
            e.inv = true;
            e.taint = taint;
            e.load_level = Some(access.level);
            e.load_addr = Some(addr);
            let dest = e.dest;
            if let Some(d) = dest {
                self.produce_inv(d.new);
                self.regs.set_taint(d.new, taint);
            }
            return true;
        }
        if in_runahead {
            self.vector_prefetch(pc, addr, now);
        }
        self.complete_load(
            seq,
            addr,
            Some(access.level),
            0,
            false,
            taint,
            access.ready_at + sl_penalty,
            sp_like,
            now,
        )
    }

    /// Finishes a load issue: value either known (forwarded) or read from
    /// memory at writeback when `level` is `Some`.
    #[allow(clippy::too_many_arguments)]
    fn complete_load(
        &mut self,
        seq: u64,
        addr: u64,
        level: Option<HitLevel>,
        value: u64,
        poison: bool,
        taint: u64,
        ready_at: u64,
        is_ret: bool,
        now: u64,
    ) -> bool {
        // Loads inherit the taint of their address (secure runahead); the
        // loaded value becomes tainted data.
        let e = self.rob.get_mut(seq).expect("entry exists");
        e.state = EntryState::Executing;
        e.ready_at = ready_at;
        e.result = value;
        e.inv = poison;
        e.taint = taint;
        e.load_level = level;
        e.load_addr = Some(addr);
        if is_ret {
            // The pop address *is* the old SP; stash the SP update (the
            // destination value — `result` carries the popped target).
            e.aux_sp = addr.wrapping_add(8);
        }
        self.sched.completions.schedule(now, ready_at, seq);
        true
    }

    // ------------------------------------------------------------------
    // Dispatch (rename)
    // ------------------------------------------------------------------

    /// Renames up to `width` matured front-end instructions into the ROB;
    /// returns whether any was.
    fn dispatch(&mut self, now: u64) -> bool {
        let mut dispatched = false;
        for _ in 0..self.cfg.width {
            let Some(front) = self.pipe.front() else { break };
            if front.available_at > now {
                break;
            }
            if self.rob.is_full() || self.iq_occupancy >= self.cfg.iq_entries {
                break;
            }
            if front.meta.is_load() && self.lq_occupancy >= self.cfg.lq_entries {
                break;
            }
            if front.meta.needs_sq() && self.sq.is_full() {
                break;
            }
            if let Some(dest) = front.meta.dest {
                if self.free.available(RegClass::of(dest)) == 0 {
                    break;
                }
            }
            // Read the four fields rename needs out of the slot; the slot
            // is reused in place, never moved.
            let (pc, inst, meta, pred) = (front.pc, front.inst, front.meta, front.pred);
            self.pipe.pop_front();
            self.dispatch_one(pc, inst, meta, pred);
            dispatched = true;
        }
        dispatched
    }

    /// Renames the fetched instruction `inst` at `pc` into a new ROB entry.
    /// Every field is computed into a local first and the entry is pushed
    /// as one struct literal, so it is built directly in its ROB slot
    /// instead of on the stack.
    fn dispatch_one(&mut self, pc: u64, inst: Inst, meta: UopMeta, pred: Option<PredInfo>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Rename sources (predecoded — `Inst::sources` ran once at load).
        let mut srcs = [None; 3];
        for (phys, src) in srcs.iter_mut().zip(meta.srcs) {
            *phys = src.map(|arch| self.rat.get(arch));
        }
        // Secure-runahead scope tracking at rename, in speculative order.
        let (scope_id, dispatch_scope) = self.secure_on_dispatch(pc, &inst, &pred, &srcs);
        // Rename destination.
        let dest = match meta.dest {
            Some(arch) => {
                let new = self.free.allocate(RegClass::of(arch)).expect("checked in dispatch");
                self.sched.clear_waiters(new);
                self.regs.mark_pending(new);
                let prev = self.rat.set(arch, new);
                Some(DestInfo { arch, new, prev })
            }
            None => None,
        };
        // Operand-wakeup registration: the entry joins the issue-ready
        // set once its gating operands are produced. Data stores gate on
        // the base register first (address generation runs ahead of the
        // data, see `issue_store_two_phase`); everything else gates on all
        // of its sources (INV counts as produced). A serializer also waits
        // for the ROB head: it is marked ready here only when it enters an
        // empty ROB, otherwise by `commit` (or `wake_reg`) once it is the
        // head. The ready bit is set by the same `push` that writes the entry.
        let serializing = meta.is_serializing();
        if serializing {
            self.sched.add_serializer(seq);
        }
        let (wait_count, ready) = if meta.is_data_store() {
            let (_, base_phys) = store_operand_phys(&inst, &srcs);
            match base_phys.filter(|p| !self.regs.is_ready(*p)) {
                Some(p) => {
                    self.sched.add_waiter(p, seq);
                    (1, false)
                }
                None => (0, true),
            }
        } else {
            let mut waits = 0u8;
            for p in srcs.iter().flatten() {
                if !self.regs.is_ready(*p) {
                    waits += 1;
                    self.sched.add_waiter(*p, seq);
                }
            }
            (waits, waits == 0 && (!serializing || self.rob.is_empty()))
        };
        // Branch bookkeeping.
        let branch = pred.map(|p| BranchInfo {
            kind: p.kind,
            predicted_taken: p.taken,
            predicted_target: p.target,
            rsb_checkpoint: p.rsb_checkpoint,
            resolved: meta.ctrl == CtrlClass::Direct,
            actual_taken: p.taken,
            actual_target: p.target,
            scope_id,
        });
        let (is_load, is_store) = (meta.is_load(), meta.needs_sq());
        if is_load {
            self.lq_occupancy += 1;
        }
        if is_store {
            self.sq.allocate(seq, u64::from(meta.mem_width), meta.is_flush());
        }
        self.iq_occupancy += 1;
        self.stats.dispatched += 1;
        if self.in_runahead() {
            self.stats.runahead_dispatched += 1;
            if let Mode::Runahead(ep) = &mut self.mode {
                ep.dispatched += 1;
            }
        }
        self.rob.push(
            RobEntry {
                seq,
                pc,
                inst,
                meta,
                state: EntryState::Waiting,
                ready_at: 0,
                dest,
                srcs,
                result: 0,
                taint: 0,
                inv: false,
                branch,
                is_load,
                is_store,
                load_level: None,
                load_addr: None,
                aux_sp: 0,
                dispatch_scope,
                addr_ready: false,
                wait_count,
            },
            ready,
        );
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    /// Fetches up to `width` instructions into the front-end delay line;
    /// returns whether any was.
    fn fetch(&mut self, now: u64) -> bool {
        if self.fetch_halted {
            return false;
        }
        // The stream prefetcher keeps requesting ahead even while demand
        // fetch is stalled on a miss.
        self.stream_prefetch(now);
        if now < self.fetch_stalled_until || self.pipe.is_full() {
            return false;
        }
        // Borrow the program once per step by parking it: cloning the `Arc`
        // here put refcount traffic on every simulated cycle.
        let Some(program) = self.program.take() else { return false };
        let fetched_before = self.stats.fetched;
        // Once-per-line I-fetch: the first instruction of a 64-byte line
        // probes the hierarchy; the rest of the line streams for free this
        // cycle (hardware reads the whole fetch line out of L1I once — the
        // paper's Fig. 6 trace-cache front end). A width-4 fetch group on
        // one line thus costs one `MemHierarchy::access`, not four.
        let mut probed_line = u64::MAX;
        for _ in 0..self.cfg.width {
            if self.pipe.is_full() {
                break;
            }
            let pc = self.fetch_pc;
            let Some((inst, &meta)) = program.fetch(pc) else {
                // Ran off the text image (wrong-path fetch): stop until a
                // redirect arrives.
                self.fetch_halted = true;
                break;
            };
            if self.cfg.predecode_check {
                audit_predecode(&inst, pc, &meta);
            }
            // Instruction cache: L1 hits stream at full width; anything
            // slower stalls fetch until the line arrives.
            let line = self.mem.line_of(pc);
            if line != probed_line {
                let access = self.mem.access(pc, now, AccessKind::IFetch, FillPolicy::Normal);
                if access.level != HitLevel::L1 {
                    self.fetch_stalled_until = access.ready_at;
                    break;
                }
                probed_line = line;
            }
            let fallthrough = pc + INST_BYTES;
            let pred = if meta.is_control() {
                let rsb_checkpoint = self.bp.rsb_checkpoint();
                let kind = kind_of_ctrl(meta.ctrl);
                let p: Prediction = self.bp.predict(pc, kind, meta.direct_target(), fallthrough);
                Some(PredInfo { kind, taken: p.taken, target: p.target, rsb_checkpoint })
            } else {
                None
            };
            // Fill the tail slot in place, field by field.
            let slot = self.pipe.push_slot();
            slot.pc = pc;
            slot.inst = inst;
            slot.meta = meta;
            slot.available_at = now + self.cfg.frontend_stages;
            slot.pred = pred;
            self.stats.fetched += 1;
            self.fetch_pc = match &pred {
                Some(p) if p.taken => p.target,
                _ => fallthrough,
            };
            if meta.is_halt() {
                self.fetch_halted = true;
                break;
            }
        }
        self.program = Some(program);
        self.stats.fetched != fetched_before
    }

    /// Whether the stream prefetcher's lookahead of `depth` lines is
    /// saturated: the frontier lies `depth..=2 * depth` lines past the
    /// fetch line, so a prefetch step would neither re-anchor nor request.
    #[inline(always)]
    fn ipf_saturated(&self, depth: u64) -> bool {
        let cur = self.mem.line_of(self.fetch_pc);
        (cur + depth..=cur + 2 * depth).contains(&self.ipf_frontier)
    }

    /// Streaming instruction prefetcher (stands in for the trace cache and
    /// trace queue of the paper's Fig. 6 front end). Keeps up to
    /// `ifetch_prefetch_lines` of lookahead in flight so sequential fetch is
    /// DRAM-*bandwidth*-bound instead of DRAM-*latency*-bound — without it
    /// a cold nop slide crawls at one line per memory round trip and the
    /// ROB can never fill behind a stalling load.
    fn stream_prefetch(&mut self, now: u64) {
        let depth = self.cfg.ifetch_prefetch_lines;
        if depth == 0 {
            return;
        }
        // Idle exit: a saturated lookahead neither re-anchors nor walks.
        if self.ipf_saturated(depth) {
            return;
        }
        let line_bytes = self.mem.line_bytes();
        let cur = self.mem.line_of(self.fetch_pc);
        // Re-anchor after redirects.
        if self.ipf_frontier < cur || self.ipf_frontier > cur + 2 * depth {
            self.ipf_frontier = cur;
        }
        // A few requests per cycle keeps post-redirect bursts bounded.
        let mut budget = 4;
        while self.ipf_frontier < cur + depth && budget > 0 {
            self.ipf_frontier += 1;
            let line = self.ipf_frontier;
            // Redirect re-anchors walk the frontier back over lines the
            // prefetcher already pulled in; skip re-probing a line the memo
            // proves is still L1I-resident (the generation counter tracks
            // every L1I fill/eviction, so a skipped probe can never mask a
            // line that has since left the cache). The skip still consumes
            // its probe-budget slot so the walk advances at the same rate
            // as a probing one; what it elides is the probe's LRU touch and
            // hit-statistic — a model-level refinement, like the
            // once-per-line demand fetch above.
            if (line, self.mem.l1i_generation()) == self.ipf_probe_memo {
                budget -= 1;
                continue;
            }
            let access =
                self.mem.access(line * line_bytes, now, AccessKind::IFetch, FillPolicy::Normal);
            if access.level == HitLevel::L1 {
                self.ipf_probe_memo = (line, self.mem.l1i_generation());
            }
            budget -= 1;
        }
    }
}

/// Recovers a data store's `(data, base)` physical sources from the packed
/// source list `[data?, base?]` (reads of `r0` are elided by
/// `Inst::sources`). Returns `(None, None)` for non-stores.
fn store_operand_phys(
    inst: &Inst,
    srcs: &[Option<PhysRef>; 3],
) -> (Option<PhysRef>, Option<PhysRef>) {
    match *inst {
        Inst::Store { src, base, .. } => {
            let data = if src.is_zero() { None } else { srcs[0] };
            let base_p = if base.is_zero() {
                None
            } else if data.is_some() {
                srcs[1]
            } else {
                srcs[0]
            };
            (data, base_p)
        }
        Inst::FpStore { base, .. } => {
            let data = srcs[0];
            let base_p = if base.is_zero() { None } else { srcs[1] };
            (data, base_p)
        }
        _ => (None, None),
    }
}

/// Maps a control instruction to its predictor classification (the retired
/// per-fetch derivation, kept as the `predecode_check` reference).
fn branch_kind(inst: &Inst) -> BranchKind {
    match inst {
        Inst::Branch { .. } => BranchKind::Conditional,
        Inst::Jump { .. } => BranchKind::Direct,
        Inst::JumpInd { .. } => BranchKind::Indirect,
        Inst::Call { .. } | Inst::CallInd { .. } => BranchKind::Call,
        Inst::Ret => BranchKind::Return,
        _ => unreachable!("not a control instruction"),
    }
}

/// Maps a predecoded control class to its predictor classification.
#[inline]
fn kind_of_ctrl(ctrl: CtrlClass) -> BranchKind {
    match ctrl {
        CtrlClass::Conditional => BranchKind::Conditional,
        CtrlClass::Direct => BranchKind::Direct,
        CtrlClass::Indirect => BranchKind::Indirect,
        CtrlClass::Call => BranchKind::Call,
        CtrlClass::Return => BranchKind::Return,
        CtrlClass::None => unreachable!("not a control instruction"),
    }
}

/// Access width in bytes of a load instruction (the retired per-writeback
/// derivation, kept as the `predecode_check` reference).
fn load_width(inst: &Inst) -> u64 {
    match inst {
        Inst::Load { width, .. } => width.bytes(),
        Inst::FpLoad { .. } | Inst::Ret => 8,
        _ => 8,
    }
}

/// `predecode_check`: re-derives every `UopMeta` field from the `Inst` enum
/// with the retired per-site derivations and asserts agreement. Runs once
/// per *fetched* instruction (so every micro-op the pipeline will consult
/// is audited before any stage reads its metadata).
fn audit_predecode(inst: &Inst, pc: u64, meta: &UopMeta) {
    let ctx = |what: &str| format!("predecode_check: {what} diverges for `{inst}` at {pc:#x}");
    assert_eq!(meta.srcs, inst.sources(), "{}", ctx("sources"));
    assert_eq!(meta.dest, inst.dest(), "{}", ctx("dest"));
    assert_eq!(meta.is_load(), inst.is_load(), "{}", ctx("is_load"));
    assert_eq!(meta.is_store(), inst.is_store(), "{}", ctx("is_store"));
    assert_eq!(meta.is_mem(), inst.is_mem(), "{}", ctx("is_mem"));
    assert_eq!(meta.is_flush(), matches!(inst, Inst::Flush { .. }), "{}", ctx("is_flush"));
    assert_eq!(
        meta.needs_sq(),
        inst.is_store() || matches!(inst, Inst::Flush { .. }),
        "{}",
        ctx("needs_sq")
    );
    assert_eq!(
        meta.is_data_store(),
        matches!(inst, Inst::Store { .. } | Inst::FpStore { .. }),
        "{}",
        ctx("is_data_store")
    );
    assert_eq!(meta.is_serializing(), inst.is_serializing(), "{}", ctx("is_serializing"));
    assert_eq!(meta.is_control(), inst.is_control(), "{}", ctx("is_control"));
    assert_eq!(meta.is_cond_branch(), inst.is_cond_branch(), "{}", ctx("is_cond_branch"));
    assert_eq!(meta.is_halt(), matches!(inst, Inst::Halt), "{}", ctx("is_halt"));
    assert_eq!(meta.direct_target(), inst.direct_target(pc), "{}", ctx("direct_target"));
    assert_eq!(FuKind::of_class(meta.exec), FuKind::for_inst(inst), "{}", ctx("FU class"));
    if inst.is_control() {
        assert_eq!(kind_of_ctrl(meta.ctrl), branch_kind(inst), "{}", ctx("branch kind"));
    } else {
        assert_eq!(meta.ctrl, CtrlClass::None, "{}", ctx("control class"));
    }
    if inst.is_load() {
        assert_eq!(u64::from(meta.mem_width), load_width(inst), "{}", ctx("load width"));
    }
    let sq_width = match inst {
        Inst::Store { width, .. } => Some(width.bytes()),
        Inst::FpStore { .. } | Inst::Call { .. } | Inst::CallInd { .. } => Some(8),
        Inst::Flush { .. } => Some(64),
        _ => None,
    };
    if let Some(w) = sq_width {
        assert_eq!(u64::from(meta.mem_width), w, "{}", ctx("store-queue width"));
    }
}

/// Evaluates a register-result instruction from its operand values.
fn eval_simple(inst: &Inst, vals: [u64; 3], now: u64) -> u64 {
    match *inst {
        Inst::Alu { op, rs1, rs2, .. } => {
            let (a, b) = two_operands(rs1, rs2, vals);
            op.eval(a, b)
        }
        Inst::AluImm { op, rs1, imm, .. } => {
            let a = if rs1.is_zero() { 0 } else { vals[0] };
            op.eval(a, imm as i64 as u64)
        }
        Inst::MovImm { imm, .. } => imm as i64 as u64,
        Inst::FpAlu { op, .. } => op.eval(vals[0], vals[1]),
        Inst::FpCvt { rs1, .. } => {
            let a = if rs1.is_zero() { 0 } else { vals[0] };
            ((a as i64) as f64).to_bits()
        }
        Inst::FpMov { .. } => vals[0],
        Inst::RdCycle { .. } => now,
        _ => 0,
    }
}

/// Reconstructs (rs1, rs2) operand values from the compressed source list
/// (reads of r0 are elided by `Inst::sources`).
fn two_operands(rs1: IntReg, rs2: IntReg, vals: [u64; 3]) -> (u64, u64) {
    match (rs1.is_zero(), rs2.is_zero()) {
        (true, true) => (0, 0),
        (true, false) => (0, vals[0]),
        (false, true) => (vals[0], 0),
        (false, false) => (vals[0], vals[1]),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;

    /// Pushes a distinguishable entry for `pc` the way `fetch` does, one
    /// field at a time.
    fn push(ring: &mut FetchRing, pc: u64) {
        let slot = ring.push_slot();
        slot.pc = pc;
        slot.inst = Inst::Nop;
        slot.meta = UopMeta::of(&Inst::Nop, pc);
        slot.available_at = pc + 6;
        slot.pred = (pc % 3 == 0).then_some(PredInfo {
            kind: BranchKind::Conditional,
            taken: pc % 2 == 0,
            target: pc + 64,
            rsb_checkpoint: pc as usize,
        });
    }

    /// Pops the front entry, returning its pc.
    fn pop(ring: &mut FetchRing) -> Option<u64> {
        let pc = ring.front()?.pc;
        ring.pop_front();
        Some(pc)
    }

    fn pcs(ring: &FetchRing) -> Vec<u64> {
        ring.iter().map(|f| f.pc).collect()
    }

    #[test]
    fn fetch_ring_wraps_at_non_power_of_two_and_power_of_two_sizes() {
        for capacity in [5, 16] {
            let mut ring = FetchRing::new(capacity);
            let mut next = 0;
            let mut want = VecDeque::new();
            let mut wrapped = false;
            // Keep the ring between half full and full for several laps.
            for _ in 0..4 * capacity {
                while !ring.is_full() {
                    push(&mut ring, next);
                    want.push_back(next);
                    next += 1;
                }
                assert_eq!(ring.slots.len(), capacity, "a full ring has every slot");
                wrapped |= ring.head > 0;
                for _ in 0..capacity / 2 + 1 {
                    assert_eq!(pop(&mut ring), want.pop_front());
                }
                assert_eq!(pcs(&ring), Vec::from(want.clone()));
            }
            assert!(wrapped, "a full ring with its head past slot 0 runs across the end");
            while let Some(pc) = pop(&mut ring) {
                assert_eq!(Some(pc), want.pop_front());
            }
            assert!(ring.is_empty() && want.is_empty());
            assert_eq!(ring.head, 0, "a drained ring restarts at slot 0");
        }
    }

    #[test]
    fn fetch_ring_clear_mid_fill_then_refill() {
        let mut ring = FetchRing::new(5);
        for pc in 0..3 {
            push(&mut ring, pc);
        }
        assert_eq!(pop(&mut ring), Some(0));
        assert_eq!(ring.slots.len(), 3, "slots are materialised one push at a time");
        ring.clear();
        assert!(ring.is_empty() && ring.front().is_none());
        for pc in 10..15 {
            push(&mut ring, pc);
        }
        assert!(ring.is_full());
        assert_eq!(pcs(&ring), vec![10, 11, 12, 13, 14]);
        assert_eq!(ring.front().map(|f| f.available_at), Some(16), "fields are rewritten");
        assert_eq!(ring.slots.len(), 5);
    }

    #[test]
    fn clone_of_a_wrapped_fetch_ring_reads_back_in_order() {
        let mut ring = FetchRing::new(5);
        for pc in 0..5 {
            push(&mut ring, pc);
        }
        for _ in 0..3 {
            pop(&mut ring);
        }
        for pc in 5..8 {
            push(&mut ring, pc);
        }
        assert_eq!(ring.head, 3, "entries 5..8 wrapped to the front slots");
        let clone = ring.clone();
        assert_eq!(clone.head, 0);
        assert_eq!(clone.slots.len(), 5, "only live entries are copied");
        assert_eq!(pcs(&clone), vec![3, 4, 5, 6, 7]);
        for (a, b) in clone.iter().zip(ring.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        // Both drain to the same sequence, and the clone keeps working.
        let mut clone = clone;
        pop(&mut clone);
        push(&mut clone, 8);
        assert_eq!(pcs(&clone), vec![4, 5, 6, 7, 8]);
        assert!(clone.is_full());
    }

    #[test]
    fn fetch_queue_never_exceeds_its_configured_size() {
        let r = |i| IntReg::new(i).unwrap();
        let mut b = specrun_isa::ProgramBuilder::new(0);
        b.li(r(1), 0);
        b.for_loop(r(2), 200, |b| {
            b.add(r(1), r(1), r(2));
            b.mul(r(3), r(1), r(1));
        });
        b.halt();
        let program = b.build().unwrap();
        for fetch_queue in [4, 5, 16] {
            let cfg = CpuConfig { fetch_queue, ..CpuConfig::default() };
            let mut core = Core::new(cfg);
            core.load_program(&program);
            let mut seen_full = false;
            while !core.is_halted() {
                core.step();
                assert!(core.pipe.len <= fetch_queue, "fetch queue overflow");
                assert!(core.pipe.slots.len() <= fetch_queue, "ring grew past its size");
                seen_full |= core.pipe.is_full();
            }
            assert!(seen_full, "fetch_queue {fetch_queue}: the front end backed up");
        }
    }

    #[test]
    #[should_panic(expected = "fetch queue overflow")]
    fn pushing_into_a_full_fetch_ring_panics() {
        let mut ring = FetchRing::new(2);
        for pc in 0..3 {
            push(&mut ring, pc);
        }
    }

    /// One step of a random front-end workload.
    #[derive(Debug, Clone)]
    enum Op {
        Push,
        Pop,
        Clear,
        Clone,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Push),
            Just(Op::Push),
            Just(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Clear),
            Just(Op::Clone),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The ring against the `VecDeque<Fetched>` it replaced: pushes
        /// (refused when full, as `fetch` stops), pops, clears and clones
        /// agree on every entry, field for field, in order.
        #[test]
        fn fetch_ring_matches_a_vecdeque_model(
            capacity in prop_oneof![Just(1usize), Just(5), Just(16), Just(23)],
            ops in proptest::collection::vec(op(), 1..300),
        ) {
            let mut ring = FetchRing::new(capacity);
            let mut model: VecDeque<Fetched> = VecDeque::new();
            let mut next = 0u64;
            for op in ops {
                match op {
                    Op::Push if model.len() < capacity => {
                        push(&mut ring, next);
                        model.push_back(*ring.iter().last().expect("just pushed"));
                        next += 1;
                    }
                    Op::Push => prop_assert!(ring.is_full()),
                    Op::Pop => {
                        let want = model.pop_front().map(|f| f.pc);
                        prop_assert_eq!(pop(&mut ring), want);
                    }
                    Op::Clear => {
                        ring.clear();
                        model.clear();
                    }
                    Op::Clone => ring = ring.clone(),
                }
                prop_assert_eq!(ring.len, model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
                prop_assert_eq!(ring.is_full(), model.len() == capacity);
                prop_assert!(ring.slots.len() <= capacity);
                prop_assert_eq!(
                    ring.iter().map(|f| format!("{f:?}")).collect::<Vec<_>>(),
                    model.iter().map(|f| format!("{f:?}")).collect::<Vec<_>>()
                );
                prop_assert_eq!(ring.front().map(|f| f.pc), model.front().map(|f| f.pc));
            }
        }
    }
}
