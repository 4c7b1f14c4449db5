//! Runahead mode: entry, exit, and the per-policy behaviours.
//!
//! The flow follows the original scheme (Mutlu et al., HPCA'03), which the
//! paper's Fig. 6 instantiates: when a DRAM-bound load stalls at the head of
//! a full ROB the core checkpoints architectural state, poisons the load's
//! destination with INV, pseudo-retires everything that follows, and keeps
//! fetching/executing purely for its prefetch side effects. The stalling
//! load's data return ends the episode: the pipeline is flushed, the
//! checkpoint restored, and fetch resumes at the stalling load.
//!
//! Policy differences:
//! * [`RunaheadPolicy::Precise`] — entry/exit cost nothing (the scheme
//!   recycles free back-end resources instead of checkpoint/flush) and
//!   floating-point work is suppressed in runahead mode (only stall slices
//!   execute). Branch handling is unchanged — which is why the paper's §4.3
//!   finds it equally vulnerable.
//! * [`RunaheadPolicy::Vector`] — a stride detector issues extra prefetch
//!   lanes per runahead load, modelling vectorised runahead's deeper
//!   prefetching. Branch handling is again unchanged (§4.3: only the first
//!   lane steers the predicate mask).

use specrun_isa::ArchReg;
use specrun_mem::{AccessKind, FillPolicy, HitLevel, RunaheadCache};

use crate::config::{RunaheadPolicy, RunaheadTrigger};
use crate::core::{Core, Mode};
use crate::regs::{flat_to_arch, ArchCheckpoint, Rat};
use crate::rob::EntryState;

/// One runahead episode's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Episode {
    /// PC of the stalling load (fetch restarts here on exit).
    pub stall_pc: u64,
    /// Cycle at which the stalling load's data returns (episode end).
    pub exit_at: u64,
    /// Instructions that were in the window when the episode began.
    pub window: u64,
    /// Instructions dispatched during the episode.
    pub dispatched: u64,
    /// `runahead_prefetches` counter at entry (for useless-episode
    /// detection).
    pub prefetches_at_entry: u64,
}

/// Stride-detector entry for vector runahead.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StrideEntry {
    pub last_addr: u64,
    pub stride: i64,
    pub confidence: u8,
}

impl<O: crate::probe::PipelineObserver> Core<O> {
    /// Whether the configured entry condition holds (assumes the caller
    /// established that a DRAM-bound load is stalled at the ROB head).
    /// Inlined: `commit` evaluates it on every cycle of such a stall.
    #[inline(always)]
    pub(crate) fn runahead_trigger_met(&self) -> bool {
        if self.cycle < self.ra_backoff_until {
            return false;
        }
        match self.cfg.runahead.policy {
            RunaheadPolicy::Disabled => false,
            _ => match self.cfg.runahead.trigger {
                RunaheadTrigger::WindowBlocked => {
                    if self.rob.is_full()
                        || self.lq_occupancy >= self.cfg.lq_entries
                        || self.sq.is_full()
                    {
                        return true;
                    }
                    // Issue-queue or physical-register exhaustion counts
                    // only when it is memory pressure, not a self-inflicted
                    // stall behind a serializing instruction (e.g. a timing
                    // probe's `rdcycle`).
                    let rename_blocked = self.iq_occupancy >= self.cfg.iq_entries
                        || self.free.available(crate::regs::RegClass::Int) == 0
                        || self.free.available(crate::regs::RegClass::Fp) == 0;
                    rename_blocked && self.sched.serializer_gate().is_none()
                }
                RunaheadTrigger::HeadMiss => true,
            },
        }
    }

    /// Enters runahead mode. The ROB head must be the stalling load.
    pub(crate) fn enter_runahead(&mut self, now: u64) {
        let (stall_pc, exit_at, head_seq) = {
            let head = self.rob.head().expect("stalling load at head");
            (head.pc, head.ready_at, head.seq)
        };
        self.stats.runahead_entries += 1;
        self.emit(crate::probe::PipelineEvent::RunaheadEnter { cycle: now, stall_pc });
        // Checkpoint: architectural values, RSB pointer, predictor history.
        self.ra.checkpoint = Some(ArchCheckpoint::capture(&self.retire_rat, &self.regs));
        self.ra.rsb_checkpoint = self.bp.rsb_checkpoint();
        self.ra.history_checkpoint = if self.cfg.runahead.checkpoint_predictor {
            Some(self.bp.history_checkpoint())
        } else {
            None
        };
        // Reuse the previous episode's (cleared) cache allocation.
        self.ra.cache = Some(match self.ra.cache_pool.take() {
            Some(cache) => cache,
            None => RunaheadCache::new(self.cfg.runahead.runahead_cache_bytes),
        });
        // The window at entry: everything behind the stalling load.
        let window = self.rob.len() as u64 - 1;
        self.mode = Mode::Runahead(Episode {
            stall_pc,
            exit_at,
            window,
            dispatched: 0,
            prefetches_at_entry: self.stats.runahead_prefetches,
        });
        // Secure mode: fresh taint scopes each episode; the SL cache drains
        // before the next round (paper §6: subsequent loads stop consulting
        // it), so purge leftovers.
        self.tracker.reset();
        if self.cfg.runahead.secure.sl_cache {
            self.secure.begin_episode();
            // The window already holds instructions dispatched *before*
            // entry (that is how the ROB filled); walk them in fetch order
            // so their branch scopes open and their predicate registers are
            // tainted, exactly as if the tracker had seen them dispatch.
            self.retro_track_window();
        }
        // Poison the stalling load and every other in-flight DRAM load: they
        // all become prefetches (their requests stay in flight).
        let mut to_poison = vec![head_seq];
        for e in self.rob.iter() {
            if e.seq != head_seq
                && e.is_load
                && e.state == EntryState::Executing
                && e.load_level == Some(HitLevel::Mem)
                && e.ready_at > now
            {
                to_poison.push(e.seq);
            }
        }
        for seq in to_poison {
            let dest = {
                let e = self.rob.get_mut(seq).expect("entry exists");
                e.state = EntryState::Done;
                e.inv = true;
                e.dest
            };
            if let Some(d) = dest {
                // Wake-aware poison: waiters on the load's result must move
                // to the issue-ready set (poison counts as produced).
                self.produce_inv(d.new);
            }
        }
        // Entry penalty: the checkpoint is not free.
        let penalty = match self.cfg.runahead.policy {
            RunaheadPolicy::Precise => 0,
            _ => self.cfg.runahead.enter_penalty,
        };
        self.fetch_stalled_until = self.fetch_stalled_until.max(now + penalty);
    }

    /// Exits runahead mode if the stalling load's data has returned.
    pub(crate) fn check_runahead_exit(&mut self, now: u64) {
        let Mode::Runahead(ep) = self.mode else { return };
        if now < ep.exit_at {
            return;
        }
        self.stats.runahead_exits += 1;
        let episode_window = ep.window + ep.dispatched;
        if episode_window > self.stats.max_episode_window {
            self.stats.max_episode_window = episode_window;
        }
        self.stats.total_episode_window += episode_window;
        self.emit(crate::probe::PipelineEvent::RunaheadExit { cycle: now, window: episode_window });
        // Flush everything; restore the checkpoint. The squashed entries
        // are never inspected — the RAT and free lists are rebuilt whole.
        self.emit(crate::probe::PipelineEvent::Squash {
            cycle: now,
            squashed: self.rob.len() as u64,
        });
        self.stats.squashed += self.rob.len() as u64;
        self.rob.clear();
        self.sq.clear();
        self.pipe.clear();
        self.lq_occupancy = 0;
        self.iq_occupancy = 0;
        self.fu.clear();
        self.sched.clear_inflight();
        self.rat = Rat::identity();
        self.retire_rat = Rat::identity();
        self.free.reset(self.cfg.int_prf, self.cfg.fp_prf);
        let checkpoint = self.ra.checkpoint.take().expect("entered with checkpoint");
        for i in 0..ArchReg::COUNT {
            let arch = flat_to_arch(i);
            let phys = self.rat.get(arch);
            self.regs.restore(phys, checkpoint.value(arch));
        }
        self.bp.rsb_restore(self.ra.rsb_checkpoint);
        if let Some(hist) = self.ra.history_checkpoint.take() {
            self.bp.history_restore(&hist);
        }
        // Park the cache allocation for the next episode.
        if let Some(mut cache) = self.ra.cache.take() {
            cache.clear();
            self.ra.cache_pool = Some(cache);
        }
        // Secure mode: hand the episode's nesting relation to the verdict
        // bookkeeping (deletions by `IS` need the inner-branch sets).
        if self.cfg.runahead.secure.sl_cache {
            self.secure.end_episode(&self.tracker);
        }
        // Resume at the stalling load; its line was filled by its own
        // request, so the re-execution hits in the cache.
        let penalty = match self.cfg.runahead.policy {
            RunaheadPolicy::Precise => 0,
            _ => self.cfg.runahead.exit_penalty,
        };
        // Useless-runahead avoidance: an episode that prefetched next to
        // nothing predicts that the next one won't either; back off.
        let yielded = self.stats.runahead_prefetches - ep.prefetches_at_entry;
        if self.cfg.runahead.min_episode_yield > 0 && yielded < self.cfg.runahead.min_episode_yield
        {
            self.ra_backoff_until = now + self.cfg.runahead.useless_backoff;
        }
        self.mode = Mode::Normal;
        self.redirect_fetch(ep.stall_pc, now + penalty);
        self.halted = false;
    }

    /// Walks the ROB at runahead entry, feeding the taint tracker the
    /// instructions that were dispatched before the episode began. Scoped
    /// conditional branches that have not yet resolved open their scopes,
    /// seed predicate taint, and register for post-exit verdicts.
    fn retro_track_window(&mut self) {
        let Core { rob, tracker, regs, secure, scope_map, .. } = self;
        for entry in rob.iter_mut() {
            tracker.on_inst(entry.pc);
            if let Some(end_pc) = scope_map.get(&entry.pc).copied() {
                if entry.inst.is_cond_branch() {
                    if let Some(branch) = entry.branch.as_mut() {
                        if !branch.resolved {
                            let id = tracker.on_branch(entry.pc, end_pc);
                            branch.scope_id = Some(id);
                            for src in entry.srcs.iter().flatten() {
                                regs.add_taint(*src, crate::taint::scope_bit(id));
                            }
                            secure
                                .records
                                .entry(entry.pc)
                                .or_default()
                                .push((id, branch.predicted_taken));
                            secure.pending_scopes.insert(id);
                        }
                    }
                }
            }
            entry.dispatch_scope = tracker.current_scope();
        }
    }

    /// Whether this instruction is suppressed in the current runahead policy
    /// (precise runahead executes only the address-generating slices; FP
    /// arithmetic never feeds addresses in this ISA).
    pub(crate) fn runahead_suppressed(&self, inst: &specrun_isa::Inst) -> bool {
        use specrun_isa::Inst;
        self.in_runahead()
            && self.cfg.runahead.policy == RunaheadPolicy::Precise
            && matches!(inst, Inst::FpAlu { .. } | Inst::FpCvt { .. } | Inst::FpStore { .. })
    }

    /// Vector runahead: on a strided runahead load at `pc`, issue extra
    /// prefetch lanes ahead of the detected stream.
    pub(crate) fn vector_prefetch(&mut self, pc: u64, addr: u64, now: u64) {
        if self.cfg.runahead.policy != RunaheadPolicy::Vector {
            return;
        }
        let entry = self.strides.entry(pc).or_default();
        let stride = addr.wrapping_sub(entry.last_addr) as i64;
        if entry.last_addr != 0 && stride == entry.stride && stride != 0 {
            entry.confidence = entry.confidence.saturating_add(1);
        } else {
            entry.confidence = 0;
            entry.stride = stride;
        }
        entry.last_addr = addr;
        if entry.confidence >= 2 {
            let stride = entry.stride;
            let lanes = self.cfg.runahead.vector_lanes;
            for lane in 1..=lanes {
                let target = addr.wrapping_add_signed(stride * lane as i64);
                let access = self.mem.access(target, now, AccessKind::Load, FillPolicy::Normal);
                if access.filled {
                    self.emit(crate::probe::PipelineEvent::CacheFill {
                        cycle: now,
                        level: access.level,
                        line: self.mem.line_of(target),
                        transient: true,
                    });
                }
                self.stats.vector_lane_prefetches += 1;
            }
        }
    }
}
