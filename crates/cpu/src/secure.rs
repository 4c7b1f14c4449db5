//! Secure runahead execution (paper §6): SL-cache routing, taint tagging
//! and Algorithm 1's post-exit load path.
//!
//! During a secure runahead episode, loads that miss to DRAM are *not*
//! installed into the hierarchy; their fills are parked in the SL cache with
//! `Btag`/`IS` taint tags. After the episode, loads consult the SL cache
//! while its counter `C` is nonzero:
//!
//! * safe entries (and entries outside any branch scope, `Btag = 0`)
//!   promote to L1 and leave the SL cache;
//! * `Btag = B(n, m)` entries wait for branch `B_n`'s architectural verdict
//!   — a correct prediction promotes, a misprediction deletes the entries
//!   selected by the `IS` masks of `B_n` and its nested branches.

use std::collections::{HashMap, HashSet};

use specrun_isa::Inst;
use specrun_mem::{Btag, SlCache, SlTags};

use crate::core::{Core, PredInfo};
use crate::regs::PhysRef;
use crate::sched::TimerQueue;
use crate::taint::{scope_bit, ScopeId};

/// A DRAM fill headed for the SL cache (its completion cycle is the event
/// key in the pending-fill queue).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingFill {
    pub line: u64,
    pub tags: SlTags,
}

/// Result of consulting the SL cache on a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlOutcome {
    /// Line not in the SL cache; use the regular path.
    NotPresent,
    /// Entry is gated on an unresolved branch verdict; retry later.
    Wait,
    /// Entry serves the load with the given extra latency (already promoted
    /// or deleted as Algorithm 1 dictates).
    Serve {
        /// Extra cycles beyond the issue cycle.
        latency: u64,
    },
}

/// State of the §6 defense outside the taint tracker.
#[derive(Debug, Clone)]
pub(crate) struct SecureState {
    /// The SL cache itself.
    pub sl: SlCache,
    /// Fills still travelling from DRAM toward the SL cache, keyed on their
    /// completion cycle (same event-queue machinery as scheduled flushes).
    pub pending_fills: TimerQueue<PendingFill>,
    /// Runahead branches awaiting an architectural verdict: PC → scopes
    /// predicted at that PC with their predicted direction.
    pub records: HashMap<u64, Vec<(ScopeId, bool)>>,
    /// Scopes with a pending verdict.
    pub pending_scopes: HashSet<ScopeId>,
    /// Verdicts: scope → prediction was correct (the paper's `S[]` plus the
    /// negative outcomes).
    pub verdicts: HashMap<ScopeId, bool>,
    /// Nesting relation captured at episode end (scope → direct inner
    /// scopes).
    pub children: HashMap<ScopeId, Vec<ScopeId>>,
}

impl SecureState {
    pub(crate) fn new(sl: SlCache) -> SecureState {
        SecureState {
            sl,
            pending_fills: TimerQueue::new(),
            records: HashMap::new(),
            pending_scopes: HashSet::new(),
            verdicts: HashMap::new(),
            children: HashMap::new(),
        }
    }

    /// Starts a fresh episode: leftover SL entries are dropped (the paper
    /// drains the SL cache before the next round of runahead).
    pub(crate) fn begin_episode(&mut self) {
        self.sl.clear();
        self.pending_fills.clear();
        self.records.clear();
        self.pending_scopes.clear();
        self.verdicts.clear();
        self.children.clear();
    }

    /// Captures the nesting relation at episode end.
    pub(crate) fn end_episode(&mut self, tracker: &crate::taint::TaintTracker) {
        self.children = tracker.children_map();
    }

    /// `scope` plus all transitively nested scopes.
    fn scope_and_descendants(&self, scope: ScopeId) -> Vec<ScopeId> {
        let mut out = vec![scope];
        let mut i = 0;
        while i < out.len() {
            if let Some(kids) = self.children.get(&out[i]) {
                out.extend(kids.iter().copied());
            }
            i += 1;
        }
        out
    }

    /// Applies a branch verdict; on misprediction deletes the SL entries of
    /// the branch and its inner branches. Returns entries deleted.
    pub(crate) fn apply_verdict(&mut self, scope: ScopeId, correct: bool) -> usize {
        self.pending_scopes.remove(&scope);
        self.verdicts.insert(scope, correct);
        if correct {
            return 0;
        }
        let mut deleted = 0;
        for s in self.scope_and_descendants(scope) {
            deleted += self.sl.remove_tainted_by(scope_bit(s));
            deleted += self.sl.remove_in_scope(s);
            self.pending_scopes.remove(&s);
            self.verdicts.entry(s).or_insert(false);
        }
        deleted
    }
}

impl<O: crate::probe::PipelineObserver> Core<O> {
    /// Rename-time hook for the instruction `inst` at `pc` (with its fetch
    /// prediction `pred`): tracks branch scopes in speculative order and
    /// seeds predicate taint. Returns `(scope id for a scoped conditional,
    /// innermost scope open at this instruction)`.
    #[inline]
    pub(crate) fn secure_on_dispatch(
        &mut self,
        pc: u64,
        inst: &Inst,
        pred: &Option<PredInfo>,
        srcs: &[Option<PhysRef>; 3],
    ) -> (Option<u32>, Option<u32>) {
        if !self.cfg.runahead.secure.sl_cache || !self.in_runahead() {
            return (None, None);
        }
        self.tracker.on_inst(pc);
        let branch_scope = match self.scope_map.get(&pc).copied() {
            Some(end_pc) if inst.is_cond_branch() => {
                let id = self.tracker.on_branch(pc, end_pc);
                // Seed taint: the predicate's source registers become
                // tainted data within the new scope (Fig. 12: `rX` under
                // `B1`, `rY` under `B2`).
                for src in srcs.iter().flatten() {
                    self.regs.add_taint(*src, scope_bit(id));
                }
                // Record for the post-exit verdict.
                self.secure
                    .records
                    .entry(pc)
                    .or_default()
                    .push((id, pred.is_some_and(|p| p.taken)));
                self.secure.pending_scopes.insert(id);
                Some(id)
            }
            _ => None,
        };
        (branch_scope, self.tracker.current_scope())
    }

    /// Registers a runahead DRAM fill destined for the SL cache, tagging it
    /// per Fig. 12: `Btag` from the scope open at dispatch (with a USL
    /// ordinal when the address is tainted) and `IS` from the address taint
    /// mask.
    pub(crate) fn secure_record_fill(&mut self, seq: u64, addr: u64, complete_at: u64, taint: u64) {
        let scope = self.rob.get_mut(seq).and_then(|e| e.dispatch_scope);
        let btag = scope.map(|scope| {
            let ordinal = if taint != 0 { self.tracker.next_usl_ordinal(scope) } else { 0 };
            Btag { branch: scope, ordinal }
        });
        let line = self.mem.line_of(addr);
        let tags = SlTags { btag, is_mask: taint };
        self.secure.pending_fills.push(complete_at, PendingFill { line, tags });
    }

    /// Moves completed fills into the SL cache. A fill that is already
    /// provably safe (no scope, no taint) arriving while the core is back in
    /// normal mode promotes straight to the hierarchy — Algorithm 1 would
    /// promote it on first touch anyway, and this keeps the SL cache free of
    /// orphaned safe entries.
    pub(crate) fn drain_sl_fills(&mut self, now: u64) {
        if self.secure.pending_fills.is_empty() {
            return;
        }
        let in_runahead = self.in_runahead();
        let line_bytes = self.mem.line_bytes();
        // Due fills pop in insertion order (the old sweep's processing
        // order); the SL cache's eviction behaviour depends on it.
        while let Some(f) = self.secure.pending_fills.pop_due(now) {
            if !in_runahead && f.tags.is_safe() {
                self.mem.install(f.line * line_bytes);
                self.stats.sl_promotions += 1;
            } else {
                self.secure.sl.insert(f.line, f.tags);
            }
        }
    }

    /// Branch-resolution hook for verdict bookkeeping. Called for every
    /// resolved conditional; during runahead, scoped branches that resolve
    /// (valid sources) get their verdict immediately.
    pub(crate) fn secure_on_resolution(
        &mut self,
        pc: u64,
        actual_taken: bool,
        scope_id: Option<u32>,
        in_runahead: bool,
    ) {
        if !self.cfg.runahead.secure.sl_cache {
            return;
        }
        if in_runahead {
            if let Some(id) = scope_id {
                let predicted = self
                    .secure
                    .records
                    .get(&pc)
                    .and_then(|v| v.iter().find(|(s, _)| *s == id).map(|(_, p)| *p));
                if let Some(predicted) = predicted {
                    let deleted = self.secure.apply_verdict(id, predicted == actual_taken);
                    self.stats.sl_deletions += deleted as u64;
                }
            }
            return;
        }
        // Post-exit: the architectural re-execution of the branch supplies
        // the verdict for every runahead scope recorded at this PC.
        let Some(records) = self.secure.records.remove(&pc) else { return };
        for (scope, predicted) in records {
            if self.secure.verdicts.contains_key(&scope) {
                continue;
            }
            let correct = predicted == actual_taken;
            let deleted = self.secure.apply_verdict(scope, correct);
            self.stats.sl_deletions += deleted as u64;
        }
    }

    /// Algorithm 1: consults the SL cache for a load to `addr`.
    pub(crate) fn secure_load_check(
        &mut self,
        _seq: u64,
        addr: u64,
        _now: u64,
        in_runahead: bool,
    ) -> SlOutcome {
        let line = self.mem.line_of(addr);
        let Some(tags) = self.secure.sl.lookup(line).copied() else {
            return SlOutcome::NotPresent;
        };
        self.stats.sl_hits += 1;
        let latency = self.cfg.runahead.secure.sl_latency + self.cfg.mem.l1d.hit_latency;
        if in_runahead {
            // Runahead loads may read SL data but never move it.
            return SlOutcome::Serve { latency };
        }
        match tags.btag {
            None => {
                // Algorithm 1 lines 21–23: Btag = 0 promotes directly.
                self.secure.sl.remove(line);
                self.mem.install(addr);
                self.stats.sl_promotions += 1;
                SlOutcome::Serve { latency }
            }
            Some(btag) => {
                match self.secure.verdicts.get(&btag.branch) {
                    Some(true) => {
                        // Lines 11–14: branch in S[], promote.
                        self.secure.sl.remove(line);
                        self.mem.install(addr);
                        self.stats.sl_promotions += 1;
                        SlOutcome::Serve { latency }
                    }
                    Some(false) => {
                        // Should already be deleted; drop defensively.
                        self.secure.sl.remove(line);
                        self.stats.sl_deletions += 1;
                        SlOutcome::NotPresent
                    }
                    None => {
                        if self.secure.pending_scopes.contains(&btag.branch) {
                            // Line 10: wait for the resolution of B_n.
                            SlOutcome::Wait
                        } else {
                            // No pending branch can ever supply a verdict
                            // (divergent path): treat as unsafe and drop.
                            self.secure.sl.remove(line);
                            self.stats.sl_deletions += 1;
                            SlOutcome::NotPresent
                        }
                    }
                }
            }
        }
    }
}
