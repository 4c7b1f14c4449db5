//! Branch-scope tracking and taint propagation for the secure-runahead
//! defense (paper §6, Fig. 12).
//!
//! The compiler communicates each structured branch's start/end addresses
//! (`B_ns`/`B_ne`, carried by [`specrun_isa::BranchScope`]). During runahead
//! the tracker follows the *speculative fetch order*: encountering a branch
//! before the enclosing scope's end address means the branches are nested
//! (the paper's matching-order rule), so the inner scope's end must match
//! first.
//!
//! Register taint is a 64-bit mask with one bit per dynamic branch scope
//! (scopes beyond 63 share the last bit, erring toward *more* deletion —
//! conservative for security). Seeds are the predicate source registers of
//! each scope's branch; propagation is union over instruction inputs, and a
//! load's output inherits the taint of its address.

use std::collections::HashMap;

/// A dynamic branch-scope identifier (the `n` of `B_n`).
pub type ScopeId = u32;

/// Taint bit for a scope (scopes ≥ 63 saturate onto bit 63).
pub fn scope_bit(id: ScopeId) -> u64 {
    1u64 << id.min(63)
}

#[derive(Debug, Clone, Copy)]
struct ActiveScope {
    id: ScopeId,
    end_pc: u64,
}

/// Tracks nested branch scopes and per-scope USL ordinals during one
/// runahead episode.
#[derive(Debug, Clone, Default)]
pub struct TaintTracker {
    stack: Vec<ActiveScope>,
    next_id: ScopeId,
    usl_counts: HashMap<ScopeId, u32>,
    children: HashMap<ScopeId, Vec<ScopeId>>,
}

impl TaintTracker {
    /// Creates an idle tracker.
    pub fn new() -> TaintTracker {
        TaintTracker::default()
    }

    /// Resets all state (runahead entry).
    pub fn reset(&mut self) {
        self.stack.clear();
        self.next_id = 0;
        self.usl_counts.clear();
        self.children.clear();
    }

    /// Observes the next instruction in fetch order, closing scopes whose
    /// end address has been reached.
    pub fn on_inst(&mut self, pc: u64) {
        while let Some(top) = self.stack.last() {
            if pc >= top.end_pc {
                self.stack.pop();
            } else {
                break;
            }
        }
    }

    /// Observes a scoped branch at `branch_pc` with scope end `end_pc`,
    /// opening a new dynamic scope nested in the current one. Returns the
    /// new scope id.
    pub fn on_branch(&mut self, branch_pc: u64, end_pc: u64) -> ScopeId {
        self.on_inst(branch_pc);
        let id = self.next_id;
        self.next_id += 1;
        if let Some(parent) = self.stack.last() {
            self.children.entry(parent.id).or_default().push(id);
        }
        self.stack.push(ActiveScope { id, end_pc });
        id
    }

    /// The innermost open scope, if any.
    pub fn current_scope(&self) -> Option<ScopeId> {
        self.stack.last().map(|s| s.id)
    }

    /// Allocates the next USL ordinal (`m` of `B_{n,m}`) within `scope`.
    pub fn next_usl_ordinal(&mut self, scope: ScopeId) -> u32 {
        let m = self.usl_counts.entry(scope).or_insert(0);
        *m += 1;
        *m
    }

    /// `scope` plus all scopes nested (transitively) inside it — the set
    /// whose SL-cache entries Algorithm 1 deletes when `scope` turns out
    /// mispredicted.
    #[allow(dead_code)] // the verdict bookkeeping keeps its own copy; tests use this
    pub fn scope_and_descendants(&self, scope: ScopeId) -> Vec<ScopeId> {
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

    /// Snapshot of the nesting relation (consumed by the post-exit verdict
    /// bookkeeping).
    pub fn children_map(&self) -> HashMap<ScopeId, Vec<ScopeId>> {
        self.children.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_scope_opens_and_closes() {
        let mut t = TaintTracker::new();
        let b1 = t.on_branch(0x100, 0x140);
        assert_eq!(t.current_scope(), Some(b1));
        t.on_inst(0x108);
        assert_eq!(t.current_scope(), Some(b1));
        t.on_inst(0x140); // end reached
        assert_eq!(t.current_scope(), None);
    }

    #[test]
    fn nesting_matches_inner_end_first() {
        let mut t = TaintTracker::new();
        let b1 = t.on_branch(0x100, 0x200);
        let b2 = t.on_branch(0x120, 0x160); // encountered before B1's end ⇒ inner
        assert_eq!(t.current_scope(), Some(b2));
        t.on_inst(0x160); // inner end matches first
        assert_eq!(t.current_scope(), Some(b1));
        t.on_inst(0x200);
        assert_eq!(t.current_scope(), None);
    }

    #[test]
    fn usl_ordinals_count_per_scope() {
        let mut t = TaintTracker::new();
        let b1 = t.on_branch(0x100, 0x300);
        let b2 = t.on_branch(0x120, 0x200);
        assert_eq!(t.next_usl_ordinal(b1), 1);
        assert_eq!(t.next_usl_ordinal(b2), 1);
        assert_eq!(t.next_usl_ordinal(b1), 2);
    }

    #[test]
    fn descendants_cover_transitive_nesting() {
        let mut t = TaintTracker::new();
        let b1 = t.on_branch(0x100, 0x400);
        let b2 = t.on_branch(0x110, 0x300);
        let b3 = t.on_branch(0x120, 0x200);
        let mut set = t.scope_and_descendants(b1);
        set.sort_unstable();
        assert_eq!(set, vec![b1, b2, b3]);
        assert_eq!(t.scope_and_descendants(b3), vec![b3]);
    }

    #[test]
    fn scope_bits_saturate() {
        assert_eq!(scope_bit(0), 1);
        assert_eq!(scope_bit(5), 32);
        assert_eq!(scope_bit(63), 1 << 63);
        assert_eq!(scope_bit(200), 1 << 63);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = TaintTracker::new();
        t.on_branch(0x100, 0x200);
        t.reset();
        assert_eq!(t.current_scope(), None);
        assert_eq!(t.on_branch(0x100, 0x200), 0, "scope ids restart at 0");
    }

    /// Reproduces the paper's Fig. 12 walkthrough: the machine-code sequence
    /// with outer branch `B1` and inner branch `B2`, checking the `Btag` and
    /// `IS` assignments of every load.
    ///
    /// Registers are modelled as a name → taint-mask map, with loads
    /// inheriting the taint of their address, exactly as the core's execute
    /// stage does.
    #[test]
    fn fig12_btag_and_is_assignment() {
        let mut t = TaintTracker::new();
        let mut taint: HashMap<&str, u64> = HashMap::new();
        // Addresses: one slot per listed instruction, 8 bytes apart.
        // B1 guards pcs 0x08..0x78 (ends after `load r9`), B2 guards
        // 0x30..0x60 (ends after `load r7`).
        let b1 = t.on_branch(0x00, 0x78);
        // Predicate rX is tainted by B1 (paper: `r1 = rB + rX  // tainted`).
        taint.insert("rX", scope_bit(b1));
        type LoadRecord = (&'static str, Option<(ScopeId, u32)>, u64);
        let mut results: Vec<LoadRecord> = Vec::new();
        let load = |t: &mut TaintTracker,
                    results: &mut Vec<LoadRecord>,
                    pc: u64,
                    name: &'static str,
                    addr_taint: u64| {
            t.on_inst(pc);
            let scope = t.current_scope();
            let btag = scope.map(|s| {
                let m = if addr_taint != 0 { t.next_usl_ordinal(s) } else { 0 };
                (s, m)
            });
            results.push((name, btag, addr_taint));
            addr_taint // the loaded value inherits the address taint
        };
        // load r0 (rA): untainted address, inside B1.
        let r0_taint = load(&mut t, &mut results, 0x08, "r0", 0);
        let _ = r0_taint;
        // r1 = rB + rX → tainted by B1.
        t.on_inst(0x10);
        let r1 = taint["rX"];
        // load r2 (r1): tainted load, B1,1.
        let r2 = load(&mut t, &mut results, 0x18, "r2", r1);
        // r3 = rC * r2 (tainted by B1).
        t.on_inst(0x20);
        let r3 = r2;
        // inner branch B2 at 0x30 (predicate rY tainted by B2).
        t.on_inst(0x28);
        let b2 = t.on_branch(0x30, 0x60);
        let ry = scope_bit(b2);
        // r4 = rD - rY → tainted by B2.
        t.on_inst(0x38);
        let r4 = ry;
        // load r5 (r4): tainted load, B2,1.
        let r5 = load(&mut t, &mut results, 0x40, "r5", r4);
        // r6 = r5 + r2 → tainted by B1 and B2.
        t.on_inst(0x48);
        let r6 = r5 | r2;
        // load r7 (r6): tainted load, B2,2, IS = {B1, B2}.
        let r7 = load(&mut t, &mut results, 0x50, "r7", r6);
        // end of B2 at 0x60; r8 = r3 - rE (tainted B1).
        t.on_inst(0x60);
        let r8 = r3;
        // load r9 (r8): tainted load, B1,2.
        let r9 = load(&mut t, &mut results, 0x68, "r9", r8);
        // end of B1 at 0x78; r10 = rF + r9 (taint escapes the scope).
        t.on_inst(0x78);
        let r10 = r9;
        // load r11 (r10): outside any scope (Btag 0) but IS = B1.
        let _r11 = load(&mut t, &mut results, 0x80, "r11", r10);
        // r12 = rG * r7.
        t.on_inst(0x88);
        let r12 = r7;
        // load r13 (r12): outside scope, IS = {B1, B2}.
        let _r13 = load(&mut t, &mut results, 0x90, "r13", r12);
        // load r14 (rH): completely safe.
        let _r14 = load(&mut t, &mut results, 0x98, "r14", 0);

        let expect: Vec<LoadRecord> = vec![
            ("r0", Some((b1, 0)), 0),
            ("r2", Some((b1, 1)), scope_bit(b1)),
            ("r5", Some((b2, 1)), scope_bit(b2)),
            ("r7", Some((b2, 2)), scope_bit(b1) | scope_bit(b2)),
            ("r9", Some((b1, 2)), scope_bit(b1)),
            ("r11", None, scope_bit(b1)),
            ("r13", None, scope_bit(b1) | scope_bit(b2)),
            ("r14", None, 0),
        ];
        assert_eq!(results, expect, "Fig. 12 Btag/IS table");
        // B2 is nested in B1.
        assert_eq!(t.scope_and_descendants(b1), vec![b1, b2]);
    }
}
