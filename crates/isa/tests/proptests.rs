//! Property-based tests for the ISA crate: evaluator invariants, constant
//! materialization and predecode agreement.

use proptest::prelude::*;
use specrun_isa::{
    AluOp, BranchCond, CtrlClass, DecodedProgram, FpOp, FpReg, Inst, IntReg, MemWidth,
    ProgramBuilder, INST_BYTES,
};

fn int_reg() -> impl Strategy<Value = IntReg> {
    (0u8..32).prop_map(|i| IntReg::new(i).unwrap())
}

fn fp_reg() -> impl Strategy<Value = FpReg> {
    (0u8..16).prop_map(|i| FpReg::new(i).unwrap())
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
        Just(AluOp::Sar),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Rem),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
    ]
}

fn fp_op() -> impl Strategy<Value = FpOp> {
    prop_oneof![Just(FpOp::Add), Just(FpOp::Sub), Just(FpOp::Mul), Just(FpOp::Div)]
}

fn cond() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

fn width() -> impl Strategy<Value = MemWidth> {
    prop_oneof![Just(MemWidth::B1), Just(MemWidth::B2), Just(MemWidth::B4), Just(MemWidth::B8)]
}

fn inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Halt),
        Just(Inst::Ret),
        (alu_op(), int_reg(), int_reg(), int_reg()).prop_map(|(op, rd, rs1, rs2)| Inst::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (alu_op(), int_reg(), int_reg(), any::<i32>())
            .prop_map(|(op, rd, rs1, imm)| Inst::AluImm { op, rd, rs1, imm }),
        (int_reg(), any::<i32>()).prop_map(|(rd, imm)| Inst::MovImm { rd, imm }),
        (fp_op(), fp_reg(), fp_reg(), fp_reg()).prop_map(|(op, fd, fs1, fs2)| Inst::FpAlu {
            op,
            fd,
            fs1,
            fs2
        }),
        (fp_reg(), int_reg()).prop_map(|(fd, rs1)| Inst::FpCvt { fd, rs1 }),
        (int_reg(), fp_reg()).prop_map(|(rd, fs1)| Inst::FpMov { rd, fs1 }),
        (width(), int_reg(), int_reg(), any::<i32>())
            .prop_map(|(width, rd, base, offset)| Inst::Load { width, rd, base, offset }),
        (fp_reg(), int_reg(), any::<i32>()).prop_map(|(fd, base, offset)| Inst::FpLoad {
            fd,
            base,
            offset
        }),
        (width(), int_reg(), int_reg(), any::<i32>())
            .prop_map(|(width, src, base, offset)| Inst::Store { width, src, base, offset }),
        (fp_reg(), int_reg(), any::<i32>()).prop_map(|(fs, base, offset)| Inst::FpStore {
            fs,
            base,
            offset
        }),
        (int_reg(), any::<i32>()).prop_map(|(base, offset)| Inst::Flush { base, offset }),
        (cond(), int_reg(), int_reg(), any::<i32>())
            .prop_map(|(cond, rs1, rs2, offset)| Inst::Branch { cond, rs1, rs2, offset }),
        any::<i32>().prop_map(|offset| Inst::Jump { offset }),
        (int_reg(), any::<i32>()).prop_map(|(base, offset)| Inst::JumpInd { base, offset }),
        any::<i32>().prop_map(|offset| Inst::Call { offset }),
        int_reg().prop_map(|base| Inst::CallInd { base }),
        int_reg().prop_map(|rd| Inst::RdCycle { rd }),
    ]
}

proptest! {
    /// ALU evaluation never panics and Slt/Sltu produce only 0 or 1.
    #[test]
    fn alu_eval_total(op in alu_op(), a in any::<u64>(), b in any::<u64>()) {
        let r = op.eval(a, b);
        if matches!(op, AluOp::Slt | AluOp::Sltu) {
            prop_assert!(r <= 1);
        }
    }

    /// Branch conditions are exhaustive complements: Eq/Ne, Lt/Ge, Ltu/Geu.
    #[test]
    fn cond_complements(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_ne!(BranchCond::Eq.eval(a, b), BranchCond::Ne.eval(a, b));
        prop_assert_ne!(BranchCond::Lt.eval(a, b), BranchCond::Ge.eval(a, b));
        prop_assert_ne!(BranchCond::Ltu.eval(a, b), BranchCond::Geu.eval(a, b));
    }

    /// li64 materializes any 64-bit constant (checked by symbolic execution
    /// of the emitted μops).
    #[test]
    fn li64_materializes_any_constant(value in any::<u64>()) {
        let rd = IntReg::new(5).unwrap();
        let mut b = ProgramBuilder::new(0);
        b.li64(rd, value);
        b.halt();
        let p = b.build().unwrap();
        let mut reg = 0u64;
        for inst in p.insts() {
            match *inst {
                Inst::MovImm { imm, .. } => reg = imm as i64 as u64,
                Inst::AluImm { op, imm, .. } => reg = op.eval(reg, imm as i64 as u64),
                Inst::Halt => break,
                ref other => prop_assert!(false, "unexpected inst {}", other),
            }
        }
        prop_assert_eq!(reg, value);
    }

    /// `sources` never reports r0 and never exceeds three entries.
    #[test]
    fn sources_exclude_zero_reg(i in inst()) {
        for src in i.sources().into_iter().flatten() {
            prop_assert_ne!(src, specrun_isa::ArchReg::Int(IntReg::ZERO));
        }
    }

    /// Predecoded `UopMeta` agrees with every `Inst`-derived static fact
    /// for arbitrary programs: sources/dest, the classification predicates,
    /// the serializing flag, the control class and the pre-resolved direct
    /// target (including wrapping branch offsets).
    #[test]
    fn decoded_program_matches_inst_derivations(
        insts in proptest::collection::vec(inst(), 1..60),
        base_page in 0u64..0x1_0000,
    ) {
        let base = base_page * INST_BYTES;
        let mut b = ProgramBuilder::new(base);
        for i in &insts {
            b.push(*i);
        }
        let d = DecodedProgram::new(b.build().unwrap());
        prop_assert_eq!(d.meta().len(), insts.len());
        for (idx, i) in insts.iter().enumerate() {
            let pc = base + idx as u64 * INST_BYTES;
            let (fetched, m) = d.fetch(pc).expect("pc inside the image");
            prop_assert_eq!(fetched, *i);
            prop_assert_eq!(m.srcs, i.sources());
            prop_assert_eq!(m.dest, i.dest());
            prop_assert_eq!(m.is_load(), i.is_load());
            prop_assert_eq!(m.is_store(), i.is_store());
            prop_assert_eq!(m.is_mem(), i.is_mem());
            prop_assert_eq!(m.is_serializing(), i.is_serializing());
            prop_assert_eq!(m.is_control(), i.is_control());
            prop_assert_eq!(m.is_cond_branch(), i.is_cond_branch());
            prop_assert_eq!(m.is_halt(), matches!(i, Inst::Halt));
            prop_assert_eq!(m.direct_target(), i.direct_target(pc));
            let expected_ctrl = match i {
                Inst::Branch { .. } => CtrlClass::Conditional,
                Inst::Jump { .. } => CtrlClass::Direct,
                Inst::JumpInd { .. } => CtrlClass::Indirect,
                Inst::Call { .. } | Inst::CallInd { .. } => CtrlClass::Call,
                Inst::Ret => CtrlClass::Return,
                _ => CtrlClass::None,
            };
            prop_assert_eq!(m.ctrl, expected_ctrl);
        }
    }
}
