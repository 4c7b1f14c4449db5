//! Predecoded micro-op metadata: the simulator's "trace cache".
//!
//! A cycle-level pipeline consults the same *static* facts about an
//! instruction on every cycle it is in flight — which registers it reads
//! and writes, whether it is a load/store/branch/serializer, which
//! functional-unit class it needs, where a direct branch goes. Re-deriving
//! those facts by pattern-matching the [`Inst`] enum at every pipeline
//! stage of every simulated cycle dominated the busy-pipeline simulation
//! cost. [`DecodedProgram`] lowers each instruction exactly **once** (at
//! program construction) into a flat, cache-friendly [`UopMeta`] table
//! indexed by `pc / INST_BYTES`; the pipeline then reads pre-resolved
//! fields instead of re-matching. The `Inst` itself stays alongside for the
//! semantics-carrying execute paths (operand evaluation, branch-condition
//! evaluation, attack/defense hooks).
//!
//! This mirrors how hardware amortizes decode: the paper's Fig. 6 front end
//! fetches from a *trace cache* of predecoded micro-ops, and the core's
//! rename/issue stages operate on decoded fields, never on raw bytes.
//!
//! ```
//! use specrun_isa::{DecodedProgram, IntReg, ProgramBuilder};
//! let r1 = IntReg::new(1).unwrap();
//! let mut b = ProgramBuilder::new(0x1000);
//! b.ld(r1, r1, 0);
//! b.halt();
//! let d = DecodedProgram::new(b.build().unwrap());
//! let (_, meta) = d.fetch(0x1000).unwrap();
//! assert!(meta.is_load() && meta.is_mem() && !meta.is_store());
//! assert!(d.fetch(0x1008).unwrap().1.is_halt());
//! ```

use crate::inst::{AluOp, FpOp, Inst, Sources, INST_BYTES};
use crate::program::Program;
use crate::reg::ArchReg;

/// Static execution-resource class of a micro-op (the functional-unit mix
/// of the paper's Table 1). The mapping is fixed at decode so issue does
/// not re-classify the instruction every cycle it retries for a free unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ExecClass {
    /// Integer add/logic/shift/compare, branches, moves, nops.
    IntAdd,
    /// Integer multiply.
    IntMul,
    /// Integer divide/remainder.
    IntDiv,
    /// FP add/subtract (and int→FP conversion).
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide.
    FpDiv,
    /// Load/store/flush address port (calls and returns touch the stack).
    Mem,
}

/// Control-flow class of a micro-op — the predictor classification,
/// resolved once at decode instead of per fetch cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CtrlClass {
    /// Not a control-flow instruction.
    None,
    /// Conditional branch (PHT-predicted).
    Conditional,
    /// Unconditional direct jump (target exact at decode).
    Direct,
    /// Indirect jump (BTB-predicted).
    Indirect,
    /// Direct or indirect call (BTB-predicted, pushes the RSB).
    Call,
    /// Return (RSB-predicted).
    Return,
}

/// Classification flag bits of a [`UopMeta`] (see the `is_*` accessors).
mod flags {
    pub const LOAD: u16 = 1 << 0;
    pub const STORE: u16 = 1 << 1;
    pub const MEM: u16 = 1 << 2;
    pub const FLUSH: u16 = 1 << 3;
    pub const NEEDS_SQ: u16 = 1 << 4;
    pub const SERIALIZING: u16 = 1 << 5;
    pub const CONTROL: u16 = 1 << 6;
    pub const COND_BRANCH: u16 = 1 << 7;
    pub const HALT: u16 = 1 << 8;
    pub const DATA_STORE: u16 = 1 << 9;
    pub const DIRECT_TARGET: u16 = 1 << 10;
}

/// Predecoded static metadata of one micro-op: everything the pipeline's
/// fetch/rename/issue/writeback stages would otherwise re-derive from the
/// [`Inst`] enum on every cycle, resolved once.
///
/// Every field agrees with the corresponding `Inst` derivation by
/// construction; `CpuConfig::predecode_check` re-derives and asserts the
/// agreement at every fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopMeta {
    /// Renamed-at-dispatch source registers ([`Inst::sources`]).
    pub srcs: Sources,
    /// Destination register, if any ([`Inst::dest`]).
    pub dest: Option<ArchReg>,
    /// Absolute direct control-flow target ([`Inst::direct_target`]
    /// resolved against this micro-op's own PC). Meaningful only when the
    /// `DIRECT_TARGET` flag is set; use [`UopMeta::direct_target`].
    target: u64,
    /// Classification bits (see the `is_*` accessors).
    flags: u16,
    /// Functional-unit class required at issue.
    pub exec: ExecClass,
    /// Predictor classification.
    pub ctrl: CtrlClass,
    /// Memory access width in bytes: the load/store data width (stack pushes
    /// and pops are 8), the line size for `clflush` store-queue slots, 8 for
    /// non-memory micro-ops.
    pub mem_width: u8,
}

impl UopMeta {
    /// Lowers one instruction at `pc` (called once per program instruction
    /// by [`DecodedProgram::new`], and by the `predecode_check` audit).
    pub fn of(inst: &Inst, pc: u64) -> UopMeta {
        use flags::*;
        let mut f = 0u16;
        if inst.is_load() {
            f |= LOAD;
        }
        if inst.is_store() {
            f |= STORE;
        }
        if inst.is_mem() {
            f |= MEM;
        }
        if matches!(inst, Inst::Flush { .. }) {
            f |= FLUSH;
        }
        if inst.is_store() || matches!(inst, Inst::Flush { .. }) {
            f |= NEEDS_SQ;
        }
        if inst.is_serializing() {
            f |= SERIALIZING;
        }
        if inst.is_control() {
            f |= CONTROL;
        }
        if inst.is_cond_branch() {
            f |= COND_BRANCH;
        }
        if matches!(inst, Inst::Halt) {
            f |= HALT;
        }
        if matches!(inst, Inst::Store { .. } | Inst::FpStore { .. }) {
            f |= DATA_STORE;
        }
        let ctrl = match inst {
            Inst::Branch { .. } => CtrlClass::Conditional,
            Inst::Jump { .. } => CtrlClass::Direct,
            Inst::JumpInd { .. } => CtrlClass::Indirect,
            Inst::Call { .. } | Inst::CallInd { .. } => CtrlClass::Call,
            Inst::Ret => CtrlClass::Return,
            _ => CtrlClass::None,
        };
        let exec = match inst {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                AluOp::Mul => ExecClass::IntMul,
                AluOp::Div | AluOp::Rem => ExecClass::IntDiv,
                _ => ExecClass::IntAdd,
            },
            Inst::FpAlu { op, .. } => match op {
                FpOp::Add | FpOp::Sub => ExecClass::FpAdd,
                FpOp::Mul => ExecClass::FpMul,
                FpOp::Div => ExecClass::FpDiv,
            },
            Inst::FpCvt { .. } => ExecClass::FpAdd,
            Inst::Load { .. }
            | Inst::FpLoad { .. }
            | Inst::Store { .. }
            | Inst::FpStore { .. }
            | Inst::Flush { .. }
            | Inst::Call { .. }
            | Inst::CallInd { .. }
            | Inst::Ret => ExecClass::Mem,
            _ => ExecClass::IntAdd,
        };
        let mem_width = match inst {
            Inst::Load { width, .. } | Inst::Store { width, .. } => width.bytes() as u8,
            // The line-granular clflush slot; the simulator's fixed line
            // size (all level geometries share it, see `MemConfig`).
            Inst::Flush { .. } => 64,
            // FP accesses and stack pushes/pops move 8 bytes; non-memory
            // micro-ops keep the old `load_width` default of 8.
            _ => 8,
        };
        let target = inst.direct_target(pc);
        if target.is_some() {
            f |= DIRECT_TARGET;
        }
        UopMeta {
            srcs: inst.sources(),
            dest: inst.dest(),
            target: target.unwrap_or(0),
            flags: f,
            exec,
            ctrl,
            mem_width,
        }
    }

    /// Whether this micro-op reads data memory ([`Inst::is_load`]).
    #[inline]
    pub fn is_load(&self) -> bool {
        self.flags & flags::LOAD != 0
    }

    /// Whether this micro-op writes data memory ([`Inst::is_store`]).
    #[inline]
    pub fn is_store(&self) -> bool {
        self.flags & flags::STORE != 0
    }

    /// Whether this micro-op occupies a load/store-queue slot
    /// ([`Inst::is_mem`]).
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.flags & flags::MEM != 0
    }

    /// Whether this is a `clflush`.
    #[inline]
    pub fn is_flush(&self) -> bool {
        self.flags & flags::FLUSH != 0
    }

    /// Whether dispatch must claim a store-queue slot (stores, call-pushes
    /// and flushes).
    #[inline]
    pub fn needs_sq(&self) -> bool {
        self.flags & flags::NEEDS_SQ != 0
    }

    /// Whether this is a data store (`Store`/`FpStore`) issued in two
    /// phases (address generation, then data delivery).
    #[inline]
    pub fn is_data_store(&self) -> bool {
        self.flags & flags::DATA_STORE != 0
    }

    /// Whether this micro-op issues alone at the window head
    /// ([`Inst::is_serializing`]).
    #[inline]
    pub fn is_serializing(&self) -> bool {
        self.flags & flags::SERIALIZING != 0
    }

    /// Whether this micro-op can redirect control flow
    /// ([`Inst::is_control`]).
    #[inline]
    pub fn is_control(&self) -> bool {
        self.flags & flags::CONTROL != 0
    }

    /// Whether this is a conditional branch ([`Inst::is_cond_branch`]).
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        self.flags & flags::COND_BRANCH != 0
    }

    /// Whether this micro-op halts the machine.
    #[inline]
    pub fn is_halt(&self) -> bool {
        self.flags & flags::HALT != 0
    }

    /// Pre-resolved direct control-flow target ([`Inst::direct_target`]).
    #[inline]
    pub fn direct_target(&self) -> Option<u64> {
        (self.flags & flags::DIRECT_TARGET != 0).then_some(self.target)
    }
}

/// A [`Program`] lowered once into its [`UopMeta`] table.
///
/// The table is flat and indexed by `(pc - text_base) / INST_BYTES`, so the
/// per-fetch lookup is one bounds check and two array reads.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    program: Program,
    meta: Box<[UopMeta]>,
}

impl DecodedProgram {
    /// Lowers every instruction of `program` exactly once.
    pub fn new(program: Program) -> DecodedProgram {
        let base = program.text_base();
        let meta = program
            .insts()
            .iter()
            .enumerate()
            .map(|(i, inst)| UopMeta::of(inst, base + i as u64 * INST_BYTES))
            .collect();
        DecodedProgram { program, meta }
    }

    /// The underlying program image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The full metadata table, in layout order.
    pub fn meta(&self) -> &[UopMeta] {
        &self.meta
    }

    /// The instruction and its predecoded metadata at `pc`, or `None`
    /// outside the text image or at a misaligned PC (same domain as
    /// [`Program::fetch`]).
    #[inline]
    pub fn fetch(&self, pc: u64) -> Option<(Inst, &UopMeta)> {
        const _: () = assert!(INST_BYTES.is_power_of_two());
        let base = self.program.text_base();
        let off = pc.wrapping_sub(base);
        if pc < base || off & (INST_BYTES - 1) != 0 {
            return None;
        }
        let idx = (off / INST_BYTES) as usize;
        let inst = *self.program.insts().get(idx)?;
        Some((inst, &self.meta[idx]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::MemWidth;
    use crate::program::ProgramBuilder;
    use crate::reg::{FpReg, IntReg};

    fn r(i: u8) -> IntReg {
        IntReg::new(i).unwrap()
    }

    fn decode_one(inst: Inst) -> UopMeta {
        UopMeta::of(&inst, 0x1000)
    }

    #[test]
    fn classification_flags_match_inst_queries() {
        let cases = [
            Inst::Nop,
            Inst::Halt,
            Inst::Ret,
            Inst::RdCycle { rd: r(1) },
            Inst::Load { width: MemWidth::B4, rd: r(2), base: r(3), offset: 8 },
            Inst::Store { width: MemWidth::B2, src: r(2), base: r(3), offset: -8 },
            Inst::FpStore { fs: FpReg::new(1).unwrap(), base: r(4), offset: 0 },
            Inst::Flush { base: r(5), offset: 0 },
            Inst::Call { offset: 64 },
            Inst::CallInd { base: r(6) },
            Inst::Branch { cond: crate::BranchCond::Eq, rs1: r(1), rs2: r(2), offset: 16 },
            Inst::Jump { offset: -16 },
            Inst::JumpInd { base: r(7), offset: 0 },
        ];
        for inst in cases {
            let m = decode_one(inst);
            assert_eq!(m.is_load(), inst.is_load(), "{inst}");
            assert_eq!(m.is_store(), inst.is_store(), "{inst}");
            assert_eq!(m.is_mem(), inst.is_mem(), "{inst}");
            assert_eq!(m.is_control(), inst.is_control(), "{inst}");
            assert_eq!(m.is_cond_branch(), inst.is_cond_branch(), "{inst}");
            assert_eq!(m.is_serializing(), inst.is_serializing(), "{inst}");
            assert_eq!(m.is_halt(), matches!(inst, Inst::Halt), "{inst}");
            assert_eq!(m.srcs, inst.sources(), "{inst}");
            assert_eq!(m.dest, inst.dest(), "{inst}");
            assert_eq!(m.direct_target(), inst.direct_target(0x1000), "{inst}");
            assert_eq!(
                m.needs_sq(),
                inst.is_store() || matches!(inst, Inst::Flush { .. }),
                "{inst}"
            );
        }
    }

    #[test]
    fn direct_targets_are_pre_resolved_per_pc() {
        let mut b = ProgramBuilder::new(0x2000);
        b.label("head");
        b.nop();
        b.jump("head");
        b.halt();
        let d = DecodedProgram::new(b.build().unwrap());
        let (_, jmp) = d.fetch(0x2008).unwrap();
        assert_eq!(jmp.ctrl, CtrlClass::Direct);
        assert_eq!(jmp.direct_target(), Some(0x2000));
        assert_eq!(d.fetch(0x2000).unwrap().1.direct_target(), None);
    }

    #[test]
    fn fetch_domain_matches_program_fetch() {
        let mut b = ProgramBuilder::new(0x1000);
        b.nop();
        b.halt();
        let p = b.build().unwrap();
        let d = DecodedProgram::new(p.clone());
        for pc in [0x0ff8, 0x1000, 0x1004, 0x1008, 0x1010, u64::MAX] {
            assert_eq!(d.fetch(pc).map(|(i, _)| i), p.fetch(pc), "pc {pc:#x}");
        }
    }

    #[test]
    fn exec_classes_cover_the_fu_mix() {
        assert_eq!(
            decode_one(Inst::Alu { op: AluOp::Mul, rd: r(1), rs1: r(2), rs2: r(3) }).exec,
            ExecClass::IntMul
        );
        assert_eq!(
            decode_one(Inst::AluImm { op: AluOp::Rem, rd: r(1), rs1: r(2), imm: 3 }).exec,
            ExecClass::IntDiv
        );
        let f0 = FpReg::new(0).unwrap();
        assert_eq!(
            decode_one(Inst::FpAlu { op: FpOp::Div, fd: f0, fs1: f0, fs2: f0 }).exec,
            ExecClass::FpDiv
        );
        assert_eq!(decode_one(Inst::Ret).exec, ExecClass::Mem);
        assert_eq!(decode_one(Inst::Nop).exec, ExecClass::IntAdd);
    }

    #[test]
    fn mem_widths() {
        assert_eq!(
            decode_one(Inst::Load { width: MemWidth::B2, rd: r(1), base: r(2), offset: 0 })
                .mem_width,
            2
        );
        assert_eq!(decode_one(Inst::Ret).mem_width, 8);
        assert_eq!(decode_one(Inst::Flush { base: r(1), offset: 0 }).mem_width, 64);
        assert_eq!(
            decode_one(Inst::Store { width: MemWidth::B1, src: r(1), base: r(2), offset: 0 })
                .mem_width,
            1
        );
    }
}
