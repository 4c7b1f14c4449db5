//! The micro-op instruction set.
//!
//! Instructions are fixed-width: PC arithmetic is always in units of
//! [`INST_BYTES`]. The set is deliberately small: it is the subset of an
//! x86-like machine that the SPECRUN proof of concept (paper Fig. 8) and the
//! SPEC2006-like workload kernels require — ALU ops, loads/stores with
//! base+offset addressing, trainable conditional branches, indirect
//! jumps/calls/returns (for the BTB/RSB Spectre variants), `clflush` and a
//! serializing cycle-counter read standing in for `rdtscp`.

use core::fmt;

use crate::reg::{ArchReg, FpReg, IntReg};

/// The PC stride: consecutive instructions sit this many bytes apart, which
/// is also each instruction's footprint in the instruction cache.
pub const INST_BYTES: u64 = 8;

/// Integer ALU operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right (shift amount taken modulo 64).
    Shr,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Sar,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; division by zero yields `u64::MAX`.
    Div,
    /// Unsigned remainder; remainder by zero yields the dividend.
    Rem,
    /// Signed set-less-than (1 if `rs1 < rs2`, else 0).
    Slt,
    /// Unsigned set-less-than.
    Sltu,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit operands.
    ///
    /// ```
    /// use specrun_isa::AluOp;
    /// assert_eq!(AluOp::Add.eval(7, u64::MAX), 6); // wrapping
    /// assert_eq!(AluOp::Div.eval(10, 0), u64::MAX);
    /// assert_eq!(AluOp::Slt.eval(-1i64 as u64, 0), 1);
    /// ```
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32),
            AluOp::Shr => a.wrapping_shr(b as u32),
            AluOp::Sar => (a as i64).wrapping_shr(b as u32) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => a.checked_rem(b).unwrap_or(a),
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
            AluOp::Sltu => u64::from(a < b),
        }
    }

    /// Lowercase mnemonic, e.g. `"add"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Floating-point ALU operation kinds (IEEE-754 double precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl FpOp {
    /// Evaluates the operation on two doubles stored as raw bits.
    pub fn eval(self, a: u64, b: u64) -> u64 {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match self {
            FpOp::Add => x + y,
            FpOp::Sub => x - y,
            FpOp::Mul => x * y,
            FpOp::Div => x / y,
        };
        r.to_bits()
    }

    /// Lowercase mnemonic, e.g. `"fadd"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Add => "fadd",
            FpOp::Sub => "fsub",
            FpOp::Mul => "fmul",
            FpOp::Div => "fdiv",
        }
    }
}

/// Condition codes for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two operands.
    ///
    /// ```
    /// use specrun_isa::BranchCond;
    /// assert!(BranchCond::Ltu.eval(3, 5));
    /// assert!(!BranchCond::Lt.eval(3, u64::MAX)); // -1 signed
    /// ```
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    /// Lowercase mnemonic suffix, e.g. `"eq"` for `beq`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "eq",
            BranchCond::Ne => "ne",
            BranchCond::Lt => "lt",
            BranchCond::Ge => "ge",
            BranchCond::Ltu => "ltu",
            BranchCond::Geu => "geu",
        }
    }
}

/// Access width of a memory operation in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte.
    B1,
    /// Two bytes.
    B2,
    /// Four bytes.
    B4,
    /// Eight bytes.
    B8,
}

impl MemWidth {
    /// Width in bytes (1, 2, 4 or 8).
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// One micro-op.
///
/// All loads zero-extend. `Call` pushes the return address to the memory
/// stack through [`IntReg::SP`] (so it can be overwritten by a store, as the
/// SpectreRSB variant requires) while the microarchitectural return-stack
/// buffer predicts `Ret` targets.
///
/// Field conventions: `rd`/`fd` destination, `rs*`/`fs*` sources, `base` +
/// `offset` the effective address, `imm` a sign-extended 32-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings are uniform; see enum-level docs
pub enum Inst {
    /// `rd = op(rs1, rs2)`.
    Alu { op: AluOp, rd: IntReg, rs1: IntReg, rs2: IntReg },
    /// `rd = op(rs1, sign_extend(imm))`.
    AluImm { op: AluOp, rd: IntReg, rs1: IntReg, imm: i32 },
    /// `rd = sign_extend(imm)`.
    MovImm { rd: IntReg, imm: i32 },
    /// `fd = op(fs1, fs2)` on doubles.
    FpAlu { op: FpOp, fd: FpReg, fs1: FpReg, fs2: FpReg },
    /// `fd = (double)(int64)rs1` — integer to double conversion.
    FpCvt { fd: FpReg, rs1: IntReg },
    /// `rd = raw_bits(fs1)` — move double bits to an integer register.
    FpMov { rd: IntReg, fs1: FpReg },
    /// `rd = zero_extend(mem[rs(base) + offset])`.
    Load { width: MemWidth, rd: IntReg, base: IntReg, offset: i32 },
    /// `fd = mem[rs(base) + offset]` as raw double bits (8 bytes).
    FpLoad { fd: FpReg, base: IntReg, offset: i32 },
    /// `mem[rs(base) + offset] = low_bytes(src)`.
    Store { width: MemWidth, src: IntReg, base: IntReg, offset: i32 },
    /// `mem[rs(base) + offset] = raw_bits(fs)` (8 bytes).
    FpStore { fs: FpReg, base: IntReg, offset: i32 },
    /// Evicts the cache line containing `rs(base) + offset` from the whole
    /// hierarchy (the `clflush` the paper added to Multi2Sim).
    Flush { base: IntReg, offset: i32 },
    /// Conditional branch to `pc + offset` when `cond(rs1, rs2)` holds.
    Branch { cond: BranchCond, rs1: IntReg, rs2: IntReg, offset: i32 },
    /// Unconditional direct jump to `pc + offset`.
    Jump { offset: i32 },
    /// Indirect jump to `rs(base) + offset` (target predicted by the BTB).
    JumpInd { base: IntReg, offset: i32 },
    /// Direct call: `sp -= 8; mem[sp] = pc + 8; pc += offset` (pushes the
    /// return-stack-buffer entry).
    Call { offset: i32 },
    /// Indirect call through a register.
    CallInd { base: IntReg },
    /// Return: `pc = mem[sp]; sp += 8` (target predicted by the RSB).
    Ret,
    /// Serializing read of the cycle counter into `rd` (models
    /// `lfence; rdtscp`): issues only once it is the oldest instruction.
    RdCycle { rd: IntReg },
    /// No operation.
    Nop,
    /// Stops the machine.
    Halt,
}

/// Up to three source registers of an instruction.
pub type Sources = [Option<ArchReg>; 3];

impl Inst {
    /// The destination register, if the instruction writes one.
    ///
    /// Writes to `r0` are reported as `None` (they are architectural no-ops).
    /// `Call`/`Ret` destinations include the stack-pointer update.
    pub fn dest(&self) -> Option<ArchReg> {
        let keep = |r: IntReg| (!r.is_zero()).then_some(ArchReg::Int(r));
        match *self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::MovImm { rd, .. }
            | Inst::FpMov { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::RdCycle { rd } => keep(rd),
            Inst::FpAlu { fd, .. } | Inst::FpCvt { fd, .. } | Inst::FpLoad { fd, .. } => {
                Some(ArchReg::Fp(fd))
            }
            Inst::Call { .. } | Inst::CallInd { .. } | Inst::Ret => Some(ArchReg::Int(IntReg::SP)),
            _ => None,
        }
    }

    /// The source registers read by the instruction.
    ///
    /// Reads of `r0` are omitted (its value is constant-zero).
    pub fn sources(&self) -> Sources {
        let mut out: Sources = [None, None, None];
        let mut n = 0;
        let push_int = |r: IntReg, out: &mut Sources, n: &mut usize| {
            if !r.is_zero() {
                out[*n] = Some(ArchReg::Int(r));
                *n += 1;
            }
        };
        match *self {
            Inst::Alu { rs1, rs2, .. } => {
                push_int(rs1, &mut out, &mut n);
                push_int(rs2, &mut out, &mut n);
            }
            Inst::AluImm { rs1, .. } | Inst::FpCvt { rs1, .. } => {
                push_int(rs1, &mut out, &mut n);
            }
            Inst::FpAlu { fs1, fs2, .. } => {
                out[0] = Some(ArchReg::Fp(fs1));
                out[1] = Some(ArchReg::Fp(fs2));
            }
            Inst::FpMov { fs1, .. } => out[0] = Some(ArchReg::Fp(fs1)),
            Inst::Load { base, .. }
            | Inst::FpLoad { base, .. }
            | Inst::Flush { base, .. }
            | Inst::JumpInd { base, .. } => {
                push_int(base, &mut out, &mut n);
            }
            Inst::CallInd { base } => {
                push_int(base, &mut out, &mut n);
                push_int(IntReg::SP, &mut out, &mut n);
            }
            Inst::Store { src, base, .. } => {
                push_int(src, &mut out, &mut n);
                push_int(base, &mut out, &mut n);
            }
            Inst::FpStore { fs, base, .. } => {
                out[0] = Some(ArchReg::Fp(fs));
                n = 1;
                push_int(base, &mut out, &mut n);
            }
            Inst::Branch { rs1, rs2, .. } => {
                push_int(rs1, &mut out, &mut n);
                push_int(rs2, &mut out, &mut n);
            }
            Inst::Call { .. } => push_int(IntReg::SP, &mut out, &mut n),
            Inst::Ret => push_int(IntReg::SP, &mut out, &mut n),
            Inst::MovImm { .. }
            | Inst::Jump { .. }
            | Inst::RdCycle { .. }
            | Inst::Nop
            | Inst::Halt => {}
        }
        out
    }

    /// Whether this instruction can redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. }
                | Inst::Jump { .. }
                | Inst::JumpInd { .. }
                | Inst::Call { .. }
                | Inst::CallInd { .. }
                | Inst::Ret
        )
    }

    /// Whether this is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Whether this instruction reads data memory (`Ret` pops the stack).
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::FpLoad { .. } | Inst::Ret)
    }

    /// Whether this instruction writes data memory (`Call` pushes the
    /// return address).
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. } | Inst::FpStore { .. } | Inst::Call { .. } | Inst::CallInd { .. }
        )
    }

    /// Whether this instruction occupies a load/store-queue slot.
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store() || matches!(self, Inst::Flush { .. })
    }

    /// Whether the instruction must issue alone at the head of the window
    /// (only [`Inst::RdCycle`], the serializing timer read).
    pub fn is_serializing(&self) -> bool {
        matches!(self, Inst::RdCycle { .. })
    }

    /// Direct control-flow target for `pc`, if statically known.
    pub fn direct_target(&self, pc: u64) -> Option<u64> {
        match *self {
            Inst::Branch { offset, .. } | Inst::Jump { offset } | Inst::Call { offset } => {
                Some(pc.wrapping_add_signed(i64::from(offset)))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Inst::MovImm { rd, imm } => write!(f, "li {rd}, {imm}"),
            Inst::FpAlu { op, fd, fs1, fs2 } => {
                write!(f, "{} {fd}, {fs1}, {fs2}", op.mnemonic())
            }
            Inst::FpCvt { fd, rs1 } => write!(f, "fcvt {fd}, {rs1}"),
            Inst::FpMov { rd, fs1 } => write!(f, "fmov {rd}, {fs1}"),
            Inst::Load { width, rd, base, offset } => {
                write!(f, "ld{} {rd}, {offset}({base})", width.bytes())
            }
            Inst::FpLoad { fd, base, offset } => write!(f, "fld {fd}, {offset}({base})"),
            Inst::Store { width, src, base, offset } => {
                write!(f, "st{} {src}, {offset}({base})", width.bytes())
            }
            Inst::FpStore { fs, base, offset } => write!(f, "fst {fs}, {offset}({base})"),
            Inst::Flush { base, offset } => write!(f, "clflush {offset}({base})"),
            Inst::Branch { cond, rs1, rs2, offset } => {
                write!(f, "b{} {rs1}, {rs2}, {offset}", cond.mnemonic())
            }
            Inst::Jump { offset } => write!(f, "j {offset}"),
            Inst::JumpInd { base, offset } => write!(f, "jr {offset}({base})"),
            Inst::Call { offset } => write!(f, "call {offset}"),
            Inst::CallInd { base } => write!(f, "callr {base}"),
            Inst::Ret => write!(f, "ret"),
            Inst::RdCycle { rd } => write!(f, "rdcycle {rd}"),
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> IntReg {
        IntReg::new(i).unwrap()
    }

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Sub.eval(3, 5), (-2i64) as u64);
        assert_eq!(AluOp::Shl.eval(1, 8), 256);
        assert_eq!(AluOp::Sar.eval((-16i64) as u64, 2), (-4i64) as u64);
        assert_eq!(AluOp::Rem.eval(10, 3), 1);
        assert_eq!(AluOp::Rem.eval(10, 0), 10);
        assert_eq!(AluOp::Sltu.eval(1, u64::MAX), 1);
    }

    #[test]
    fn fp_eval_basics() {
        let two = 2.0f64.to_bits();
        let three = 3.0f64.to_bits();
        assert_eq!(f64::from_bits(FpOp::Add.eval(two, three)), 5.0);
        assert_eq!(f64::from_bits(FpOp::Mul.eval(two, three)), 6.0);
        assert_eq!(f64::from_bits(FpOp::Div.eval(three, two)), 1.5);
    }

    #[test]
    fn zero_register_filtered_from_defs_and_uses() {
        let i = Inst::Alu { op: AluOp::Add, rd: IntReg::ZERO, rs1: r(0), rs2: r(5) };
        assert_eq!(i.dest(), None);
        let srcs = i.sources();
        assert_eq!(srcs[0], Some(ArchReg::Int(r(5))));
        assert_eq!(srcs[1], None);
    }

    #[test]
    fn call_ret_touch_sp_and_memory() {
        let call = Inst::Call { offset: 64 };
        assert!(call.is_store());
        assert_eq!(call.dest(), Some(ArchReg::Int(IntReg::SP)));
        assert_eq!(call.sources()[0], Some(ArchReg::Int(IntReg::SP)));
        let callr = Inst::CallInd { base: r(3) };
        assert_eq!(callr.sources()[0], Some(ArchReg::Int(r(3))));
        assert_eq!(callr.sources()[1], Some(ArchReg::Int(IntReg::SP)), "indirect call reads SP");
        let ret = Inst::Ret;
        assert!(ret.is_load());
        assert!(ret.is_control());
    }

    #[test]
    fn classification() {
        assert!(
            Inst::Branch { cond: BranchCond::Lt, rs1: r(1), rs2: r(2), offset: 8 }.is_cond_branch()
        );
        assert!(Inst::Flush { base: r(1), offset: 0 }.is_mem());
        assert!(!Inst::Flush { base: r(1), offset: 0 }.is_load());
        assert!(Inst::RdCycle { rd: r(1) }.is_serializing());
        assert!(!Inst::Nop.is_control());
    }

    #[test]
    fn direct_targets() {
        let b = Inst::Branch { cond: BranchCond::Eq, rs1: r(1), rs2: r(2), offset: -16 };
        assert_eq!(b.direct_target(0x1010), Some(0x1000));
        assert_eq!(Inst::Ret.direct_target(0x1000), None);
    }

    #[test]
    fn display_smoke() {
        assert_eq!(
            Inst::Load { width: MemWidth::B1, rd: r(2), base: r(3), offset: 4 }.to_string(),
            "ld1 r2, 4(r3)"
        );
        assert_eq!(Inst::MovImm { rd: r(7), imm: -3 }.to_string(), "li r7, -3");
        assert_eq!(
            Inst::Branch { cond: BranchCond::Geu, rs1: r(1), rs2: r(0), offset: 8 }.to_string(),
            "bgeu r1, r0, 8"
        );
    }
}
