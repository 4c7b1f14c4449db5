//! Programs and the label-resolving program builder.
//!
//! A [`Program`] is an immutable instruction image placed at a base address,
//! together with the *branch-scope metadata* (`B_ns`/`B_ne` start and end
//! addresses of every structured branch) that the paper's secure-runahead
//! defense (§6) assumes the compiler communicates to the processor.
//!
//! [`ProgramBuilder`] provides labelled assembly with mnemonic helper
//! methods and structured `if`-block helpers that emit the scope metadata
//! automatically:
//!
//! ```
//! use specrun_isa::{BranchCond, IntReg, ProgramBuilder};
//! let r1 = IntReg::new(1).unwrap();
//! let r2 = IntReg::new(2).unwrap();
//! let mut b = ProgramBuilder::new(0x1000);
//! b.li(r1, 3);
//! b.li(r2, 5);
//! // if (r1 < r2) { r1 = r1 + 1; }
//! b.if_block(BranchCond::Lt, r1, r2, |b| {
//!     b.addi(r1, r1, 1);
//! });
//! b.halt();
//! let prog = b.build()?;
//! assert_eq!(prog.branch_scopes().len(), 1);
//! # Ok::<(), specrun_isa::ProgramError>(())
//! ```

use core::fmt;
use std::collections::BTreeMap;

use crate::inst::{AluOp, BranchCond, FpOp, Inst, MemWidth, INST_BYTES};
use crate::reg::{FpReg, IntReg};

/// Start/end addresses of a structured branch body, the `B_ns`/`B_ne`
/// metadata consumed by the secure-runahead taint tracker (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchScope {
    /// PC of the guarding conditional branch (`B_ns`).
    pub branch_pc: u64,
    /// First PC after the guarded body (`B_ne`).
    pub end_pc: u64,
}

/// An assembled, immutable program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    text_base: u64,
    insts: Vec<Inst>,
    branch_scopes: Vec<BranchScope>,
    symbols: BTreeMap<String, u64>,
}

impl Program {
    /// Lowest PC of the program text.
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// First PC past the program text.
    pub fn text_end(&self) -> u64 {
        self.text_base + self.insts.len() as u64 * INST_BYTES
    }

    /// Entry-point PC: execution starts at [`Program::text_base`].
    pub fn entry(&self) -> u64 {
        self.text_base
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at `pc`, or `None` outside the text image or at a
    /// misaligned PC.
    pub fn fetch(&self, pc: u64) -> Option<Inst> {
        if pc < self.text_base || (pc - self.text_base) % INST_BYTES != 0 {
            return None;
        }
        let idx = (pc - self.text_base) / INST_BYTES;
        self.insts.get(idx as usize).copied()
    }

    /// All instructions in layout order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Branch-scope metadata emitted by the structured-if builder helpers.
    pub fn branch_scopes(&self) -> &[BranchScope] {
        &self.branch_scopes
    }

    /// Address of a label or data symbol defined during building.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// All symbols (labels and data symbols) with their addresses.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u64)> {
        self.symbols.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Errors produced while building a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label or symbol was defined twice.
    DuplicateLabel(String),
    /// A resolved branch offset does not fit in the 32-bit immediate.
    OffsetOutOfRange {
        /// The target label.
        label: String,
        /// The out-of-range distance or address.
        offset: i64,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            ProgramError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            ProgramError::OffsetOutOfRange { label, offset } => {
                write!(f, "branch offset to `{label}` out of range ({offset})")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

#[derive(Debug, Clone, Copy)]
enum FixupKind {
    /// Patch the `offset` field with `target - inst_pc`.
    PcRelative,
    /// Patch a `MovImm` immediate with the absolute target address.
    Absolute,
}

#[derive(Debug, Clone)]
struct Fixup {
    inst_index: usize,
    label: String,
    kind: FixupKind,
}

/// Incremental assembler for [`Program`]s with labels, mnemonic helpers and
/// structured control flow.
///
/// Branch helper methods taking a label accept forward references; they are
/// resolved by [`ProgramBuilder::build`].
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    text_base: u64,
    insts: Vec<Inst>,
    branch_scopes: Vec<BranchScope>,
    symbols: BTreeMap<String, u64>,
    fixups: Vec<Fixup>,
    anon: u64,
}

impl ProgramBuilder {
    /// Creates a builder placing the program text at `text_base`.
    pub fn new(text_base: u64) -> ProgramBuilder {
        ProgramBuilder {
            text_base,
            insts: Vec::new(),
            branch_scopes: Vec::new(),
            symbols: BTreeMap::new(),
            fixups: Vec::new(),
            anon: 0,
        }
    }

    /// PC of the *next* instruction to be appended.
    pub fn here(&self) -> u64 {
        self.text_base + self.insts.len() as u64 * INST_BYTES
    }

    /// Number of instructions appended so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether no instructions have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Appends a raw instruction and returns its PC.
    pub fn push(&mut self, inst: Inst) -> u64 {
        let pc = self.here();
        self.insts.push(inst);
        pc
    }

    /// Defines `name` at the current PC.
    ///
    /// Duplicate definitions are reported by [`ProgramBuilder::build`].
    pub fn label(&mut self, name: &str) -> &mut ProgramBuilder {
        let pc = self.here();
        self.define(name, pc);
        self
    }

    /// Defines a data symbol at an arbitrary address (not part of the text).
    pub fn def_sym(&mut self, name: &str, addr: u64) -> &mut ProgramBuilder {
        self.define(name, addr);
        self
    }

    fn define(&mut self, name: &str, addr: u64) {
        // Duplicates are detected at build time so `define` itself stays
        // infallible; remember the first definition and flag the clash.
        if self.symbols.contains_key(name) {
            self.fixups.push(Fixup {
                inst_index: usize::MAX,
                label: name.to_owned(),
                kind: FixupKind::PcRelative,
            });
        } else {
            self.symbols.insert(name.to_owned(), addr);
        }
    }

    fn fresh_label(&mut self, prefix: &str) -> String {
        self.anon += 1;
        format!("__{prefix}_{}", self.anon)
    }

    // ---- ALU helpers -----------------------------------------------------

    /// `rd = rs1 + rs2`.
    pub fn add(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) -> u64 {
        self.push(Inst::Alu { op: AluOp::Add, rd, rs1, rs2 })
    }

    /// `rd = rs1 - rs2`.
    pub fn sub(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) -> u64 {
        self.push(Inst::Alu { op: AluOp::Sub, rd, rs1, rs2 })
    }

    /// `rd = rs1 * rs2`.
    pub fn mul(&mut self, rd: IntReg, rs1: IntReg, rs2: IntReg) -> u64 {
        self.push(Inst::Alu { op: AluOp::Mul, rd, rs1, rs2 })
    }

    /// `rd = op(rs1, rs2)` for any [`AluOp`].
    pub fn alu(&mut self, op: AluOp, rd: IntReg, rs1: IntReg, rs2: IntReg) -> u64 {
        self.push(Inst::Alu { op, rd, rs1, rs2 })
    }

    /// `rd = rs1 + imm`.
    pub fn addi(&mut self, rd: IntReg, rs1: IntReg, imm: i32) -> u64 {
        self.push(Inst::AluImm { op: AluOp::Add, rd, rs1, imm })
    }

    /// `rd = op(rs1, imm)` for any [`AluOp`].
    pub fn alui(&mut self, op: AluOp, rd: IntReg, rs1: IntReg, imm: i32) -> u64 {
        self.push(Inst::AluImm { op, rd, rs1, imm })
    }

    /// `rd = rs1 << imm`.
    pub fn shli(&mut self, rd: IntReg, rs1: IntReg, imm: i32) -> u64 {
        self.push(Inst::AluImm { op: AluOp::Shl, rd, rs1, imm })
    }

    /// `rd = imm` (sign-extended 32-bit immediate).
    pub fn li(&mut self, rd: IntReg, imm: i32) -> u64 {
        self.push(Inst::MovImm { rd, imm })
    }

    /// Loads an arbitrary 64-bit constant using `rd` only (up to seven μops,
    /// one `li` when the value sign-extends from 32 bits).
    pub fn li64(&mut self, rd: IntReg, value: u64) -> u64 {
        let pc = self.here();
        if let Ok(imm) = i32::try_from(value as i64) {
            self.li(rd, imm);
            return pc;
        }
        let chunks = [
            ((value >> 48) & 0xffff) as i32,
            ((value >> 32) & 0xffff) as i32,
            ((value >> 16) & 0xffff) as i32,
            (value & 0xffff) as i32,
        ];
        self.li(rd, chunks[0]);
        for &chunk in &chunks[1..] {
            self.shli(rd, rd, 16);
            if chunk != 0 {
                self.alui(AluOp::Or, rd, rd, chunk);
            }
        }
        pc
    }

    /// Loads the address of a label or data symbol (resolved at build time).
    ///
    /// Addresses must fit in `i32` (the simulator's address-space convention
    /// is the low 2 GiB); larger addresses are reported as
    /// [`ProgramError::OffsetOutOfRange`] by [`ProgramBuilder::build`].
    pub fn la(&mut self, rd: IntReg, symbol: &str) -> u64 {
        let idx = self.insts.len();
        self.fixups.push(Fixup {
            inst_index: idx,
            label: symbol.to_owned(),
            kind: FixupKind::Absolute,
        });
        self.push(Inst::MovImm { rd, imm: 0 })
    }

    // ---- floating point --------------------------------------------------

    /// `fd = op(fs1, fs2)`.
    pub fn fp(&mut self, op: FpOp, fd: FpReg, fs1: FpReg, fs2: FpReg) -> u64 {
        self.push(Inst::FpAlu { op, fd, fs1, fs2 })
    }

    /// `fd = (double)rs1`.
    pub fn fcvt(&mut self, fd: FpReg, rs1: IntReg) -> u64 {
        self.push(Inst::FpCvt { fd, rs1 })
    }

    /// `rd = bits(fs1)`.
    pub fn fmov(&mut self, rd: IntReg, fs1: FpReg) -> u64 {
        self.push(Inst::FpMov { rd, fs1 })
    }

    /// `fd = mem[base + offset]` (8 bytes).
    pub fn fld(&mut self, fd: FpReg, base: IntReg, offset: i32) -> u64 {
        self.push(Inst::FpLoad { fd, base, offset })
    }

    /// `mem[base + offset] = fs` (8 bytes).
    pub fn fst(&mut self, fs: FpReg, base: IntReg, offset: i32) -> u64 {
        self.push(Inst::FpStore { fs, base, offset })
    }

    // ---- memory ----------------------------------------------------------

    /// `rd = zx(mem[base + offset])` with the given width.
    pub fn load(&mut self, width: MemWidth, rd: IntReg, base: IntReg, offset: i32) -> u64 {
        self.push(Inst::Load { width, rd, base, offset })
    }

    /// 8-byte load.
    pub fn ld(&mut self, rd: IntReg, base: IntReg, offset: i32) -> u64 {
        self.load(MemWidth::B8, rd, base, offset)
    }

    /// 1-byte load.
    pub fn ldb(&mut self, rd: IntReg, base: IntReg, offset: i32) -> u64 {
        self.load(MemWidth::B1, rd, base, offset)
    }

    /// `mem[base + offset] = src` with the given width.
    pub fn store(&mut self, width: MemWidth, src: IntReg, base: IntReg, offset: i32) -> u64 {
        self.push(Inst::Store { width, src, base, offset })
    }

    /// 8-byte store.
    pub fn sd(&mut self, src: IntReg, base: IntReg, offset: i32) -> u64 {
        self.store(MemWidth::B8, src, base, offset)
    }

    /// `clflush` of the line containing `base + offset`.
    pub fn flush(&mut self, base: IntReg, offset: i32) -> u64 {
        self.push(Inst::Flush { base, offset })
    }

    // ---- control flow ----------------------------------------------------

    /// Conditional branch to `label` when `cond(rs1, rs2)`.
    pub fn branch(&mut self, cond: BranchCond, rs1: IntReg, rs2: IntReg, label: &str) -> u64 {
        let idx = self.insts.len();
        self.fixups.push(Fixup {
            inst_index: idx,
            label: label.to_owned(),
            kind: FixupKind::PcRelative,
        });
        self.push(Inst::Branch { cond, rs1, rs2, offset: 0 })
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: IntReg, rs2: IntReg, label: &str) -> u64 {
        self.branch(BranchCond::Eq, rs1, rs2, label)
    }

    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: IntReg, rs2: IntReg, label: &str) -> u64 {
        self.branch(BranchCond::Ne, rs1, rs2, label)
    }

    /// `blt rs1, rs2, label` (signed).
    pub fn blt(&mut self, rs1: IntReg, rs2: IntReg, label: &str) -> u64 {
        self.branch(BranchCond::Lt, rs1, rs2, label)
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: &str) -> u64 {
        let idx = self.insts.len();
        self.fixups.push(Fixup {
            inst_index: idx,
            label: label.to_owned(),
            kind: FixupKind::PcRelative,
        });
        self.push(Inst::Jump { offset: 0 })
    }

    /// Indirect jump to `base + offset`.
    pub fn jr(&mut self, base: IntReg, offset: i32) -> u64 {
        self.push(Inst::JumpInd { base, offset })
    }

    /// Direct call to `label`.
    pub fn call(&mut self, label: &str) -> u64 {
        let idx = self.insts.len();
        self.fixups.push(Fixup {
            inst_index: idx,
            label: label.to_owned(),
            kind: FixupKind::PcRelative,
        });
        self.push(Inst::Call { offset: 0 })
    }

    /// Indirect call through `base`.
    pub fn callr(&mut self, base: IntReg) -> u64 {
        self.push(Inst::CallInd { base })
    }

    /// Return through the stack (predicted by the RSB).
    pub fn ret(&mut self) -> u64 {
        self.push(Inst::Ret)
    }

    // ---- misc ------------------------------------------------------------

    /// Serializing cycle-counter read.
    pub fn rdcycle(&mut self, rd: IntReg) -> u64 {
        self.push(Inst::RdCycle { rd })
    }

    /// Single no-op.
    pub fn nop(&mut self) -> u64 {
        self.push(Inst::Nop)
    }

    /// A slide of `n` no-ops (used by the §5.3 transient-window experiments).
    pub fn nops(&mut self, n: usize) -> u64 {
        let pc = self.here();
        for _ in 0..n {
            self.nop();
        }
        pc
    }

    /// Machine halt.
    pub fn halt(&mut self) -> u64 {
        self.push(Inst::Halt)
    }

    // ---- structured control flow ------------------------------------------

    /// Emits `if cond(rs1, rs2) { body }` and records its [`BranchScope`].
    ///
    /// Compiled as a *fall-through body*: the guard is the inverted branch to
    /// the end label, so a predictor trained "not taken" speculatively runs
    /// the body — the shape every Spectre-PHT gadget in the paper relies on.
    pub fn if_block(
        &mut self,
        cond: BranchCond,
        rs1: IntReg,
        rs2: IntReg,
        body: impl FnOnce(&mut ProgramBuilder),
    ) -> u64 {
        let end = self.fresh_label("if_end");
        let inverted = match cond {
            BranchCond::Eq => BranchCond::Ne,
            BranchCond::Ne => BranchCond::Eq,
            BranchCond::Lt => BranchCond::Ge,
            BranchCond::Ge => BranchCond::Lt,
            BranchCond::Ltu => BranchCond::Geu,
            BranchCond::Geu => BranchCond::Ltu,
        };
        let branch_pc = self.branch(inverted, rs1, rs2, &end);
        body(self);
        self.label(&end);
        let end_pc = self.here();
        self.branch_scopes.push(BranchScope { branch_pc, end_pc });
        branch_pc
    }

    /// Emits a bounded counted loop: `for idx in 0..count { body }`.
    ///
    /// `idx` holds the loop counter and must not be clobbered by the body.
    /// The assembler temporary `r30` holds the comparison result, so bodies
    /// must not rely on it either.
    pub fn for_loop(
        &mut self,
        idx: IntReg,
        count: i32,
        body: impl FnOnce(&mut ProgramBuilder),
    ) -> u64 {
        let head = self.fresh_label("loop_head");
        let done = self.fresh_label("loop_done");
        let tmp = IntReg::new(30).expect("r30 exists");
        let first_pc = self.li(idx, 0);
        self.label(&head);
        self.alui(AluOp::Slt, tmp, idx, count);
        self.beq(tmp, IntReg::ZERO, &done); // idx >= count → exit
        body(self);
        self.addi(idx, idx, 1);
        self.jump(&head);
        self.label(&done);
        first_pc
    }

    /// Resolves all fixups and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] for undefined or duplicate labels and for
    /// branch targets whose offset exceeds the 32-bit immediate range.
    pub fn build(&self) -> Result<Program, ProgramError> {
        let mut insts = self.insts.clone();
        for fixup in &self.fixups {
            if fixup.inst_index == usize::MAX {
                return Err(ProgramError::DuplicateLabel(fixup.label.clone()));
            }
            let target = *self
                .symbols
                .get(&fixup.label)
                .ok_or_else(|| ProgramError::UndefinedLabel(fixup.label.clone()))?;
            let pc = self.text_base + fixup.inst_index as u64 * INST_BYTES;
            let value: i64 = match fixup.kind {
                FixupKind::PcRelative => target.wrapping_sub(pc) as i64,
                FixupKind::Absolute => target as i64,
            };
            let imm = i32::try_from(value).map_err(|_| ProgramError::OffsetOutOfRange {
                label: fixup.label.clone(),
                offset: value,
            })?;
            let inst = &mut insts[fixup.inst_index];
            match inst {
                Inst::Branch { offset, .. }
                | Inst::Jump { offset }
                | Inst::Call { offset }
                | Inst::JumpInd { offset, .. } => *offset = imm,
                Inst::MovImm { imm: dst, .. } => *dst = imm,
                other => unreachable!("fixup applied to non-relocatable {other}"),
            }
        }
        Ok(Program {
            text_base: self.text_base,
            insts,
            branch_scopes: self.branch_scopes.clone(),
            symbols: self.symbols.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> IntReg {
        IntReg::new(i).unwrap()
    }

    #[test]
    fn fetch_respects_alignment_and_bounds() {
        let mut b = ProgramBuilder::new(0x1000);
        b.nop();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(0x1000), Some(Inst::Nop));
        assert_eq!(p.fetch(0x1008), Some(Inst::Halt));
        assert_eq!(p.fetch(0x1004), None); // misaligned
        assert_eq!(p.fetch(0x1010), None); // past end
        assert_eq!(p.fetch(0x0ff8), None); // before base
    }

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new(0);
        b.label("start");
        b.beq(r(1), r(2), "end"); // forward
        b.nop();
        b.jump("start"); // backward
        b.label("end");
        b.halt();
        let p = b.build().unwrap();
        match p.fetch(0).unwrap() {
            Inst::Branch { offset, .. } => assert_eq!(offset, 24),
            other => panic!("expected branch, got {other}"),
        }
        match p.fetch(16).unwrap() {
            Inst::Jump { offset } => assert_eq!(offset, -16),
            other => panic!("expected jump, got {other}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new(0);
        b.jump("nowhere");
        assert_eq!(b.build().unwrap_err(), ProgramError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut b = ProgramBuilder::new(0);
        b.label("x");
        b.nop();
        b.label("x");
        assert_eq!(b.build().unwrap_err(), ProgramError::DuplicateLabel("x".into()));
    }

    #[test]
    fn la_resolves_data_symbols() {
        let mut b = ProgramBuilder::new(0x2000);
        b.def_sym("array1", 0x3eef_0000);
        b.la(r(3), "array1");
        b.halt();
        let p = b.build().unwrap();
        match p.fetch(0x2000).unwrap() {
            Inst::MovImm { rd, imm } => {
                assert_eq!(rd, r(3));
                assert_eq!(imm as u32 as u64, 0x3eef_0000);
            }
            other => panic!("expected li, got {other}"),
        }
    }

    #[test]
    fn la_rejects_addresses_above_2_gib() {
        let mut b = ProgramBuilder::new(0);
        b.def_sym("high", 0xbeef_0000);
        b.la(r(3), "high");
        assert!(matches!(b.build(), Err(ProgramError::OffsetOutOfRange { .. })));
    }

    #[test]
    fn if_block_records_scope_and_inverts_condition() {
        let mut b = ProgramBuilder::new(0);
        b.if_block(BranchCond::Lt, r(1), r(2), |b| {
            b.nop();
            b.nop();
        });
        b.halt();
        let p = b.build().unwrap();
        let scope = p.branch_scopes()[0];
        assert_eq!(scope.branch_pc, 0);
        assert_eq!(scope.end_pc, 24); // branch + 2 nops
        match p.fetch(0).unwrap() {
            Inst::Branch { cond, offset, .. } => {
                assert_eq!(cond, BranchCond::Ge); // inverted
                assert_eq!(offset, 24);
            }
            other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn nested_if_blocks_record_two_scopes() {
        let mut b = ProgramBuilder::new(0);
        b.if_block(BranchCond::Lt, r(1), r(2), |b| {
            b.nop();
            b.if_block(BranchCond::Lt, r(3), r(4), |b| {
                b.nop();
            });
        });
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.branch_scopes().len(), 2);
        let outer = p.branch_scopes()[1];
        let inner = p.branch_scopes()[0];
        assert!(outer.branch_pc < inner.branch_pc);
        assert!(inner.end_pc <= outer.end_pc);
    }

    #[test]
    fn nops_emits_exactly_n() {
        let mut b = ProgramBuilder::new(0);
        b.nops(123);
        b.halt();
        assert_eq!(b.build().unwrap().len(), 124);
    }
}
