//! # specrun-isa
//!
//! The micro-op instruction set used by the SPECRUN runahead-processor
//! simulator: register names, the [`Inst`] enum, a label-resolving
//! [`ProgramBuilder`] and the predecoded [`DecodedProgram`] the core steps.
//!
//! The ISA is the minimal x86-like substrate the paper's proof of concept
//! (Fig. 8) needs: base+offset loads/stores, trainable conditional branches,
//! indirect jumps/calls and returns (for the SpectreBTB/RSB variants),
//! `clflush`, and a serializing cycle-counter read standing in for `rdtscp`.
//! Structured `if` blocks additionally record [`BranchScope`] metadata
//! (`B_ns`/`B_ne` in the paper's §6) consumed by the secure-runahead taint
//! tracker.
//!
//! ## Example
//!
//! ```
//! use specrun_isa::{BranchCond, IntReg, ProgramBuilder};
//!
//! let x = IntReg::new(1).unwrap();
//! let bound = IntReg::new(2).unwrap();
//! let mut b = ProgramBuilder::new(0x1000);
//! b.li(x, 10);
//! b.li(bound, 16);
//! b.if_block(BranchCond::Lt, x, bound, |b| {
//!     b.addi(x, x, 1);
//! });
//! b.halt();
//! let program = b.build()?;
//! assert_eq!(program.entry(), 0x1000);
//! # Ok::<(), specrun_isa::ProgramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decoded;
mod inst;
mod program;
mod reg;

pub use decoded::{CtrlClass, DecodedProgram, ExecClass, UopMeta};
pub use inst::{AluOp, BranchCond, FpOp, Inst, MemWidth, Sources, INST_BYTES};
pub use program::{BranchScope, Program, ProgramBuilder, ProgramError};
pub use reg::{ArchReg, FpReg, IntReg, NUM_FP_REGS, NUM_INT_REGS};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        AluOp, ArchReg, BranchCond, FpOp, FpReg, Inst, IntReg, MemWidth, Program, ProgramBuilder,
        INST_BYTES,
    };
}
