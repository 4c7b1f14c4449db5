//! Architectural register names.
//!
//! The ISA exposes 32 integer registers (`r0`–`r31`, with `r0` hardwired to
//! zero and `r31` used as the stack pointer by [`Inst::Call`]/[`Inst::Ret`])
//! and 16 floating-point registers (`f0`–`f15`).
//!
//! [`Inst::Call`]: crate::Inst::Call
//! [`Inst::Ret`]: crate::Inst::Ret

use core::fmt;

/// Number of architectural integer registers.
pub const NUM_INT_REGS: usize = 32;
/// Number of architectural floating-point registers.
pub const NUM_FP_REGS: usize = 16;

/// An architectural integer register (`r0`–`r31`).
///
/// `r0` always reads zero and writes to it are discarded, which gives gadget
/// builders a free discard target. `r31` is the stack pointer used implicitly
/// by call/return instructions.
///
/// ```
/// use specrun_isa::IntReg;
/// let r = IntReg::new(5).unwrap();
/// assert_eq!(r.to_string(), "r5");
/// assert_eq!(IntReg::ZERO.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntReg(u8);

impl IntReg {
    /// The hardwired-zero register `r0`.
    pub const ZERO: IntReg = IntReg(0);
    /// The stack pointer `r31`, used implicitly by `Call`/`Ret`.
    pub const SP: IntReg = IntReg(31);

    /// Creates an integer register from its index.
    ///
    /// Returns `None` if `index >= 32`.
    pub fn new(index: u8) -> Option<IntReg> {
        (usize::from(index) < NUM_INT_REGS).then_some(IntReg(index))
    }

    /// The register index in `0..32`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Whether this is the hardwired-zero register.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for IntReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An architectural floating-point register (`f0`–`f15`).
///
/// Values are IEEE-754 doubles stored as raw bits.
///
/// ```
/// use specrun_isa::FpReg;
/// assert_eq!(FpReg::new(3).unwrap().to_string(), "f3");
/// assert!(FpReg::new(16).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FpReg(u8);

impl FpReg {
    /// Creates a floating-point register from its index.
    ///
    /// Returns `None` if `index >= 16`.
    pub fn new(index: u8) -> Option<FpReg> {
        (usize::from(index) < NUM_FP_REGS).then_some(FpReg(index))
    }

    /// The register index in `0..16`.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for FpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Either kind of architectural register; the key type used by register
/// renaming in the CPU model.
///
/// ```
/// use specrun_isa::{ArchReg, IntReg};
/// let a = ArchReg::Int(IntReg::SP);
/// assert_eq!(a.to_string(), "r31");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArchReg {
    /// An integer register.
    Int(IntReg),
    /// A floating-point register.
    Fp(FpReg),
}

impl ArchReg {
    /// A dense index over all architectural registers (ints first).
    pub fn flat_index(self) -> usize {
        match self {
            ArchReg::Int(r) => r.index(),
            ArchReg::Fp(r) => NUM_INT_REGS + r.index(),
        }
    }

    /// Total number of architectural registers across both classes.
    pub const COUNT: usize = NUM_INT_REGS + NUM_FP_REGS;
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchReg::Int(r) => r.fmt(f),
            ArchReg::Fp(r) => r.fmt(f),
        }
    }
}

impl From<IntReg> for ArchReg {
    fn from(r: IntReg) -> ArchReg {
        ArchReg::Int(r)
    }
}

impl From<FpReg> for ArchReg {
    fn from(r: FpReg) -> ArchReg {
        ArchReg::Fp(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_reg_bounds() {
        assert!(IntReg::new(31).is_some());
        assert!(IntReg::new(32).is_none());
        assert_eq!(IntReg::new(0), Some(IntReg::ZERO));
    }

    #[test]
    fn fp_reg_bounds() {
        assert!(FpReg::new(15).is_some());
        assert!(FpReg::new(16).is_none());
    }

    #[test]
    fn zero_register_identity() {
        assert!(IntReg::ZERO.is_zero());
        assert!(!IntReg::SP.is_zero());
    }

    /// `Display` names every register by its index, the form diagnostics
    /// and `Inst`'s `Display` print.
    #[test]
    fn display_round_trip() {
        assert_eq!(IntReg::SP.to_string(), "r31");
        assert_eq!(IntReg::ZERO.to_string(), "r0");
        assert_eq!(IntReg::new(5).unwrap().to_string(), "r5");
        assert_eq!(FpReg::new(3).unwrap().to_string(), "f3");
        for i in 0..32u8 {
            let r = IntReg::new(i).unwrap();
            assert_eq!(r.to_string(), format!("r{}", r.index()));
            assert_eq!(ArchReg::Int(r).to_string(), r.to_string());
        }
        for i in 0..16u8 {
            let f = FpReg::new(i).unwrap();
            assert_eq!(f.to_string(), format!("f{}", f.index()));
            assert_eq!(ArchReg::Fp(f).to_string(), f.to_string());
        }
    }

    #[test]
    fn flat_index_is_dense_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..32u8 {
            assert!(seen.insert(ArchReg::Int(IntReg::new(i).unwrap()).flat_index()));
        }
        for i in 0..16u8 {
            assert!(seen.insert(ArchReg::Fp(FpReg::new(i).unwrap()).flat_index()));
        }
        assert_eq!(seen.len(), ArchReg::COUNT);
        assert!(seen.iter().all(|&i| i < ArchReg::COUNT));
    }
}
