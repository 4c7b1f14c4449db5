//! Functional-unit pool and issue-port arbitration.

use specrun_isa::{AluOp, ExecClass, FpOp, Inst};

use crate::config::{FuClass, FuConfig};

/// Functional-unit classes an instruction can require.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Integer add/logic/shift/compare, branches, moves.
    IntAdd,
    /// Integer multiply.
    IntMul,
    /// Integer divide/remainder.
    IntDiv,
    /// FP add/subtract (also conversions).
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide.
    FpDiv,
    /// Load/store/flush address port.
    Mem,
}

impl FuKind {
    /// The unit class required by `inst`.
    pub fn for_inst(inst: &Inst) -> FuKind {
        match inst {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                AluOp::Mul => FuKind::IntMul,
                AluOp::Div | AluOp::Rem => FuKind::IntDiv,
                _ => FuKind::IntAdd,
            },
            Inst::FpAlu { op, .. } => match op {
                FpOp::Add | FpOp::Sub => FuKind::FpAdd,
                FpOp::Mul => FuKind::FpMul,
                FpOp::Div => FuKind::FpDiv,
            },
            Inst::FpCvt { .. } => FuKind::FpAdd,
            Inst::Load { .. }
            | Inst::FpLoad { .. }
            | Inst::Store { .. }
            | Inst::FpStore { .. }
            | Inst::Flush { .. }
            | Inst::Call { .. }
            | Inst::CallInd { .. }
            | Inst::Ret => FuKind::Mem,
            _ => FuKind::IntAdd,
        }
    }

    /// The unit class for a predecoded execution class (the per-issue-site
    /// twin of [`FuKind::for_inst`]; the two agree by construction, audited
    /// by `CpuConfig::predecode_check`).
    pub fn of_class(class: ExecClass) -> FuKind {
        match class {
            ExecClass::IntAdd => FuKind::IntAdd,
            ExecClass::IntMul => FuKind::IntMul,
            ExecClass::IntDiv => FuKind::IntDiv,
            ExecClass::FpAdd => FuKind::FpAdd,
            ExecClass::FpMul => FuKind::FpMul,
            ExecClass::FpDiv => FuKind::FpDiv,
            ExecClass::Mem => FuKind::Mem,
        }
    }
}

#[derive(Debug, Clone)]
struct Pool {
    class: FuClass,
    busy_until: Vec<u64>,
}

impl Pool {
    fn new(class: FuClass) -> Pool {
        Pool { class, busy_until: vec![0; class.count] }
    }

    fn try_issue(&mut self, now: u64) -> Option<u64> {
        let unit = self.busy_until.iter_mut().find(|b| **b <= now)?;
        *unit = if self.class.pipelined { now + 1 } else { now + self.class.latency };
        Some(self.class.latency)
    }
}

/// All functional units of the core; arbitration is first-come first-served
/// within a cycle.
#[derive(Debug, Clone)]
pub struct FuPool {
    int_add: Pool,
    int_mul: Pool,
    int_div: Pool,
    fp_add: Pool,
    fp_mul: Pool,
    fp_div: Pool,
    mem: Pool,
}

impl FuPool {
    /// Creates the pool from the configured mix.
    pub fn new(config: &FuConfig) -> FuPool {
        FuPool {
            int_add: Pool::new(config.int_add),
            int_mul: Pool::new(config.int_mul),
            int_div: Pool::new(config.int_div),
            fp_add: Pool::new(config.fp_add),
            fp_mul: Pool::new(config.fp_mul),
            fp_div: Pool::new(config.fp_div),
            mem: Pool::new(config.mem_ports),
        }
    }

    fn pool(&mut self, kind: FuKind) -> &mut Pool {
        match kind {
            FuKind::IntAdd => &mut self.int_add,
            FuKind::IntMul => &mut self.int_mul,
            FuKind::IntDiv => &mut self.int_div,
            FuKind::FpAdd => &mut self.fp_add,
            FuKind::FpMul => &mut self.fp_mul,
            FuKind::FpDiv => &mut self.fp_div,
            FuKind::Mem => &mut self.mem,
        }
    }

    /// Claims a unit of `kind` at cycle `now`; returns the execution latency
    /// if one was free.
    pub fn try_issue(&mut self, kind: FuKind, now: u64) -> Option<u64> {
        self.pool(kind).try_issue(now)
    }

    /// Releases all units (pipeline squash).
    pub fn clear(&mut self) {
        for pool in [
            &mut self.int_add,
            &mut self.int_mul,
            &mut self.int_div,
            &mut self.fp_add,
            &mut self.fp_mul,
            &mut self.fp_div,
            &mut self.mem,
        ] {
            pool.busy_until.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FuConfig;
    use specrun_isa::IntReg;

    #[test]
    fn classification() {
        let r = IntReg::new(1).unwrap();
        assert_eq!(
            FuKind::for_inst(&Inst::Alu { op: AluOp::Mul, rd: r, rs1: r, rs2: r }),
            FuKind::IntMul
        );
        assert_eq!(
            FuKind::for_inst(&Inst::AluImm { op: AluOp::Div, rd: r, rs1: r, imm: 1 }),
            FuKind::IntDiv
        );
        assert_eq!(FuKind::for_inst(&Inst::Ret), FuKind::Mem);
        assert_eq!(FuKind::for_inst(&Inst::Nop), FuKind::IntAdd);
    }

    #[test]
    fn pipelined_units_accept_every_cycle() {
        let mut pool = FuPool::new(&FuConfig::default());
        // 4 int adders → 4 issues in one cycle, 5th fails.
        for _ in 0..4 {
            assert_eq!(pool.try_issue(FuKind::IntAdd, 10), Some(1));
        }
        assert_eq!(pool.try_issue(FuKind::IntAdd, 10), None);
        // next cycle all free again (pipelined).
        assert_eq!(pool.try_issue(FuKind::IntAdd, 11), Some(1));
    }

    #[test]
    fn unpipelined_divider_blocks_for_full_latency() {
        let mut pool = FuPool::new(&FuConfig::default());
        assert_eq!(pool.try_issue(FuKind::IntDiv, 0), Some(5));
        assert_eq!(pool.try_issue(FuKind::IntDiv, 4), None);
        assert_eq!(pool.try_issue(FuKind::IntDiv, 5), Some(5));
    }

    #[test]
    fn clear_releases_everything() {
        let mut pool = FuPool::new(&FuConfig::default());
        pool.try_issue(FuKind::FpDiv, 0);
        pool.clear();
        assert!(pool.try_issue(FuKind::FpDiv, 0).is_some());
    }
}
