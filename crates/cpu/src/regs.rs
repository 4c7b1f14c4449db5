//! Physical register file, register alias tables and free lists.
//!
//! Renaming uses ROB-walk recovery: each ROB entry records the previous
//! mapping of its destination, so branch mispredictions unwind the RAT
//! without checkpoints. Every physical register additionally carries the
//! runahead **INV** bit (paper Fig. 6: "INV" columns beside each register
//! file) and, for the §6 defense, a taint mask of branch scopes.

use specrun_isa::{ArchReg, NUM_FP_REGS, NUM_INT_REGS};
use std::collections::VecDeque;

/// Register class of a physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// 64-bit integer.
    Int,
    /// 64-bit floating point (IEEE-754 double bits).
    Fp,
}

impl RegClass {
    /// The class holding `reg`.
    pub fn of(reg: ArchReg) -> RegClass {
        match reg {
            ArchReg::Int(_) => RegClass::Int,
            ArchReg::Fp(_) => RegClass::Fp,
        }
    }
}

/// A physical register reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysRef {
    /// Register class.
    pub class: RegClass,
    /// Index within the class's file.
    pub index: u16,
}

/// Per-physical-register state, kept in one struct so the hot operand
/// checks (ready? value? INV? taint?) touch a single cache line per
/// register instead of four parallel arrays.
#[derive(Debug, Clone, Copy)]
struct RegSlot {
    value: u64,
    taint: u64,
    ready: bool,
    inv: bool,
}

#[derive(Debug, Clone)]
struct Bank {
    slots: Vec<RegSlot>,
}

impl Bank {
    fn new(size: usize) -> Bank {
        Bank { slots: vec![RegSlot { value: 0, taint: 0, ready: true, inv: false }; size] }
    }
}

/// The physical register file with per-register ready/INV/taint state.
#[derive(Debug, Clone)]
pub struct RegFile {
    int: Bank,
    fp: Bank,
}

impl RegFile {
    /// Creates a file with the given physical counts; all registers start
    /// ready, zero-valued, valid and untainted.
    pub fn new(int_regs: usize, fp_regs: usize) -> RegFile {
        RegFile { int: Bank::new(int_regs), fp: Bank::new(fp_regs) }
    }

    fn bank(&self, class: RegClass) -> &Bank {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    fn bank_mut(&mut self, class: RegClass) -> &mut Bank {
        match class {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }

    /// Current value of `r`.
    pub fn value(&self, r: PhysRef) -> u64 {
        self.bank(r.class).slots[r.index as usize].value
    }

    /// Whether `r`'s value has been produced.
    pub fn is_ready(&self, r: PhysRef) -> bool {
        self.bank(r.class).slots[r.index as usize].ready
    }

    /// Whether `r` carries the runahead INV bit.
    pub fn is_inv(&self, r: PhysRef) -> bool {
        self.bank(r.class).slots[r.index as usize].inv
    }

    /// Taint mask of `r` (bit `n` = tainted by branch scope `n mod 64`).
    pub fn taint(&self, r: PhysRef) -> u64 {
        self.bank(r.class).slots[r.index as usize].taint
    }

    /// Marks `r` pending (allocated by rename, value not yet produced).
    pub fn mark_pending(&mut self, r: PhysRef) {
        let s = &mut self.bank_mut(r.class).slots[r.index as usize];
        s.ready = false;
        s.inv = false;
        s.taint = 0;
    }

    /// Produces a valid value into `r`.
    pub fn write(&mut self, r: PhysRef, value: u64) {
        let s = &mut self.bank_mut(r.class).slots[r.index as usize];
        s.value = value;
        s.ready = true;
        s.inv = false;
    }

    /// Produces an INV (poisoned) result into `r` (runahead mode).
    pub fn write_inv(&mut self, r: PhysRef) {
        let s = &mut self.bank_mut(r.class).slots[r.index as usize];
        s.value = 0;
        s.ready = true;
        s.inv = true;
    }

    /// Sets the taint mask of `r`.
    pub fn set_taint(&mut self, r: PhysRef, mask: u64) {
        self.bank_mut(r.class).slots[r.index as usize].taint = mask;
    }

    /// Ors `mask` into the taint of `r`.
    pub fn add_taint(&mut self, r: PhysRef, mask: u64) {
        self.bank_mut(r.class).slots[r.index as usize].taint |= mask;
    }

    /// Forces `r` ready with a value, clearing INV/taint (used when
    /// rebuilding architectural state from a checkpoint).
    pub fn restore(&mut self, r: PhysRef, value: u64) {
        self.bank_mut(r.class).slots[r.index as usize] =
            RegSlot { value, taint: 0, ready: true, inv: false };
    }
}

/// A register alias table: architectural → physical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rat {
    map: [PhysRef; ArchReg::COUNT],
}

impl Rat {
    /// The identity mapping: architectural register `i` → physical `i` of
    /// its class.
    pub fn identity() -> Rat {
        let mut map = [PhysRef { class: RegClass::Int, index: 0 }; ArchReg::COUNT];
        for (i, slot) in map.iter_mut().enumerate() {
            *slot = if i < NUM_INT_REGS {
                PhysRef { class: RegClass::Int, index: i as u16 }
            } else {
                PhysRef { class: RegClass::Fp, index: (i - NUM_INT_REGS) as u16 }
            };
        }
        Rat { map }
    }

    /// Current mapping of `reg`.
    pub fn get(&self, reg: ArchReg) -> PhysRef {
        self.map[reg.flat_index()]
    }

    /// Redirects `reg` to `phys`, returning the previous mapping.
    pub fn set(&mut self, reg: ArchReg, phys: PhysRef) -> PhysRef {
        std::mem::replace(&mut self.map[reg.flat_index()], phys)
    }
}

/// Free lists for both physical register classes.
#[derive(Debug, Clone)]
pub struct FreeLists {
    int: VecDeque<u16>,
    fp: VecDeque<u16>,
}

impl FreeLists {
    /// Free lists for files of the given sizes, with the first
    /// `NUM_INT_REGS`/`NUM_FP_REGS` registers reserved for the identity
    /// architectural mapping.
    pub fn new(int_regs: usize, fp_regs: usize) -> FreeLists {
        FreeLists {
            int: (NUM_INT_REGS as u16..int_regs as u16).collect(),
            fp: (NUM_FP_REGS as u16..fp_regs as u16).collect(),
        }
    }

    /// Refills both lists to the freshly-constructed state in place
    /// (runahead exit runs this once per episode; reusing the buffers keeps
    /// the allocator off the episode path).
    pub fn reset(&mut self, int_regs: usize, fp_regs: usize) {
        self.int.clear();
        self.int.extend(NUM_INT_REGS as u16..int_regs as u16);
        self.fp.clear();
        self.fp.extend(NUM_FP_REGS as u16..fp_regs as u16);
    }

    fn list(&mut self, class: RegClass) -> &mut VecDeque<u16> {
        match class {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }

    /// Takes a free register of `class`, or `None` when exhausted (rename
    /// stalls).
    pub fn allocate(&mut self, class: RegClass) -> Option<PhysRef> {
        self.list(class).pop_front().map(|index| PhysRef { class, index })
    }

    /// Returns a register to its free list.
    pub fn free(&mut self, r: PhysRef) {
        self.list(r.class).push_back(r.index);
    }

    /// Free registers remaining in `class`.
    pub fn available(&self, class: RegClass) -> usize {
        match class {
            RegClass::Int => self.int.len(),
            RegClass::Fp => self.fp.len(),
        }
    }
}

/// A snapshot of architectural register *values*, taken at runahead entry
/// ("Checkpointed Architectural Register File" in the paper's Fig. 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchCheckpoint {
    values: [u64; ArchReg::COUNT],
}

impl ArchCheckpoint {
    /// Captures the committed value of every architectural register.
    pub fn capture(retire_rat: &Rat, regs: &RegFile) -> ArchCheckpoint {
        let mut values = [0u64; ArchReg::COUNT];
        for (i, v) in values.iter_mut().enumerate() {
            let reg = flat_to_arch(i);
            *v = regs.value(retire_rat.get(reg));
        }
        ArchCheckpoint { values }
    }

    /// The checkpointed value of `reg`.
    pub fn value(&self, reg: ArchReg) -> u64 {
        self.values[reg.flat_index()]
    }
}

/// Inverse of [`ArchReg::flat_index`].
pub fn flat_to_arch(i: usize) -> ArchReg {
    if i < NUM_INT_REGS {
        ArchReg::Int(specrun_isa::IntReg::new(i as u8).expect("int index in range"))
    } else {
        ArchReg::Fp(specrun_isa::FpReg::new((i - NUM_INT_REGS) as u8).expect("fp index in range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrun_isa::{FpReg, IntReg};

    fn int(i: u8) -> ArchReg {
        ArchReg::Int(IntReg::new(i).unwrap())
    }

    #[test]
    fn identity_rat_maps_classes() {
        let rat = Rat::identity();
        assert_eq!(rat.get(int(5)), PhysRef { class: RegClass::Int, index: 5 });
        assert_eq!(
            rat.get(ArchReg::Fp(FpReg::new(3).unwrap())),
            PhysRef { class: RegClass::Fp, index: 3 }
        );
    }

    #[test]
    fn rat_set_returns_previous() {
        let mut rat = Rat::identity();
        let new = PhysRef { class: RegClass::Int, index: 40 };
        let prev = rat.set(int(5), new);
        assert_eq!(prev.index, 5);
        assert_eq!(rat.get(int(5)), new);
    }

    #[test]
    fn free_lists_exclude_identity_range() {
        let mut fl = FreeLists::new(80, 40);
        assert_eq!(fl.available(RegClass::Int), 80 - 32);
        assert_eq!(fl.available(RegClass::Fp), 40 - 16);
        let r = fl.allocate(RegClass::Int).unwrap();
        assert!(r.index >= 32);
    }

    #[test]
    fn allocate_exhausts_then_none() {
        let mut fl = FreeLists::new(34, 17);
        assert!(fl.allocate(RegClass::Int).is_some());
        assert!(fl.allocate(RegClass::Int).is_some());
        assert!(fl.allocate(RegClass::Int).is_none());
        fl.free(PhysRef { class: RegClass::Int, index: 33 });
        assert!(fl.allocate(RegClass::Int).is_some());
    }

    #[test]
    fn regfile_pending_write_cycle() {
        let mut rf = RegFile::new(80, 40);
        let r = PhysRef { class: RegClass::Int, index: 50 };
        rf.mark_pending(r);
        assert!(!rf.is_ready(r));
        rf.write(r, 99);
        assert!(rf.is_ready(r));
        assert!(!rf.is_inv(r));
        assert_eq!(rf.value(r), 99);
    }

    #[test]
    fn inv_write_poisons() {
        let mut rf = RegFile::new(80, 40);
        let r = PhysRef { class: RegClass::Fp, index: 20 };
        rf.mark_pending(r);
        rf.write_inv(r);
        assert!(rf.is_ready(r));
        assert!(rf.is_inv(r));
    }

    #[test]
    fn taint_masks_accumulate() {
        let mut rf = RegFile::new(80, 40);
        let r = PhysRef { class: RegClass::Int, index: 33 };
        rf.add_taint(r, 0b01);
        rf.add_taint(r, 0b10);
        assert_eq!(rf.taint(r), 0b11);
        rf.mark_pending(r);
        assert_eq!(rf.taint(r), 0, "allocation clears taint");
    }

    #[test]
    fn checkpoint_captures_committed_values() {
        let mut rf = RegFile::new(80, 40);
        let rat = Rat::identity();
        rf.write(PhysRef { class: RegClass::Int, index: 7 }, 1234);
        let cp = ArchCheckpoint::capture(&rat, &rf);
        assert_eq!(cp.value(int(7)), 1234);
        assert_eq!(cp.value(int(8)), 0);
    }

    #[test]
    fn flat_round_trip() {
        for i in 0..ArchReg::COUNT {
            assert_eq!(flat_to_arch(i).flat_index(), i);
        }
    }
}
