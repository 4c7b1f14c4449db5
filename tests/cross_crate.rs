//! Cross-crate integration: program builder → CPU → memory → predictor
//! flows that exercise the public APIs together.

use specrun_cpu::{Core, CpuConfig};
use specrun_isa::{IntReg, ProgramBuilder};
use specrun_mem::HitLevel;

fn r(i: u8) -> IntReg {
    IntReg::new(i).unwrap()
}

/// A built program runs on the core and produces architectural results.
#[test]
fn built_program_runs_on_core() {
    let mut b = ProgramBuilder::new(0x1000);
    b.def_sym("buf", 0x8000);
    b.la(r(1), "buf");
    b.li(r(2), 0);
    b.li(r(4), 10);
    b.label("loop");
    b.sd(r(2), r(1), 0);
    b.ld(r(3), r(1), 0);
    b.add(r(2), r(2), r(3));
    b.addi(r(2), r(2), 1);
    b.addi(r(1), r(1), 8);
    b.addi(r(5), r(5), 1);
    b.blt(r(5), r(4), "loop");
    b.halt();
    let program = b.build().expect("builds");
    let mut core = Core::new(CpuConfig::default());
    core.load_program(&program);
    core.run(1_000_000);
    assert!(core.is_halted());
    // r2 doubles-plus-one each iteration: 0→1→3→7→…→2^10-1
    assert_eq!(core.read_int_reg(r(2)), (1 << 10) - 1);
}

/// The microarchitectural contract behind the attack: a program's cache
/// side effects persist after the program ends.
#[test]
fn cache_state_outlives_programs() {
    let mut b = ProgramBuilder::new(0);
    b.def_sym("data", 0x4000);
    b.la(r(1), "data");
    b.ld(r(2), r(1), 0);
    b.halt();
    let toucher = b.build().unwrap();
    let mut core = Core::new(CpuConfig::default());
    core.load_program(&toucher);
    core.run(10_000);
    assert_ne!(core.mem().residency(0x4000), HitLevel::Mem);
}

/// Predictor state also persists: a branch trained by one program is
/// predicted correctly at first sight by the next (same PC).
#[test]
fn predictor_training_transfers_across_programs() {
    let mut b = ProgramBuilder::new(0x2000);
    b.li(r(2), 50);
    b.label("loop");
    b.addi(r(1), r(1), 1);
    b.blt(r(1), r(2), "loop");
    b.halt();
    let trainer = b.build().unwrap();
    let mut core = Core::new(CpuConfig::default());
    core.load_program(&trainer);
    core.run(100_000);
    let first_run = core.stats().branch_mispredicts;

    core.reset_stats();
    core.load_program(&trainer);
    core.run(100_000);
    let second_run = core.stats().branch_mispredicts;
    assert!(
        second_run <= first_run,
        "warm predictor should not mispredict more ({second_run} vs {first_run})"
    );
}

/// The suite umbrella crate re-exports everything examples need.
#[test]
fn umbrella_prelude_compiles_and_works() {
    use specrun_suite::prelude::*;
    let config = CpuConfig::default();
    assert_eq!(config.rob_entries, 256);
    let mut session = Session::builder().policy(Policy::NoRunahead).build();
    session.write_bytes(0x100, b"ok");
    assert_eq!(session.read_bytes(0x100, 2), b"ok");
}
