//! The [`Machine`]: a convenience facade over the simulated core for attack
//! experiments.
//!
//! A machine owns one core (and through it the memory hierarchy and
//! predictors). Running several programs in sequence on the same machine
//! models co-resident processes time-sharing a physical core: architectural
//! state resets between programs, microarchitectural state — caches,
//! PHT/BTB/RSB, DRAM contention — deliberately persists. That persistence
//! is the paper's threat model.
//!
//! Experiments are set up through
//! [`Session::builder()`](crate::session::Session::builder), the single
//! experiment surface, which also carries the memory layout, planted
//! secrets and an optional [`PipelineObserver`]; the machine itself is the
//! session's execution substrate.

use std::sync::Arc;

use specrun_cpu::probe::{NoopObserver, PipelineObserver};
use specrun_cpu::{CancelToken, Core, CpuConfig, RunExit};
use specrun_isa::{DecodedProgram, IntReg, Program};
use specrun_mem::HitLevel;
use specrun_workloads::harness::{check_exit, RunError};

/// A simulated machine (core + memory + predictors), generic over an
/// attached [`PipelineObserver`] (detached by default).
#[derive(Debug, Clone)]
pub struct Machine<O: PipelineObserver = NoopObserver> {
    core: Core<O>,
    first_non_halt: Option<(RunExit, u64)>,
    cancel: Option<CancelToken>,
}

impl Machine {
    /// Creates a detached machine from an explicit configuration.
    pub fn new(config: CpuConfig) -> Machine {
        Machine { core: Core::new(config), first_non_halt: None, cancel: None }
    }
}

impl<O: PipelineObserver> Machine<O> {
    /// Creates a machine with `observer` attached to its core's pipeline.
    pub fn with_observer(config: CpuConfig, observer: O) -> Machine<O> {
        Machine { core: Core::with_observer(config, observer), first_non_halt: None, cancel: None }
    }

    /// Attaches a supervisor [`CancelToken`]: every subsequent run is
    /// governed — it publishes heartbeats and stops with
    /// [`RunExit::Cancelled`] when the token trips (a run started under a
    /// tripped token stops before its first cycle). `None` detaches, and a
    /// detached machine runs the exact zero-cost ungoverned loop.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Loads a program (resets architectural state only; see module docs).
    pub fn load(&mut self, program: &Program) {
        self.core.load_program(program);
    }

    /// Runs until `halt` or the cycle budget is exhausted.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        // One branch per run call, not per cycle: the governed loop is a
        // separate monomorphization, so the default path stays zero-cost.
        let exit = match &self.cancel {
            Some(token) => self.core.run_governed(max_cycles, token),
            None => self.core.run(max_cycles),
        };
        if exit != RunExit::Halted && self.first_non_halt.is_none() {
            self.first_non_halt = Some((exit, max_cycles));
        }
        exit
    }

    /// The first non-halting exit any run on this machine produced, with
    /// the cycle budget that run was given — sticky across program
    /// switches. Multi-program experiments (trainer → victim → probe)
    /// check this once at the end instead of plumbing every intermediate
    /// [`RunExit`] through; `None` means every run halted cleanly.
    pub fn first_non_halt(&self) -> Option<(RunExit, u64)> {
        self.first_non_halt
    }

    /// The end-of-run health check: `Ok` when every run halted cleanly,
    /// otherwise [`Machine::first_non_halt`] as a structured [`RunError`]
    /// naming `what` was running (a campaign records it as a failed unit
    /// instead of panicking).
    pub fn check_halted(&self, what: impl FnOnce() -> String) -> Result<(), RunError> {
        let Some((exit, budget)) = self.first_non_halt else { return Ok(()) };
        check_exit(exit, what, budget, self.stats().committed)
    }

    /// Discharges the sticky non-halt record, returning it. For programs
    /// whose *normal* termination is not a `halt` — the BTB trainer
    /// architecturally jumps to the gadget address, which has no
    /// instruction in its own image, so `Wedged` is its expected exit —
    /// the experiment acknowledges the exit right after running them, and
    /// the end-of-run health check only sees genuine failures.
    pub fn acknowledge_non_halt(&mut self) -> Option<(RunExit, u64)> {
        self.first_non_halt.take()
    }

    /// Loads an already-predecoded program, sharing its micro-op table
    /// (forked campaign sessions reuse one [`DecodedProgram`] per attack
    /// program instead of re-lowering it per session).
    pub fn load_predecoded(&mut self, decoded: Arc<DecodedProgram>) {
        self.core.load_program_predecoded(decoded);
    }

    /// Loads and runs a program in one call.
    pub fn run_program(&mut self, program: &Program, max_cycles: u64) -> RunExit {
        self.load(program);
        self.run(max_cycles)
    }

    /// Loads and runs an already-predecoded program in one call.
    pub fn run_predecoded(&mut self, decoded: Arc<DecodedProgram>, max_cycles: u64) -> RunExit {
        self.load_predecoded(decoded);
        self.run(max_cycles)
    }

    /// Architectural value of an integer register.
    pub fn reg(&self, r: IntReg) -> u64 {
        self.core.read_int_reg(r)
    }

    /// Writes bytes into simulated memory (host-side setup).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        self.core.mem_mut().write_bytes(addr, bytes);
    }

    /// Writes a little-endian value into simulated memory.
    pub fn write_value(&mut self, addr: u64, width: u64, value: u64) {
        self.core.mem_mut().write_data(addr, width, value);
    }

    /// Reads bytes from simulated memory.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        self.core.mem().read_bytes(addr, len)
    }

    /// Reads bytes from simulated memory into a caller-owned buffer
    /// (allocation-free [`Machine::read_bytes`]).
    pub fn read_bytes_into(&self, addr: u64, out: &mut [u8]) {
        self.core.mem().read_bytes_into(addr, out);
    }

    /// Reads a little-endian value from simulated memory.
    pub fn read_value(&self, addr: u64, width: u64) -> u64 {
        self.core.mem().read_data(addr, width)
    }

    /// Warms the cache line(s) covering `addr .. addr+len` (the "load data
    /// into the cache" helper the paper added to Multi2Sim).
    pub fn warm(&mut self, addr: u64, len: u64) {
        self.core.mem_mut().warm_range(addr, len);
    }

    /// Warms a program's text image on the instruction side, modelling code
    /// that has run recently (trained victims, looping attackers).
    pub fn warm_text(&mut self, program: &specrun_isa::Program) {
        let len = program.text_end() - program.text_base();
        self.core.mem_mut().warm_ifetch_range(program.text_base(), len);
    }

    /// Evicts the line containing `addr` from the whole hierarchy (host-side
    /// `clflush`, modelling a co-resident attacker's eviction).
    pub fn flush(&mut self, addr: u64) {
        let now = self.core.cycle();
        self.core.mem_mut().flush_line(addr, now);
    }

    /// Schedules a `clflush` to fire mid-run at a given cycle (§5.3 ➂: the
    /// co-resident attacker re-flushing the trigger line).
    pub fn schedule_flush(&mut self, cycle: u64, addr: u64) {
        self.core.schedule_flush(cycle, addr);
    }

    /// Where `addr` currently resides, without disturbing state.
    pub fn residency(&self, addr: u64) -> HitLevel {
        self.core.mem().residency(addr)
    }

    /// Direct access to the core.
    pub fn core(&self) -> &Core<O> {
        &self.core
    }

    /// The attached pipeline observer.
    pub fn observer(&self) -> &O {
        self.core.observer()
    }

    /// Core statistics.
    pub fn stats(&self) -> &specrun_cpu::CpuStats {
        self.core.stats()
    }

    /// Resets statistics counters.
    pub fn reset_stats(&mut self) {
        self.core.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrun_isa::ProgramBuilder;

    #[test]
    fn microarch_state_survives_program_switch() {
        let mut m = Machine::new(CpuConfig::no_runahead());
        m.warm(0x5000, 8);
        let mut b = ProgramBuilder::new(0x100);
        b.halt();
        m.run_program(&b.build().unwrap(), 1000);
        assert_eq!(m.residency(0x5000), HitLevel::L1, "caches persist across programs");
    }

    #[test]
    fn exit_tracking_is_sticky_across_program_switches() {
        let mut m = Machine::new(CpuConfig::no_runahead());
        assert_eq!(m.first_non_halt(), None);
        // A loop that never halts within its budget.
        let mut b = ProgramBuilder::new(0x100);
        b.label("spin");
        b.jump("spin");
        let spin = b.build().unwrap();
        assert_eq!(m.run_program(&spin, 64), RunExit::CycleLimit);
        assert_eq!(m.first_non_halt(), Some((RunExit::CycleLimit, 64)));
        // A later clean run does not clear the sticky record.
        let mut b = ProgramBuilder::new(0x100);
        b.halt();
        assert_eq!(m.run_program(&b.build().unwrap(), 1000), RunExit::Halted);
        assert_eq!(m.first_non_halt(), Some((RunExit::CycleLimit, 64)));
    }

    #[test]
    fn attached_token_cancels_and_detaching_restores_plain_runs() {
        use specrun_cpu::{CancelReason, CancelToken};
        let mut m = Machine::new(CpuConfig::no_runahead());
        let token = CancelToken::new();
        m.set_cancel_token(Some(token.clone()));
        let mut b = ProgramBuilder::new(0x100);
        b.label("spin");
        b.jump("spin");
        let spin = b.build().unwrap();
        assert_eq!(
            m.run_program(&spin, 10_000),
            RunExit::CycleLimit,
            "a live token does not cancel"
        );
        assert!(token.beat_cycle() > 0, "the governed run published a heartbeat");
        let mut m = Machine::new(CpuConfig::no_runahead());
        m.set_cancel_token(Some(token.clone()));
        token.cancel(CancelReason::Deadline);
        assert_eq!(m.run_program(&spin, 1_000_000), RunExit::Cancelled);
        assert_eq!(m.stats().cycles, 0, "a tripped token stops the run before its first cycle");
        assert_eq!(m.first_non_halt(), Some((RunExit::Cancelled, 1_000_000)));
        m.set_cancel_token(None);
        m.acknowledge_non_halt();
        assert_eq!(m.run_program(&spin, 64), RunExit::CycleLimit, "detached runs are ungoverned");
    }

    #[test]
    fn host_memory_round_trip() {
        let mut m = Machine::new(CpuConfig::default());
        m.write_bytes(0x1234, b"hello");
        assert_eq!(m.read_bytes(0x1234, 5), b"hello");
        m.write_value(0x2000, 8, 77);
        assert_eq!(m.read_value(0x2000, 8), 77);
    }
}
