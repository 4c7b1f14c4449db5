//! The end-to-end SPECRUN proofs of concept: the Fig. 8 SpectrePHT attack
//! (Fig. 9 / Fig. 11) and the §4.4 SpectreBTB/RSB variants, as one attack
//! sequence split the way Kocher et al. structure a Spectre attack.
//!
//! [`Attack::prepare`] does every secret-independent step — build and
//! predecode the programs, warm their text and, for BTB, mistrain the
//! predictor. [`Attack::strike`] plants a secret, runs the victim and
//! recovers the byte through the Flush+Reload probe. [`run_poc`] does both
//! on one session; a campaign prepares once and strikes on a copy-on-write
//! fork per secret (see [`crate::pool`]).

use std::sync::Arc;

use specrun_cpu::probe::PipelineObserver;
use specrun_isa::{DecodedProgram, ProgramBuilder};

use crate::attack::covert::{ProbeTimings, DEFAULT_THRESHOLD};
use crate::attack::gadget;
use crate::attack::variants::{
    build_btb_trainer, build_btb_victim, build_rsb_victim, BTB_SLOT_OFFSET, BTB_TRAINER_BUDGET,
    BTB_TRAINING_RUNS,
};
use crate::attack::{AttackLayout, GadgetKind};
use crate::session::Session;

/// Configuration of a SPECRUN proof-of-concept run.
#[derive(Debug, Clone)]
pub struct PocConfig {
    /// Memory layout of the attack structures.
    pub layout: AttackLayout,
    /// The secret byte planted at [`AttackLayout::secret_addr`].
    pub secret: u8,
    /// Training iterations for the PHT (paper step ①).
    pub training_rounds: u32,
    /// Nops inserted between the bounds check and the secret access
    /// (0 reproduces Fig. 9; > ROB size reproduces Fig. 11).
    pub nop_slide: usize,
    /// Filler between the victim call and the probe — the paper's Fig. 8
    /// line 16, `<some_operations> // waiting for the victim's execution`.
    /// It both supplies the instructions that fill the ROB (triggering
    /// runahead) and keeps the runahead episode from running into the probe
    /// loop and prefetching probe entries.
    pub attack_filler: usize,
    /// Hit/miss threshold for the covert-channel analyzer.
    pub threshold: u64,
    /// Cycle budget for the whole attack program.
    pub max_cycles: u64,
}

impl Default for PocConfig {
    fn default() -> PocConfig {
        PocConfig {
            layout: AttackLayout::default(),
            secret: 86, // the byte the paper leaks in Fig. 9
            training_rounds: 24,
            nop_slide: 0,
            attack_filler: 1200,
            threshold: DEFAULT_THRESHOLD,
            max_cycles: 3_000_000,
        }
    }
}

impl PocConfig {
    /// The Fig. 11 configuration: secret 127 behind a nop slide longer than
    /// the ROB.
    pub fn fig11(nop_slide: usize) -> PocConfig {
        PocConfig { secret: 127, nop_slide, ..PocConfig::default() }
    }
}

/// Outcome of one proof-of-concept run.
#[derive(Debug, Clone)]
pub struct PocOutcome {
    /// The probe-timing series (Fig. 9 / Fig. 11 material).
    pub timings: ProbeTimings,
    /// Byte recovered through the covert channel, if any.
    pub leaked: Option<u8>,
    /// The secret that was planted.
    pub expected: u8,
    /// Runahead episodes the attack caused.
    pub runahead_entries: u64,
    /// INV-source branches that never resolved (the SPECRUN signature).
    pub inv_branches: u64,
}

impl PocOutcome {
    /// Whether the covert channel recovered the planted secret.
    pub fn success(&self) -> bool {
        self.leaked == Some(self.expected)
    }
}

/// Builds the single-binary Fig. 8 attack program: train → flush probe →
/// flush `D` → victim call with malicious `x` → probe.
pub fn build_pht_program(cfg: &PocConfig) -> specrun_isa::Program {
    let mut b = ProgramBuilder::new(0x1000);
    gadget::define_symbols(&mut b, &cfg.layout);
    gadget::emit_training_loop(&mut b, cfg.training_rounds);
    gadget::emit_probe_flush(&mut b, &cfg.layout);
    gadget::emit_attack_call(&mut b, &cfg.layout);
    b.nops(cfg.attack_filler); // Fig. 8 line 16: wait for the victim
    gadget::emit_probe_loop(&mut b, &cfg.layout);
    b.halt();
    gadget::emit_victim_function(&mut b, &cfg.layout, cfg.nop_slide);
    b.build().expect("PoC program is closed")
}

/// One attack with its secret-independent half already done: the gadget's
/// programs built and predecoded, plus what [`Attack::strike`] needs to
/// run them. Cloning it shares the predecode.
#[derive(Debug, Clone)]
pub struct Attack {
    gadget: GadgetKind,
    /// The victim program (for PHT, the whole single-binary attack).
    victim: Arc<DecodedProgram>,
    /// The attacker's separate probe program (BTB and RSB); the PHT attack
    /// probes in-program.
    probe: Option<Arc<DecodedProgram>>,
    layout: AttackLayout,
    threshold: u64,
    max_cycles: u64,
}

impl Attack {
    /// Builds and predecodes `gadget`'s programs for `cfg` and runs every
    /// secret-independent step on `session`: the victim's text is warmed
    /// (attacker and victim code are steady-state warm in a real attack),
    /// and for BTB the victim's jump-table slot is set up and the attacker
    /// trains the BTB from its own congruent address space. `cfg.secret` is
    /// not read.
    pub fn prepare<O: PipelineObserver>(
        session: &mut Session<O>,
        gadget: GadgetKind,
        cfg: &PocConfig,
    ) -> Attack {
        let layout = cfg.layout;
        let (victim, probe) = match gadget {
            GadgetKind::Pht => (build_pht_program(cfg), None),
            GadgetKind::Btb => {
                let victim = build_btb_victim(&layout, cfg.nop_slide);
                // The slot holds the benign jump target.
                let benign = victim.symbol("benign").expect("BTB victim has a benign label");
                let slot = layout.bound_addr + BTB_SLOT_OFFSET;
                session.write_value(slot, 8, benign);
                session.warm(slot, 8);
                // ① Train the BTB from the attacker's own address space.
                let trainer = Arc::new(DecodedProgram::new(build_btb_trainer(&victim)));
                for _ in 0..BTB_TRAINING_RUNS {
                    session.run_predecoded(trainer.clone(), BTB_TRAINER_BUDGET);
                }
                // The trainer's normal exit is Wedged: it architecturally
                // jumps to the gadget address, which exists only in the
                // victim's image. Discharge the sticky record so the
                // end-of-run health check reports the victim and probe only.
                session.acknowledge_non_halt();
                (victim, Some(gadget::build_probe_program(&layout)))
            }
            GadgetKind::Rsb => (
                build_rsb_victim(&layout, cfg.nop_slide),
                Some(gadget::build_probe_program(&layout)),
            ),
        };
        session.warm_text(&victim);
        Attack {
            gadget,
            victim: Arc::new(DecodedProgram::new(victim)),
            probe: probe.map(|p| Arc::new(DecodedProgram::new(p))),
            layout,
            threshold: cfg.threshold,
            max_cycles: cfg.max_cycles,
        }
    }

    /// Plants `secret`, runs the victim and probes: the secret-dependent
    /// half of the attack, on a session [`Attack::prepare`] set up (or a
    /// fork of one).
    pub fn strike<O: PipelineObserver>(&self, session: &mut Session<O>, secret: u8) -> PocOutcome {
        session.plant(&self.layout, secret);
        match self.gadget {
            GadgetKind::Pht => {}
            // ② Evict the victim's jump-table slot (co-resident clflush).
            GadgetKind::Btb => session.flush(self.layout.bound_addr + BTB_SLOT_OFFSET),
            // D holds 0 so that architecturally F = benign.
            GadgetKind::Rsb => {
                session.write_value(self.layout.bound_addr, 8, 0);
                session.warm(self.layout.bound_addr, 8);
            }
        }
        // ③ The victim enters runahead on the stalling load and runs the
        // gadget transiently.
        session.reset_stats();
        session.run_predecoded(self.victim.clone(), self.max_cycles);
        let runahead_entries = session.stats().runahead_entries;
        let inv_branches = session.stats().inv_unresolved_branches;
        // ④ The attacker probes from its own process.
        if let Some(probe) = &self.probe {
            session.run_predecoded(probe.clone(), self.max_cycles);
        }
        let timings = session.probe_timings();
        // Training touches array1[0] = 0, so probe entry 0 is excluded.
        let leaked = timings.leaked_byte(self.threshold, &[0]);
        PocOutcome { leaked, expected: secret, runahead_entries, inv_branches, timings }
    }
}

/// Runs the `gadget` proof of concept end to end on `session`: prepare,
/// then strike with `cfg.secret`.
///
/// The session's machine decides the outcome: a runahead machine leaks,
/// the no-runahead machine (given a `nop_slide` > ROB) and the §6 defenses
/// do not — except BTB under the SL cache, which guards conditional
/// branches only.
pub fn run_poc<O: PipelineObserver>(
    session: &mut Session<O>,
    gadget: GadgetKind,
    cfg: &PocConfig,
) -> PocOutcome {
    Attack::prepare(session, gadget, cfg).strike(session, cfg.secret)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_builds_and_contains_victim() {
        let cfg = PocConfig::default();
        let p = build_pht_program(&cfg);
        assert!(p.symbol("victim_function").is_some());
        assert!(p.len() > 30, "static length {}", p.len());
    }

    #[test]
    fn planting_places_secret_and_bound() {
        let cfg = PocConfig { secret: 0xab, ..PocConfig::default() };
        let mut s = crate::session::Session::builder().policy(crate::Policy::NoRunahead).build();
        s.plant(&cfg.layout, cfg.secret);
        assert_eq!(s.read_value(cfg.layout.bound_addr, 8), cfg.layout.bound_value);
        assert_eq!(s.read_bytes(cfg.layout.secret_addr, 1), vec![0xab]);
        assert_ne!(s.residency(cfg.layout.secret_addr), specrun_mem::HitLevel::Mem);
        assert_eq!(s.residency(cfg.layout.probe_addr(7)), specrun_mem::HitLevel::Mem);
    }
}
