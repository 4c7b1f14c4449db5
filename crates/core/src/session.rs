//! The [`Session`]: one experiment surface for every SPECRUN artifact.
//!
//! Before this module each experiment hand-plumbed a [`Machine`] preset
//! plus its own layout/warm/plant/run/readback sequence. A session bundles
//! the whole experiment state — machine configuration, attack memory
//! layout, planted secret, warmed ranges, and an optional
//! [`PipelineObserver`] — behind one builder, and is the path the attack,
//! defense and window experiments, the lab registry and the examples all
//! share.
//!
//! ```
//! use specrun::attack::{run_poc, GadgetKind, PocConfig};
//! use specrun::session::{Policy, Session};
//!
//! let mut session = Session::builder().policy(Policy::Runahead).build();
//! let cfg = PocConfig { training_rounds: 16, ..PocConfig::default() };
//! let outcome = run_poc(&mut session, GadgetKind::Pht, &cfg);
//! assert_eq!(outcome.leaked, Some(cfg.secret), "SPECRUN leaks on the runahead machine");
//! ```
//!
//! The builder covers the full setup sequence; every step is optional:
//!
//! ```
//! use specrun::attack::AttackLayout;
//! use specrun::session::{Policy, Session};
//! use specrun_cpu::probe::CountingObserver;
//!
//! let layout = AttackLayout::default();
//! let session = Session::builder()
//!     .config(specrun_cpu::CpuConfig::default()) // explicit machine config
//!     .policy(Policy::Secure)                    // then a named policy on top
//!     .layout(layout)                            // attack memory geometry
//!     .plant_secret(0xAB)                        // plant + warm the PoC data
//!     .warm(0x9000, 64)                          // extra warmed ranges
//!     .observer(CountingObserver::default())     // ground-truth event tracing
//!     .build();
//! assert_eq!(session.read_bytes(layout.secret_addr, 1), vec![0xAB]);
//! assert!(session.machine().core().config().runahead.secure.sl_cache);
//! ```

use std::ops::{Deref, DerefMut};

use specrun_cpu::probe::{LeakTraceObserver, NoopObserver, PipelineObserver};
use specrun_cpu::{CpuConfig, RunaheadPolicy, RunaheadTrigger, SecureConfig};

use crate::attack::covert::ProbeTimings;
use crate::attack::AttackLayout;
use crate::machine::Machine;

/// The paper's machine policies, as one closed choice instead of six named
/// constructors. Applied on top of whatever configuration the builder holds,
/// so `.config(custom).policy(Policy::Secure)` composes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Table 1 with original runahead (the vulnerable machine).
    Runahead,
    /// Table 1 with runahead disabled (the baseline).
    NoRunahead,
    /// Runahead with the relaxed "data cache miss" entry trigger (§5.3 ➂).
    HeadMissTrigger,
    /// A specific runahead variant (§4.3: original / precise / vector).
    Variant(RunaheadPolicy),
    /// The §6 secure-runahead defense (SL cache + taint tracking).
    Secure,
    /// The §6 alternative mitigation (skip INV-source branches).
    SkipInv,
}

impl Policy {
    /// Applies the policy to a configuration.
    pub fn apply(self, cfg: &mut CpuConfig) {
        match self {
            Policy::Runahead => {
                cfg.runahead.policy = RunaheadPolicy::Original;
            }
            Policy::NoRunahead => {
                cfg.runahead.policy = RunaheadPolicy::Disabled;
            }
            Policy::HeadMissTrigger => {
                cfg.runahead.trigger = RunaheadTrigger::HeadMiss;
            }
            Policy::Variant(policy) => {
                cfg.runahead.policy = policy;
            }
            Policy::Secure => {
                cfg.runahead.secure = SecureConfig::sl_cache_default();
            }
            Policy::SkipInv => {
                cfg.runahead.secure = SecureConfig::skip_inv_default();
            }
        }
    }
}

/// Builder for a [`Session`]; see the [module docs](self) for the chain.
#[derive(Debug, Clone)]
pub struct SessionBuilder<O: PipelineObserver = NoopObserver> {
    config: CpuConfig,
    layout: AttackLayout,
    secret: Option<u8>,
    warm: Vec<(u64, u64)>,
    observer: O,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder {
            config: CpuConfig::default(),
            layout: AttackLayout::default(),
            secret: None,
            warm: Vec::new(),
            observer: NoopObserver,
        }
    }
}

impl<O: PipelineObserver> SessionBuilder<O> {
    /// Replaces the machine configuration wholesale (default: Table 1 with
    /// original runahead). Call before [`SessionBuilder::policy`] if you
    /// use both — policies edit the configuration in place.
    pub fn config(mut self, config: CpuConfig) -> Self {
        self.config = config;
        self
    }

    /// Applies a named machine policy on top of the current configuration.
    pub fn policy(mut self, policy: Policy) -> Self {
        policy.apply(&mut self.config);
        self
    }

    /// Sets the attack memory layout ([`AttackLayout::default`] otherwise);
    /// [`Session::probe_timings`] and secret planting read it.
    pub fn layout(mut self, layout: AttackLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Plants `secret` (and the PoC's arrays, bound and probe geometry) in
    /// machine memory at build, per the paper's preconditions — see
    /// [`Session::plant`].
    pub fn plant_secret(mut self, secret: u8) -> Self {
        self.secret = Some(secret);
        self
    }

    /// Warms the cache line(s) covering `addr .. addr+len` at build (after
    /// any planting; may be called repeatedly).
    pub fn warm(mut self, addr: u64, len: u64) -> Self {
        self.warm.push((addr, len));
        self
    }

    /// Attaches a pipeline observer (see [`specrun_cpu::probe`]). The
    /// observer rides the session's type, so a detached session stays
    /// zero-cost. Observers compose as tuples: pairing an analysis
    /// observer with a [`specrun_trace::RecordingObserver`] records the
    /// event stream the analysis sees.
    pub fn observer<P: PipelineObserver>(self, observer: P) -> SessionBuilder<P> {
        SessionBuilder {
            config: self.config,
            layout: self.layout,
            secret: self.secret,
            warm: self.warm,
            observer,
        }
    }

    /// Builds the session: machine constructed, secret planted, ranges
    /// warmed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// ([`CpuConfig::validate`]).
    pub fn build(self) -> Session<O> {
        let mut session = Session {
            machine: Machine::with_observer(self.config, self.observer),
            layout: self.layout,
        };
        if let Some(secret) = self.secret {
            let layout = session.layout;
            session.plant(&layout, secret);
        }
        for (addr, len) in self.warm {
            session.machine.warm(addr, len);
        }
        session
    }
}

/// One configured experiment: a machine plus the attack-layout context the
/// readback helpers need. Dereferences to [`Machine`], so every machine
/// facility (memory setup, program runs, register/stat readback) is
/// available directly on the session.
#[derive(Debug, Clone)]
pub struct Session<O: PipelineObserver = NoopObserver> {
    machine: Machine<O>,
    layout: AttackLayout,
}

impl Session {
    /// Starts a builder with the default (Table 1 runahead) machine.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }
}

impl<O: PipelineObserver> Session<O> {
    /// The session's attack memory layout.
    pub fn layout(&self) -> &AttackLayout {
        &self.layout
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine<O> {
        &self.machine
    }

    /// Mutable access to the underlying machine.
    pub fn machine_mut(&mut self) -> &mut Machine<O> {
        &mut self.machine
    }

    /// Plants the attack's data per the paper's preconditions (the secret
    /// is the victim's recently-used data — cached; `array1`, its bound and
    /// the probe array are set up; the probe array is cold) and adopts
    /// `layout` as the session's layout for later readback.
    pub fn plant(&mut self, layout: &AttackLayout, secret: u8) {
        self.layout = *layout;
        self.machine.write_value(layout.bound_addr, 8, layout.bound_value);
        // array1's in-bounds content is zero; the training access hits
        // entry 0.
        self.machine.write_bytes(layout.array1_base, &vec![0u8; layout.bound_value as usize]);
        self.machine.write_bytes(layout.secret_addr, &[secret]);
        // Victim data is warm (the victim used it recently); the trigger
        // line D starts warm too — the attacker flushes it in-program.
        self.machine.warm(layout.bound_addr, 8);
        self.machine.warm(layout.array1_base, layout.bound_value);
        self.machine.warm(layout.secret_addr, 1);
        // Probe array cold.
        for v in 0..layout.probe_entries {
            self.machine.flush(layout.probe_addr(v));
        }
    }

    /// Reads the probe loop's results buffer (per the session layout) from
    /// machine memory.
    pub fn probe_timings(&self) -> ProbeTimings {
        ProbeTimings::read_from(&self.machine, &self.layout)
    }
}

impl<O: PipelineObserver> Deref for Session<O> {
    type Target = Machine<O>;

    fn deref(&self) -> &Machine<O> {
        &self.machine
    }
}

impl<O: PipelineObserver> DerefMut for Session<O> {
    fn deref_mut(&mut self) -> &mut Machine<O> {
        &mut self.machine
    }
}

/// A [`LeakTraceObserver`] pre-configured for `layout`'s probe array on a
/// machine with `config`'s line size, watching the secret line — the
/// ground-truth tracer for the flush+reload channel the layout describes.
pub fn leak_trace_for(layout: &AttackLayout, config: &CpuConfig) -> LeakTraceObserver {
    LeakTraceObserver::new(
        layout.probe_base,
        layout.probe_stride,
        layout.probe_entries,
        config.mem.l1d.line_bytes,
    )
    .watch_secret(layout.secret_addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrun_cpu::probe::CountingObserver;
    use specrun_isa::{IntReg, ProgramBuilder};
    use specrun_mem::HitLevel;

    #[test]
    fn builder_plants_and_warms() {
        let layout = AttackLayout::default();
        let session = Session::builder()
            .policy(Policy::NoRunahead)
            .layout(layout)
            .plant_secret(0xab)
            .warm(0x9000, 8)
            .build();
        assert_eq!(session.read_value(layout.bound_addr, 8), layout.bound_value);
        assert_eq!(session.read_bytes(layout.secret_addr, 1), vec![0xab]);
        assert_ne!(session.residency(layout.secret_addr), HitLevel::Mem);
        assert_eq!(session.residency(layout.probe_addr(7)), HitLevel::Mem, "probe stays cold");
        assert_eq!(session.residency(0x9000), HitLevel::L1, "extra warm range applied");
    }

    #[test]
    fn policies_configure_expected_machines() {
        let cfg = |p| {
            let s = Session::builder().policy(p).build();
            s.machine().core().config().clone()
        };
        assert_eq!(cfg(Policy::NoRunahead).runahead.policy, RunaheadPolicy::Disabled);
        assert_eq!(cfg(Policy::Runahead).runahead.policy, RunaheadPolicy::Original);
        assert_eq!(cfg(Policy::HeadMissTrigger).runahead.trigger, RunaheadTrigger::HeadMiss);
        assert_eq!(
            cfg(Policy::Variant(RunaheadPolicy::Vector)).runahead.policy,
            RunaheadPolicy::Vector
        );
        assert!(cfg(Policy::Secure).runahead.secure.sl_cache);
        assert!(cfg(Policy::SkipInv).runahead.secure.skip_inv_branches);
    }

    #[test]
    fn session_runs_programs_through_deref() {
        let r1 = IntReg::new(1).unwrap();
        let mut b = ProgramBuilder::new(0x1000);
        b.li(r1, 2);
        b.addi(r1, r1, 40);
        b.halt();
        let program = b.build().unwrap();
        let mut session = Session::builder().observer(CountingObserver::default()).build();
        session.run_program(&program, 10_000);
        assert_eq!(session.reg(r1), 42);
        assert_eq!(session.observer().commits, session.stats().committed);
    }

    #[test]
    fn recording_observer_composes_beside_an_analysis_observer() {
        let r1 = IntReg::new(1).unwrap();
        let mut b = ProgramBuilder::new(0x1000);
        b.li(r1, 7);
        b.halt();
        let program = b.build().unwrap();
        let mut session = Session::builder()
            .observer((CountingObserver::default(), specrun_trace::RecordingObserver::new()))
            .build();
        session.run_program(&program, 10_000);
        let (counts, recorder) = session.observer();
        assert!(!recorder.events().is_empty(), "commits must be recorded");
        // The composed analysis observer still sees the live stream.
        assert_eq!(counts.commits, session.stats().committed);
        let log = specrun_trace::encode_events(recorder.events());
        assert_eq!(specrun_trace::decode_events(&log).unwrap().events, recorder.events());
    }

    #[test]
    fn leak_trace_for_matches_layout() {
        let layout = AttackLayout::default();
        let tracer = leak_trace_for(&layout, &CpuConfig::default());
        assert_eq!(tracer.fills_per_entry().len(), layout.probe_entries as usize);
        assert_eq!(tracer.transient_secret_fills(), 0);
    }
}
