//! Processor configuration.
//!
//! [`CpuConfig::default`] reproduces Table 1 of the paper exactly; a unit
//! test asserts every row. The [`RunaheadConfig`] selects between no
//! runahead, the original scheme (Mutlu et al., HPCA'03), precise runahead
//! (Naithani et al., HPCA'20) and vector runahead (ISCA'21), plus the
//! paper's §6 defenses.

use specrun_bp::PredictorConfig;
use specrun_mem::MemConfig;

/// One functional-unit class: how many units and their latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuClass {
    /// Number of identical units.
    pub count: usize,
    /// Execution latency in cycles.
    pub latency: u64,
    /// Whether the unit accepts a new operation every cycle.
    pub pipelined: bool,
}

/// The functional-unit mix (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer adders / logic / branches (Table 1: 4 × 1 cycle).
    pub int_add: FuClass,
    /// Integer multipliers (Table 1: 2 × 2 cycles).
    pub int_mul: FuClass,
    /// Integer divider (Table 1: 1 × 5 cycles).
    pub int_div: FuClass,
    /// FP adders (Table 1: 2 × 5 cycles).
    pub fp_add: FuClass,
    /// FP multiplier (Table 1: 1 × 10 cycles).
    pub fp_mul: FuClass,
    /// FP divider (Table 1: 1 × 15 cycles).
    pub fp_div: FuClass,
    /// Load/store address ports.
    pub mem_ports: FuClass,
}

impl Default for FuConfig {
    fn default() -> FuConfig {
        FuConfig {
            int_add: FuClass { count: 4, latency: 1, pipelined: true },
            int_mul: FuClass { count: 2, latency: 2, pipelined: true },
            int_div: FuClass { count: 1, latency: 5, pipelined: false },
            fp_add: FuClass { count: 2, latency: 5, pipelined: true },
            fp_mul: FuClass { count: 1, latency: 10, pipelined: false },
            fp_div: FuClass { count: 1, latency: 15, pipelined: false },
            mem_ports: FuClass { count: 2, latency: 1, pipelined: true },
        }
    }
}

/// Which runahead scheme the core implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunaheadPolicy {
    /// Runahead disabled (the paper's "no-runahead" baseline machine).
    Disabled,
    /// Original runahead: full checkpoint, every instruction executes,
    /// pipeline flush on exit.
    #[default]
    Original,
    /// Precise runahead: only the stall slices execute (modelled as
    /// suppressing FP work in runahead mode) and entry/exit are free because
    /// the scheme reuses free back-end resources instead of flushing.
    Precise,
    /// Vector runahead: strided load chains are vectorised — a stride
    /// detector issues extra prefetch lanes per runahead load.
    Vector,
}

/// What makes the core enter runahead mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunaheadTrigger {
    /// A DRAM-bound load reaches the ROB head *and* the window is blocked —
    /// the ROB, load queue or store queue is full, so the pipeline has
    /// halted. This is the original HPCA'03 condition ("the instruction
    /// window fills up and halts the pipeline"): with Table 1's 40-entry
    /// LQ/SQ, memory-bound loops block on the queues well before the
    /// 256-entry ROB fills. An issue-queue backlog alone does *not* count
    /// (that happens behind serializing instructions, not memory pressure).
    #[default]
    WindowBlocked,
    /// A DRAM-bound load reaches the ROB head, blocked window or not — the
    /// relaxed "data cache miss" trigger of the paper's §5.3 scenario ➂.
    HeadMiss,
}

/// Defense configuration (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SecureConfig {
    /// Enables the SL-cache + taint-tracking scheme: runahead DRAM fills go
    /// to the SL cache and Algorithm 1 gates their promotion after exit.
    pub sl_cache: bool,
    /// SL cache capacity in lines.
    pub sl_entries: usize,
    /// Extra latency in cycles for consulting the SL cache while `C != 0`.
    pub sl_latency: u64,
    /// The alternative mitigation: an INV-source branch is "skipped rather
    /// than unresolved" — fetch is forced down the fall-through path, so no
    /// attacker-trained prediction steers runahead.
    pub skip_inv_branches: bool,
}

impl SecureConfig {
    /// The defended configuration the paper proposes: SL cache of 64 lines
    /// with a 1-cycle lookup.
    pub fn sl_cache_default() -> SecureConfig {
        SecureConfig { sl_cache: true, sl_entries: 64, sl_latency: 1, skip_inv_branches: false }
    }

    /// The restriction-based mitigation of §6's closing paragraph.
    pub fn skip_inv_default() -> SecureConfig {
        SecureConfig { sl_cache: false, sl_entries: 0, sl_latency: 0, skip_inv_branches: true }
    }
}

/// Runahead execution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunaheadConfig {
    /// Scheme selection.
    pub policy: RunaheadPolicy,
    /// Entry condition.
    pub trigger: RunaheadTrigger,
    /// Runahead-cache capacity in bytes (buffers runahead stores).
    pub runahead_cache_bytes: usize,
    /// Cycles to take the entry checkpoint (architectural state snapshot).
    pub enter_penalty: u64,
    /// Cycles to restore state and refill-steer the front end on exit.
    pub exit_penalty: u64,
    /// Whether branches resolved during runahead train the predictor.
    pub train_predictor: bool,
    /// Whether predictor histories are checkpointed on entry and restored on
    /// exit (the original scheme checkpoints the history register).
    pub checkpoint_predictor: bool,
    /// Number of prefetch lanes issued per strided load under
    /// [`RunaheadPolicy::Vector`].
    pub vector_lanes: u64,
    /// Useless-runahead avoidance (Mutlu & Patt's efficiency throttling):
    /// an episode that issued fewer than this many prefetches triggers a
    /// backoff. 0 disables throttling.
    pub min_episode_yield: u64,
    /// Cycles to suppress re-entry after a useless episode.
    pub useless_backoff: u64,
    /// Defense selection.
    pub secure: SecureConfig,
}

impl Default for RunaheadConfig {
    fn default() -> RunaheadConfig {
        RunaheadConfig {
            policy: RunaheadPolicy::Original,
            trigger: RunaheadTrigger::WindowBlocked,
            runahead_cache_bytes: 4096,
            enter_penalty: 4,
            exit_penalty: 8,
            train_predictor: true,
            checkpoint_predictor: true,
            vector_lanes: 8,
            min_episode_yield: 2,
            useless_backoff: 2500,
            secure: SecureConfig::default(),
        }
    }
}

/// Full processor configuration (Table 1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Core frequency in GHz (cosmetic; Table 1: 2 GHz out-of-order).
    pub freq_ghz: f64,
    /// Fetch/decode/dispatch/commit width (Table 1: 4).
    pub width: usize,
    /// Front-end pipeline depth in stages (Table 1: 6).
    pub frontend_stages: u64,
    /// Reorder-buffer capacity (Table 1: 256).
    pub rob_entries: usize,
    /// Issue-queue capacity (Table 1: "i (40)").
    pub iq_entries: usize,
    /// Load-queue capacity (Table 1: 40).
    pub lq_entries: usize,
    /// Store-queue capacity (Table 1: 40).
    pub sq_entries: usize,
    /// Physical integer registers (Table 1: 80 × 64 bit).
    pub int_prf: usize,
    /// Physical floating-point registers (Table 1: 40 × 64 bit).
    pub fp_prf: usize,
    /// Functional-unit mix.
    pub fu: FuConfig,
    /// Branch prediction structures (Table 1: two-level adaptive).
    pub predictor: PredictorConfig,
    /// Memory hierarchy (Table 1 cache/memory rows).
    pub mem: MemConfig,
    /// Runahead scheme.
    pub runahead: RunaheadConfig,
    /// Initial stack pointer loaded into `r31` when a program starts.
    pub stack_top: u64,
    /// Fetch-queue capacity between fetch and rename.
    pub fetch_queue: usize,
    /// Next-line instruction-prefetch depth (models the trace-cache/queue
    /// front end of the paper's Fig. 6; 0 disables).
    pub ifetch_prefetch_lines: u64,
    /// Idle-cycle fast-forward: when every pipeline stage is provably
    /// quiescent (typically: all in-flight work is waiting on DRAM fills),
    /// [`Core::run`](crate::Core::run) jumps the cycle counter straight to
    /// the next scheduled event instead of ticking one cycle at a time.
    /// The quiescence proof is tried after every [`Core::step`](crate::Core::step)
    /// in which no stage acted, and only then. Bit-identical statistics to
    /// the naive loop; purely a host-side simulation speedup.
    pub fast_forward: bool,
    /// Fast-forward self-check: before every jump, a cloned core steps
    /// through the skipped window cycle-by-cycle and the stats are asserted
    /// equal. Orders of magnitude slower — for tests only.
    pub ff_check: bool,
    /// Event-scheduler self-check: every cycle, the retired scan-based
    /// scheduler logic runs in parallel with the event-driven one —
    /// writeback's due-completion set is recomputed by a full ROB scan, and
    /// the issue-ready set is audited against every waiting entry's
    /// operand state and for bits left on freed ROB slots — and any
    /// divergence panics. Orders of magnitude
    /// slower — for tests only.
    pub sched_check: bool,
    /// Predecode self-check: every fetched micro-op's
    /// [`UopMeta`](specrun_isa::UopMeta) is re-derived from the `Inst` enum with the
    /// retired per-site derivations — `sources`/`dest`, the
    /// load/store/serializer/control classification, the FU class, the
    /// direct branch target — and any divergence panics. Much slower — for
    /// tests only.
    pub predecode_check: bool,
}

impl Default for CpuConfig {
    fn default() -> CpuConfig {
        CpuConfig {
            freq_ghz: 2.0,
            width: 4,
            frontend_stages: 6,
            rob_entries: 256,
            iq_entries: 40,
            lq_entries: 40,
            sq_entries: 40,
            int_prf: 80,
            fp_prf: 40,
            fu: FuConfig::default(),
            predictor: PredictorConfig::default(),
            mem: MemConfig::default(),
            runahead: RunaheadConfig::default(),
            stack_top: 0x4000_0000,
            fetch_queue: 16,
            ifetch_prefetch_lines: 48,
            fast_forward: true,
            ff_check: false,
            sched_check: false,
            predecode_check: false,
        }
    }
}

impl CpuConfig {
    /// A machine without runahead execution (the paper's baseline).
    pub fn no_runahead() -> CpuConfig {
        let mut c = CpuConfig::default();
        c.runahead.policy = RunaheadPolicy::Disabled;
        c
    }

    /// A runahead machine hardened with the SL-cache defense (§6).
    pub fn secure_runahead() -> CpuConfig {
        let mut c = CpuConfig::default();
        c.runahead.secure = SecureConfig::sl_cache_default();
        c
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the physical register files cannot cover the architectural
    /// state or any structure has zero capacity.
    pub fn validate(&self) {
        assert!(self.width > 0, "width must be positive");
        assert!(self.rob_entries > 0, "ROB must be non-empty");
        assert!(
            self.int_prf > specrun_isa::NUM_INT_REGS,
            "need at least one spare int physical register"
        );
        assert!(
            self.fp_prf > specrun_isa::NUM_FP_REGS,
            "need at least one spare fp physical register"
        );
        assert!(self.iq_entries > 0 && self.lq_entries > 0 && self.sq_entries > 0);
        assert!(self.fetch_queue >= self.width);
        // The event-driven scheduler requires every completion to land
        // strictly after its issue cycle (the writeback pop order equals
        // the old oldest-first scan order only because all events due at a
        // given cycle share that cycle as their key), so zero-latency
        // functional units and caches are rejected here.
        for (name, latency) in [
            ("int_add", self.fu.int_add.latency),
            ("int_mul", self.fu.int_mul.latency),
            ("int_div", self.fu.int_div.latency),
            ("fp_add", self.fu.fp_add.latency),
            ("fp_mul", self.fu.fp_mul.latency),
            ("fp_div", self.fu.fp_div.latency),
            ("mem_ports", self.fu.mem_ports.latency),
        ] {
            assert!(latency > 0, "{name} latency must be at least one cycle");
        }
        for (name, latency) in [
            ("l1i", self.mem.l1i.hit_latency),
            ("l1d", self.mem.l1d.hit_latency),
            ("l2", self.mem.l2.hit_latency),
            ("l3", self.mem.l3.hit_latency),
            ("dram", self.mem.dram.latency),
        ] {
            assert!(latency > 0, "{name} latency must be at least one cycle");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1, row by row.
    #[test]
    fn default_matches_table_1() {
        let c = CpuConfig::default();
        assert_eq!(c.freq_ghz, 2.0);
        assert_eq!(c.width, 4);
        assert_eq!(c.frontend_stages, 6);
        assert_eq!(c.rob_entries, 256);
        assert_eq!(c.iq_entries, 40);
        assert_eq!(c.lq_entries, 40);
        assert_eq!(c.sq_entries, 40);
        assert_eq!(c.int_prf, 80);
        assert_eq!(c.fp_prf, 40);
        // functional units
        assert_eq!((c.fu.int_add.count, c.fu.int_add.latency), (4, 1));
        assert_eq!((c.fu.int_mul.count, c.fu.int_mul.latency), (2, 2));
        assert_eq!((c.fu.int_div.count, c.fu.int_div.latency), (1, 5));
        assert_eq!((c.fu.fp_add.count, c.fu.fp_add.latency), (2, 5));
        assert_eq!((c.fu.fp_mul.count, c.fu.fp_mul.latency), (1, 10));
        assert_eq!((c.fu.fp_div.count, c.fu.fp_div.latency), (1, 15));
        // caches
        assert_eq!(c.mem.l1i.size_bytes, 16 * 1024);
        assert_eq!((c.mem.l1i.ways, c.mem.l1i.hit_latency), (4, 2));
        assert_eq!(c.mem.l1d.size_bytes, 16 * 1024);
        assert_eq!((c.mem.l1d.ways, c.mem.l1d.hit_latency), (4, 2));
        assert_eq!(c.mem.l2.size_bytes, 128 * 1024);
        assert_eq!((c.mem.l2.ways, c.mem.l2.hit_latency), (8, 8));
        assert_eq!(c.mem.l3.size_bytes, 4 * 1024 * 1024);
        assert_eq!((c.mem.l3.ways, c.mem.l3.hit_latency), (8, 32));
        assert_eq!(c.mem.dram.latency, 200);
        c.validate();
    }

    #[test]
    fn preset_variants() {
        assert_eq!(CpuConfig::no_runahead().runahead.policy, RunaheadPolicy::Disabled);
        assert!(CpuConfig::secure_runahead().runahead.secure.sl_cache);
        CpuConfig::no_runahead().validate();
        CpuConfig::secure_runahead().validate();
    }

    #[test]
    #[should_panic(expected = "spare int physical register")]
    fn validate_rejects_tiny_prf() {
        let c = CpuConfig { int_prf: 32, ..CpuConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "latency must be at least one cycle")]
    fn validate_rejects_zero_latency_units() {
        let mut c = CpuConfig::default();
        c.fu.int_add.latency = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "latency must be at least one cycle")]
    fn validate_rejects_zero_latency_caches() {
        let mut c = CpuConfig::default();
        c.mem.l1d.hit_latency = 0;
        c.validate();
    }
}
