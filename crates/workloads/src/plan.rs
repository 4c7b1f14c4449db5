//! Attack *plans*: the generative grammar behind `specrun-fuzz`.
//!
//! A [`Plan`] is a complete, self-describing description of one SPECRUN
//! attack trial — victim shape (gadget kind, nop-slide length, training
//! pattern), memory layout, secret placement, cache warm-up sequence and
//! the machine knobs/policy to run it under. Plans are generated from a
//! seeded [`SplitMix64`] so a campaign is a pure function of
//! `(campaign_seed, index, mode)`: the same triple yields a byte-identical
//! plan on every platform, which is what lets CI soak deterministically and
//! lets a failing plan be replayed from nothing but its seed.
//!
//! The module deliberately holds *data only*. Turning a plan into a
//! [`Session`](../../specrun/session/struct.Session.html) lives in
//! `specrun::plan` (the crate that owns sessions); checking invariants over
//! the outcome lives in `specrun-lab`. What does live here besides the
//! grammar is the [shrinking order](Plan::shrink_candidates): every
//! candidate strictly reduces [`Plan::weight`], which is what guarantees
//! the delta-debugging loop in [`crate::fuzz::shrink_plan`] terminates.
//!
//! ```
//! use specrun_workloads::plan::Plan;
//!
//! let plan = Plan::generate(0xC0FFEE, 7, true);
//! assert_eq!(plan, Plan::generate(0xC0FFEE, 7, true), "pure function of the triple");
//! assert!(plan.layout.is_valid() && plan.secret != 0);
//! ```

use specrun_cpu::CpuConfig;

use crate::rng::SplitMix64;

/// Cache line size the layout generator aligns to (Table 1's hierarchy).
const LINE: u64 = 64;
/// Base of the scratch region warm-up steps touch. Disjoint from every
/// attack structure so a warm step can never silently re-warm a probe line
/// the PoC just flushed.
pub const WARM_SCRATCH_BASE: u64 = 0x0300_0000;

/// Which Spectre-in-runahead gadget the plan's victim carries (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GadgetKind {
    /// The conditional-branch (SpectrePHT) gadget of Fig. 8.
    Pht,
    /// The poisoned indirect jump (SpectreBTB) of Fig. 4a.
    Btb,
    /// The overwritten return address (SpectreRSB) of Fig. 4b.
    Rsb,
}

impl GadgetKind {
    /// Stable label used in JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            GadgetKind::Pht => "Pht",
            GadgetKind::Btb => "Btb",
            GadgetKind::Rsb => "Rsb",
        }
    }

    /// Inverse of [`GadgetKind::label`] (spec-file decoding).
    pub fn from_label(label: &str) -> Option<GadgetKind> {
        [GadgetKind::Pht, GadgetKind::Btb, GadgetKind::Rsb].into_iter().find(|g| g.label() == label)
    }
}

/// Machine policy of a plan — the fuzzing-side mirror of the session
/// `Policy` choice (pure data here; `specrun::plan` maps it across).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPolicy {
    /// Table 1 with original runahead (the vulnerable machine).
    Runahead,
    /// Table 1 with runahead disabled (the baseline).
    NoRunahead,
    /// Runahead with the relaxed "data cache miss" entry trigger (§5.3 ➂).
    HeadMissTrigger,
    /// Precise runahead (§4.3).
    Precise,
    /// Vector runahead (§4.3).
    Vector,
    /// The §6 SL-cache + taint-tracking defense.
    Secure,
    /// The §6 alternative mitigation (skip INV-source branches).
    SkipInv,
}

impl PlanPolicy {
    /// Stable label used in JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            PlanPolicy::Runahead => "Runahead",
            PlanPolicy::NoRunahead => "NoRunahead",
            PlanPolicy::HeadMissTrigger => "HeadMissTrigger",
            PlanPolicy::Precise => "Precise",
            PlanPolicy::Vector => "Vector",
            PlanPolicy::Secure => "Secure",
            PlanPolicy::SkipInv => "SkipInv",
        }
    }

    /// Whether the policy carries one of the §6 defenses.
    pub fn is_defended(self) -> bool {
        matches!(self, PlanPolicy::Secure | PlanPolicy::SkipInv)
    }

    /// Inverse of [`PlanPolicy::label`] (spec-file decoding).
    pub fn from_label(label: &str) -> Option<PlanPolicy> {
        [
            PlanPolicy::Runahead,
            PlanPolicy::NoRunahead,
            PlanPolicy::HeadMissTrigger,
            PlanPolicy::Precise,
            PlanPolicy::Vector,
            PlanPolicy::Secure,
            PlanPolicy::SkipInv,
        ]
        .into_iter()
        .find(|p| p.label() == label)
    }
}

/// Addresses and geometry of the attack's data structures (Fig. 8) — one
/// type for the attack programs, fuzz plans and campaign specs alike.
///
/// * `bound_addr` is `D`: the location of `array1_size`, the value the
///   attacker flushes to trigger runahead.
/// * `array1_base` is the victim array; the malicious index `x` is chosen so
///   `array1_base + x` lands on the secret byte.
/// * `probe_base`/`probe_stride` define `array2`, the covert-channel probe
///   array (one cache line per possible byte value).
/// * `results_base` receives the 256 probe timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackLayout {
    /// Address of `array1_size` (the paper's `D`).
    pub bound_addr: u64,
    /// In-bounds length of `array1`.
    pub bound_value: u64,
    /// Base of the victim array `array1`.
    pub array1_base: u64,
    /// Address of the secret byte the attacker wants.
    pub secret_addr: u64,
    /// Base of the probe array `array2`.
    pub probe_base: u64,
    /// Bytes between probe entries (`N` in the paper; at least a line).
    pub probe_stride: u64,
    /// Number of probe entries (one per byte value).
    pub probe_entries: u64,
    /// Where the probe loop stores its 256 latencies (8 bytes each).
    pub results_base: u64,
}

impl Default for AttackLayout {
    /// The paper's Fig. 8 layout.
    fn default() -> AttackLayout {
        AttackLayout {
            bound_addr: 0x0009_0000,
            bound_value: 16,
            array1_base: 0x000a_0000,
            secret_addr: 0x000b_0000,
            probe_base: 0x0100_0000,
            probe_stride: 512,
            probe_entries: 256,
            results_base: 0x0200_0000,
        }
    }
}

impl AttackLayout {
    /// The malicious index: `secret_addr - array1_base`.
    pub fn malicious_x(&self) -> u64 {
        self.secret_addr - self.array1_base
    }

    /// Address of probe entry `value`.
    pub fn probe_addr(&self, value: u64) -> u64 {
        self.probe_base + value * self.probe_stride
    }

    /// Address of the timing slot for probe entry `value`.
    pub fn result_addr(&self, value: u64) -> u64 {
        self.results_base + value * 8
    }

    /// Structural soundness: regions line-aligned, ordered and disjoint,
    /// the malicious index encodable as an `li` immediate, and everything
    /// clear of the warm-up scratch region.
    pub fn is_valid(&self) -> bool {
        self.bound_addr % LINE == 0
            && self.array1_base % LINE == 0
            && self.probe_base % LINE == 0
            && self.bound_value >= 1
            && self.bound_addr + 128 <= self.array1_base
            && self.array1_base + self.bound_value < self.secret_addr
            && self.secret_addr + LINE <= self.probe_base
            && self.probe_stride >= LINE
            && self.probe_entries == 256
            && self.probe_addr(self.probe_entries - 1) + LINE <= self.results_base
            && self.results_base + self.probe_entries * 8 <= WARM_SCRATCH_BASE
            && self.malicious_x() <= i32::MAX as u64
    }

    fn diff_count(&self) -> u64 {
        let d = AttackLayout::default();
        u64::from(self.bound_addr != d.bound_addr)
            + u64::from(self.bound_value != d.bound_value)
            + u64::from(self.array1_base != d.array1_base)
            + u64::from(self.secret_addr != d.secret_addr)
            + u64::from(self.probe_base != d.probe_base)
            + u64::from(self.probe_stride != d.probe_stride)
            + u64::from(self.probe_entries != d.probe_entries)
            + u64::from(self.results_base != d.results_base)
    }
}

/// Victim-program shape: which gadget, how long the slide is, how hard the
/// predictor is trained, and how much filler separates attack and probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimSpec {
    /// Gadget kind.
    pub gadget: GadgetKind,
    /// Nops between the bounds check and the secret access (0 reproduces
    /// Fig. 9; beyond the ROB reproduces Fig. 11).
    pub nop_slide: u32,
    /// PHT training iterations (paper step ①).
    pub training_rounds: u32,
    /// Filler between the victim call and the probe (Fig. 8 line 16). The
    /// generator keeps this at least ~900: a single runahead episode
    /// dispatches at most `dram_latency × width` ≈ 800 µops, so the filler
    /// guarantees an episode entered at the attack call drains before the
    /// probe loop — shorter fillers let runahead prefetch probe entries and
    /// the plan degenerates into probing its own attack.
    pub attack_filler: u32,
    /// Cycle budget per program run.
    pub max_cycles: u64,
}

/// One cache warm-up step, confined to the scratch region at
/// [`WARM_SCRATCH_BASE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmStep {
    /// First byte warmed.
    pub addr: u64,
    /// Length of the warmed range.
    pub len: u64,
}

/// Fuzzed machine knobs, applied on top of the policy's configuration.
///
/// `Default` reproduces the paper machine (Table 1 plus the §6 defense
/// defaults), so [`KnobSpec::diff_count`] — the number of fields a plan
/// actually moved — doubles as the shrinking distance back to the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobSpec {
    /// Reorder-buffer capacity.
    pub rob_entries: u32,
    /// Load-queue capacity.
    pub lq_entries: u32,
    /// Store-queue capacity.
    pub sq_entries: u32,
    /// Runahead checkpoint cost.
    pub enter_penalty: u64,
    /// Runahead restore cost.
    pub exit_penalty: u64,
    /// Whether runahead branches train the predictor.
    pub train_predictor: bool,
    /// Whether predictor history is checkpointed across episodes.
    pub checkpoint_predictor: bool,
    /// Vector-runahead prefetch lanes.
    pub vector_lanes: u64,
    /// Useless-episode throttling threshold.
    pub min_episode_yield: u64,
    /// Re-entry backoff after a useless episode.
    pub useless_backoff: u64,
    /// Runahead store-buffer capacity in bytes.
    pub runahead_cache_bytes: u32,
    /// SL-cache capacity (only applied under the Secure policy).
    pub sl_entries: u32,
    /// SL-cache lookup latency (only applied under the Secure policy).
    pub sl_latency: u64,
    /// Idle-cycle fast-forward (must be invisible to every oracle).
    pub fast_forward: bool,
}

impl Default for KnobSpec {
    fn default() -> KnobSpec {
        KnobSpec {
            rob_entries: 256,
            lq_entries: 40,
            sq_entries: 40,
            enter_penalty: 4,
            exit_penalty: 8,
            train_predictor: true,
            checkpoint_predictor: true,
            vector_lanes: 8,
            min_episode_yield: 2,
            useless_backoff: 2500,
            runahead_cache_bytes: 4096,
            sl_entries: 64,
            sl_latency: 1,
            fast_forward: true,
        }
    }
}

impl KnobSpec {
    /// Applies the knobs to `cfg`. The SL-cache fields only land when the
    /// policy already enabled the SL cache, so a defense knob can never
    /// accidentally arm a defense the plan's policy did not choose.
    pub fn apply(&self, cfg: &mut CpuConfig) {
        cfg.rob_entries = self.rob_entries as usize;
        cfg.lq_entries = self.lq_entries as usize;
        cfg.sq_entries = self.sq_entries as usize;
        cfg.runahead.enter_penalty = self.enter_penalty;
        cfg.runahead.exit_penalty = self.exit_penalty;
        cfg.runahead.train_predictor = self.train_predictor;
        cfg.runahead.checkpoint_predictor = self.checkpoint_predictor;
        cfg.runahead.vector_lanes = self.vector_lanes;
        cfg.runahead.min_episode_yield = self.min_episode_yield;
        cfg.runahead.useless_backoff = self.useless_backoff;
        cfg.runahead.runahead_cache_bytes = self.runahead_cache_bytes as usize;
        cfg.fast_forward = self.fast_forward;
        if cfg.runahead.secure.sl_cache {
            cfg.runahead.secure.sl_entries = self.sl_entries as usize;
            cfg.runahead.secure.sl_latency = self.sl_latency;
        }
    }

    /// Number of knobs that differ from the paper machine.
    pub fn diff_count(&self) -> u64 {
        let d = KnobSpec::default();
        u64::from(self.rob_entries != d.rob_entries)
            + u64::from(self.lq_entries != d.lq_entries)
            + u64::from(self.sq_entries != d.sq_entries)
            + u64::from(self.enter_penalty != d.enter_penalty)
            + u64::from(self.exit_penalty != d.exit_penalty)
            + u64::from(self.train_predictor != d.train_predictor)
            + u64::from(self.checkpoint_predictor != d.checkpoint_predictor)
            + u64::from(self.vector_lanes != d.vector_lanes)
            + u64::from(self.min_episode_yield != d.min_episode_yield)
            + u64::from(self.useless_backoff != d.useless_backoff)
            + u64::from(self.runahead_cache_bytes != d.runahead_cache_bytes)
            + u64::from(self.sl_entries != d.sl_entries)
            + u64::from(self.sl_latency != d.sl_latency)
            + u64::from(self.fast_forward != d.fast_forward)
    }

    fn reset_candidates(&self) -> Vec<KnobSpec> {
        let d = KnobSpec::default();
        let mut out = Vec::new();
        macro_rules! reset_field {
            ($field:ident) => {
                if self.$field != d.$field {
                    out.push(KnobSpec { $field: d.$field, ..*self });
                }
            };
        }
        reset_field!(rob_entries);
        reset_field!(lq_entries);
        reset_field!(sq_entries);
        reset_field!(enter_penalty);
        reset_field!(exit_penalty);
        reset_field!(train_predictor);
        reset_field!(checkpoint_predictor);
        reset_field!(vector_lanes);
        reset_field!(min_episode_yield);
        reset_field!(useless_backoff);
        reset_field!(runahead_cache_bytes);
        reset_field!(sl_entries);
        reset_field!(sl_latency);
        reset_field!(fast_forward);
        out
    }
}

/// One complete fuzzed attack trial. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Seed of the campaign this plan belongs to.
    pub campaign_seed: u64,
    /// Position within the campaign (the plan's own seed derives from
    /// `campaign_seed` and this index, independent of campaign size).
    pub index: u64,
    /// Whether the plan was generated at quick (CI-soak) scale.
    pub quick: bool,
    /// Machine policy.
    pub policy: PlanPolicy,
    /// Victim shape.
    pub victim: VictimSpec,
    /// Memory geometry.
    pub layout: AttackLayout,
    /// The planted secret byte. Never 0: training architecturally warms
    /// probe entry 0, so the channel excludes it and a secret of 0 is
    /// unrecoverable by construction.
    pub secret: u8,
    /// Cache warm-up steps executed before the attack.
    pub warm: Vec<WarmStep>,
    /// Machine knobs.
    pub knobs: KnobSpec,
}

fn pick(rng: &mut SplitMix64, options: &[u64]) -> u64 {
    options[rng.next_below(options.len() as u64) as usize]
}

/// Keep the default three times out of four, otherwise draw an alternative
/// — plans stay near the paper machine with occasional single-knob kicks.
fn mostly(rng: &mut SplitMix64, default: u64, alts: &[u64]) -> u64 {
    if rng.next_below(4) == 0 {
        pick(rng, alts)
    } else {
        default
    }
}

fn mostly_true(rng: &mut SplitMix64) -> bool {
    rng.next_below(4) != 0
}

impl Plan {
    /// Deterministically generates plan `index` of the campaign seeded with
    /// `campaign_seed`. `quick` selects the CI-soak scale (fewer training
    /// rounds, tighter cycle budgets); it changes the generated values, not
    /// the grammar.
    pub fn generate(campaign_seed: u64, index: u64, quick: bool) -> Plan {
        let mixed = SplitMix64::new(campaign_seed).next_u64();
        let mut rng =
            SplitMix64::new(mixed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(quick));

        let policy = match rng.next_below(20) {
            0..=4 => PlanPolicy::Runahead,
            5..=9 => PlanPolicy::Secure,
            10..=11 => PlanPolicy::NoRunahead,
            12..=13 => PlanPolicy::HeadMissTrigger,
            14..=15 => PlanPolicy::Precise,
            16..=17 => PlanPolicy::Vector,
            _ => PlanPolicy::SkipInv,
        };
        let gadget = match rng.next_below(10) {
            0..=5 => GadgetKind::Pht,
            6..=7 => GadgetKind::Btb,
            _ => GadgetKind::Rsb,
        };

        let (rounds_lo, rounds_span, filler_lo, filler_span, max_cycles) =
            if quick { (6, 10, 900, 400, 1_500_000) } else { (8, 24, 1000, 800, 3_000_000) };
        let victim = VictimSpec {
            gadget,
            nop_slide: rng.next_below(401) as u32,
            training_rounds: (rounds_lo + rng.next_below(rounds_span)) as u32,
            attack_filler: (filler_lo + rng.next_below(filler_span)) as u32,
            max_cycles,
        };

        let data_shift = rng.next_below(64) * LINE;
        let layout = AttackLayout {
            bound_addr: 0x0009_0000 + data_shift,
            bound_value: pick(&mut rng, &[8, 16, 32, 64]),
            array1_base: 0x000a_0000 + data_shift,
            secret_addr: 0x000a_0000 + data_shift + 0x1_0000 + rng.next_below(256) * LINE,
            probe_base: 0x0100_0000 + rng.next_below(64) * LINE,
            probe_stride: pick(&mut rng, &[128, 256, 512, 1024]),
            probe_entries: 256,
            results_base: 0x0200_0000,
        };

        let secret = (1 + rng.next_below(255)) as u8;

        let warm_len = rng.next_below(4);
        let warm = (0..warm_len)
            .map(|_| WarmStep {
                addr: WARM_SCRATCH_BASE + rng.next_below(1024) * LINE,
                len: pick(&mut rng, &[8, 64, 256]),
            })
            .collect();

        let knobs = KnobSpec {
            rob_entries: mostly(&mut rng, 256, &[192, 320]) as u32,
            lq_entries: mostly(&mut rng, 40, &[24, 56]) as u32,
            sq_entries: mostly(&mut rng, 40, &[24, 56]) as u32,
            enter_penalty: mostly(&mut rng, 4, &[1, 2, 8]),
            exit_penalty: mostly(&mut rng, 8, &[2, 4, 16]),
            train_predictor: mostly_true(&mut rng),
            checkpoint_predictor: mostly_true(&mut rng),
            vector_lanes: mostly(&mut rng, 8, &[2, 4, 16]),
            min_episode_yield: mostly(&mut rng, 2, &[0, 4]),
            useless_backoff: mostly(&mut rng, 2500, &[500, 5000]),
            runahead_cache_bytes: mostly(&mut rng, 4096, &[2048, 8192]) as u32,
            sl_entries: mostly(&mut rng, 64, &[16, 32, 128]) as u32,
            sl_latency: mostly(&mut rng, 1, &[2]),
            fast_forward: mostly_true(&mut rng),
        };

        let plan =
            Plan { campaign_seed, index, quick, policy, victim, layout, secret, warm, knobs };
        debug_assert!(plan.layout.is_valid(), "generator produced an invalid layout: {plan:?}");
        plan
    }

    /// Shrinking metric: strictly decreases along every candidate in
    /// [`Plan::shrink_candidates`], so delta debugging terminates. Structural
    /// deviations from the paper configuration dominate the scalar dials.
    pub fn weight(&self) -> u64 {
        u64::from(self.victim.nop_slide)
            + u64::from(self.victim.training_rounds)
            + u64::from(self.victim.attack_filler)
            + u64::from(self.secret)
            + 1000 * (self.warm.len() as u64 + self.knobs.diff_count() + self.layout.diff_count())
    }

    /// Candidate reductions, most-aggressive first: restore the paper
    /// layout, drop warm-up steps, reset knobs (wholesale, then one at a
    /// time), then walk the scalar dials (secret, slide, training, filler)
    /// toward their floors. Every candidate has a strictly smaller
    /// [`Plan::weight`].
    pub fn shrink_candidates(&self) -> Vec<Plan> {
        let mut out = Vec::new();
        if self.layout != AttackLayout::default() {
            out.push(Plan { layout: AttackLayout::default(), ..self.clone() });
        }
        for i in 0..self.warm.len() {
            let mut warm = self.warm.clone();
            warm.remove(i);
            out.push(Plan { warm, ..self.clone() });
        }
        if self.knobs != KnobSpec::default() {
            out.push(Plan { knobs: KnobSpec::default(), ..self.clone() });
            for knobs in self.knobs.reset_candidates() {
                out.push(Plan { knobs, ..self.clone() });
            }
        }
        if self.secret > 1 {
            out.push(Plan { secret: 1, ..self.clone() });
        }
        let v = self.victim;
        if v.nop_slide > 0 {
            out.push(Plan { victim: VictimSpec { nop_slide: 0, ..v }, ..self.clone() });
            if v.nop_slide > 1 {
                let half = VictimSpec { nop_slide: v.nop_slide / 2, ..v };
                out.push(Plan { victim: half, ..self.clone() });
            }
        }
        if v.training_rounds > 1 {
            out.push(Plan { victim: VictimSpec { training_rounds: 1, ..v }, ..self.clone() });
            if v.training_rounds > 3 {
                let half = VictimSpec { training_rounds: v.training_rounds / 2, ..v };
                out.push(Plan { victim: half, ..self.clone() });
            }
        }
        if v.attack_filler > 0 {
            out.push(Plan { victim: VictimSpec { attack_filler: 0, ..v }, ..self.clone() });
            if v.attack_filler > 1 {
                let half = VictimSpec { attack_filler: v.attack_filler / 2, ..v };
                out.push(Plan { victim: half, ..self.clone() });
            }
        }
        debug_assert!(out.iter().all(|c| c.weight() < self.weight()));
        out
    }

    /// Renders the plan as deterministic, insertion-ordered JSON. `indent`
    /// is the nesting depth of the opening brace's line, letting callers
    /// splice the block into a larger document; the first line carries no
    /// leading whitespace.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = "  ".repeat(indent + 1);
        let pad2 = "  ".repeat(indent + 2);
        let close = "  ".repeat(indent);
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("{pad}\"campaign_seed\": \"{}\",\n", self.campaign_seed));
        s.push_str(&format!("{pad}\"plan_index\": {},\n", self.index));
        s.push_str(&format!("{pad}\"mode\": \"{}\",\n", if self.quick { "quick" } else { "full" }));
        s.push_str(&format!("{pad}\"policy\": \"{}\",\n", self.policy.label()));
        s.push_str(&format!("{pad}\"gadget\": \"{}\",\n", self.victim.gadget.label()));
        s.push_str(&format!("{pad}\"nop_slide\": {},\n", self.victim.nop_slide));
        s.push_str(&format!("{pad}\"training_rounds\": {},\n", self.victim.training_rounds));
        s.push_str(&format!("{pad}\"attack_filler\": {},\n", self.victim.attack_filler));
        s.push_str(&format!("{pad}\"max_cycles\": {},\n", self.victim.max_cycles));
        s.push_str(&format!("{pad}\"secret\": {},\n", self.secret));
        push_spec_sections(&mut s, &pad, &pad2, &self.layout, &self.warm, &self.knobs);
        s.push_str(&format!("\n{close}}}"));
        s
    }
}

/// Writes the `layout`, `warm` and `knobs` sections shared by a plan's and
/// a pool spec's JSON, from the `"layout"` key through the knobs block's
/// closing brace (the caller adds what follows it).
pub(crate) fn push_spec_sections(
    s: &mut String,
    pad: &str,
    pad2: &str,
    layout: &AttackLayout,
    warm: &[WarmStep],
    knobs: &KnobSpec,
) {
    s.push_str(&format!("{pad}\"layout\": {{\n"));
    s.push_str(&format!("{pad2}\"bound_addr\": \"{:#x}\",\n", layout.bound_addr));
    s.push_str(&format!("{pad2}\"bound_value\": {},\n", layout.bound_value));
    s.push_str(&format!("{pad2}\"array1_base\": \"{:#x}\",\n", layout.array1_base));
    s.push_str(&format!("{pad2}\"secret_addr\": \"{:#x}\",\n", layout.secret_addr));
    s.push_str(&format!("{pad2}\"probe_base\": \"{:#x}\",\n", layout.probe_base));
    s.push_str(&format!("{pad2}\"probe_stride\": {},\n", layout.probe_stride));
    s.push_str(&format!("{pad2}\"probe_entries\": {},\n", layout.probe_entries));
    s.push_str(&format!("{pad2}\"results_base\": \"{:#x}\"\n", layout.results_base));
    s.push_str(&format!("{pad}}},\n"));
    s.push_str(&format!("{pad}\"warm\": ["));
    for (i, w) in warm.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n{pad2}{{\"addr\": \"{:#x}\", \"len\": {}}}", w.addr, w.len));
    }
    if warm.is_empty() {
        s.push_str("],\n");
    } else {
        s.push_str(&format!("\n{pad}],\n"));
    }
    s.push_str(&format!("{pad}\"knobs\": {{\n"));
    s.push_str(&format!("{pad2}\"rob_entries\": {},\n", knobs.rob_entries));
    s.push_str(&format!("{pad2}\"lq_entries\": {},\n", knobs.lq_entries));
    s.push_str(&format!("{pad2}\"sq_entries\": {},\n", knobs.sq_entries));
    s.push_str(&format!("{pad2}\"enter_penalty\": {},\n", knobs.enter_penalty));
    s.push_str(&format!("{pad2}\"exit_penalty\": {},\n", knobs.exit_penalty));
    s.push_str(&format!("{pad2}\"train_predictor\": {},\n", knobs.train_predictor));
    s.push_str(&format!("{pad2}\"checkpoint_predictor\": {},\n", knobs.checkpoint_predictor));
    s.push_str(&format!("{pad2}\"vector_lanes\": {},\n", knobs.vector_lanes));
    s.push_str(&format!("{pad2}\"min_episode_yield\": {},\n", knobs.min_episode_yield));
    s.push_str(&format!("{pad2}\"useless_backoff\": {},\n", knobs.useless_backoff));
    s.push_str(&format!("{pad2}\"runahead_cache_bytes\": {},\n", knobs.runahead_cache_bytes));
    s.push_str(&format!("{pad2}\"sl_entries\": {},\n", knobs.sl_entries));
    s.push_str(&format!("{pad2}\"sl_latency\": {},\n", knobs.sl_latency));
    s.push_str(&format!("{pad2}\"fast_forward\": {}\n", knobs.fast_forward));
    s.push_str(&format!("{pad}}}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_is_disjoint_and_line_separated() {
        let l = AttackLayout::default();
        assert!(l.is_valid(), "the paper layout is a valid plan layout");
        assert!(l.probe_stride >= 64, "probe entries must not share lines");
        assert!(l.array1_base + l.bound_value < l.secret_addr);
        assert!(l.probe_addr(255) < l.results_base);
        assert_eq!(l.malicious_x(), 0x1_0000);
        assert!(l.secret_addr < l.probe_base);
    }

    #[test]
    fn addressing_helpers() {
        let l = AttackLayout::default();
        assert_eq!(l.probe_addr(2) - l.probe_addr(1), l.probe_stride);
        assert_eq!(l.result_addr(3) - l.result_addr(2), 8);
    }

    #[test]
    fn generation_is_deterministic_and_index_independent() {
        for index in [0u64, 7, 99] {
            let a = Plan::generate(0xC0FFEE, index, true);
            let b = Plan::generate(0xC0FFEE, index, true);
            assert_eq!(a, b);
            assert_eq!(a.to_json(0), b.to_json(0));
        }
    }

    #[test]
    fn seeds_and_modes_change_plans() {
        let a = Plan::generate(1, 0, false);
        let b = Plan::generate(2, 0, false);
        assert_ne!(a, b, "campaign seed must flow into the plan");
        let q = Plan::generate(1, 0, true);
        assert_ne!(a, q, "scale must flow into the plan");
    }

    #[test]
    fn generated_layouts_are_valid_and_secrets_nonzero() {
        for i in 0..500 {
            let p = Plan::generate(42, i, i % 2 == 0);
            assert!(p.layout.is_valid(), "plan {i}: {:?}", p.layout);
            assert_ne!(p.secret, 0);
            assert!(p.victim.attack_filler >= 900, "plan {i} filler too short");
            for w in &p.warm {
                assert!(w.addr >= WARM_SCRATCH_BASE, "warm step outside scratch");
            }
        }
    }

    #[test]
    fn knobs_apply_respects_policy_gate() {
        let knobs = KnobSpec { sl_entries: 16, sl_latency: 2, ..KnobSpec::default() };
        let mut plain = CpuConfig::default();
        knobs.apply(&mut plain);
        assert_eq!(plain.runahead.secure.sl_entries, 0, "no defense armed by knobs alone");
        let mut secure = CpuConfig::secure_runahead();
        knobs.apply(&mut secure);
        assert_eq!(secure.runahead.secure.sl_entries, 16);
        assert_eq!(secure.runahead.secure.sl_latency, 2);
    }

    #[test]
    fn shrink_candidates_strictly_reduce_weight() {
        for i in 0..100 {
            let p = Plan::generate(7, i, false);
            let w = p.weight();
            for c in p.shrink_candidates() {
                assert!(c.weight() < w, "candidate must strictly reduce weight");
            }
        }
    }

    #[test]
    fn default_knobs_reproduce_paper_config() {
        let mut cfg = CpuConfig::default();
        KnobSpec::default().apply(&mut cfg);
        assert_eq!(cfg, CpuConfig::default(), "default knobs must be a no-op");
    }
}
