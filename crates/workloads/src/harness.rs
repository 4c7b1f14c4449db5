//! Parallel trial harness: config-matrix building and multi-threaded
//! fan-out over independent simulations.
//!
//! Every SPECRUN experiment is a sweep: Fig. 7 runs six kernels on two
//! machines, Fig. 9-style covert-channel evaluations average over many
//! attack trials (the Spectre-PoC methodology), Fig. 11 compares machines
//! point-wise, and the defense table crosses kernels with three defense
//! configurations. All of those trials are *independent* — each owns a
//! fresh [`Core`](specrun_cpu::Core) — so they parallelize embarrassingly.
//!
//! The harness has three parts:
//!
//! * [`ConfigMatrix`] — builds the cartesian product of machine-config axes
//!   into a flat list of [`TrialSpec`]s, each with a deterministic per-trial
//!   RNG seed;
//! * [`parallel_map`] — fans a closure out over a slice on the campaign
//!   worker pool ([`crate::supervisor::supervised_map_with`] with nothing
//!   supervised), preserving input order and re-raising the lowest-index
//!   trial panic once every trial has finished;
//! * [`Summary`] — aggregates per-trial metrics (n/mean/min/max).
//!
//! ```
//! use specrun_workloads::harness::{parallel_map, Summary};
//! let squares = parallel_map(&[1u64, 2, 3, 4], 4, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! let s = Summary::of(squares.iter().map(|&x| x as f64));
//! assert_eq!(s.max, 16.0);
//! ```

use specrun_cpu::{CpuConfig, RunaheadPolicy, SecureConfig};

use crate::clock::WallClock;
use crate::rng::SplitMix64;
use crate::supervisor::{supervised_map_with, SupervisorConfig, UnitOutcome};

/// Ceiling on worker-thread counts: above this, extra threads only add
/// scheduler churn and per-thread stacks — a campaign is bounded by cores,
/// not by how many workers it can name. [`default_threads`] clamps to it
/// and the CLI rejects explicit requests beyond it.
pub const MAX_THREADS: usize = 256;

/// Number of worker threads the host offers, clamped to [`MAX_THREADS`]
/// (exotic hosts can report absurd parallelism; a degenerate pool of
/// hundreds of idle workers helps nothing).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
}

/// A trial that panicked instead of returning a result.
///
/// Campaigns fan out over hundreds of independent configurations; one
/// degenerate config must surface as *data* — which trial, what it said —
/// rather than poisoning the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialError {
    /// Index of the panicking item in the input slice.
    pub index: usize,
    /// The panic payload, rendered to a string when possible.
    pub message: String,
}

impl std::fmt::Display for TrialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TrialError {}

/// A structured execution failure: what [`run_workload`](crate::ipc::run_workload)
/// and `run_plan` used to express as a panic, as data.
///
/// Campaign layers thread this through `try_*` entry points so one
/// pathological workload or plan degrades to a reported `failed` entry in
/// the campaign artifact instead of unwinding through the whole run. The
/// panicking entry points still exist; they delegate to the `try_*` form
/// and panic with this error's `Display` rendering, so `catch_unwind`
/// call sites recover the same message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle budget elapsed before the program committed a halt.
    CycleBudgetExceeded {
        /// What was running (kernel name, plan label, …).
        what: String,
        /// The cycle budget that elapsed.
        budget: u64,
        /// Instructions committed when the budget ran out.
        committed: u64,
    },
    /// Control flow wedged: the program can no longer make progress.
    NoHalt {
        /// What was running.
        what: String,
        /// What the core reported when it gave up.
        detail: String,
    },
    /// The run panicked; the payload was captured by a harness boundary.
    Panic(TrialError),
    /// A supervisor's cancel token stopped the run cooperatively; the
    /// supervisor reclassifies this into [`RunError::DeadlineExceeded`] or
    /// [`RunError::Stalled`] from the token's recorded reason.
    Cancelled {
        /// What was running.
        what: String,
        /// Instructions committed when the run stopped.
        committed: u64,
    },
    /// The unit's wall-clock deadline elapsed while it was still making
    /// progress — slow, not stuck. Distinct from
    /// [`RunError::CycleBudgetExceeded`], which is *simulated* time: a
    /// pathological config can burn host seconds per simulated cycle and
    /// never touch its cycle budget.
    DeadlineExceeded {
        /// What was running.
        what: String,
        /// The wall-clock deadline that elapsed, in milliseconds.
        deadline_ms: u64,
        /// Instructions committed when the run was cancelled.
        committed: u64,
    },
    /// No heartbeat advanced within the stall window — the unit's host
    /// thread is wedged outside the simulation loop, not merely slow.
    Stalled {
        /// What was running.
        what: String,
        /// The no-heartbeat window that elapsed, in milliseconds.
        stall_ms: u64,
        /// Instructions committed at the last heartbeat seen.
        last_committed: u64,
    },
    /// A transient IO failure (an artifact sink flake) — the one failure
    /// class a retry is *expected* to heal.
    Io {
        /// What was running.
        what: String,
        /// The IO error.
        detail: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CycleBudgetExceeded { what, budget, committed } => write!(
                f,
                "cycle budget exceeded: {what} committed {committed} instruction(s) \
                 in {budget} cycles without halting"
            ),
            RunError::NoHalt { what, detail } => write!(f, "{what} cannot halt: {detail}"),
            RunError::Panic(e) => write!(f, "{e}"),
            RunError::Cancelled { what, committed } => {
                write!(f, "{what} cancelled by the supervisor after {committed} instruction(s)")
            }
            RunError::DeadlineExceeded { what, deadline_ms, committed } => write!(
                f,
                "deadline exceeded: {what} still running ({committed} instruction(s) committed) \
                 after {deadline_ms} ms"
            ),
            RunError::Stalled { what, stall_ms, last_committed } => write!(
                f,
                "stalled: {what} produced no heartbeat for {stall_ms} ms \
                 (last committed {last_committed} instruction(s))"
            ),
            RunError::Io { what, detail } => write!(f, "io error: {what}: {detail}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Runs `f` over `items` on up to `threads` workers of the campaign pool
/// ([`supervised_map_with`] under a passive [`SupervisorConfig`]) and
/// returns the results in input order.
///
/// Work is distributed dynamically (an atomic cursor), so uneven trial
/// durations — a no-runahead machine simulates far more slowly than a
/// fast-forwarding one — still load all cores. With `threads <= 1` the map
/// runs on the calling thread, which keeps call sites free of special
/// cases.
///
/// # Panics
///
/// Re-raises the first (lowest-index) trial panic as `trial N panicked:
/// …` after all trials have completed. Sweeps that must survive degenerate
/// configurations call [`supervised_map_with`] directly, which returns the
/// panic as [`RunError::Panic`].
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let report = supervised_map_with(
        items,
        threads,
        &SupervisorConfig::default(),
        &WallClock::new(),
        |i, item, _| Ok(f(i, item)),
        |_, _| {},
    );
    report
        .outcomes
        .into_iter()
        .map(|outcome| match outcome {
            UnitOutcome::Done { result, .. } => result,
            UnitOutcome::Failed { error, .. } => panic!("{error}"),
            _ => unreachable!("a passive pool neither retries nor skips"),
        })
        .collect()
}

/// One point of a configuration sweep.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// Flat index in the sweep (also the result position).
    pub id: usize,
    /// Machine configuration for this trial.
    pub config: CpuConfig,
    /// Deterministic seed for this trial's randomness.
    pub seed: u64,
    /// Repetition number within its config point (0-based).
    pub repeat: u32,
    /// Human-readable config-point label, e.g. `"Original"`.
    pub label: String,
}

impl TrialSpec {
    /// A fresh RNG seeded for this trial.
    pub fn rng(&self) -> SplitMix64 {
        SplitMix64::new(self.seed)
    }
}

/// Cartesian-product builder for machine-configuration sweeps.
///
/// Axes left unset contribute the base configuration's value. Each config
/// point is repeated `trials` times with distinct per-trial seeds.
///
/// ```
/// use specrun_cpu::{CpuConfig, RunaheadPolicy};
/// use specrun_workloads::harness::ConfigMatrix;
/// let specs = ConfigMatrix::new(CpuConfig::default())
///     .policies(&[RunaheadPolicy::Original, RunaheadPolicy::Precise])
///     .trials(3)
///     .build();
/// assert_eq!(specs.len(), 6);
/// assert_ne!(specs[0].seed, specs[1].seed);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigMatrix {
    base: CpuConfig,
    policies: Vec<RunaheadPolicy>,
    secures: Vec<SecureConfig>,
    trials: u32,
    base_seed: u64,
}

impl ConfigMatrix {
    /// Starts a matrix from a base configuration.
    pub fn new(base: CpuConfig) -> ConfigMatrix {
        ConfigMatrix {
            base,
            policies: Vec::new(),
            secures: Vec::new(),
            trials: 1,
            base_seed: 0x5045_4352_554e, // "SPECRUN"
        }
    }

    /// Sweeps the runahead policy axis.
    pub fn policies(mut self, policies: &[RunaheadPolicy]) -> ConfigMatrix {
        self.policies = policies.to_vec();
        self
    }

    /// Sweeps the defense axis.
    pub fn secures(mut self, secures: &[SecureConfig]) -> ConfigMatrix {
        self.secures = secures.to_vec();
        self
    }

    /// Repetitions per config point (independent seeds).
    pub fn trials(mut self, trials: u32) -> ConfigMatrix {
        self.trials = trials.max(1);
        self
    }

    /// Base seed from which all per-trial seeds derive.
    pub fn seed(mut self, seed: u64) -> ConfigMatrix {
        self.base_seed = seed;
        self
    }

    /// Expands the matrix into a flat trial list.
    pub fn build(&self) -> Vec<TrialSpec> {
        let policies: Vec<Option<RunaheadPolicy>> = if self.policies.is_empty() {
            vec![None]
        } else {
            self.policies.iter().copied().map(Some).collect()
        };
        let secures: Vec<Option<SecureConfig>> = if self.secures.is_empty() {
            vec![None]
        } else {
            self.secures.iter().copied().map(Some).collect()
        };
        let mut seeder = SplitMix64::new(self.base_seed);
        let mut specs = Vec::new();
        for policy in &policies {
            for secure in &secures {
                for repeat in 0..self.trials {
                    let mut config = self.base.clone();
                    let mut label = String::new();
                    if let Some(p) = policy {
                        config.runahead.policy = *p;
                        label = format!("{p:?}");
                    }
                    if let Some(s) = secure {
                        config.runahead.secure = *s;
                        if !label.is_empty() {
                            label.push('/');
                        }
                        label.push_str(if s.sl_cache {
                            "sl_cache"
                        } else if s.skip_inv_branches {
                            "skip_inv"
                        } else {
                            "undefended"
                        });
                    }
                    specs.push(TrialSpec {
                        id: specs.len(),
                        config,
                        seed: seeder.next_u64(),
                        repeat,
                        label: label.clone(),
                    });
                }
            }
        }
        specs
    }
}

/// Aggregate of a per-trial metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

impl Summary {
    /// Aggregates an iterator of samples.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Summary {
        let mut n = 0usize;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            n += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        if n == 0 {
            Summary { n: 0, mean: 0.0, min: 0.0, max: 0.0 }
        } else {
            Summary { n, mean: sum / n as f64, min, max }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ipc::run_workload, kernels};

    #[test]
    fn parallel_map_preserves_order_and_covers_all() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_edge_sizes() {
        assert!(parallel_map::<u64, u64, _>(&[], 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u64], 16, |_, &x| x + 1), vec![8]);
        // More threads than items, single-threaded fallback.
        assert_eq!(parallel_map(&[1u64, 2], 1, |_, &x| x), vec![1, 2]);
    }

    #[test]
    fn parallel_map_reraises_lowest_index_among_simultaneous_panics() {
        let items: Vec<u64> = (0..32).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                parallel_map(&items, threads, |_, &x| {
                    assert!(!(10..20).contains(&x), "trial {x} exploded");
                    x
                })
            });
            let payload = caught.expect_err("panicking trials must propagate");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("parallel_map re-panics with a formatted message");
            assert!(
                message.starts_with("trial 10 panicked"),
                "lowest index wins at {threads} threads: {message}"
            );
        }
    }

    #[test]
    fn run_error_displays_each_variant() {
        let budget =
            RunError::CycleBudgetExceeded { what: "lbm".to_string(), budget: 1000, committed: 42 };
        assert_eq!(
            budget.to_string(),
            "cycle budget exceeded: lbm committed 42 instruction(s) in 1000 cycles without halting"
        );
        let wedged =
            RunError::NoHalt { what: "plan 3".to_string(), detail: "pipeline wedged".to_string() };
        assert_eq!(wedged.to_string(), "plan 3 cannot halt: pipeline wedged");
        let panic = RunError::Panic(TrialError { index: 2, message: "boom".to_string() });
        assert_eq!(panic.to_string(), "trial 2 panicked: boom");
        let cancelled = RunError::Cancelled { what: "plan 7".to_string(), committed: 9 };
        assert_eq!(
            cancelled.to_string(),
            "plan 7 cancelled by the supervisor after 9 instruction(s)"
        );
        let deadline = RunError::DeadlineExceeded {
            what: "plan 7".to_string(),
            deadline_ms: 250,
            committed: 9,
        };
        assert_eq!(
            deadline.to_string(),
            "deadline exceeded: plan 7 still running (9 instruction(s) committed) after 250 ms"
        );
        let stalled =
            RunError::Stalled { what: "plan 7".to_string(), stall_ms: 100, last_committed: 3 };
        assert_eq!(
            stalled.to_string(),
            "stalled: plan 7 produced no heartbeat for 100 ms (last committed 3 instruction(s))"
        );
        let io = RunError::Io { what: "plan 7".to_string(), detail: "flaky sink".to_string() };
        assert_eq!(io.to_string(), "io error: plan 7: flaky sink");
    }

    #[test]
    fn default_threads_is_sane_and_clamped() {
        let n = default_threads();
        assert!((1..=MAX_THREADS).contains(&n), "default thread count {n} out of range");
    }

    #[test]
    fn trial_error_displays_index_and_payload() {
        let e = TrialError { index: 7, message: "boom".into() };
        assert_eq!(e.to_string(), "trial 7 panicked: boom");
    }

    #[test]
    #[should_panic(expected = "trial 1 panicked")]
    fn parallel_map_still_propagates_panics() {
        parallel_map(&[0u64, 1, 2], 1, |_, &x| {
            assert_ne!(x, 1, "bad");
            x
        });
    }

    #[test]
    fn matrix_covers_product_with_distinct_seeds() {
        let specs = ConfigMatrix::new(CpuConfig::default())
            .policies(&[RunaheadPolicy::Original, RunaheadPolicy::Precise, RunaheadPolicy::Vector])
            .trials(4)
            .build();
        assert_eq!(specs.len(), 12);
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12, "per-trial seeds must be distinct");
        assert_eq!(specs[0].label, "Original");
        // Deterministic: rebuilding yields the same seeds.
        let again = ConfigMatrix::new(CpuConfig::default())
            .policies(&[RunaheadPolicy::Original, RunaheadPolicy::Precise, RunaheadPolicy::Vector])
            .trials(4)
            .build();
        assert_eq!(again[5].seed, specs[5].seed);
    }

    #[test]
    fn summary_aggregates() {
        let s = Summary::of([2.0, 4.0, 6.0]);
        assert_eq!((s.n, s.mean, s.min, s.max), (3, 4.0, 2.0, 6.0));
        assert_eq!(Summary::of([]).n, 0);
    }

    #[test]
    fn summary_empty_is_all_zero_and_nan_free() {
        let s = Summary::of([]);
        assert_eq!(s, Summary { n: 0, mean: 0.0, min: 0.0, max: 0.0 });
        // The empty aggregate must not surface the infinity/NaN
        // accumulator seeds — downstream JSON artifacts reject NaN.
        assert!(s.mean.is_finite() && s.min.is_finite() && s.max.is_finite());
    }

    #[test]
    fn summary_single_element_collapses() {
        let s = Summary::of([7.5]);
        assert_eq!((s.n, s.mean, s.min, s.max), (1, 7.5, 7.5, 7.5));
    }

    #[test]
    fn summary_of_finite_samples_is_nan_free() {
        let samples = [-3.0, 0.0, 1e-12, 4.5e9];
        let s = Summary::of(samples);
        assert!(s.mean.is_finite(), "mean {}", s.mean);
        assert!(s.min.is_finite() && s.max.is_finite());
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 4.5e9);
    }

    #[test]
    fn matrix_trial_count_is_policies_times_secures_times_trials() {
        let specs = ConfigMatrix::new(CpuConfig::default())
            .policies(&[RunaheadPolicy::Original, RunaheadPolicy::Precise])
            .secures(&[
                SecureConfig::default(),
                SecureConfig::sl_cache_default(),
                SecureConfig::skip_inv_default(),
            ])
            .trials(5)
            .build();
        assert_eq!(specs.len(), 2 * 3 * 5, "policies x secures x trials");
        // Flat ids follow build order and labels carry both axes.
        assert!(specs.iter().enumerate().all(|(i, s)| s.id == i));
        assert_eq!(specs[0].label, "Original/undefended");
        assert_eq!(specs[5].label, "Original/sl_cache");
        let last = specs.last().unwrap();
        assert_eq!(last.label, "Precise/skip_inv");
        assert_eq!(last.repeat, 4);
    }

    #[test]
    fn matrix_seeds_are_deterministic_and_base_seed_sensitive() {
        let build = |seed: u64| {
            ConfigMatrix::new(CpuConfig::default())
                .policies(&[RunaheadPolicy::Original, RunaheadPolicy::Vector])
                .trials(3)
                .seed(seed)
                .build()
        };
        let a: Vec<u64> = build(42).iter().map(|s| s.seed).collect();
        let b: Vec<u64> = build(42).iter().map(|s| s.seed).collect();
        assert_eq!(a, b, "same base seed must reproduce every trial seed");
        let c: Vec<u64> = build(43).iter().map(|s| s.seed).collect();
        assert_ne!(a, c, "different base seed must change the trial seeds");
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "per-trial seeds must be distinct");
    }

    #[test]
    fn parallel_simulation_matches_serial() {
        let w = kernels::lbm(60);
        let specs = ConfigMatrix::new(CpuConfig::default()).trials(4).build();
        let serial =
            parallel_map(&specs, 1, |_, s| run_workload(&w, s.config.clone(), 5_000_000).cycles);
        let parallel =
            parallel_map(&specs, 4, |_, s| run_workload(&w, s.config.clone(), 5_000_000).cycles);
        assert_eq!(serial, parallel, "simulation must be thread-invariant");
    }
}
