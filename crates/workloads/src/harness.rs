//! Parallel trial harness: multi-threaded fan-out over independent
//! simulations.
//!
//! Every SPECRUN experiment is a sweep: Fig. 7 runs six kernels on two
//! machines, Fig. 9-style covert-channel evaluations average over many
//! attack trials (the Spectre-PoC methodology), Fig. 11 compares machines
//! point-wise, and the defense table crosses kernels with three defense
//! configurations. All of those trials are *independent* — each owns a
//! fresh [`Core`](specrun_cpu::Core) — so they parallelize embarrassingly.
//!
//! The harness has two parts:
//!
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

use specrun_cpu::RunExit;

use crate::clock::WallClock;
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

/// A structured execution failure: why a simulation, plan, shard or
/// scenario did not produce its result.
///
/// Every runner returns it instead of panicking
/// ([`try_run_workload_governed`](crate::ipc::try_run_workload_governed),
/// `specrun::try_run_plan`, a scenario body), so one pathological workload
/// or plan degrades to a reported `failed` entry in the campaign artifact
/// instead of unwinding through the whole run. The campaign pool
/// ([`crate::supervisor`]) retries, quarantines and reports it.
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

/// The one mapping from how a core run ended to a campaign failure: `Ok`
/// for a halt, otherwise the [`RunError`] naming `what` was running, the
/// cycle `budget` it had and the instructions it `committed`.
pub fn check_exit(
    exit: RunExit,
    what: impl FnOnce() -> String,
    budget: u64,
    committed: u64,
) -> Result<(), RunError> {
    match exit {
        RunExit::Halted => Ok(()),
        RunExit::CycleLimit => {
            Err(RunError::CycleBudgetExceeded { what: what(), budget, committed })
        }
        RunExit::Cancelled => Err(RunError::Cancelled { what: what(), committed }),
        RunExit::Wedged => Err(RunError::NoHalt {
            what: what(),
            detail: format!("a program exited with {exit:?}"),
        }),
    }
}

/// Runs `f` over `items` on up to `threads` workers of the campaign pool
/// ([`supervised_map_with`] under a passive [`SupervisorConfig`]) and
/// returns the results in input order.
///
/// Work is distributed dynamically (an atomic cursor), so uneven trial
/// durations — a no-runahead machine simulates far more slowly than a
/// fast-forwarding one — still load all cores. `threads == 0` means every
/// host core; with one worker the map runs on the calling thread, which
/// keeps call sites free of special cases.
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
    use crate::{ipc::try_run_workload_observed, kernels};
    use specrun_cpu::probe::NoopObserver;
    use specrun_cpu::CpuConfig;

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
    fn parallel_simulation_matches_serial() {
        let w = kernels::lbm(60);
        let configs = vec![CpuConfig::default(); 4];
        let cycles = |threads| {
            parallel_map(&configs, threads, |_, config: &CpuConfig| {
                let run = try_run_workload_observed(&w, config.clone(), 5_000_000, NoopObserver);
                run.unwrap().0.cycles
            })
        };
        let (serial, parallel) = (cycles(1), cycles(4));
        assert_eq!(serial, parallel, "simulation must be thread-invariant");
    }
}
