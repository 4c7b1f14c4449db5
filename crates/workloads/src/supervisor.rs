//! The campaign worker pool: a work-stealing fan-out with wall-clock
//! deadlines, stall detection, retry-with-quarantine and a failure-rate
//! circuit breaker.
//!
//! [`supervised_map_with`] is the one pool every campaign runs on — the
//! harness's [`parallel_map`](crate::harness::parallel_map), the session
//! pool, fuzz and the chaos drills. Workers pull unit indices from an
//! atomic cursor, results come back in input order, a panicking unit is
//! captured as [`RunError::Panic`] instead of unwinding through the pool,
//! and a completion hook fires once per unit from the worker thread. With
//! the default (passive) [`SupervisorConfig`] that is all it does: no
//! monitor thread, no retries, no breaker, and with one worker the units
//! run on the calling thread. The config switches on the rest:
//!
//! * every unit runs with a fresh [`CancelToken`] registered in a
//!   per-worker slot; the token's checkpoints (polled inside
//!   `Core::run_governed`) double as heartbeats. With a deadline or stall
//!   window, a monitor thread compares each active unit's age and
//!   heartbeat freshness against them and trips the token with the
//!   matching [`CancelReason`] — the worker reclassifies the resulting
//!   [`RunError::Cancelled`] into [`RunError::DeadlineExceeded`] (slow but
//!   progressing) or [`RunError::Stalled`] (no heartbeat);
//! * a failed unit retries after a deterministic seeded backoff
//!   ([`backoff_ms`], a pure function of campaign seed, unit index and
//!   attempt — never of the clock), unless it fails **identically twice
//!   in a row**, which quarantines it with its full attempt history:
//!   deterministic failures cannot be slept away;
//! * a campaign-level circuit breaker watches the failure rate and, once
//!   tripped, drains gracefully — in-flight units finish, unstarted units
//!   are recorded as [`UnitOutcome::Skipped`] so the caller can emit a
//!   partial-results report (and a later `--resume` can finish the job).
//!
//! All time flows through a [`Clock`], so chaos drills drive every path
//! deterministically with [`ChaosClock`](crate::clock::ChaosClock) virtual
//! time. Nothing wall-clock-valued leaves this module: outcomes carry
//! counts and classifications only, keeping gated artifacts byte-stable.
//!
//! ```
//! use specrun_workloads::clock::WallClock;
//! use specrun_workloads::harness::RunError;
//! use specrun_workloads::supervisor::{supervised_map_with, SupervisorConfig, UnitOutcome};
//!
//! let items = [10u64, 20, 30];
//! let report = supervised_map_with(
//!     &items,
//!     2,
//!     &SupervisorConfig::default(),
//!     &WallClock::new(),
//!     |_, &x, _| Ok::<u64, RunError>(x + 1),
//!     |_, _| {},
//! );
//! assert!(!report.breaker_tripped);
//! assert!(matches!(report.outcomes[2], UnitOutcome::Done { result: 31, .. }));
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

pub use specrun_cpu::cancel::{CancelReason, CancelToken};

use crate::clock::Clock;
use crate::harness::{RunError, TrialError};
use crate::rng::SplitMix64;

/// Supervision policy for one campaign. The default is fully passive
/// (no deadlines, no retries, breaker disabled).
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-unit wall-clock deadline in ms (`0` = no deadline).
    pub deadline_ms: u64,
    /// No-heartbeat window in ms before a unit counts as stalled
    /// (`0` = no stall detection).
    pub stall_ms: u64,
    /// Monitor poll interval in ms.
    pub poll_ms: u64,
    /// Retry attempts after the first failure (`0` = fail fast).
    pub retries: u32,
    /// Seed of the deterministic backoff schedule (normally the campaign
    /// seed, so the schedule is reproducible per campaign).
    pub seed: u64,
    /// Failure-rate threshold tripping the circuit breaker; a rate
    /// *strictly above* this trips, so `1.0` disables the breaker.
    pub max_failure_rate: f64,
    /// Completed units required before the breaker may trip (a 1-for-1
    /// start must not kill a million-unit campaign).
    pub breaker_min_units: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            deadline_ms: 0,
            stall_ms: 0,
            poll_ms: 20,
            retries: 0,
            seed: 0,
            max_failure_rate: 1.0,
            breaker_min_units: 4,
        }
    }
}

/// Deterministic retry backoff in milliseconds: a pure function of
/// `(seed, unit_index, attempt)` — same inputs, same schedule, on any host,
/// any thread count, any wall-clock state. Attempt 0 (the first try) never
/// waits; later attempts wait a jittered exponential bounded to keep even
/// deep retries sub-second.
pub fn backoff_ms(seed: u64, unit_index: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        return 0;
    }
    // Base 8 ms doubling per attempt, capped at 256 ms.
    let base = 8u64.saturating_mul(1 << (attempt - 1).min(5)).min(256);
    // Seeded jitter in [0, base): decorrelates sibling units retrying at
    // once without introducing wall-clock or host entropy.
    let mut rng = SplitMix64::new(seed ^ unit_index.rotate_left(17) ^ u64::from(attempt));
    base + rng.next_below(base)
}

/// How one supervised unit ended.
#[derive(Debug, Clone)]
pub enum UnitOutcome<R> {
    /// The unit produced a result (possibly after retries).
    Done {
        /// The unit's result.
        result: R,
        /// Attempts consumed, counting the successful one.
        attempts: u32,
    },
    /// Every allowed attempt failed (with differing signatures).
    Failed {
        /// The final attempt's error.
        error: RunError,
        /// Every attempt's rendered error, in order.
        history: Vec<String>,
    },
    /// The unit failed identically twice in a row: its failure is
    /// deterministic, so further retries are pointless and the unit is
    /// quarantined with its attempt history.
    Quarantined {
        /// The repeating error.
        error: RunError,
        /// Every attempt's rendered error, in order.
        history: Vec<String>,
    },
    /// The circuit breaker tripped before this unit started; it never ran.
    Skipped,
}

impl<R> UnitOutcome<R> {
    /// Whether this outcome counts as a failure for the breaker.
    fn is_failure(&self) -> bool {
        matches!(self, UnitOutcome::Failed { .. } | UnitOutcome::Quarantined { .. })
    }
}

/// Everything a supervised campaign produced, in input order.
#[derive(Debug, Clone)]
pub struct SupervisedReport<R> {
    /// Per-unit outcomes, index-aligned with the input slice.
    pub outcomes: Vec<UnitOutcome<R>>,
    /// Whether the circuit breaker tripped (some outcomes are `Skipped`).
    pub breaker_tripped: bool,
}

impl<R> SupervisedReport<R> {
    /// Units that never ran because the breaker tripped.
    pub fn skipped(&self) -> u64 {
        self.outcomes.iter().filter(|o| matches!(o, UnitOutcome::Skipped)).count() as u64
    }

    /// Units quarantined for failing identically twice.
    pub fn quarantined(&self) -> u64 {
        self.outcomes.iter().filter(|o| matches!(o, UnitOutcome::Quarantined { .. })).count() as u64
    }
}

/// What a supervised unit function receives alongside its work item.
pub struct UnitCtx<'a> {
    /// This attempt's cancel token: attach it to the machine under test
    /// (heartbeats and cooperative cancellation flow through it).
    pub token: CancelToken,
    /// The campaign clock (virtual in chaos drills).
    pub clock: &'a dyn Clock,
    /// 0-based attempt number (0 = first try).
    pub attempt: u32,
}

/// One active unit as the monitor sees it.
struct ActiveUnit {
    token: CancelToken,
    started_at: u64,
    last_progress_at: u64,
    last_beat: (u64, u64),
}

/// Shared supervisor state between workers and the monitor.
struct Shared<'a> {
    cfg: &'a SupervisorConfig,
    clock: &'a dyn Clock,
    slots: Vec<Mutex<Option<ActiveUnit>>>,
    finished: AtomicU64,
    failed: AtomicU64,
    breaker: AtomicBool,
    done: AtomicBool,
}

impl Shared<'_> {
    /// One monitor sweep: classify every active unit's age and heartbeat
    /// freshness, tripping tokens as windows elapse.
    fn sweep(&self) {
        for slot in &self.slots {
            let mut guard = slot.lock().unwrap();
            let Some(active) = guard.as_mut() else { continue };
            let now = self.clock.now_ms();
            let beat = (active.token.beat_cycle(), active.token.beat_committed());
            if beat != active.last_beat {
                active.last_beat = beat;
                active.last_progress_at = now;
            }
            if self.cfg.deadline_ms > 0
                && now.saturating_sub(active.started_at) >= self.cfg.deadline_ms
            {
                active.token.cancel(CancelReason::Deadline);
            } else if self.cfg.stall_ms > 0
                && now.saturating_sub(active.last_progress_at) >= self.cfg.stall_ms
            {
                active.token.cancel(CancelReason::Stalled);
            }
        }
    }

    /// Records a finished unit and trips the breaker when the failure rate
    /// crosses the threshold (after the warm-up minimum).
    fn record(&self, failure: bool) {
        let finished = self.finished.fetch_add(1, Ordering::Relaxed) + 1;
        let failed = if failure {
            self.failed.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            self.failed.load(Ordering::Relaxed)
        };
        if self.cfg.max_failure_rate < 1.0
            && finished >= self.cfg.breaker_min_units
            && failed as f64 / finished as f64 > self.cfg.max_failure_rate
        {
            self.breaker.store(true, Ordering::Relaxed);
        }
    }
}

/// Maps `RunError::Cancelled` onto the monitor's recorded reason; every
/// other error passes through untouched.
fn reclassify(error: RunError, token: &CancelToken, cfg: &SupervisorConfig) -> RunError {
    match (error, token.reason()) {
        (RunError::Cancelled { what, committed }, Some(CancelReason::Deadline)) => {
            RunError::DeadlineExceeded { what, deadline_ms: cfg.deadline_ms, committed }
        }
        (RunError::Cancelled { what, .. }, Some(CancelReason::Stalled)) => RunError::Stalled {
            what,
            stall_ms: cfg.stall_ms,
            last_committed: token.beat_committed(),
        },
        (error, _) => error,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs one unit through the attempt loop (register slot → run → classify
/// → backoff → retry / quarantine / fail).
fn run_unit<T, R, F>(
    shared: &Shared<'_>,
    slot_index: usize,
    index: usize,
    item: &T,
    f: &F,
) -> UnitOutcome<R>
where
    F: Fn(usize, &T, &UnitCtx) -> Result<R, RunError> + Sync,
{
    let mut history: Vec<String> = Vec::new();
    let mut attempt = 0u32;
    loop {
        if attempt > 0 {
            shared.clock.sleep_ms(backoff_ms(shared.cfg.seed, index as u64, attempt));
        }
        let token = CancelToken::new();
        let now = shared.clock.now_ms();
        *shared.slots[slot_index].lock().unwrap() = Some(ActiveUnit {
            token: token.clone(),
            started_at: now,
            last_progress_at: now,
            last_beat: (0, 0),
        });
        let ctx = UnitCtx { token: token.clone(), clock: shared.clock, attempt };
        let result = catch_unwind(AssertUnwindSafe(|| f(index, item, &ctx)));
        *shared.slots[slot_index].lock().unwrap() = None;
        let error = match result {
            Ok(Ok(result)) => return UnitOutcome::Done { result, attempts: attempt + 1 },
            Ok(Err(e)) => reclassify(e, &token, shared.cfg),
            Err(payload) => RunError::Panic(TrialError { index, message: panic_message(payload) }),
        };
        let rendered = error.to_string();
        let identical = history.last() == Some(&rendered);
        history.push(rendered);
        if identical {
            return UnitOutcome::Quarantined { error, history };
        }
        if attempt >= shared.cfg.retries {
            return UnitOutcome::Failed { error, history };
        }
        attempt += 1;
    }
}

/// The supervised parallel map: runs `f` over `items` on up to `threads`
/// workers (work-stealing via an atomic cursor) and returns per-unit
/// outcomes in input order, each unit under the supervision policy in
/// `cfg` (see the module docs). `on_done` fires exactly once per unit,
/// from the worker thread, with its **final** outcome after all retries
/// resolve: journals hanging off the hook record final attempts only. The
/// hook must be cheap and must not panic.
pub fn supervised_map_with<T, R, F, D>(
    items: &[T],
    threads: usize,
    cfg: &SupervisorConfig,
    clock: &dyn Clock,
    f: F,
    on_done: D,
) -> SupervisedReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &UnitCtx) -> Result<R, RunError> + Sync,
    D: Fn(usize, &UnitOutcome<R>) + Sync,
{
    let n = items.len();
    if n == 0 {
        return SupervisedReport { outcomes: Vec::new(), breaker_tripped: false };
    }
    let threads = threads.clamp(1, n);
    let shared = Shared {
        cfg,
        clock,
        slots: (0..threads).map(|_| Mutex::new(None)).collect(),
        finished: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        breaker: AtomicBool::new(false),
        done: AtomicBool::new(false),
    };
    let needs_monitor = cfg.deadline_ms > 0 || cfg.stall_ms > 0;
    let cursor = AtomicUsize::new(0);
    let worker = |slot_index: usize| {
        let mut local: Vec<(usize, UnitOutcome<R>)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let outcome = if shared.breaker.load(Ordering::Relaxed) {
                UnitOutcome::Skipped
            } else {
                let outcome = run_unit(&shared, slot_index, i, &items[i], &f);
                shared.record(outcome.is_failure());
                outcome
            };
            on_done(i, &outcome);
            local.push((i, outcome));
        }
        local
    };

    let per_worker: Vec<Vec<(usize, UnitOutcome<R>)>> = if threads == 1 && !needs_monitor {
        // One worker and nothing to watch: run on the calling thread.
        vec![worker(0)]
    } else {
        std::thread::scope(|scope| {
            let monitor = needs_monitor.then(|| {
                scope.spawn(|| {
                    while !shared.done.load(Ordering::Relaxed) {
                        shared.sweep();
                        shared.clock.sleep_ms(shared.cfg.poll_ms.max(1));
                    }
                })
            });
            let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || worker(w))).collect();
            let collected =
                handles.into_iter().map(|h| h.join().expect("worker loop itself cannot panic"));
            let collected: Vec<_> = collected.collect();
            shared.done.store(true, Ordering::Relaxed);
            if let Some(m) = monitor {
                m.join().expect("monitor loop cannot panic");
            }
            collected
        })
    };

    let mut out: Vec<Option<UnitOutcome<R>>> = (0..n).map(|_| None).collect();
    for (i, o) in per_worker.into_iter().flatten() {
        out[i] = Some(o);
    }
    let outcomes: Vec<UnitOutcome<R>> =
        out.into_iter().map(|o| o.expect("every index produced")).collect();
    let breaker_tripped = shared.breaker.load(Ordering::Relaxed);
    SupervisedReport { outcomes, breaker_tripped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ChaosClock, WallClock};

    fn passive() -> SupervisorConfig {
        SupervisorConfig::default()
    }

    /// A passive pool's outcome as a plain result: a unit either finished
    /// on its only attempt or panicked once.
    fn settle(outcome: UnitOutcome<u64>) -> Result<u64, TrialError> {
        match outcome {
            UnitOutcome::Done { result, attempts: 1 } => Ok(result),
            UnitOutcome::Failed { error: RunError::Panic(e), history } if history.len() == 1 => {
                Err(e)
            }
            other => panic!("a passive pool neither retries nor skips: {other:?}"),
        }
    }

    fn passive_map(
        items: &[u64],
        threads: usize,
        f: impl Fn(u64) -> u64 + Sync,
    ) -> Vec<Result<u64, TrialError>> {
        let report = supervised_map_with(
            items,
            threads,
            &passive(),
            &WallClock::new(),
            |_, &x, _| Ok(f(x)),
            |_, _| {},
        );
        assert!(!report.breaker_tripped);
        report.outcomes.into_iter().map(settle).collect()
    }

    #[test]
    fn passive_pool_isolates_panicking_units() {
        let items: Vec<u64> = (0..40).collect();
        for threads in [1, 4] {
            let results = passive_map(&items, threads, |x| {
                assert!(x % 10 != 3, "trial {x} is degenerate");
                x * 2
            });
            assert_eq!(results.len(), items.len(), "every unit reports");
            for (i, r) in results.iter().enumerate() {
                if i % 10 == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.index, i);
                    assert!(err.message.contains("degenerate"), "payload kept: {}", err.message);
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i as u64 * 2), "good units unaffected");
                }
            }
        }
    }

    #[test]
    fn passive_pool_collects_simultaneous_panics_stably() {
        // Many worker threads panicking at once: every panic is collected,
        // and the full (index, message) sequence is identical no matter
        // how the work was sharded.
        let items: Vec<u64> = (0..64).collect();
        let run = |threads: usize| {
            passive_map(&items, threads, |x| {
                assert!(x % 8 != 0, "trial {x} exploded");
                x + 1
            })
        };
        let reference = run(1);
        let errors: Vec<(usize, String)> = reference
            .iter()
            .filter_map(|r| r.as_ref().err())
            .map(|e| (e.index, e.message.clone()))
            .collect();
        assert_eq!(errors.len(), 8, "all eight simultaneous panics are data");
        assert!(errors.windows(2).all(|w| w[0].0 < w[1].0), "errors sit at ascending indices");
        assert_eq!(errors[0].0, 0, "the lowest panicking index is first");
        for threads in [2, 4, 8, 16] {
            let sharded = run(threads);
            assert_eq!(sharded, reference, "results invariant at {threads} threads");
        }
    }

    #[test]
    fn passive_pool_fires_on_done_once_per_unit() {
        let items: Vec<u64> = (0..20).collect();
        for threads in [1, 4] {
            let seen = Mutex::new(Vec::new());
            let report = supervised_map_with(
                &items,
                threads,
                &passive(),
                &WallClock::new(),
                |_, &x, _| {
                    assert!(x != 7, "trial {x} exploded");
                    Ok(x * 3)
                },
                |i, o| seen.lock().unwrap().push((i, matches!(o, UnitOutcome::Done { .. }))),
            );
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            let expected: Vec<(usize, bool)> = (0..20).map(|i| (i, i != 7)).collect();
            assert_eq!(seen, expected, "the hook fires exactly once per unit");
            let results: Vec<_> = report.outcomes.into_iter().map(settle).collect();
            assert_eq!(results[3], Ok(9));
            assert!(results[7].is_err());
        }
    }

    #[test]
    fn passive_single_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = passive_map(&[0, 1, 2], 1, |x| {
            assert_eq!(std::thread::current().id(), caller, "unit {x} left the caller");
            x
        });
        assert!(ids.iter().all(Result::is_ok));
    }

    #[test]
    fn backoff_is_pure_zero_first_and_input_sensitive() {
        assert_eq!(backoff_ms(1, 2, 0), 0, "the first attempt never waits");
        for (seed, unit, attempt) in [(0u64, 0u64, 1u32), (7, 3, 2), (0xC0FFEE, 199, 5)] {
            let a = backoff_ms(seed, unit, attempt);
            let b = backoff_ms(seed, unit, attempt);
            assert_eq!(a, b, "pure function of its inputs");
            assert!(a > 0 && a < 1000, "bounded: {a}");
        }
        assert_ne!(backoff_ms(1, 2, 1), backoff_ms(2, 2, 1), "seed-sensitive");
    }

    #[test]
    fn healthy_units_pass_through_in_order() {
        let items: Vec<u64> = (0..20).collect();
        let clock = WallClock::new();
        let report = supervised_map_with(
            &items,
            4,
            &passive(),
            &clock,
            |_, &x, _| Ok::<u64, RunError>(x * 2),
            |_, _| {},
        );
        assert!(!report.breaker_tripped);
        for (i, o) in report.outcomes.iter().enumerate() {
            match o {
                UnitOutcome::Done { result, attempts: 1 } => assert_eq!(*result, i as u64 * 2),
                other => panic!("unit {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn transient_failure_heals_on_retry() {
        let items = [0u64];
        let clock = ChaosClock::new();
        let cfg = SupervisorConfig { retries: 2, ..passive() };
        let report = supervised_map_with(
            &items,
            1,
            &cfg,
            &clock,
            |i, _, ctx| {
                if ctx.attempt == 0 {
                    Err(RunError::Io { what: format!("unit {i}"), detail: "flake".into() })
                } else {
                    Ok(42u64)
                }
            },
            |_, _| {},
        );
        match &report.outcomes[0] {
            UnitOutcome::Done { result: 42, attempts: 2 } => {}
            other => panic!("expected healed retry, got {other:?}"),
        }
        assert!(clock.now_ms() >= backoff_ms(0, 0, 1), "the retry consumed its backoff");
    }

    #[test]
    fn identical_failures_quarantine_without_burning_retries() {
        let items = [0u64];
        let clock = ChaosClock::new();
        let cfg = SupervisorConfig { retries: 10, ..passive() };
        let report = supervised_map_with(
            &items,
            1,
            &cfg,
            &clock,
            |i, _, _| {
                Err::<u64, _>(RunError::Io { what: format!("unit {i}"), detail: "same".into() })
            },
            |_, _| {},
        );
        match &report.outcomes[0] {
            UnitOutcome::Quarantined { history, .. } => {
                assert_eq!(history.len(), 2, "quarantine after the second identical failure");
                assert_eq!(history[0], history[1]);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(report.quarantined(), 1);
    }

    #[test]
    fn panics_count_as_failures_and_differing_errors_exhaust_retries() {
        let items = [0u64];
        let clock = ChaosClock::new();
        let cfg = SupervisorConfig { retries: 2, ..passive() };
        let report = supervised_map_with(
            &items,
            1,
            &cfg,
            &clock,
            |_, _, ctx| -> Result<u64, RunError> { panic!("attempt {} exploded", ctx.attempt) },
            |_, _| {},
        );
        match &report.outcomes[0] {
            // Panic messages differ per attempt, so this exhausts retries
            // rather than quarantining.
            UnitOutcome::Failed { error: RunError::Panic(_), history } => {
                assert_eq!(history.len(), 3, "initial try plus two retries");
            }
            other => panic!("expected exhausted retries, got {other:?}"),
        }
    }

    #[test]
    fn breaker_trips_and_drains_to_skipped() {
        let items: Vec<u64> = (0..10).collect();
        let clock = ChaosClock::new();
        let cfg = SupervisorConfig { max_failure_rate: 0.4, breaker_min_units: 2, ..passive() };
        let on_done_count = AtomicU64::new(0);
        let report = supervised_map_with(
            &items,
            1,
            &cfg,
            &clock,
            |i, _, _| {
                Err::<u64, _>(RunError::Io { what: format!("unit {i}"), detail: "down".into() })
            },
            |_, _| {
                on_done_count.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(report.breaker_tripped);
        // Single-threaded: units 0 and 1 fail (rate 1.0 > 0.4 at the
        // minimum), everything after is skipped.
        assert!(matches!(report.outcomes[0], UnitOutcome::Failed { .. }));
        assert!(matches!(report.outcomes[1], UnitOutcome::Failed { .. }));
        assert_eq!(report.skipped(), 8);
        assert_eq!(
            on_done_count.load(Ordering::Relaxed),
            10,
            "on_done fires once per unit, skipped included"
        );
    }

    #[test]
    fn stalled_unit_is_cancelled_and_classified() {
        let items = [0u64];
        let clock = ChaosClock::new();
        let cfg = SupervisorConfig { stall_ms: 50, poll_ms: 5, ..passive() };
        let report = supervised_map_with(
            &items,
            1,
            &cfg,
            &clock,
            |i, _, ctx| -> Result<u64, RunError> {
                // A hung unit: no heartbeats, only cooperative cancel polls.
                while !ctx.token.is_cancelled() {
                    ctx.clock.sleep_ms(1);
                }
                Err(RunError::Cancelled { what: format!("unit {i}"), committed: 0 })
            },
            |_, _| {},
        );
        match &report.outcomes[0] {
            UnitOutcome::Failed { error: RunError::Stalled { stall_ms: 50, .. }, .. } => {}
            other => panic!("expected a stall classification, got {other:?}"),
        }
    }

    #[test]
    fn progressing_unit_past_deadline_is_deadline_not_stall() {
        let items = [0u64];
        let clock = ChaosClock::new();
        // Stall window far beyond the deadline: heartbeats advance every
        // virtual millisecond, so only the deadline can fire.
        let cfg = SupervisorConfig { deadline_ms: 50, stall_ms: 5000, poll_ms: 5, ..passive() };
        let report = supervised_map_with(
            &items,
            1,
            &cfg,
            &clock,
            |i, _, ctx| -> Result<u64, RunError> {
                let mut committed = 0;
                while !ctx.token.is_cancelled() {
                    committed += 1;
                    ctx.token.beat(committed, committed);
                    ctx.clock.sleep_ms(1);
                }
                Err(RunError::Cancelled { what: format!("unit {i}"), committed })
            },
            |_, _| {},
        );
        match &report.outcomes[0] {
            UnitOutcome::Failed {
                error: RunError::DeadlineExceeded { deadline_ms: 50, committed, .. },
                ..
            } => {
                assert!(*committed > 0, "the unit was progressing when cancelled");
            }
            other => panic!("expected a deadline classification, got {other:?}"),
        }
    }
}
