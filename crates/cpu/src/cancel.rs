//! Cooperative run cancellation: the supervision hook in
//! [`Core::run`](crate::Core::run).
//!
//! A campaign supervisor cannot preempt a simulation thread, but it can ask
//! the simulation to stop: [`Core::run_governed`](crate::Core::run_governed)
//! polls a [`RunGovernor`] every [`CHECK_INTERVAL_CYCLES`] simulated cycles
//! and returns [`RunExit::Cancelled`](crate::RunExit::Cancelled) when the
//! governor says so. The poll doubles as a **heartbeat**: each checkpoint
//! publishes the current cycle and committed-instruction counts, so an
//! external monitor can tell a run that is *slow but progressing* (beats
//! advance — a wall-clock deadline problem) from one that is *stalled*
//! (no beats — the host thread is wedged outside the simulation loop).
//!
//! The hook follows the same zero-cost discipline as
//! [`PipelineObserver`](crate::probe::PipelineObserver): the governor is a
//! generic parameter with a `const ACTIVE` flag, and the default
//! [`NeverCancel`] has `ACTIVE = false`, so the plain
//! [`Core::run`](crate::Core::run) monomorphizes to the exact
//! un-instrumented loop — the perf gate holds the proof.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// How many simulated cycles elapse between governor checkpoints. Chosen
/// so even a slow (~1 M cyc/s) configuration polls a few hundred times per
/// second while the atomic traffic stays invisible next to the pipeline
/// work a checkpoint's worth of cycles represents.
pub const CHECK_INTERVAL_CYCLES: u64 = 4096;

/// The cancellation hook [`Core::run_governed`](crate::Core::run_governed)
/// polls. `ACTIVE = false` compiles every checkpoint site away.
pub trait RunGovernor {
    /// Whether checkpoints are compiled in at all.
    const ACTIVE: bool = true;

    /// Called every [`CHECK_INTERVAL_CYCLES`] simulated cycles with the
    /// current cycle and committed-instruction counts. Returning `true`
    /// stops the run with [`RunExit::Cancelled`](crate::RunExit::Cancelled).
    fn checkpoint(&self, cycle: u64, committed: u64) -> bool;

    /// Polled once when a run starts, without publishing a heartbeat:
    /// `true` stops the run before its first cycle.
    fn tripped(&self) -> bool {
        false
    }
}

/// The detached governor: checkpoints are statically compiled out, so
/// [`Core::run`](crate::Core::run) is exactly the ungoverned loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverCancel;

impl RunGovernor for NeverCancel {
    const ACTIVE: bool = false;

    #[inline]
    fn checkpoint(&self, _cycle: u64, _committed: u64) -> bool {
        false
    }
}

/// Why a [`CancelToken`] was tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The unit's wall-clock deadline elapsed while it was still making
    /// progress (heartbeats kept advancing).
    Deadline,
    /// No heartbeat advanced within the stall window — the run is wedged
    /// on the host side, not merely slow.
    Stalled,
}

const REASON_NONE: u8 = 0;
const REASON_DEADLINE: u8 = 1;
const REASON_STALLED: u8 = 2;

#[derive(Debug, Default)]
struct TokenState {
    reason: AtomicU8,
    beat_cycle: AtomicU64,
    beat_committed: AtomicU64,
}

/// A shared cancellation token: the supervisor's monitor thread trips it,
/// the simulation thread polls it (via its [`RunGovernor`] impl) and
/// publishes heartbeats through it. Cloning shares the same state.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<TokenState>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token. The first reason wins; later calls are ignored, so
    /// a monitor racing itself cannot flip a deadline into a stall.
    pub fn cancel(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::Deadline => REASON_DEADLINE,
            CancelReason::Stalled => REASON_STALLED,
        };
        let _ = self.state.reason.compare_exchange(
            REASON_NONE,
            code,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.state.reason.load(Ordering::Relaxed) != REASON_NONE
    }

    /// Why the token was tripped, if it was.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.state.reason.load(Ordering::Relaxed) {
            REASON_DEADLINE => Some(CancelReason::Deadline),
            REASON_STALLED => Some(CancelReason::Stalled),
            _ => None,
        }
    }

    /// Publishes a heartbeat (also done implicitly by every checkpoint).
    pub fn beat(&self, cycle: u64, committed: u64) {
        self.state.beat_cycle.store(cycle, Ordering::Relaxed);
        self.state.beat_committed.store(committed, Ordering::Relaxed);
    }

    /// The last heartbeat's simulated cycle count.
    pub fn beat_cycle(&self) -> u64 {
        self.state.beat_cycle.load(Ordering::Relaxed)
    }

    /// The last heartbeat's committed-instruction count.
    pub fn beat_committed(&self) -> u64 {
        self.state.beat_committed.load(Ordering::Relaxed)
    }
}

impl fmt::Display for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason() {
            None => write!(f, "live"),
            Some(r) => write!(f, "cancelled ({r:?})"),
        }
    }
}

impl RunGovernor for CancelToken {
    #[inline]
    fn checkpoint(&self, cycle: u64, committed: u64) -> bool {
        self.beat(cycle, committed);
        self.is_cancelled()
    }

    #[inline]
    fn tripped(&self) -> bool {
        self.is_cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_live_and_trips_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        t.cancel(CancelReason::Deadline);
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
        // First reason wins.
        t.cancel(CancelReason::Stalled);
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
        assert_eq!(t.to_string(), "cancelled (Deadline)");
    }

    #[test]
    fn clones_share_state_and_heartbeats_publish() {
        let t = CancelToken::new();
        let shared = t.clone();
        assert!(!t.checkpoint(100, 7), "live token does not cancel");
        assert_eq!(shared.beat_cycle(), 100);
        assert_eq!(shared.beat_committed(), 7);
        shared.cancel(CancelReason::Stalled);
        assert!(t.checkpoint(200, 8), "tripped token cancels at the next checkpoint");
        assert_eq!(t.beat_committed(), 8, "the final checkpoint still beats");
    }

    #[test]
    fn never_cancel_is_statically_inert() {
        const _: () = assert!(!NeverCancel::ACTIVE);
        assert!(!NeverCancel.checkpoint(0, 0));
    }
}
