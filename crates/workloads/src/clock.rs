//! Time as a capability: the [`Clock`] the supervision layer reads and
//! sleeps against.
//!
//! Everything wall-clock-dependent in the campaign supervisor — unit
//! deadlines, stall windows, retry backoff sleeps, monitor polling — goes
//! through this trait, never through `Instant::now()` directly. That buys
//! two properties:
//!
//! * **determinism for drills** — [`ChaosClock`] is virtual time (the
//!   supervision sibling of the lab's fault-injecting `ChaosSink`): a
//!   sleep *advances* the clock instead of waiting, so a chaos drill can
//!   march a hung unit past its deadline in microseconds of real time and
//!   get the same classification on every run;
//! * **artifact hygiene** — wall-clock readings exist only inside the
//!   supervisor. Reports record *outcomes* (retries, quarantines, breaker
//!   state), never durations, so gated artifacts stay byte-stable.
//!
//! ```
//! use specrun_workloads::clock::{ChaosClock, Clock};
//!
//! let clock = ChaosClock::new();
//! clock.sleep_ms(30_000); // a virtual sleep: instant, but time moved
//! assert_eq!(clock.now_ms(), 30_000);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic millisecond clock the supervisor can also sleep on.
pub trait Clock: Sync {
    /// Milliseconds since the clock's origin.
    fn now_ms(&self) -> u64;

    /// Blocks (or, for virtual clocks, advances time) for `ms`.
    fn sleep_ms(&self, ms: u64);
}

/// The real host clock: `now_ms` is elapsed time since construction,
/// `sleep_ms` is a genuine thread sleep.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> WallClock {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    fn sleep_ms(&self, ms: u64) {
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

/// Deterministic virtual time for chaos drills: `sleep_ms` advances the
/// clock instead of waiting (plus a scheduler yield so a spinning monitor
/// thread cannot starve the workers). Shared by reference between the
/// drill's unit threads and the monitor, so every sleep anywhere moves the
/// one timeline forward.
#[derive(Debug, Default)]
pub struct ChaosClock {
    now: AtomicU64,
}

impl ChaosClock {
    /// A virtual clock starting at 0 ms.
    pub fn new() -> ChaosClock {
        ChaosClock::default()
    }
}

impl Clock for ChaosClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    fn sleep_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
        // Virtual sleeps are instant; without a yield a polling monitor
        // would monopolize a core and (on a single-CPU host) starve the
        // very unit it is watching.
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_advances_and_sleeps() {
        let c = WallClock::new();
        let before = c.now_ms();
        c.sleep_ms(2);
        assert!(c.now_ms() >= before + 2, "sleep must consume real time");
    }

    #[test]
    fn chaos_clock_is_virtual_and_shared() {
        let c = ChaosClock::new();
        assert_eq!(c.now_ms(), 0);
        let start = Instant::now();
        c.sleep_ms(10_000);
        assert!(start.elapsed() < Duration::from_secs(5), "virtual sleep must not block");
        assert_eq!(c.now_ms(), 10_000);
        std::thread::scope(|s| {
            let h = s.spawn(|| c.sleep_ms(100));
            h.join().unwrap();
        });
        assert_eq!(c.now_ms(), 10_100, "all threads share one timeline");
    }
}
