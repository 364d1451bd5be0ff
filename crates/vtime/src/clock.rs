//! Pluggable time sources.
//!
//! The Stampede-like threaded runtime reads the wall clock; the
//! discrete-event simulator advances a [`ManualClock`] explicitly. Runtime
//! code that needs "now" (STP measurement, trace events, footprint samples)
//! is written against the [`Clock`] trait so both share one implementation.

use crate::timestamp::{Micros, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic microsecond time source.
pub trait Clock: Send + Sync + 'static {
    /// Current time, microseconds since the start of the run.
    fn now(&self) -> SimTime;
}

/// Wall-clock time relative to clock construction.
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    #[must_use]
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64)
    }
}

/// A manually-advanced clock for deterministic simulation.
///
/// Cloning shares the underlying time cell, so a simulator engine can hold
/// one handle and hand clones to instrumented components.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    micros: Arc<AtomicU64>,
}

impl ManualClock {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the absolute time. Panics in debug builds if time would move
    /// backwards — the simulator must only advance.
    pub fn set(&self, t: SimTime) {
        let prev = self.micros.swap(t.0, Ordering::Release);
        debug_assert!(
            prev <= t.0,
            "ManualClock moved backwards: {prev} -> {}",
            t.0
        );
    }

    /// Advance by `d` and return the new time.
    pub fn advance(&self, d: Micros) -> SimTime {
        let now = self.micros.fetch_add(d.0, Ordering::AcqRel) + d.0;
        SimTime(now)
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime(self.micros.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn wall_clock_is_monotonic_and_advances() {
        let c = WallClock::new();
        let a = c.now();
        thread::sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
        assert!(b.since(a) >= Micros(1_000), "slept 2ms, saw {}", b.since(a));
    }

    #[test]
    fn manual_clock_set_and_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.set(SimTime(100));
        assert_eq!(c.now(), SimTime(100));
        let t = c.advance(Micros(50));
        assert_eq!(t, SimTime(150));
        assert_eq!(c.now(), SimTime(150));
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let c = ManualClock::new();
        let c2 = c.clone();
        c.set(SimTime(42));
        assert_eq!(c2.now(), SimTime(42));
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    #[cfg(debug_assertions)]
    fn manual_clock_rejects_backwards() {
        let c = ManualClock::new();
        c.set(SimTime(10));
        c.set(SimTime(5));
    }
}
