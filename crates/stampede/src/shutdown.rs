//! Cooperative shutdown signal with interruptible sleeping.

use crate::sync::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;
use vtime::Micros;

/// A shared shutdown flag that paced threads can sleep against so that
/// stopping the runtime never waits out a pacing sleep.
#[derive(Debug, Clone, Default)]
pub struct Shutdown {
    inner: Arc<ShutdownInner>,
}

#[derive(Debug, Default)]
struct ShutdownInner {
    flag: Mutex<bool>,
    cond: Condvar,
}

impl Shutdown {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Has shutdown been requested?
    #[must_use]
    pub fn is_set(&self) -> bool {
        *self.inner.flag.lock()
    }

    /// Request shutdown and wake every sleeper.
    pub fn set(&self) {
        let mut g = self.inner.flag.lock();
        *g = true;
        self.inner.cond.notify_all();
    }

    /// Sleep for `d`, waking early on shutdown. Returns `true` if shutdown
    /// was requested (before or during the sleep).
    pub fn sleep(&self, d: Micros) -> bool {
        if d.is_zero() {
            return self.is_set();
        }
        self.sleep_until(std::time::Instant::now() + Duration::from(d))
    }

    /// Sleep until `deadline`, waking early on shutdown. Returns `true` if
    /// shutdown was requested (before or during the sleep). A deadline in
    /// the past returns immediately with the current flag state, which lets
    /// fixed-cadence loops (`next_tick += interval`) catch up after a slow
    /// tick without drifting their schedule.
    ///
    /// Spurious condvar wakeups re-enter the wait for the remaining time
    /// rather than cutting the sleep short.
    pub fn sleep_until(&self, deadline: std::time::Instant) -> bool {
        let mut g = self.inner.flag.lock();
        while !*g {
            if self.inner.cond.wait_until(&mut g, Some(deadline)) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn sleep_times_out_without_shutdown() {
        let s = Shutdown::new();
        let t0 = Instant::now();
        let interrupted = s.sleep(Micros::from_millis(5));
        assert!(!interrupted);
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn set_wakes_sleeper_early() {
        let s = Shutdown::new();
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            let t0 = Instant::now();
            let interrupted = s2.sleep(Micros::from_secs(10));
            (interrupted, t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(10));
        s.set();
        let (interrupted, elapsed) = h.join().unwrap();
        assert!(interrupted);
        assert!(elapsed < Duration::from_secs(5), "woke early");
    }

    #[test]
    fn zero_sleep_reports_state() {
        let s = Shutdown::new();
        assert!(!s.sleep(Micros::ZERO));
        s.set();
        assert!(s.sleep(Micros::ZERO));
        assert!(s.sleep(Micros::from_millis(50)), "already set: immediate");
    }

    #[test]
    fn sleep_until_past_deadline_returns_immediately() {
        let s = Shutdown::new();
        let t0 = Instant::now();
        assert!(!s.sleep_until(t0 - Duration::from_millis(50)));
        assert!(
            t0.elapsed() < Duration::from_millis(20),
            "no wait on a lapsed deadline"
        );
        s.set();
        assert!(
            s.sleep_until(Instant::now() + Duration::from_secs(10)),
            "already set: immediate"
        );
    }

    #[test]
    fn concurrent_set_from_many_threads_wakes_all_sleepers() {
        // Several sleepers, several racing setters: set() must be idempotent
        // under contention and every sleeper must wake promptly.
        let s = Shutdown::new();
        let sleepers: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    let interrupted = s.sleep(Micros::from_secs(30));
                    (interrupted, t0.elapsed())
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        let setters: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || s.set())
            })
            .collect();
        for h in setters {
            h.join().unwrap();
        }
        for h in sleepers {
            let (interrupted, elapsed) = h.join().unwrap();
            assert!(interrupted, "sleeper saw the shutdown");
            assert!(elapsed < Duration::from_secs(10), "woke early");
        }
        assert!(s.is_set());
    }
}
