//! Production-rate pacing for source threads.
//!
//! Paper §3.3.2: *"Source threads … use the propagated summary-STP
//! information to adjust their rate of data item production."* A paced
//! thread stretches its loop period to the target summary-STP by sleeping
//! the residual at the end of each iteration.
//!
//! The pacer is deadline-based rather than sleep-difference-based: it tracks
//! the next release time so that scheduling overshoot in one iteration does
//! not permanently inflate the achieved period (classic periodic-task
//! release-point logic). After a stall it re-anchors instead of bursting:
//! ARU adjusts the production *rate*, it never backfills dropped frames.

use crate::stp::Stp;
use vtime::{Micros, SimTime};

/// Computes how long a source thread should sleep after each iteration so
/// its production period matches the propagated summary-STP.
#[derive(Debug, Clone, Default)]
pub struct Pacer {
    target: Option<Stp>,
    last_release: Option<SimTime>,
}

impl Pacer {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Update the target period from the latest propagated summary-STP.
    pub fn set_target(&mut self, summary: Option<Stp>) {
        self.target = summary;
    }

    /// Current target period, if feedback has arrived.
    #[must_use]
    pub fn target(&self) -> Option<Stp> {
        self.target
    }

    /// Called when an iteration finishes at `now`; returns how long to sleep
    /// before starting the next iteration. Zero when the thread is already
    /// slower than the target (pacing never slows the pipeline further) or
    /// when no feedback has arrived yet (run unthrottled, like the
    /// baseline system).
    pub fn sleep_until_release(&mut self, now: SimTime) -> Micros {
        let Some(target) = self.target else {
            self.last_release = Some(now);
            return Micros::ZERO;
        };
        let Some(anchor) = self.last_release else {
            // First paced iteration: anchor the schedule here and do not
            // sleep — the iteration that just completed already consumed
            // real time, and delaying the first item buys nothing.
            self.last_release = Some(now);
            return Micros::ZERO;
        };
        let next = anchor + target.period();
        if next <= now {
            // Running at or below the target rate already; re-anchor so a
            // long stall is not followed by a catch-up burst.
            self.last_release = Some(now);
            Micros::ZERO
        } else {
            self.last_release = Some(next);
            next.since(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unthrottled_without_feedback() {
        let mut p = Pacer::new();
        assert_eq!(p.sleep_until_release(SimTime(100)), Micros::ZERO);
        assert_eq!(p.sleep_until_release(SimTime(200)), Micros::ZERO);
    }

    #[test]
    fn stretches_fast_thread_to_target() {
        let mut p = Pacer::new();
        p.set_target(Some(Stp::from_micros(1000)));
        // First call anchors the schedule at now, no sleep.
        assert_eq!(p.sleep_until_release(SimTime(0)), Micros::ZERO);
        // 200us of work, finished at 200: next release at 1000 → sleep 800.
        assert_eq!(p.sleep_until_release(SimTime(200)), Micros(800));
        // Woke at 1000, worked 100us: release 2000, finished 1100 → 900.
        assert_eq!(p.sleep_until_release(SimTime(1100)), Micros(900));
    }

    #[test]
    fn slow_thread_is_never_delayed() {
        let mut p = Pacer::new();
        p.set_target(Some(Stp::from_micros(100)));
        p.sleep_until_release(SimTime(0));
        // Iteration took 5000us ≫ 100us target: no sleep.
        assert_eq!(p.sleep_until_release(SimTime(5000)), Micros::ZERO);
    }

    #[test]
    fn no_burst_after_stall() {
        let mut p = Pacer::new();
        p.set_target(Some(Stp::from_micros(1000)));
        p.sleep_until_release(SimTime(0));
        // Long stall: thread resumes at t=10_000. It must not run several
        // back-to-back iterations to catch up.
        assert_eq!(p.sleep_until_release(SimTime(10_000)), Micros::ZERO);
        let s = p.sleep_until_release(SimTime(10_100));
        assert!(
            s.as_micros() <= 1000,
            "sleep bounded by one period, got {s}"
        );
    }

    #[test]
    fn target_change_takes_effect() {
        let mut p = Pacer::new();
        p.set_target(Some(Stp::from_micros(1000)));
        assert_eq!(p.sleep_until_release(SimTime(0)), Micros::ZERO);
        p.set_target(Some(Stp::from_micros(3000)));
        // Release anchored at 0, new period 3000 → next release 3000.
        assert_eq!(p.sleep_until_release(SimTime(1000)), Micros(2000));
    }

    #[test]
    fn clearing_target_unthrottles() {
        let mut p = Pacer::new();
        p.set_target(Some(Stp::from_micros(1000)));
        p.sleep_until_release(SimTime(0));
        p.set_target(None);
        assert_eq!(p.sleep_until_release(SimTime(10)), Micros::ZERO);
    }

    #[test]
    fn average_period_converges_to_target() {
        // A fast thread (work=100us) paced at 700us for many iterations:
        // the achieved inter-completion period must be exactly the target.
        let mut p = Pacer::new();
        p.set_target(Some(Stp::from_micros(700)));
        let mut now = SimTime(0);
        let mut completions = Vec::new();
        for _ in 0..100 {
            let sleep = p.sleep_until_release(now);
            now = now + sleep; // sleep
            now = now + Micros(100); // work
            completions.push(now);
        }
        let first = completions[0].as_micros() as f64;
        let last = completions.last().unwrap().as_micros() as f64;
        let mean_period = (last - first) / (completions.len() - 1) as f64;
        assert!(
            (mean_period - 700.0).abs() < 5.0,
            "mean period {mean_period} != 700"
        );
    }
}
