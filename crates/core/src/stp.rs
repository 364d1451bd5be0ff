//! Sustainable Thread Period (STP) measurement.
//!
//! Paper §3.3.1: *"We define sustainable thread period (STP) as the time it
//! takes to execute one iteration of a thread loop. … It is important to note
//! that blocking time (i.e. time spent waiting for an upstream stage to
//! produce data) is not included in the STP. In essence, a current-STP value
//! captures the minimum time required to produce an item given present load
//! conditions."*

use serde::{Deserialize, Serialize};
use std::fmt;
use vtime::{Micros, SimTime};

/// A Sustainable Thread Period value — a per-iteration period in
/// microseconds. This is exactly the 8-byte quantity the paper piggybacks on
/// every `put`/`get` (§4: "the summary-STP values that are piggy backed with
/// each item are only 8 bytes long").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Stp(pub Micros);

impl Stp {
    pub const ZERO: Stp = Stp(Micros::ZERO);

    #[must_use]
    pub fn from_micros(us: u64) -> Stp {
        Stp(Micros(us))
    }

    #[must_use]
    pub fn from_millis(ms: u64) -> Stp {
        Stp(Micros::from_millis(ms))
    }

    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0.as_micros()
    }

    #[must_use]
    pub fn period(self) -> Micros {
        self.0
    }

    #[must_use]
    pub fn max(self, other: Stp) -> Stp {
        Stp(self.0.max(other.0))
    }

    #[must_use]
    pub fn min(self, other: Stp) -> Stp {
        Stp(self.0.min(other.0))
    }
}

impl fmt::Display for Stp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stp={}", self.0)
    }
}

impl From<Micros> for Stp {
    fn from(m: Micros) -> Self {
        Stp(m)
    }
}

/// Measures current-STP for one thread, excluding blocking time.
///
/// Drive it from the thread loop (paper Figure 2):
///
/// ```
/// use aru_core::stp::StpMeter;
/// use vtime::SimTime;
///
/// let mut meter = StpMeter::new();
/// meter.iteration_begin(SimTime(0));
/// meter.block_begin(SimTime(10));   // waiting on an empty input channel
/// meter.block_end(SimTime(40));     // data arrived
/// let stp = meter.iteration_end(SimTime(100));
/// assert_eq!(stp.as_micros(), 70);  // 100 total − 30 blocked
/// ```
#[derive(Debug, Clone, Default)]
pub struct StpMeter {
    iter_start: Option<SimTime>,
    block_start: Option<SimTime>,
    blocked: Micros,
    last_stp: Option<Stp>,
    iterations: u64,
    total_busy: Micros,
    total_blocked: Micros,
}

impl StpMeter {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the start of a loop iteration. A blocking window left open by
    /// an interrupted op is dropped: its time belongs to no iteration.
    pub fn iteration_begin(&mut self, now: SimTime) {
        self.block_start = None;
        self.iter_start = Some(now);
        self.blocked = Micros::ZERO;
    }

    /// The thread starts waiting for upstream data. A nested begin keeps
    /// the open window (the earliest wait wins).
    pub fn block_begin(&mut self, now: SimTime) {
        self.block_start.get_or_insert(now);
    }

    /// The thread obtained the data it was waiting for. An end with no open
    /// window is ignored.
    pub fn block_end(&mut self, now: SimTime) {
        if let Some(start) = self.block_start.take() {
            self.blocked += now.since(start);
        }
    }

    /// Whether the thread is currently inside a `block_begin`/`block_end`
    /// window.
    #[must_use]
    pub fn is_blocked(&self) -> bool {
        self.block_start.is_some()
    }

    /// Finish the iteration; returns the current-STP (busy time).
    ///
    /// This corresponds to the `periodicity_sync()` call the paper adds to
    /// the Stampede API (§4) — "each thread is required to call this function
    /// at the end of every thread iteration loop".
    ///
    /// Unbalanced hook state is repaired, never a panic: an open blocking
    /// window is closed here, and a missing `iteration_begin` (e.g. the
    /// meter was rebuilt after a crash mid-iteration) counts as `now`,
    /// yielding a zero-length iteration.
    pub fn iteration_end(&mut self, now: SimTime) -> Stp {
        self.block_end(now);
        let start = self.iter_start.take().unwrap_or(now);
        let busy = now.since(start).saturating_sub(self.blocked);
        let stp = Stp(busy);
        self.last_stp = Some(stp);
        self.iterations += 1;
        self.total_busy += busy;
        self.total_blocked += self.blocked;
        self.blocked = Micros::ZERO;
        stp
    }

    /// Most recent current-STP, if at least one iteration completed.
    #[must_use]
    pub fn current(&self) -> Option<Stp> {
        self.last_stp
    }

    /// Completed iterations.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Cumulative busy time across all iterations (the paper's "total
    /// computation … excluding blocking and sleep time").
    #[must_use]
    pub fn total_busy(&self) -> Micros {
        self.total_busy
    }

    /// Cumulative blocking time across all iterations.
    #[must_use]
    pub fn total_blocked(&self) -> Micros {
        self.total_blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_iteration_no_blocking() {
        let mut m = StpMeter::new();
        m.iteration_begin(SimTime(1_000));
        let stp = m.iteration_end(SimTime(1_250));
        assert_eq!(stp.as_micros(), 250);
        assert_eq!(m.current(), Some(stp));
        assert_eq!(m.iterations(), 1);
    }

    #[test]
    fn blocking_excluded() {
        let mut m = StpMeter::new();
        m.iteration_begin(SimTime(0));
        m.block_begin(SimTime(100));
        m.block_end(SimTime(400));
        m.iteration_end(SimTime(500));
        assert_eq!(m.current().unwrap().as_micros(), 200);
        assert_eq!(m.total_blocked(), Micros(300));
        assert_eq!(m.total_busy(), Micros(200));
    }

    #[test]
    fn multiple_block_windows_accumulate() {
        let mut m = StpMeter::new();
        m.iteration_begin(SimTime(0));
        m.block_begin(SimTime(10));
        m.block_end(SimTime(20));
        m.block_begin(SimTime(50));
        m.block_end(SimTime(80));
        let stp = m.iteration_end(SimTime(100));
        assert_eq!(stp.as_micros(), 60); // 100 − 10 − 30
    }

    #[test]
    fn blocking_resets_between_iterations() {
        let mut m = StpMeter::new();
        m.iteration_begin(SimTime(0));
        m.block_begin(SimTime(0));
        m.block_end(SimTime(90));
        m.iteration_end(SimTime(100));
        m.iteration_begin(SimTime(100));
        let stp = m.iteration_end(SimTime(150));
        assert_eq!(stp.as_micros(), 50, "previous blocking must not leak");
        assert_eq!(m.iterations(), 2);
    }

    #[test]
    fn blocking_longer_than_iteration_saturates() {
        // Clock coarseness can make blocked > wall; STP must clamp at 0.
        let mut m = StpMeter::new();
        m.iteration_begin(SimTime(0));
        m.block_begin(SimTime(0));
        m.block_end(SimTime(100));
        let stp = m.iteration_end(SimTime(100));
        assert_eq!(stp, Stp::ZERO);
    }

    #[test]
    fn unbalanced_hooks_are_repaired() {
        let mut m = StpMeter::new();
        // An end with no open window is ignored.
        m.block_end(SimTime(0));
        assert!(!m.is_blocked());
        m.iteration_begin(SimTime(0));
        m.block_begin(SimTime(10));
        // A nested begin keeps the earliest window.
        m.block_begin(SimTime(20));
        m.block_end(SimTime(40));
        let stp = m.iteration_end(SimTime(50));
        assert_eq!(stp.as_micros(), 20, "50 − 30 blocked");
        // A begin drops a window left open by an interrupted op.
        m.block_begin(SimTime(60));
        m.iteration_begin(SimTime(100));
        assert!(!m.is_blocked());
        assert_eq!(m.iteration_end(SimTime(150)).as_micros(), 50);
        assert_eq!(m.iterations(), 2);
        assert_eq!(m.total_blocked(), Micros(30));
    }

    #[test]
    fn end_repairs_open_block_window() {
        let mut m = StpMeter::new();
        m.iteration_begin(SimTime(0));
        m.block_begin(SimTime(40));
        // Task loop lost the block_end (e.g. the op was interrupted by a
        // shutdown signal): the end closes the window at `now`.
        let stp = m.iteration_end(SimTime(100));
        assert_eq!(stp.as_micros(), 40);
        assert_eq!(m.iterations(), 1);
        assert!(!m.is_blocked());
    }

    #[test]
    fn end_without_begin_is_zero_length() {
        let mut m = StpMeter::new();
        let stp = m.iteration_end(SimTime(500));
        assert_eq!(stp, Stp::ZERO);
        assert_eq!(m.iterations(), 1);
    }
}
