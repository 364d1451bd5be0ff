//! Core time types: virtual timestamps and microsecond-resolution physical time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in the application's *virtual time*.
///
/// In Stampede every item put into a channel or queue carries a timestamp;
/// for a video pipeline this is typically the frame number assigned by the
/// source (digitizer) thread. Timestamps are totally ordered and sources
/// issue them monotonically.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The first timestamp a source thread issues.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The timestamp following this one.
    #[must_use]
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }

    /// Raw virtual-time value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Distance (in virtual ticks) from `earlier` to `self`.
    /// Returns 0 if `earlier` is not actually earlier.
    #[must_use]
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

/// A duration in microseconds.
///
/// The paper reports all times (STP values, latency, jitter) at microsecond
/// granularity; 64 bits of microseconds cover ~584 thousand years, so
/// saturating arithmetic never matters in practice but keeps the type total.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Micros(pub u64);

impl Micros {
    pub const ZERO: Micros = Micros(0);

    #[must_use]
    pub fn from_millis(ms: u64) -> Micros {
        Micros(ms * 1_000)
    }

    #[must_use]
    pub fn from_secs(s: u64) -> Micros {
        Micros(s * 1_000_000)
    }

    #[must_use]
    pub fn from_secs_f64(s: f64) -> Micros {
        Micros((s.max(0.0) * 1e6).round() as u64)
    }

    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by a non-negative scalar, saturating on overflow.
    #[must_use]
    pub fn mul_f64(self, k: f64) -> Micros {
        debug_assert!(k >= 0.0, "negative duration scale");
        let v = (self.0 as f64 * k).round();
        if v >= u64::MAX as f64 {
            Micros(u64::MAX)
        } else {
            Micros(v as u64)
        }
    }

    #[must_use]
    pub fn max(self, other: Micros) -> Micros {
        Micros(self.0.max(other.0))
    }

    #[must_use]
    pub fn min(self, other: Micros) -> Micros {
        Micros(self.0.min(other.0))
    }

    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        *self = *self + rhs;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }
}

impl From<Duration> for Micros {
    fn from(d: Duration) -> Self {
        Micros(d.as_micros().min(u128::from(u64::MAX)) as u64)
    }
}

impl From<Micros> for Duration {
    fn from(m: Micros) -> Self {
        Duration::from_micros(m.0)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// A point in physical time (wall clock or simulated), microseconds since
/// the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    #[must_use]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed time since `earlier`. Zero if `earlier` is in the future
    /// (clock skew never produces negative durations).
    #[must_use]
    pub fn since(self, earlier: SimTime) -> Micros {
        Micros(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Micros> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Micros) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Micros(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_ordering_and_next() {
        let a = Timestamp(3);
        assert!(a < a.next());
        assert_eq!(a.next().raw(), 4);
        assert_eq!(a.next().since(a), 1);
        assert_eq!(a.since(a.next()), 0, "since saturates");
    }

    #[test]
    fn micros_arithmetic_saturates() {
        let big = Micros(u64::MAX);
        assert_eq!(big + Micros(1), big);
        assert_eq!(Micros(1).saturating_sub(Micros(5)), Micros::ZERO);
        assert_eq!(Micros(3) - Micros(5), Micros::ZERO);
    }

    #[test]
    fn micros_conversions() {
        assert_eq!(Micros::from_millis(2).as_micros(), 2_000);
        assert_eq!(Micros::from_secs(1), Micros(1_000_000));
        assert!((Micros::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-9);
        let d: Duration = Micros(1500).into();
        assert_eq!(d, Duration::from_micros(1500));
        let m: Micros = Duration::from_millis(3).into();
        assert_eq!(m, Micros(3000));
    }

    #[test]
    fn micros_mul_f64() {
        assert_eq!(Micros(1000).mul_f64(1.5), Micros(1500));
        assert_eq!(Micros(1000).mul_f64(0.0), Micros::ZERO);
        assert_eq!(Micros(u64::MAX).mul_f64(2.0), Micros(u64::MAX));
    }

    #[test]
    fn simtime_since_and_add() {
        let t0 = SimTime(100);
        let t1 = t0 + Micros(50);
        assert_eq!(t1.since(t0), Micros(50));
        assert_eq!(t0.since(t1), Micros::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Micros(12)), "12us");
        assert_eq!(format!("{}", Micros(1500)), "1.500ms");
        assert_eq!(format!("{}", Micros(2_500_000)), "2.500s");
        assert_eq!(format!("{}", Timestamp(7)), "ts7");
    }
}
