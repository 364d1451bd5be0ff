//! Summary-STP smoothing filters.
//!
//! Paper §3.3.2: *"One stability problem that we encounter is noise in the
//! summary-STP values emitted by consumers. … Such noise can be smoothed out
//! by applying filters also used by other feedback systems. Filters to smooth
//! summary-STP noise have currently not been implemented in ARU and is left
//! for future work."*
//!
//! We implement that future work: an identity filter (the paper's shipped
//! behaviour), an exponentially-weighted moving average, and a windowed
//! median (robust to the intermittent outliers the paper describes). The
//! `ablation_filters` bench measures their effect on production-rate jitter.

use crate::error::AruError;
use crate::stp::Stp;
use std::collections::VecDeque;
use std::fmt::Debug;

/// A stateful smoothing filter over a stream of STP values.
pub trait StpFilter: Send + Debug {
    /// Feed one raw value, get the smoothed value to act on.
    fn apply(&mut self, raw: Stp) -> Stp;

    /// Reset internal state (e.g. when the pipeline is reconfigured).
    fn reset(&mut self);
}

/// No smoothing — the behaviour evaluated in the paper.
#[derive(Debug, Clone, Default)]
pub struct IdentityFilter;

impl StpFilter for IdentityFilter {
    fn apply(&mut self, raw: Stp) -> Stp {
        raw
    }
    fn reset(&mut self) {}
}

/// Exponentially-weighted moving average: `y ← α·x + (1−α)·y`.
#[derive(Debug, Clone)]
pub struct EwmaFilter {
    alpha: f64,
    state: Option<f64>,
}

impl EwmaFilter {
    /// # Panics
    /// Panics unless `0 < alpha <= 1`. Configs from untrusted input should
    /// use [`EwmaFilter::try_new`].
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EwmaFilter { alpha, state: None }
    }

    /// Typed-error [`EwmaFilter::new`].
    pub fn try_new(alpha: f64) -> Result<Self, AruError> {
        if alpha.is_finite() && alpha > 0.0 && alpha <= 1.0 {
            Ok(EwmaFilter { alpha, state: None })
        } else {
            Err(AruError::InvalidParam {
                what: "ewma.alpha",
                why: "must be in (0, 1]",
            })
        }
    }
}

impl StpFilter for EwmaFilter {
    fn apply(&mut self, raw: Stp) -> Stp {
        let x = raw.as_micros() as f64;
        let y = match self.state {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        };
        self.state = Some(y);
        Stp::from_micros(y.round() as u64)
    }

    fn reset(&mut self) {
        self.state = None;
    }
}

/// Median over a sliding window of the last `window` values — kills the
/// "intermittently large or small summary-STP values" the paper attributes
/// to OS scheduling variance, without lagging sustained rate changes the way
/// a long EWMA does.
#[derive(Debug, Clone)]
pub struct MedianFilter {
    window: usize,
    buf: VecDeque<Stp>,
}

impl MedianFilter {
    /// # Panics
    /// Panics if `window == 0`. Configs from untrusted input should use
    /// [`MedianFilter::try_new`].
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        MedianFilter {
            window,
            buf: VecDeque::with_capacity(window),
        }
    }

    /// Typed-error [`MedianFilter::new`].
    pub fn try_new(window: usize) -> Result<Self, AruError> {
        if window > 0 {
            Ok(MedianFilter {
                window,
                buf: VecDeque::with_capacity(window),
            })
        } else {
            Err(AruError::InvalidParam {
                what: "median.window",
                why: "must be > 0",
            })
        }
    }
}

impl StpFilter for MedianFilter {
    fn apply(&mut self, raw: Stp) -> Stp {
        if self.buf.len() == self.window {
            self.buf.pop_front();
        }
        self.buf.push_back(raw);
        let mut v: Vec<Stp> = self.buf.iter().copied().collect();
        v.sort_unstable();
        v[v.len() / 2]
    }

    fn reset(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Stp {
        Stp::from_micros(v)
    }

    #[test]
    fn identity_passes_through() {
        let mut f = IdentityFilter;
        assert_eq!(f.apply(us(123)), us(123));
        assert_eq!(f.apply(us(7)), us(7));
    }

    #[test]
    fn ewma_first_sample_is_identity() {
        let mut f = EwmaFilter::new(0.25);
        assert_eq!(f.apply(us(400)), us(400));
    }

    #[test]
    fn ewma_converges_toward_constant_input() {
        let mut f = EwmaFilter::new(0.5);
        f.apply(us(0));
        let mut last = us(0);
        for _ in 0..30 {
            last = f.apply(us(1000));
        }
        assert!(last.as_micros() >= 999, "got {last}");
    }

    #[test]
    fn ewma_smooths_spike() {
        let mut f = EwmaFilter::new(0.1);
        for _ in 0..20 {
            f.apply(us(100));
        }
        let spiked = f.apply(us(10_000));
        assert!(
            spiked.as_micros() < 1_200,
            "spike barely moves output: {spiked}"
        );
    }

    #[test]
    fn ewma_reset() {
        let mut f = EwmaFilter::new(0.1);
        f.apply(us(100));
        f.reset();
        assert_eq!(f.apply(us(900)), us(900));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = EwmaFilter::new(0.0);
    }

    #[test]
    fn median_rejects_outlier_completely() {
        let mut f = MedianFilter::new(5);
        for _ in 0..5 {
            f.apply(us(100));
        }
        assert_eq!(f.apply(us(50_000)), us(100), "single outlier ignored");
    }

    #[test]
    fn median_tracks_sustained_change() {
        let mut f = MedianFilter::new(3);
        for _ in 0..3 {
            f.apply(us(100));
        }
        f.apply(us(500));
        let out = f.apply(us(500));
        assert_eq!(out, us(500), "two of three samples at new level");
    }

    #[test]
    fn median_window_one_is_identity() {
        let mut f = MedianFilter::new(1);
        assert_eq!(f.apply(us(42)), us(42));
        assert_eq!(f.apply(us(7)), us(7));
    }

    #[test]
    fn median_reset() {
        let mut f = MedianFilter::new(3);
        f.apply(us(1));
        f.apply(us(1));
        f.reset();
        assert_eq!(f.apply(us(9)), us(9));
    }
}
