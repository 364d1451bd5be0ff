//! Summary-STP smoothing.
//!
//! Paper §3.3.2: *"One stability problem that we encounter is noise in the
//! summary-STP values emitted by consumers. … Such noise can be smoothed out
//! by applying filters also used by other feedback systems. Filters to smooth
//! summary-STP noise have currently not been implemented in ARU and is left
//! for future work."*
//!
//! We implement that future work as one [`Filter`] state machine over three
//! specs: identity (the paper's shipped behaviour), an exponentially-weighted
//! moving average, and a windowed median (robust to the intermittent outliers
//! the paper describes). A filter only smooths; it does not measure jitter.
//! The ablation `stp_filters_cut_production_jitter_under_a_noisy_consumer`
//! in `desim/tests/extensions.rs` measures their effect on production-rate
//! jitter.

use crate::stp::Stp;
use std::collections::VecDeque;

/// Which smoothing a [`Filter`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FilterSpec {
    /// No smoothing — the paper's shipped behaviour.
    #[default]
    Identity,
    /// Exponentially-weighted moving average `y ← α·x + (1−α)·y` with the
    /// given `alpha` in `(0, 1]`.
    Ewma(f64),
    /// Median over a sliding window of the last `window` values (> 0) —
    /// kills the "intermittently large or small summary-STP values" the
    /// paper attributes to OS scheduling variance, without lagging sustained
    /// rate changes the way a long EWMA does.
    Median(usize),
}

/// A stateful smoothing filter over a stream of STP values.
#[derive(Debug, Clone)]
pub struct Filter {
    spec: FilterSpec,
    ewma: Option<f64>,
    window: VecDeque<Stp>,
}

impl Filter {
    /// Out-of-domain parameters degrade to the identity instead of panicking
    /// (a bad experiment config must not take a supervised task down): an
    /// alpha outside `(0, 1]`, NaN included, smooths as `Ewma(1.0)`, and
    /// `Median(0)` as `Median(1)`.
    #[must_use]
    pub fn new(spec: FilterSpec) -> Self {
        let spec = match spec {
            FilterSpec::Ewma(a) if !(a > 0.0 && a <= 1.0) => FilterSpec::Ewma(1.0),
            FilterSpec::Median(0) => FilterSpec::Median(1),
            spec => spec,
        };
        Filter {
            spec,
            ewma: None,
            window: VecDeque::new(),
        }
    }

    /// Feed one raw value, get the smoothed value to act on.
    pub fn apply(&mut self, raw: Stp) -> Stp {
        match self.spec {
            FilterSpec::Identity => raw,
            FilterSpec::Ewma(alpha) => {
                let x = raw.as_micros() as f64;
                let y = self.ewma.map_or(x, |y| alpha * x + (1.0 - alpha) * y);
                self.ewma = Some(y);
                Stp::from_micros(y.round() as u64)
            }
            FilterSpec::Median(len) => {
                if self.window.len() == len {
                    self.window.pop_front();
                }
                self.window.push_back(raw);
                let mut v: Vec<Stp> = self.window.iter().copied().collect();
                v.sort_unstable();
                v[v.len() / 2]
            }
        }
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
        let mut f = Filter::new(FilterSpec::Identity);
        assert_eq!(f.apply(us(123)), us(123));
        assert_eq!(f.apply(us(7)), us(7));
    }

    #[test]
    fn ewma_first_sample_is_identity() {
        let mut f = Filter::new(FilterSpec::Ewma(0.25));
        assert_eq!(f.apply(us(400)), us(400));
    }

    #[test]
    fn ewma_converges_toward_constant_input() {
        let mut f = Filter::new(FilterSpec::Ewma(0.5));
        f.apply(us(0));
        let mut last = us(0);
        for _ in 0..30 {
            last = f.apply(us(1000));
        }
        assert!(last.as_micros() >= 999, "got {last}");
    }

    #[test]
    fn ewma_smooths_spike() {
        let mut f = Filter::new(FilterSpec::Ewma(0.1));
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
    fn median_rejects_outlier_completely() {
        let mut f = Filter::new(FilterSpec::Median(5));
        for _ in 0..5 {
            f.apply(us(100));
        }
        assert_eq!(f.apply(us(50_000)), us(100), "single outlier ignored");
    }

    #[test]
    fn median_tracks_sustained_change() {
        let mut f = Filter::new(FilterSpec::Median(3));
        for _ in 0..3 {
            f.apply(us(100));
        }
        f.apply(us(500));
        let out = f.apply(us(500));
        assert_eq!(out, us(500), "two of three samples at new level");
    }

    #[test]
    fn median_window_one_is_identity() {
        let mut f = Filter::new(FilterSpec::Median(1));
        assert_eq!(f.apply(us(42)), us(42));
        assert_eq!(f.apply(us(7)), us(7));
    }
}
