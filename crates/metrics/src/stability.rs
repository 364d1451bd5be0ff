//! Stability accounting for pacing control laws (DESIGN.md §13).
//!
//! Dynamic resource controllers need explicit stability criteria to be
//! usable in production (DRS, PAPERS.md). This module computes the three we
//! report, as pure functions of a `(time, value)` series — typically the
//! applied pacing-target series from [`crate::event::TraceEvent::PaceDecision`]
//! events:
//!
//! * **Convergence time** after a disturbance: how long after `disturb_at`
//!   the series takes to enter the ±`tolerance` band around its final
//!   steady value *and never leave it again*.
//! * **Oscillation count** per window: direction reversals whose amplitude
//!   exceeds `min_amplitude` (relative to the steady value), counted with a
//!   zigzag pivot scan so micro-jitter below the threshold is ignored; a
//!   window with ≥ 2 such reversals (a full swing) counts as *oscillating*,
//!   and "zero sustained oscillation" means no window oscillates.
//! * **Peak overshoot**: the largest relative excursion from the steady
//!   value after the disturbance.

use vtime::{Micros, SimTime};

/// Analysis parameters for [`stability`].
#[derive(Debug, Clone, Copy)]
pub struct StabilitySpec {
    /// Disturbance onset; convergence/overshoot are measured after this.
    pub disturb_at: SimTime,
    /// End of the analysis window.
    pub until: SimTime,
    /// Relative half-width of the "converged" band around the steady value.
    pub tolerance: f64,
    /// Sub-window length for oscillation counting.
    pub window: Micros,
    /// Minimum relative amplitude for a swing to count as a reversal.
    pub min_amplitude: f64,
}

impl StabilitySpec {
    /// The oscillation criterion of the stability experiment and of `repro
    /// doctor`, over `[disturb_at, until)`: a ±10% convergence band, 1 s
    /// windows, and a 6% reversal amplitude. The amplitude is calibrated
    /// against the guardrail laws: hysteresis moves in ≤5% steps, so a
    /// single band-leak step can never register as a reversal, while the
    /// raw oracle's lognormal service noise (σ = 0.12) swings well past 6%.
    #[must_use]
    pub fn new(disturb_at: SimTime, until: SimTime) -> Self {
        StabilitySpec {
            disturb_at,
            until,
            tolerance: 0.10,
            window: Micros::from_secs(1),
            min_amplitude: 0.06,
        }
    }
}

/// Stability verdict for one `(time, value)` series. All quantities are
/// relative to `steady_value`, the mean of the series tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityReport {
    /// Mean of the last quarter of the analysis window — the operating
    /// point the series settled on.
    pub steady_value: f64,
    /// Time from the disturbance until the series last left the tolerance
    /// band (`Some(0)` when it never left it). `None`: never converged —
    /// the series was still outside the band at the end of the window.
    pub convergence: Option<Micros>,
    /// Direction reversals above the amplitude threshold after the
    /// disturbance.
    pub reversals: u64,
    /// Sub-windows with ≥ 2 reversals — sustained oscillation.
    pub oscillating_windows: u64,
    /// Total sub-windows in the analysis span.
    pub windows: u64,
    /// Peak relative excursion from the steady value after the disturbance
    /// (0.30 = 30% overshoot).
    pub peak_overshoot: f64,
    /// Samples analysed (after `disturb_at`).
    pub samples: usize,
}

impl StabilityReport {
    /// No sustained oscillation anywhere in the window.
    #[must_use]
    pub fn is_oscillation_free(&self) -> bool {
        self.oscillating_windows == 0
    }
}

/// Analyse a time series for convergence, oscillation, and overshoot.
/// Samples must be in nondecreasing time order; samples outside
/// `[disturb_at, until)` are ignored (the tail mean uses the last quarter
/// of what remains). Empty input yields a zeroed report.
#[must_use]
pub fn stability(samples: &[(SimTime, f64)], spec: &StabilitySpec) -> StabilityReport {
    let xs: Vec<(SimTime, f64)> = samples
        .iter()
        .copied()
        .filter(|(t, v)| *t >= spec.disturb_at && *t < spec.until && v.is_finite())
        .collect();
    if xs.is_empty() {
        return StabilityReport {
            steady_value: 0.0,
            convergence: None,
            reversals: 0,
            oscillating_windows: 0,
            windows: 0,
            peak_overshoot: 0.0,
            samples: 0,
        };
    }

    // Steady value: mean of the last quarter (at least one sample).
    let tail = &xs[xs.len() - (xs.len() / 4).max(1)..];
    let steady: f64 = tail.iter().map(|(_, v)| v).sum::<f64>() / tail.len() as f64;
    let scale = steady.abs().max(1e-9);

    // Convergence: the last time the series sat outside the tolerance band.
    // Scanned over a trailing median-of-5 smoothing of the series, so that
    // one or two noise outliers near the end of the window cannot flip the
    // verdict to "never converged" — the metric tracks the control
    // trajectory's settling, not individual noisy decisions. (Reversal and
    // overshoot counting below deliberately stay on the raw series.)
    let band = spec.tolerance * scale;
    let smoothed: Vec<(SimTime, f64)> = xs
        .iter()
        .enumerate()
        .map(|(i, &(t, _))| {
            let lo = i.saturating_sub(4);
            let mut w: Vec<f64> = xs[lo..=i].iter().map(|(_, v)| *v).collect();
            w.sort_by(|a, b| a.total_cmp(b));
            (t, w[w.len() / 2])
        })
        .collect();
    let last_outside = smoothed
        .iter()
        .rev()
        .find(|(_, v)| (v - steady).abs() > band)
        .map(|(t, _)| *t);
    let convergence = match last_outside {
        None => Some(Micros::ZERO),
        Some(t) if t == xs[xs.len() - 1].0 => None, // still outside at the end
        Some(t) => Some(t.since(spec.disturb_at)),
    };

    // Zigzag reversal scan: track the extreme since the last confirmed
    // pivot; a move of > threshold against the current direction is one
    // reversal. The first threshold-crossing move sets the direction for
    // free (a step response is not an oscillation).
    let thr = spec.min_amplitude * scale;
    let mut reversal_times: Vec<SimTime> = Vec::new();
    let mut dir: i8 = 0;
    let mut extreme = xs[0].1;
    for &(t, v) in &xs[1..] {
        match dir {
            0 => {
                if (v - extreme).abs() > thr {
                    dir = if v > extreme { 1 } else { -1 };
                    extreme = v;
                }
            }
            1 => {
                if v > extreme {
                    extreme = v;
                } else if extreme - v > thr {
                    dir = -1;
                    extreme = v;
                    reversal_times.push(t);
                }
            }
            _ => {
                if v < extreme {
                    extreme = v;
                } else if v - extreme > thr {
                    dir = 1;
                    extreme = v;
                    reversal_times.push(t);
                }
            }
        }
    }

    // Bucket reversals into fixed sub-windows.
    let span_end = spec
        .until
        .as_micros()
        .min(xs[xs.len() - 1].0.as_micros() + 1);
    let span = span_end.saturating_sub(spec.disturb_at.as_micros());
    let wlen = spec.window.as_micros().max(1);
    let windows = span.div_ceil(wlen);
    let mut per_window = vec![0u64; windows as usize];
    for t in &reversal_times {
        let idx = (t.as_micros() - spec.disturb_at.as_micros()) / wlen;
        if let Some(c) = per_window.get_mut(idx as usize) {
            *c += 1;
        }
    }
    let oscillating_windows = per_window.iter().filter(|&&c| c >= 2).count() as u64;

    let peak_overshoot = xs
        .iter()
        .map(|(_, v)| (v - steady).abs() / scale)
        .fold(0.0f64, f64::max);

    StabilityReport {
        steady_value: steady,
        convergence,
        reversals: reversal_times.len() as u64,
        oscillating_windows,
        windows,
        peak_overshoot,
        samples: xs.len(),
    }
}

/// Extract the applied pacing-target series for `node` from a trace.
#[must_use]
pub fn pace_target_series(trace: &crate::Trace, node: aru_core::NodeId) -> Vec<(SimTime, f64)> {
    trace
        .iter()
        .filter_map(|e| match e {
            crate::event::TraceEvent::PaceDecision {
                t, node: n, target, ..
            } if n == node => Some((t, target.as_micros() as f64)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(u64, f64)]) -> Vec<(SimTime, f64)> {
        points.iter().map(|&(t, v)| (SimTime(t), v)).collect()
    }

    fn spec(until: u64) -> StabilitySpec {
        StabilitySpec {
            disturb_at: SimTime(0),
            until: SimTime(until),
            tolerance: 0.05,
            window: Micros(1_000_000),
            min_amplitude: 0.05,
        }
    }

    #[test]
    fn constant_series_is_perfectly_stable() {
        let xs: Vec<_> = (0..50).map(|i| (SimTime(i * 100_000), 200.0)).collect();
        let r = stability(&xs, &spec(10_000_000));
        assert_eq!(r.steady_value, 200.0);
        assert_eq!(r.convergence, Some(Micros::ZERO));
        assert_eq!(r.reversals, 0);
        assert!(r.is_oscillation_free());
        assert_eq!(r.peak_overshoot, 0.0);
    }

    #[test]
    fn step_response_converges_without_oscillating() {
        // Step from 100 to 200 at t=1s, exponential-ish approach.
        let mut xs = Vec::new();
        for i in 0..10 {
            xs.push((SimTime(i * 100_000), 100.0));
        }
        let mut v = 100.0;
        for i in 10..60 {
            v += (200.0 - v) * 0.3;
            xs.push((SimTime(i * 100_000), v));
        }
        let r = stability(&xs, &spec(6_000_000));
        assert!((r.steady_value - 200.0).abs() < 2.0);
        let c = r.convergence.expect("converges").as_micros();
        assert!(c > 1_000_000 && c < 3_000_000, "convergence at {c}");
        // One monotone approach: no reversal above 5% of 200.
        assert_eq!(r.reversals, 0, "step is not oscillation");
        assert!(r.is_oscillation_free());
        // Overshoot here measures the pre-step excursion below steady.
        assert!(r.peak_overshoot > 0.4);
    }

    #[test]
    fn square_wave_counts_reversals_and_windows() {
        // 200 ↔ 300 square wave, toggling every 250 ms for 8 s.
        let mut xs = Vec::new();
        for i in 0..160u64 {
            let v = if (i / 5) % 2 == 0 { 200.0 } else { 300.0 };
            xs.push((SimTime(i * 50_000), v));
        }
        let r = stability(&xs, &spec(8_000_000));
        assert!(r.reversals >= 25, "reversals {}", r.reversals);
        assert!(
            r.oscillating_windows >= 6,
            "windows {}",
            r.oscillating_windows
        );
        assert!(!r.is_oscillation_free());
        assert_eq!(r.convergence, None, "square wave never converges");
    }

    #[test]
    fn micro_jitter_below_threshold_is_ignored() {
        // ±1% jitter around 1000: far below the 5% amplitude threshold.
        let xs: Vec<_> = (0..100)
            .map(|i| {
                (
                    SimTime(i * 50_000),
                    1000.0 + if i % 2 == 0 { 10.0 } else { -10.0 },
                )
            })
            .collect();
        let r = stability(&xs, &spec(5_000_000));
        assert_eq!(r.reversals, 0);
        assert!(r.is_oscillation_free());
        assert_eq!(r.convergence, Some(Micros::ZERO));
    }

    #[test]
    fn disturb_at_filters_earlier_samples() {
        let xs = series(&[
            (0, 999.0),
            (1_000_000, 100.0),
            (2_000_000, 100.0),
            (3_000_000, 100.0),
        ]);
        let s = StabilitySpec {
            disturb_at: SimTime(1_000_000),
            ..spec(4_000_000)
        };
        let r = stability(&xs, &s);
        assert_eq!(r.samples, 3);
        assert_eq!(r.steady_value, 100.0);
        assert_eq!(r.peak_overshoot, 0.0, "pre-disturbance outlier excluded");
    }

    #[test]
    fn empty_series_yields_zeroed_report() {
        let r = stability(&[], &spec(u64::MAX));
        assert_eq!(r.samples, 0);
        assert_eq!(r.convergence, None);
        assert!(r.is_oscillation_free());
    }

    #[test]
    fn overshoot_measures_peak_excursion() {
        // Overshoots to 390 then settles at 300: (390-300)/300 = 30%.
        let mut xs = series(&[(0, 300.0), (100, 390.0), (200, 340.0)]);
        for i in 3..40 {
            xs.push((SimTime(i * 100), 300.0));
        }
        let r = stability(&xs, &spec(10_000));
        assert!((r.steady_value - 300.0).abs() < 1.0);
        assert!(
            (r.peak_overshoot - 0.30).abs() < 0.02,
            "overshoot {}",
            r.peak_overshoot
        );
    }

    #[test]
    fn pace_target_series_pulls_the_right_events() {
        use crate::event::{IterKey, TraceEvent};
        use aru_core::NodeId;
        let n = NodeId(3);
        let events = vec![
            TraceEvent::PaceDecision {
                t: SimTime(10),
                node: n,
                raw: Micros(500),
                target: Micros(450),
                clamped: true,
            },
            TraceEvent::PaceDecision {
                t: SimTime(20),
                node: NodeId(9),
                raw: Micros(1),
                target: Micros(1),
                clamped: false,
            },
            TraceEvent::IterEnd {
                t: SimTime(100),
                iter: IterKey::new(n, 0),
                busy: Micros(30),
            },
            TraceEvent::IterEnd {
                t: SimTime(400),
                iter: IterKey::new(n, 1),
                busy: Micros(30),
            },
        ];
        let trace = crate::Trace::from_events(events, 0);
        assert_eq!(pace_target_series(&trace, n), vec![(SimTime(10), 450.0)]);
    }
}
