//! Time-weighted series: the paper's memory-footprint integrals.
//!
//! Section 4 of the paper defines the mean memory footprint as
//!
//! ```text
//! MUμ = Σ( MU_{t_{i+1}} · (t_{i+1} − t_i) ) / (t_N − t_0)
//! MUσ = sqrt( Σ( (MUμ − MU_{t_{i+1}})² · (t_{i+1} − t_i) ) / (t_N − t_0) )
//! ```
//!
//! i.e. a step function integrated over time. [`TimeWeightedSeries`] records
//! `(time, value)` step samples and computes exactly these quantities, plus
//! downsampled views for the Figure 8/9 time-series plots.

use crate::stats::Summary;
use crate::timestamp::{Micros, SimTime};
use serde::{Deserialize, Serialize};

/// A right-continuous step function sampled at change points.
///
/// `push(t, v)` means "from time `t` onwards the value is `v`". Pushes must
/// be time-monotonic (equal times replace the value at that instant).
///
/// ```
/// use vtime::{SimTime, TimeWeightedSeries};
/// let mut s = TimeWeightedSeries::new();
/// s.push(SimTime(0), 10.0);   // 10 bytes live on [0, 10)
/// s.push(SimTime(10), 30.0);  // 30 bytes live on [10, 20)
/// let mu = s.weighted_summary(SimTime(20));
/// assert_eq!(mu.mean, 20.0);    // the paper's MUμ
/// assert_eq!(mu.std_dev, 10.0); // the paper's MUσ
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeWeightedSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeWeightedSeries {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the value becomes `v` at time `t`.
    ///
    /// # Panics
    /// Panics if `t` precedes the last recorded time (debug builds).
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(last) = self.points.last_mut() {
            debug_assert!(last.0 <= t, "series time went backwards");
            if last.0 == t {
                last.1 = v;
                return;
            }
            // Collapse consecutive identical values to bound memory: the
            // tracker run emits millions of alloc/free events but the
            // footprint often revisits the same level.
            if (last.1 - v).abs() < f64::EPSILON {
                return;
            }
        }
        self.points.push((t, v));
    }

    /// Number of stored change points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw change points (time, value).
    #[must_use]
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Value at time `t` (the most recent change point at or before `t`);
    /// 0.0 before the first point.
    #[must_use]
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => 0.0,
            i => self.points[i - 1].1,
        }
    }

    /// Maximum value ever recorded (peak footprint).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Time-weighted integral statistics over `[t0, t_end]`, where `t0` is
    /// the first change point and `t_end` is supplied by the caller (end of
    /// run). Returns [`Summary::EMPTY`] for an empty window.
    #[must_use]
    pub fn weighted_summary(&self, t_end: SimTime) -> Summary {
        if self.points.is_empty() {
            return Summary::EMPTY;
        }
        let t0 = self.points[0].0;
        if t_end <= t0 {
            return Summary::EMPTY;
        }
        let total = t_end.since(t0).as_micros() as f64;
        let mut mean_acc = 0.0;
        let mut n = 0u64;
        for w in self.windows(t_end) {
            mean_acc += w.value * w.width.as_micros() as f64;
            n += 1;
        }
        let mean = mean_acc / total;
        let mut var_acc = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for w in self.windows(t_end) {
            let d = w.value - mean;
            var_acc += d * d * w.width.as_micros() as f64;
            min = min.min(w.value);
            max = max.max(w.value);
        }
        Summary {
            n,
            mean,
            std_dev: (var_acc / total).sqrt(),
            min,
            max,
        }
    }

    fn windows(&self, t_end: SimTime) -> impl Iterator<Item = Window> + '_ {
        let pts = &self.points;
        (0..pts.len()).filter_map(move |i| {
            let (t, v) = pts[i];
            let next = if i + 1 < pts.len() {
                pts[i + 1].0
            } else {
                t_end
            };
            let next = next.min(t_end);
            if next <= t {
                return None;
            }
            Some(Window {
                value: v,
                width: next.since(t),
            })
        })
    }

    /// Downsample to at most `buckets` points by averaging within equal time
    /// buckets over `[first, t_end]` — used to emit plottable Figure 8/9
    /// series without millions of rows.
    #[must_use]
    pub fn downsample(&self, t_end: SimTime, buckets: usize) -> Vec<(SimTime, f64)> {
        if self.points.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let t0 = self.points[0].0;
        let span = t_end.since(t0).as_micros();
        if span == 0 {
            return vec![(t0, self.points[0].1)];
        }
        let bucket_w = span.div_ceil(buckets as u64).max(1);
        let mut out = Vec::with_capacity(buckets);
        let mut acc = 0.0f64;
        let mut acc_w = 0u64;
        let mut bucket_end = t0 + Micros(bucket_w);
        for w in self.windows_bounded(t_end) {
            let (mut start, value) = (w.0, w.2);
            let end = w.1;
            while start < end {
                let seg_end = end.min(bucket_end);
                let width = seg_end.since(start).as_micros();
                acc += value * width as f64;
                acc_w += width;
                start = seg_end;
                if start >= bucket_end {
                    if acc_w > 0 {
                        out.push((bucket_end, acc / acc_w as f64));
                    }
                    acc = 0.0;
                    acc_w = 0;
                    bucket_end = bucket_end + Micros(bucket_w);
                }
            }
        }
        if acc_w > 0 {
            out.push((bucket_end, acc / acc_w as f64));
        }
        out
    }

    fn windows_bounded(
        &self,
        t_end: SimTime,
    ) -> impl Iterator<Item = (SimTime, SimTime, f64)> + '_ {
        let pts = &self.points;
        (0..pts.len()).filter_map(move |i| {
            let (t, v) = pts[i];
            let next = if i + 1 < pts.len() {
                pts[i + 1].0
            } else {
                t_end
            };
            let next = next.min(t_end);
            (next > t).then_some((t, next, v))
        })
    }
}

struct Window {
    value: f64,
    width: Micros,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs() + b.abs())
    }

    #[test]
    fn empty_series() {
        let s = TimeWeightedSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.weighted_summary(SimTime(100)), Summary::EMPTY);
        assert_eq!(s.value_at(SimTime(5)), 0.0);
        assert_eq!(s.peak(), 0.0);
    }

    #[test]
    fn step_function_mean() {
        // value 10 on [0,10), 30 on [10,20) -> mean 20 over [0,20)
        let mut s = TimeWeightedSeries::new();
        s.push(SimTime(0), 10.0);
        s.push(SimTime(10), 30.0);
        let sum = s.weighted_summary(SimTime(20));
        assert!(close(sum.mean, 20.0));
        assert!(close(sum.std_dev, 10.0));
        assert_eq!(sum.min, 10.0);
        assert_eq!(sum.max, 30.0);
    }

    #[test]
    fn paper_formula_spotcheck() {
        // MU values 5 (width 2), 1 (width 8): mean = (5*2 + 1*8)/10 = 1.8
        let mut s = TimeWeightedSeries::new();
        s.push(SimTime(100), 5.0);
        s.push(SimTime(102), 1.0);
        let sum = s.weighted_summary(SimTime(110));
        assert!(close(sum.mean, 1.8));
        let var = ((5.0f64 - 1.8).powi(2) * 2.0 + (1.0f64 - 1.8).powi(2) * 8.0) / 10.0;
        assert!(close(sum.std_dev, var.sqrt()));
    }

    #[test]
    fn value_at_and_peak() {
        let mut s = TimeWeightedSeries::new();
        s.push(SimTime(10), 1.0);
        s.push(SimTime(20), 5.0);
        s.push(SimTime(30), 2.0);
        assert_eq!(s.value_at(SimTime(5)), 0.0);
        assert_eq!(s.value_at(SimTime(10)), 1.0);
        assert_eq!(s.value_at(SimTime(25)), 5.0);
        assert_eq!(s.value_at(SimTime(99)), 2.0);
        assert_eq!(s.peak(), 5.0);
    }

    #[test]
    fn equal_time_replaces() {
        let mut s = TimeWeightedSeries::new();
        s.push(SimTime(10), 1.0);
        s.push(SimTime(10), 7.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(SimTime(10)), 7.0);
    }

    #[test]
    fn identical_values_collapse() {
        let mut s = TimeWeightedSeries::new();
        s.push(SimTime(10), 3.0);
        s.push(SimTime(20), 3.0);
        s.push(SimTime(30), 4.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn downsample_preserves_mean() {
        let mut s = TimeWeightedSeries::new();
        for i in 0..1000u64 {
            s.push(SimTime(i * 10), (i % 7) as f64);
        }
        let t_end = SimTime(10_000);
        let exact = s.weighted_summary(t_end).mean;
        let ds = s.downsample(t_end, 50);
        assert!(ds.len() <= 51);
        // bucket means, equally weighted, approximate the global mean
        let approx: f64 = ds.iter().map(|&(_, v)| v).sum::<f64>() / ds.len() as f64;
        assert!(
            (approx - exact).abs() < 0.5,
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn summary_window_clamps_to_t_end() {
        let mut s = TimeWeightedSeries::new();
        s.push(SimTime(0), 2.0);
        s.push(SimTime(100), 50.0); // after t_end, ignored
        let sum = s.weighted_summary(SimTime(50));
        assert!(close(sum.mean, 2.0));
    }
}
