//! Order statistics on small samples: median, interpolated percentiles, and
//! the choosing-metrics rule for the tail ("the highest percentile that has
//! at least ten samples beyond it").

/// Sort a sample in place (NaN-free input is the caller's contract; the
/// benchmark only feeds measured durations and counts).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
}

/// Percentile `p` in `[0, 100]` of an ascending-sorted sample, linearly
/// interpolated between neighbours (so a percentile of integer-valued
/// microsecond samples still carries the digits between them).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile_sorted(&v, 50.0)
}

/// The highest of the candidate percentiles (50, 90, 95, 99, 99.9) that
/// still has at least ten samples beyond it; `None` below 20 samples, where
/// not even the median has ten samples on its far side.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, share of the sample beyond it in 1/1000): whole-number
    // arithmetic, so 10 000 samples support p99.9 exactly.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (50.0, 500)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10 * 1_000)
        .map(|(p, _)| p)
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes — the acceptance
/// rule for run-to-run spread is stated in those terms.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentiles_interpolate_between_neighbours() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 0.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert!((percentile_sorted(&[10.0, 20.0], 25.0) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
