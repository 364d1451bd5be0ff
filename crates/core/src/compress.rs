//! Compression operators for the backward-STP vector.
//!
//! Paper §3.3.2: *"The computation of the compressed-backwardSTP value
//! represents compressing the execution rate knowledge of consumer nodes.
//! This computation can be either done by using the default `min` operator,
//! which is a conservative approach, or with the help of a user-defined
//! function that captures data-dependencies between consumer nodes. For
//! complete data-dependency between all consumer nodes, the `max` operator
//! can be used."*

use crate::stp::Stp;
use std::fmt;
use std::sync::Arc;

/// Signature of a user-defined compression operator.
pub type CustomCompressFn = dyn Fn(&[Stp]) -> Option<Stp> + Send + Sync;

/// How a node folds the summary-STPs of its downstream consumers into one
/// *compressed-backwardSTP* value.
#[derive(Clone)]
pub enum CompressOp {
    /// Default, safe in all data-dependency cases: sustain the **fastest**
    /// consumer (smallest period) so that no consumer is ever starved.
    Min,
    /// Aggressive: match the **slowest** consumer (largest period). Only
    /// correct when the application writer knows all consumers feed a single
    /// downstream stage that dictates pipeline throughput (paper Figure 4).
    Max,
    /// A user-defined dependency-encoded operator. Receives the slots that
    /// currently hold a value; must return `None` only for an empty input.
    Custom(Arc<CustomCompressFn>),
}

impl CompressOp {
    /// Fold the known summary-STP values. `None` iff no value is known yet —
    /// before any feedback arrives a producer runs unthrottled, exactly like
    /// the baseline system.
    ///
    /// The paper's Figure 3/4 example — node A's consumers report 337, 139,
    /// 273, 544, 420 µs:
    ///
    /// ```
    /// use aru_core::{CompressOp, Stp};
    /// let v: Vec<Stp> = [337, 139, 273, 544, 420]
    ///     .map(Stp::from_micros).to_vec();
    /// assert_eq!(CompressOp::Min.compress(&v), Some(Stp::from_micros(139)));
    /// assert_eq!(CompressOp::Max.compress(&v), Some(Stp::from_micros(544)));
    /// ```
    #[must_use]
    pub fn compress(&self, known: &[Stp]) -> Option<Stp> {
        if known.is_empty() {
            return None;
        }
        match self {
            CompressOp::Min => known.iter().copied().reduce(Stp::min),
            CompressOp::Max => known.iter().copied().reduce(Stp::max),
            CompressOp::Custom(f) => {
                let v = f(known);
                debug_assert!(
                    v.is_some(),
                    "custom compress returned None on non-empty input"
                );
                // Guardrail (release builds): a broken custom operator must
                // not erase real consumer knowledge — fall back to the
                // conservative default instead of reporting "no feedback".
                v.or_else(|| known.iter().copied().reduce(Stp::min))
            }
        }
    }

    /// A custom operator computing the k-th smallest value (k is clamped to
    /// the populated length). `kth_smallest(0)` ≡ `Min`; a large `k` ≡ `Max`.
    /// Provided as a ready-made middle ground between the two built-ins.
    #[must_use]
    pub fn kth_smallest(k: usize) -> CompressOp {
        CompressOp::Custom(Arc::new(move |known: &[Stp]| {
            let mut v: Vec<Stp> = known.to_vec();
            v.sort_unstable();
            v.get(k.min(v.len() - 1)).copied()
        }))
    }

    /// A custom operator returning the mean period. Smoother than min/max
    /// under noisy consumers; the ablation
    /// `compress_operators_order_production_on_a_fanout` in
    /// `desim/tests/extensions.rs` orders it between the two.
    #[must_use]
    pub fn mean() -> CompressOp {
        CompressOp::Custom(Arc::new(|known: &[Stp]| {
            // u128 accumulator: a vector of near-u64::MAX periods (a
            // degenerate but representable STP series) must not overflow.
            let sum: u128 = known.iter().map(|s| u128::from(s.as_micros())).sum();
            Some(Stp::from_micros((sum / known.len() as u128) as u64))
        }))
    }
}

impl fmt::Debug for CompressOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressOp::Min => write!(f, "CompressOp::Min"),
            CompressOp::Max => write!(f, "CompressOp::Max"),
            CompressOp::Custom(_) => write!(f, "CompressOp::Custom(..)"),
        }
    }
}

impl Default for CompressOp {
    /// The paper's default is `min`: "The min operator is the default
    /// operator as it does not affect throughput and is safe to use in all
    /// data-dependency cases."
    fn default() -> Self {
        CompressOp::Min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stps(v: &[u64]) -> Vec<Stp> {
        v.iter().map(|&x| Stp::from_micros(x)).collect()
    }

    #[test]
    fn paper_figure3_example_min() {
        // Node A receives 337, 139, 273, 544, 420 from B–F; min picks C=139.
        let v = stps(&[337, 139, 273, 544, 420]);
        assert_eq!(CompressOp::Min.compress(&v), Some(Stp::from_micros(139)));
    }

    #[test]
    fn paper_figure4_example_max() {
        let v = stps(&[337, 139, 273, 544, 420]);
        assert_eq!(CompressOp::Max.compress(&v), Some(Stp::from_micros(544)));
    }

    #[test]
    fn empty_input_is_none() {
        assert_eq!(CompressOp::Min.compress(&[]), None);
        assert_eq!(CompressOp::Max.compress(&[]), None);
        assert_eq!(CompressOp::mean().compress(&[]), None);
    }

    #[test]
    fn single_value_is_identity_for_all_ops() {
        let v = stps(&[250]);
        for op in [
            CompressOp::Min,
            CompressOp::Max,
            CompressOp::mean(),
            CompressOp::kth_smallest(3),
        ] {
            assert_eq!(op.compress(&v), Some(Stp::from_micros(250)), "{op:?}");
        }
    }

    #[test]
    fn kth_smallest_orders() {
        let v = stps(&[500, 100, 300]);
        assert_eq!(
            CompressOp::kth_smallest(0).compress(&v),
            Some(Stp::from_micros(100))
        );
        assert_eq!(
            CompressOp::kth_smallest(1).compress(&v),
            Some(Stp::from_micros(300))
        );
        assert_eq!(
            CompressOp::kth_smallest(9).compress(&v),
            Some(Stp::from_micros(500))
        );
    }

    #[test]
    fn mean_compress() {
        let v = stps(&[100, 200, 300]);
        assert_eq!(CompressOp::mean().compress(&v), Some(Stp::from_micros(200)));
    }

    #[test]
    fn mean_does_not_overflow_on_huge_periods() {
        let v = vec![Stp::from_micros(u64::MAX - 1); 8];
        assert_eq!(
            CompressOp::mean().compress(&v),
            Some(Stp::from_micros(u64::MAX - 1))
        );
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn broken_custom_operator_falls_back_to_min() {
        let broken = CompressOp::Custom(Arc::new(|_: &[Stp]| None));
        let v = stps(&[300, 100]);
        assert_eq!(broken.compress(&v), Some(Stp::from_micros(100)));
    }

    #[test]
    fn min_le_max_always() {
        let v = stps(&[42, 17, 99, 3]);
        let lo = CompressOp::Min.compress(&v).unwrap();
        let hi = CompressOp::Max.compress(&v).unwrap();
        assert!(lo <= hi);
    }
}
