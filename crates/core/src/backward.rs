//! The per-node backward-STP vector (paper Figure 3).
//!
//! Every node keeps one slot per *output connection*; the slot holds the
//! most recent summary-STP reported by the downstream node on that
//! connection. Values are overwritten in place — the feedback loop only ever
//! cares about the latest report.

use crate::compress::CompressOp;
use crate::stp::Stp;

/// `backwardSTP` vector: latest summary-STP per output connection.
#[derive(Debug, Clone, Default)]
pub struct BackwardStpVec {
    slots: Vec<Option<Stp>>,
    /// Scratch buffer for compression, reused to avoid per-put/get
    /// allocation on the hot path (the paper argues the mechanism's cost is
    /// "a simple min/max operation on very small vectors").
    scratch: Vec<Stp>,
}

impl BackwardStpVec {
    /// Create a vector with `n` output-connection slots, all unknown.
    #[must_use]
    pub fn new(n: usize) -> Self {
        BackwardStpVec {
            slots: vec![None; n],
            scratch: Vec::with_capacity(n),
        }
    }

    /// Grow to accommodate output connection `i` (connections may attach
    /// after node creation in Stampede).
    pub fn ensure_slot(&mut self, i: usize) {
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
    }

    /// Record the summary-STP received from downstream on output connection
    /// `i` (paper: "Update backwardSTP\[i\] with received summary-STP value").
    pub fn update(&mut self, i: usize, stp: Stp) {
        self.ensure_slot(i);
        self.slots[i] = Some(stp);
    }

    /// Compute the compressed-backwardSTP with the given operator over the
    /// currently-known slots. `None` until at least one consumer reported.
    pub fn compressed(&mut self, op: &CompressOp) -> Option<Stp> {
        self.scratch.clear();
        self.scratch.extend(self.slots.iter().copied().flatten());
        op.compress(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unknown() {
        let mut v = BackwardStpVec::new(3);
        assert_eq!(v.compressed(&CompressOp::Min), None);
        assert_eq!(v.compressed(&CompressOp::Max), None);
    }

    #[test]
    fn update_and_compress_partial() {
        let mut v = BackwardStpVec::new(3);
        v.update(1, Stp::from_micros(200));
        // unknown slots are ignored, not treated as zero
        assert_eq!(v.compressed(&CompressOp::Min), Some(Stp::from_micros(200)));
        v.update(0, Stp::from_micros(500));
        assert_eq!(v.compressed(&CompressOp::Min), Some(Stp::from_micros(200)));
        assert_eq!(v.compressed(&CompressOp::Max), Some(Stp::from_micros(500)));
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut v = BackwardStpVec::new(1);
        v.update(0, Stp::from_micros(100));
        v.update(0, Stp::from_micros(900));
        assert_eq!(v.compressed(&CompressOp::Min), Some(Stp::from_micros(900)));
        assert_eq!(v.compressed(&CompressOp::Max), Some(Stp::from_micros(900)));
    }

    #[test]
    fn ensure_slot_grows() {
        let mut v = BackwardStpVec::new(0);
        v.update(4, Stp::from_micros(50));
        // Slots 0-3 were created empty: the one known value is both bounds.
        assert_eq!(v.compressed(&CompressOp::Min), Some(Stp::from_micros(50)));
        assert_eq!(v.compressed(&CompressOp::Max), Some(Stp::from_micros(50)));
        v.update(2, Stp::from_micros(80));
        assert_eq!(v.compressed(&CompressOp::Max), Some(Stp::from_micros(80)));
    }

    #[test]
    fn paper_figure3_full_vector() {
        let mut v = BackwardStpVec::new(5);
        for (i, &s) in [337u64, 139, 273, 544, 420].iter().enumerate() {
            v.update(i, Stp::from_micros(s));
        }
        assert_eq!(v.compressed(&CompressOp::Min), Some(Stp::from_micros(139)));
        assert_eq!(v.compressed(&CompressOp::Max), Some(Stp::from_micros(544)));
    }
}
