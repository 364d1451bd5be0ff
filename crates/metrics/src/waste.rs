//! Wasted-resource accounting (paper §4, Figure 7).
//!
//! * **% wasted computation** — "the cumulative execution times spent on
//!   items that were dropped at some stage in the pipeline" over "the work
//!   done (execution time) by all tasks … excluding blocking and sleep
//!   time": the busy time of lineage-wasted iterations divided by total
//!   busy time.
//! * **% wasted memory** — "the ratio between the wasted memory (integrated
//!   over time just as mean memory footprint) and the total memory usage":
//!   the byte·time integral of wasted items' lifetimes over the byte·time
//!   integral of all items' lifetimes.

use crate::lineage::Lineage;
use serde::{Deserialize, Serialize};
use vtime::{Micros, SimTime};

/// The Figure-7 quantities for one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WasteReport {
    /// Byte·microsecond integral over every item's lifetime.
    pub total_byte_time: f64,
    /// Byte·microsecond integral over lineage-wasted items only.
    pub wasted_byte_time: f64,
    /// Total busy time across all iterations.
    pub total_computation: Micros,
    /// Busy time of lineage-wasted iterations.
    pub wasted_computation: Micros,
    /// Items allocated / items wasted.
    pub total_items: usize,
    pub wasted_items: usize,
}

impl WasteReport {
    /// Compute the report from a lineage analysis. `t_end` bounds the
    /// lifetime of items never freed during the run. Sums run in `ItemId`
    /// and first-seen iteration order: a function of the trace alone.
    #[must_use]
    pub fn compute(lineage: &Lineage, t_end: SimTime) -> WasteReport {
        let mut total_bt = 0.0;
        let mut wasted_bt = 0.0;
        let mut wasted_items = 0usize;
        for (_, rec) in lineage.items() {
            let free = rec.free_t().unwrap_or(t_end).min(t_end);
            let life = free.since(rec.alloc_t).as_micros() as f64;
            let bt = rec.bytes as f64 * life;
            total_bt += bt;
            if !rec.used {
                wasted_bt += bt;
                wasted_items += 1;
            }
        }
        let mut total_comp = Micros::ZERO;
        let mut wasted_comp = Micros::ZERO;
        for iter in lineage.iterations() {
            total_comp += iter.busy;
            if !iter.used {
                wasted_comp += iter.busy;
            }
        }
        WasteReport {
            total_byte_time: total_bt,
            wasted_byte_time: wasted_bt,
            total_computation: total_comp,
            wasted_computation: wasted_comp,
            total_items: lineage.item_counts().0,
            wasted_items,
        }
    }

    /// Percentage of the memory footprint that was wasted (0–100).
    #[must_use]
    pub fn pct_memory_wasted(&self) -> f64 {
        if self.total_byte_time <= 0.0 {
            0.0
        } else {
            100.0 * self.wasted_byte_time / self.total_byte_time
        }
    }

    /// Percentage of computation that was wasted (0–100).
    #[must_use]
    pub fn pct_computation_wasted(&self) -> f64 {
        let total = self.total_computation.as_micros();
        if total == 0 {
            0.0
        } else {
            100.0 * self.wasted_computation.as_micros() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{IterKey, TraceEvent};
    use crate::trace::{Trace, TraceSink};
    use aru_core::graph::NodeId;
    use vtime::Timestamp;

    /// One useful item (100 B alive 10us) + one wasted (100 B alive 30us):
    /// 75% of byte·time wasted. Source iteration busy 10 each; one useful.
    #[test]
    fn percentages_from_known_trace() {
        let src0 = IterKey::new(NodeId(0), 0);
        let src1 = IterKey::new(NodeId(0), 1);
        let sink = IterKey::new(NodeId(2), 0);
        let mut tr = Trace::new();
        let good = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, src0);
        tr.get(SimTime(5), good, sink);
        tr.sink_output(SimTime(6), sink, Timestamp(0));
        tr.record(TraceEvent::IterEnd {
            t: SimTime(7),
            iter: sink,
            busy: Micros(2),
        });
        tr.record(TraceEvent::IterEnd {
            t: SimTime(10),
            iter: src0,
            busy: Micros(10),
        });
        let bad = tr.alloc(SimTime(10), NodeId(1), Timestamp(1), 100, src1);
        tr.free(SimTime(10), good);
        tr.record(TraceEvent::IterEnd {
            t: SimTime(20),
            iter: src1,
            busy: Micros(10),
        });
        tr.free(SimTime(40), bad);

        let lin = Lineage::analyze(&tr);
        let w = WasteReport::compute(&lin, SimTime(100));
        assert_eq!(w.total_items, 2);
        assert_eq!(w.wasted_items, 1);
        // good: 100 B × 10us = 1000; bad: 100 B × 30us = 3000
        assert!((w.pct_memory_wasted() - 75.0).abs() < 1e-9);
        // busy: 10 (useful) + 10 (wasted) + 2 (sink, useful) => 10/22
        assert!((w.pct_computation_wasted() - 100.0 * 10.0 / 22.0).abs() < 1e-9);
    }

    #[test]
    fn unfreed_items_extend_to_t_end() {
        let src0 = IterKey::new(NodeId(0), 0);
        let mut tr = Trace::new();
        let _leak = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 10, src0);
        let lin = Lineage::analyze(&tr);
        let w = WasteReport::compute(&lin, SimTime(50));
        assert_eq!(w.total_byte_time, 500.0);
        assert_eq!(w.pct_memory_wasted(), 100.0);
    }

    #[test]
    fn empty_run_is_zero_not_nan() {
        let lin = Lineage::analyze(&Trace::new());
        let w = WasteReport::compute(&lin, SimTime(100));
        assert_eq!(w.pct_memory_wasted(), 0.0);
        assert_eq!(w.pct_computation_wasted(), 0.0);
    }

    #[test]
    fn all_useful_run_wastes_nothing() {
        let src0 = IterKey::new(NodeId(0), 0);
        let sink = IterKey::new(NodeId(2), 0);
        let mut tr = Trace::new();
        let item = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 10, src0);
        tr.record(TraceEvent::IterEnd {
            t: SimTime(5),
            iter: src0,
            busy: Micros(5),
        });
        tr.get(SimTime(6), item, sink);
        tr.sink_output(SimTime(7), sink, Timestamp(0));
        tr.record(TraceEvent::IterEnd {
            t: SimTime(8),
            iter: sink,
            busy: Micros(2),
        });
        tr.free(SimTime(9), item);
        let lin = Lineage::analyze(&tr);
        let w = WasteReport::compute(&lin, SimTime(10));
        assert_eq!(w.pct_memory_wasted(), 0.0);
        assert_eq!(w.pct_computation_wasted(), 0.0);
    }
}
