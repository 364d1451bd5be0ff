//! The Ideal Garbage Collector (IGC) — a postmortem bound, not a runtime
//! collector.
//!
//! Paper §4: *"IGC gives a theoretical lower limit for the memory footprint
//! by performing a postmortem analysis of the execution trace of an
//! application. IGC simulates a GC that can eliminate all unnecessary
//! computations (i.e. computations on frames that do not make it all the way
//! through the pipeline) and associated memory usage. Needless to say, IGC
//! is not realizable in practice since it requires future knowledge of
//! dropped frames."*
//!
//! Our measurement trace *is* that future knowledge: [`IdealGc::analyze`]
//! runs the exact lineage analysis and reconstructs the footprint an
//! omniscient collector would have achieved, plus the computation an
//! omniscient scheduler would have spent.

use aru_metrics::footprint::ideal_series;
use aru_metrics::{Lineage, Trace};
use vtime::{Micros, SimTime, Summary, TimeWeightedSeries};

/// IGC postmortem result.
#[derive(Debug, Clone)]
pub struct IdealGc {
    /// The ideal live-bytes step function.
    pub series: TimeWeightedSeries,
    /// End of run used for the summary.
    pub t_end: SimTime,
    /// Busy time an ideal system would have spent (useful iterations only).
    pub useful_computation: Micros,
    /// Items an ideal system would have materialized.
    pub useful_items: usize,
}

impl IdealGc {
    /// Run the postmortem over a trace.
    #[must_use]
    pub fn analyze(trace: &Trace, t_end: SimTime) -> IdealGc {
        let lineage = Lineage::analyze(trace);
        Self::from_lineage(&lineage, t_end)
    }

    /// Run the postmortem over a pre-computed lineage (cheaper when the
    /// caller already has one).
    #[must_use]
    pub fn from_lineage(lineage: &Lineage, t_end: SimTime) -> IdealGc {
        let series = ideal_series(lineage, t_end);
        let useful_computation = lineage
            .iterations()
            .iter()
            .filter(|it| it.used)
            .fold(Micros::ZERO, |acc, it| acc + it.busy);
        let (_, useful_items) = lineage.item_counts();
        IdealGc {
            series,
            t_end,
            useful_computation,
            useful_items,
        }
    }

    /// Time-weighted mean/σ of the ideal footprint.
    #[must_use]
    pub fn summary(&self) -> Summary {
        self.series.weighted_summary(self.t_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aru_core::graph::NodeId;
    use aru_metrics::{IterKey, TraceEvent, TraceSink};
    use vtime::Timestamp;

    #[test]
    fn igc_counts_only_useful_work() {
        let mut tr = Trace::new();
        let src0 = IterKey::new(NodeId(0), 0);
        let src1 = IterKey::new(NodeId(0), 1);
        let sink = IterKey::new(NodeId(2), 0);
        let good = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, src0);
        tr.record(TraceEvent::IterEnd {
            t: SimTime(10),
            iter: src0,
            busy: Micros(10),
        });
        let _bad = tr.alloc(SimTime(10), NodeId(1), Timestamp(1), 100, src1);
        tr.record(TraceEvent::IterEnd {
            t: SimTime(20),
            iter: src1,
            busy: Micros(10),
        });
        tr.get(SimTime(30), good, sink);
        tr.sink_output(SimTime(31), sink, Timestamp(0));
        tr.record(TraceEvent::IterEnd {
            t: SimTime(32),
            iter: sink,
            busy: Micros(2),
        });

        let igc = IdealGc::analyze(&tr, SimTime(100));
        assert_eq!(igc.useful_items, 1);
        assert_eq!(igc.useful_computation, Micros(12));
        // ideal footprint: 100 B alive on [0, 32) — from allocation until
        // the consuming sink iteration *completes* — out of [0, 100)
        let s = igc.summary();
        assert!((s.mean - 32.0).abs() < 1e-9, "mean {}", s.mean);
    }

    #[test]
    fn igc_of_empty_trace() {
        let igc = IdealGc::analyze(&Trace::new(), SimTime(10));
        assert_eq!(igc.useful_items, 0);
        assert_eq!(igc.useful_computation, Micros::ZERO);
        assert_eq!(igc.summary(), Summary::EMPTY);
    }
}
