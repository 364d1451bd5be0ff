//! Simulated-run reports and postmortem bundles.

use aru_core::Topology;
use aru_gc::IdealGc;
use aru_metrics::{
    FaultReport, FootprintReport, Lineage, PerfReport, Telemetry, Trace, TraceEvent, WasteReport,
};
use vtime::SimTime;

/// Everything recorded during one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub trace: Trace,
    pub topo: Topology,
    pub t_end: SimTime,
    /// Iterations eliminated by DGC or abandoned joins.
    pub skipped_iterations: u64,
    /// Fault-injection telemetry (injected-fault counters by kind, restart
    /// count, recovery-latency histogram) — snapshot its registry and feed
    /// it to the [`aru_metrics::export`] serializers to persist it.
    pub telemetry: Telemetry,
    /// Total events the engine dispatched (the numerator of the events/s
    /// throughput figure).
    pub events_dispatched: u64,
    /// High-water mark of the pending-event set — the population the event
    /// queue actually had to order.
    pub peak_pending: usize,
}

impl SimReport {
    /// Number of sink outputs.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::SinkOutput { .. }))
            .count()
    }

    /// Per-thread execution statistics (named via the stored topology with
    /// [`aru_metrics::thread_stats::render_thread_stats`]).
    #[must_use]
    pub fn thread_stats(
        &self,
    ) -> std::collections::BTreeMap<aru_core::NodeId, aru_metrics::ThreadStats> {
        let lineage = Lineage::analyze(&self.trace);
        aru_metrics::thread_stats(&self.trace, &lineage)
    }

    /// Per-channel occupancy statistics.
    #[must_use]
    pub fn channel_stats(
        &self,
    ) -> std::collections::BTreeMap<aru_core::NodeId, aru_metrics::ChannelStats> {
        aru_metrics::channel_stats(&self.trace, self.t_end)
    }

    /// Run the full postmortem suite.
    #[must_use]
    pub fn analyze(&self) -> SimAnalysis {
        let lineage = Lineage::analyze(&self.trace);
        let footprint = FootprintReport::compute(&self.trace, &lineage, self.t_end);
        let waste = WasteReport::compute(&lineage, self.t_end);
        let perf = PerfReport::compute(&self.trace, &lineage, self.t_end);
        let igc = IdealGc::from_lineage(&lineage, self.t_end);
        let faults = FaultReport::compute(&self.trace);
        SimAnalysis {
            footprint,
            waste,
            perf,
            igc,
            faults,
        }
    }
}

/// Bundled postmortem results for one simulated run.
#[derive(Debug, Clone)]
pub struct SimAnalysis {
    pub footprint: FootprintReport,
    pub waste: WasteReport,
    pub perf: PerfReport,
    pub igc: IdealGc,
    pub faults: FaultReport,
}
