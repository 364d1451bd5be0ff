//! Simulated-run reports and postmortem bundles.

use aru_core::Topology;
use aru_gc::Postmortem;
use aru_metrics::{Telemetry, Trace};
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
    /// The trace's `SinkOutput` events, counted as the engine recorded
    /// them: reading them back would decode the whole trace.
    pub(crate) outputs: usize,
}

impl SimReport {
    /// Number of sink outputs.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
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
        Postmortem::analyze(&self.trace, self.t_end)
    }
}

/// Bundled postmortem results for one simulated run.
pub type SimAnalysis = Postmortem;
