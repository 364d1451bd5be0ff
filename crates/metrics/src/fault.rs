//! Postmortem fault accounting.
//!
//! Pure function of the event trace, like every other analysis in this
//! crate: counts injected/observed crashes, supervisor restarts, timed-out
//! blocking ops, dropped summary messages, and stale-summary iterations,
//! overall and per node. Both runtimes emit the same fault events, so a
//! desim chaos run and a threaded-runtime run produce comparable reports.

use crate::event::TraceEvent;
use crate::trace::Trace;
use aru_core::graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Fault counts for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeFaults {
    /// Task crashes (panics or injected).
    pub crashes: u64,
    /// Supervisor restarts that followed a crash.
    pub restarts: u64,
    /// Blocking ops that gave up at the op timeout.
    pub timeouts: u64,
    /// Summary-STP messages dropped by fault injection.
    pub summaries_dropped: u64,
    /// Iterations finished with the downstream summary past the staleness
    /// horizon (the controller was decaying the pacing target).
    pub stale_iterations: u64,
}

/// Workload-wide fault report; surfaced by both runtimes' `analyze()`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    pub crashes: u64,
    pub restarts: u64,
    pub timeouts: u64,
    pub summaries_dropped: u64,
    pub stale_iterations: u64,
    /// Maximal runs of consecutive stale iterations (per node): how many
    /// distinct episodes of feedback loss the run saw, as opposed to how
    /// long they lasted.
    pub stale_intervals: u64,
    pub per_node: BTreeMap<NodeId, NodeFaults>,
}

impl FaultReport {
    /// Scan a trace for fault events.
    #[must_use]
    pub fn compute(trace: &Trace) -> Self {
        let mut report = FaultReport::default();
        // seq of every stale iteration, per node, for interval counting.
        let mut stale_seqs: BTreeMap<NodeId, Vec<u64>> = BTreeMap::new();
        for ev in trace {
            match ev {
                TraceEvent::TaskCrash { node, .. } => {
                    report.crashes += 1;
                    report.per_node.entry(node).or_default().crashes += 1;
                }
                TraceEvent::TaskRestart { node, .. } => {
                    report.restarts += 1;
                    report.per_node.entry(node).or_default().restarts += 1;
                }
                TraceEvent::OpTimeout { node, .. } => {
                    report.timeouts += 1;
                    report.per_node.entry(node).or_default().timeouts += 1;
                }
                TraceEvent::SummaryDropped { node, .. } => {
                    report.summaries_dropped += 1;
                    report.per_node.entry(node).or_default().summaries_dropped += 1;
                }
                TraceEvent::StaleSummary { iter, .. } => {
                    report.stale_iterations += 1;
                    report
                        .per_node
                        .entry(iter.node)
                        .or_default()
                        .stale_iterations += 1;
                    stale_seqs.entry(iter.node).or_default().push(iter.seq);
                }
                _ => {}
            }
        }
        for seqs in stale_seqs.values_mut() {
            seqs.sort_unstable();
            seqs.dedup();
            // A run of consecutive iteration seqs is one stale episode.
            report.stale_intervals += seqs
                .iter()
                .zip(seqs.iter().skip(1))
                .filter(|(a, b)| **b != **a + 1)
                .count() as u64
                + 1;
        }
        report
    }

    /// Did the run see any fault activity at all?
    #[must_use]
    pub fn any(&self) -> bool {
        self.crashes != 0
            || self.restarts != 0
            || self.timeouts != 0
            || self.summaries_dropped != 0
            || self.stale_iterations != 0
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crashes={} restarts={} timeouts={} dropped_summaries={} stale_iters={} stale_intervals={}",
            self.crashes,
            self.restarts,
            self.timeouts,
            self.summaries_dropped,
            self.stale_iterations,
            self.stale_intervals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IterKey;
    use crate::trace::TraceSink;
    use vtime::{Micros, SimTime};

    #[test]
    fn empty_trace_has_no_faults() {
        let report = FaultReport::compute(&Trace::new());
        assert!(!report.any());
        assert_eq!(report, FaultReport::default());
    }

    #[test]
    fn counts_by_kind_and_node() {
        let mut tr = Trace::new();
        let a = NodeId(1);
        let b = NodeId(2);
        tr.record(TraceEvent::TaskCrash {
            t: SimTime(10),
            node: a,
            attempt: 1,
        });
        tr.record(TraceEvent::TaskRestart {
            t: SimTime(20),
            node: a,
            attempt: 1,
            backoff: Micros(10),
        });
        tr.record(TraceEvent::TaskCrash {
            t: SimTime(30),
            node: a,
            attempt: 2,
        });
        tr.op_timeout(SimTime(40), b);
        tr.record(TraceEvent::SummaryDropped {
            t: SimTime(50),
            node: b,
        });
        let report = FaultReport::compute(&tr);
        assert!(report.any());
        assert_eq!(report.crashes, 2);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.timeouts, 1);
        assert_eq!(report.summaries_dropped, 1);
        assert_eq!(report.per_node[&a].crashes, 2);
        assert_eq!(report.per_node[&a].restarts, 1);
        assert_eq!(report.per_node[&b].timeouts, 1);
        assert_eq!(report.per_node[&b].summaries_dropped, 1);
    }

    #[test]
    fn stale_runs_split_into_intervals() {
        let mut tr = Trace::new();
        let n = NodeId(3);
        // Two episodes: seqs 5,6,7 and 20,21 — plus another node's episode.
        for seq in [5u64, 6, 7, 20, 21] {
            tr.record(TraceEvent::StaleSummary {
                t: SimTime(seq),
                iter: IterKey::new(n, seq),
            });
        }
        tr.record(TraceEvent::StaleSummary {
            t: SimTime(99),
            iter: IterKey::new(NodeId(4), 0),
        });
        let report = FaultReport::compute(&tr);
        assert_eq!(report.stale_iterations, 6);
        assert_eq!(report.stale_intervals, 3);
        assert_eq!(report.per_node[&n].stale_iterations, 5);
    }
}
