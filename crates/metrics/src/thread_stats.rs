//! Per-thread execution statistics from the trace — the per-stage view the
//! paper's discussion of stage rates (§3.1) relies on: each task's
//! iteration count, busy-time distribution (its current-STP stream), and
//! useful-vs-wasted split.

use crate::event::TraceEvent;
use crate::lineage::Lineage;
use crate::trace::Trace;
use aru_core::graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vtime::{Micros, OnlineStats, Summary};

/// Execution summary of one thread.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadStats {
    pub node: NodeId,
    /// Completed iterations.
    pub iterations: u64,
    /// Iterations whose lineage reached a sink output.
    pub useful_iterations: u64,
    /// Distribution of per-iteration busy time (the current-STP stream).
    pub busy: Summary,
    /// Total busy time.
    pub total_busy: Micros,
    /// Busy time on lineage-wasted iterations.
    pub wasted_busy: Micros,
}

impl ThreadStats {
    /// Effective sustainable rate implied by the mean busy time (Hz).
    #[must_use]
    pub fn mean_rate_hz(&self) -> f64 {
        if self.busy.mean <= 0.0 {
            f64::INFINITY
        } else {
            1e6 / self.busy.mean
        }
    }

    /// Fraction of this thread's execution that was wasted (0–100).
    #[must_use]
    pub fn pct_busy_wasted(&self) -> f64 {
        let total = self.total_busy.as_micros();
        if total == 0 {
            0.0
        } else {
            100.0 * self.wasted_busy.as_micros() as f64 / total as f64
        }
    }
}

/// Compute per-thread statistics for every thread appearing in the trace.
#[must_use]
pub fn thread_stats(trace: &Trace, lineage: &Lineage) -> BTreeMap<NodeId, ThreadStats> {
    struct Acc {
        busy: OnlineStats,
        iterations: u64,
        useful: u64,
        total: Micros,
        wasted: Micros,
    }
    let mut accs: BTreeMap<NodeId, Acc> = BTreeMap::new();
    for ev in trace {
        if let TraceEvent::IterEnd { iter, busy, .. } = ev {
            let a = accs.entry(iter.node).or_insert_with(|| Acc {
                busy: OnlineStats::new(),
                iterations: 0,
                useful: 0,
                total: Micros::ZERO,
                wasted: Micros::ZERO,
            });
            a.busy.push(busy.as_micros() as f64);
            a.iterations += 1;
            a.total += busy;
            if lineage.is_iter_used(iter) {
                a.useful += 1;
            } else {
                a.wasted += busy;
            }
        }
    }
    accs.into_iter()
        .map(|(node, a)| {
            (
                node,
                ThreadStats {
                    node,
                    iterations: a.iterations,
                    useful_iterations: a.useful,
                    busy: a.busy.summary(),
                    total_busy: a.total,
                    wasted_busy: a.wasted,
                },
            )
        })
        .collect()
}

/// Render a per-thread table using names from a topology.
#[must_use]
pub fn render_thread_stats(
    stats: &BTreeMap<NodeId, ThreadStats>,
    topo: &aru_core::Topology,
) -> String {
    let mut t = crate::report::Table::new(
        "per-thread execution",
        &[
            "thread",
            "iters",
            "useful",
            "mean busy",
            "σ busy",
            "% wasted",
        ],
    );
    for (node, s) in stats {
        t.row(vec![
            topo.name(*node).to_string(),
            s.iterations.to_string(),
            s.useful_iterations.to_string(),
            format!("{:.1}ms", s.busy.mean / 1000.0),
            format!("{:.1}ms", s.busy.std_dev / 1000.0),
            format!("{:.1}", s.pct_busy_wasted()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IterKey;
    use crate::trace::TraceSink;
    use vtime::{SimTime, Timestamp};

    fn key(n: u32, s: u64) -> IterKey {
        IterKey::new(NodeId(n), s)
    }

    fn sample() -> (Trace, Lineage) {
        let mut tr = Trace::new();
        // node 0: two iterations, one useful (produces item consumed by sink)
        let good = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 10, key(0, 0));
        tr.record(TraceEvent::IterEnd {
            t: SimTime(10),
            iter: key(0, 0),
            busy: Micros(10),
        });
        tr.alloc(SimTime(10), NodeId(1), Timestamp(1), 10, key(0, 1));
        tr.record(TraceEvent::IterEnd {
            t: SimTime(30),
            iter: key(0, 1),
            busy: Micros(20),
        });
        // node 2 (sink): one iteration
        tr.get(SimTime(40), good, key(2, 0));
        tr.sink_output(SimTime(45), key(2, 0), Timestamp(0));
        tr.record(TraceEvent::IterEnd {
            t: SimTime(50),
            iter: key(2, 0),
            busy: Micros(5),
        });
        let lin = Lineage::analyze(&tr);
        (tr, lin)
    }

    #[test]
    fn per_thread_accounting() {
        let (tr, lin) = sample();
        let stats = thread_stats(&tr, &lin);
        assert_eq!(stats.len(), 2);
        let s0 = &stats[&NodeId(0)];
        assert_eq!(s0.iterations, 2);
        assert_eq!(s0.useful_iterations, 1);
        assert_eq!(s0.total_busy, Micros(30));
        assert_eq!(s0.wasted_busy, Micros(20));
        assert!((s0.pct_busy_wasted() - 66.666).abs() < 0.01);
        assert!((s0.busy.mean - 15.0).abs() < 1e-9);
        let s2 = &stats[&NodeId(2)];
        assert_eq!(s2.useful_iterations, 1);
        assert_eq!(s2.pct_busy_wasted(), 0.0);
    }

    #[test]
    fn mean_rate() {
        let (tr, lin) = sample();
        let stats = thread_stats(&tr, &lin);
        let s0 = &stats[&NodeId(0)];
        assert!((s0.mean_rate_hz() - 1e6 / 15.0).abs() < 1e-6);
    }

    #[test]
    fn render_uses_topology_names() {
        let mut topo = aru_core::Topology::new();
        let a = topo.add_thread("digitizer");
        let _c = topo.add_channel("c");
        let b = topo.add_thread("gui");
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(2));
        let (tr, lin) = sample();
        let stats = thread_stats(&tr, &lin);
        let s = render_thread_stats(&stats, &topo);
        assert!(s.contains("digitizer"));
        assert!(s.contains("gui"));
    }

    #[test]
    fn empty_trace_yields_empty_stats() {
        let tr = Trace::new();
        let lin = Lineage::analyze(&tr);
        assert!(thread_stats(&tr, &lin).is_empty());
    }
}
