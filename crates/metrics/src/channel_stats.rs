//! Per-buffer occupancy statistics — the "which channel holds the memory"
//! view of the footprint (the paper's C1–C9 decomposition).

use crate::dense::IdTable;
use crate::event::TraceEvent;
use crate::trace::Trace;
use aru_core::graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vtime::{SimTime, TimeWeightedSeries};

/// Occupancy summary of one buffer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelStats {
    pub node: NodeId,
    /// Items ever allocated into this buffer.
    pub items: u64,
    /// Time-weighted mean live bytes.
    pub mean_bytes: f64,
    /// Peak live bytes.
    pub peak_bytes: f64,
}

/// Compute per-buffer occupancy from a trace. `t_end` bounds the run.
#[must_use]
pub fn channel_stats(trace: &Trace, t_end: SimTime) -> BTreeMap<NodeId, ChannelStats> {
    struct Acc {
        series: TimeWeightedSeries,
        live: i64,
        items: u64,
    }
    let mut accs: BTreeMap<NodeId, Acc> = BTreeMap::new();
    // Buffer and size of each allocated item.
    let mut item_home: IdTable<Option<(NodeId, u64)>> = IdTable::for_items(trace);
    for ev in trace {
        match ev {
            TraceEvent::Alloc {
                t,
                item,
                buffer,
                bytes,
                ..
            } => {
                *item_home.slot(item.0) = Some((buffer, bytes));
                let a = accs.entry(buffer).or_insert_with(|| Acc {
                    series: TimeWeightedSeries::new(),
                    live: 0,
                    items: 0,
                });
                a.live += bytes as i64;
                a.items += 1;
                a.series.push(t, a.live as f64);
            }
            TraceEvent::Free { t, item } => {
                if let Some(&Some((buffer, bytes))) = item_home.get(item.0) {
                    if let Some(a) = accs.get_mut(&buffer) {
                        a.live -= bytes as i64;
                        a.series.push(t, a.live as f64);
                    }
                }
            }
            _ => {}
        }
    }
    accs.into_iter()
        .map(|(node, a)| {
            (
                node,
                ChannelStats {
                    node,
                    items: a.items,
                    mean_bytes: a.series.weighted_summary(t_end).mean,
                    peak_bytes: a.series.peak(),
                },
            )
        })
        .collect()
}

/// Render a per-buffer table using names from a topology.
#[must_use]
pub fn render_channel_stats(
    stats: &BTreeMap<NodeId, ChannelStats>,
    topo: &aru_core::Topology,
) -> String {
    let mut t = crate::report::Table::new(
        "per-channel occupancy",
        &["channel", "items", "mean", "peak"],
    );
    for (node, s) in stats {
        t.row(vec![
            topo.name(*node).to_string(),
            s.items.to_string(),
            format!("{:.1} kB", s.mean_bytes / 1000.0),
            format!("{:.1} kB", s.peak_bytes / 1000.0),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IterKey;
    use vtime::Timestamp;

    #[test]
    fn per_buffer_accounting() {
        let mut tr = Trace::new();
        let key = IterKey::new(NodeId(0), 0);
        let a = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, key);
        let _b = tr.alloc(SimTime(0), NodeId(2), Timestamp(0), 500, key);
        tr.free(SimTime(50), a);
        let stats = channel_stats(&tr, SimTime(100));
        assert_eq!(stats.len(), 2);
        let s1 = &stats[&NodeId(1)];
        assert_eq!(s1.items, 1);
        assert!((s1.mean_bytes - 50.0).abs() < 1e-9); // 100B for half the run
        assert_eq!(s1.peak_bytes, 100.0);
        let s2 = &stats[&NodeId(2)];
        assert!((s2.mean_bytes - 500.0).abs() < 1e-9);
        assert_eq!(s2.peak_bytes, 500.0);
    }

    #[test]
    fn peak_tracks_concurrent_items() {
        let mut tr = Trace::new();
        let key = IterKey::new(NodeId(0), 0);
        let a = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, key);
        let b = tr.alloc(SimTime(10), NodeId(1), Timestamp(1), 100, key);
        tr.free(SimTime(20), a);
        tr.free(SimTime(30), b);
        let stats = channel_stats(&tr, SimTime(30));
        assert_eq!(stats[&NodeId(1)].peak_bytes, 200.0);
        assert_eq!(stats[&NodeId(1)].items, 2);
    }

    #[test]
    fn render_uses_names() {
        let mut topo = aru_core::Topology::new();
        let _t = topo.add_thread("src");
        let c = topo.add_channel("C1");
        let mut tr = Trace::new();
        tr.alloc(SimTime(0), c, Timestamp(0), 64, IterKey::new(NodeId(0), 0));
        let stats = channel_stats(&tr, SimTime(10));
        let s = render_channel_stats(&stats, &topo);
        assert!(s.contains("C1"));
    }

    #[test]
    fn empty_trace() {
        assert!(channel_stats(&Trace::new(), SimTime(1)).is_empty());
    }
}
