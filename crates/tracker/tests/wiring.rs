//! The tracker graph is wired three times — the abstract
//! `TrackerGraph::topology()`, the threaded runtime (`build_threaded`) and
//! the simulator (`build_sim`). This pins them against each other: same
//! node names, same node kinds, same `(from, to)` edges, in both of the
//! paper's configurations.
//!
//! The comparison is by *name* and as a *set*, because declaration order
//! differs today: the threaded runtime numbers the channels before the
//! threads (the other two number the threads first), and
//! `TrackerGraph::topology()` lists its edges in a different order than the
//! two builders do. Do not "fix" that by reordering a wiring — the
//! simulator's `NodeId`/edge order feeds the byte-identical figures. What
//! may not drift is which task talks to which channel.

use aru_core::{AruConfig, NodeKind, Topology};
use stampede::LinkModel;
use std::collections::{BTreeMap, BTreeSet};
use tracker::{
    build_sim, build_threaded, SimTrackerParams, ThreadedTrackerParams, TrackerConfigId,
    TrackerGraph,
};

/// Name → kind of every node, and `(from name, to name)` of every edge.
type Wiring = (BTreeMap<String, NodeKind>, BTreeSet<(String, String)>);

fn wiring(t: &Topology) -> Wiring {
    let nodes: BTreeMap<_, _> = t
        .node_ids()
        .map(|n| (t.name(n).to_string(), t.kind(n)))
        .collect();
    // Names identify nodes only if they are unique.
    assert_eq!(nodes.len(), t.node_count(), "duplicate node name");
    let edges: BTreeSet<_> = t
        .edges()
        .iter()
        .map(|e| (t.name(e.from).to_string(), t.name(e.to).to_string()))
        .collect();
    assert_eq!(edges.len(), t.edge_count(), "duplicate edge");
    (nodes, edges)
}

#[test]
fn the_three_wirings_agree() {
    let graph = wiring(&TrackerGraph::topology());
    assert_eq!(graph.0.len(), 6 + 9);
    assert_eq!(graph.1.len(), 19);

    for config in [TrackerConfigId::OneNode, TrackerConfigId::FiveNodes] {
        let mut params = ThreadedTrackerParams::new(AruConfig::aru_min());
        if config == TrackerConfigId::FiveNodes {
            params = params.with_link(LinkModel::default());
        }
        let threaded = build_threaded(&params).expect("threaded tracker builds");
        assert_eq!(
            wiring(threaded.runtime.topology()),
            graph,
            "threaded runtime vs TrackerGraph, {config:?}"
        );
        if let Some(net) = &threaded.network {
            net.stop();
        }

        let (sim, _) = build_sim(&SimTrackerParams::new(AruConfig::aru_min(), config));
        assert_eq!(
            wiring(sim.topology()),
            graph,
            "simulator vs TrackerGraph, {config:?}"
        );
    }
}
