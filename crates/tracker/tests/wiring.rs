//! `graph::STAGES` is the tracker graph; this holds its three lowerings to
//! it: the abstract `TrackerGraph::topology()` and the simulator
//! (`build_sim`, in both of the paper's configurations) are loops over the
//! table, the threaded runtime (`build_threaded`, configuration 1 only)
//! spells its typed connections out by hand and is the one that can drift.
//!
//! Checked per lowering: the name → kind map, the `(from, to)` edge set, and
//! per-node edge *order* — a thread's inputs are its gather order (driver
//! first) and its outputs index the feedback slots, a channel's consumers
//! index its GC marks. Comparison is by name: the threaded runtime numbers
//! its channels before its threads, the other two number threads first.

use aru_core::{AruConfig, NodeKind, Topology};
use std::collections::{BTreeMap, BTreeSet};
use tracker::graph::{node, Stage, CHANNELS, STAGES};
use tracker::{
    build_sim, build_threaded, SimTrackerParams, ThreadedTrackerParams, TrackerConfigId,
    TrackerGraph,
};

/// Assert that `t` is the table: nodes, edges, and edge order at every node.
fn assert_is_the_table(t: &Topology, what: &str) {
    let chan = |c: usize| CHANNELS[c].0;

    let mut kinds: BTreeMap<&str, NodeKind> = BTreeMap::new();
    kinds.extend(STAGES.iter().map(|s| (s.name, NodeKind::Thread)));
    kinds.extend(CHANNELS.iter().map(|c| (c.0, NodeKind::Channel)));
    assert_eq!(kinds.len(), 6 + 9, "table names are unique");
    let built: BTreeMap<_, _> = t.node_ids().map(|n| (t.name(n), t.kind(n))).collect();
    assert_eq!(built, kinds, "{what}: nodes");
    assert_eq!(t.node_count(), kinds.len(), "{what}: duplicate node name");

    let mut edges: BTreeSet<(&str, &str)> = BTreeSet::new();
    for s in &STAGES {
        edges.extend(s.inputs.iter().map(|&(c, _)| (chan(c), s.name)));
        edges.extend(s.outputs.iter().map(|&c| (s.name, chan(c))));
    }
    assert_eq!(edges.len(), 19, "table edges are unique");
    let built: BTreeSet<_> = t
        .edges()
        .iter()
        .map(|e| (t.name(e.from), t.name(e.to)))
        .collect();
    assert_eq!(built, edges, "{what}: edges");
    assert_eq!(t.edge_count(), edges.len(), "{what}: duplicate edge");

    for s in &STAGES {
        let n = node(t, s.name);
        let ins: Vec<_> = t.inputs(n).map(|e| t.name(e.from)).collect();
        let outs: Vec<_> = t.outputs(n).map(|e| t.name(e.to)).collect();
        let table_ins: Vec<_> = s.inputs.iter().map(|&(c, _)| chan(c)).collect();
        let table_outs: Vec<_> = s.outputs.iter().map(|&c| chan(c)).collect();
        assert_eq!(ins, table_ins, "{what}: input order of {}", s.name);
        assert_eq!(outs, table_outs, "{what}: output order of {}", s.name);
    }
    // A channel's consumers come in stage order: C3 feeds target-det-1, then
    // target-det-2.
    for (c, (name, _, _)) in CHANNELS.iter().enumerate() {
        let consumers: Vec<_> = t.outputs(node(t, name)).map(|e| t.name(e.to)).collect();
        let reads = |s: &&Stage| s.inputs.iter().any(|&(i, _)| i == c);
        let table: Vec<_> = STAGES.iter().filter(reads).map(|s| s.name).collect();
        assert_eq!(consumers, table, "{what}: consumer order of {name}");
    }
}

#[test]
fn the_three_lowerings_are_the_table() {
    assert_is_the_table(&TrackerGraph::topology(), "TrackerGraph::topology()");

    let threaded = build_threaded(&ThreadedTrackerParams::new(AruConfig::aru_min()))
        .expect("threaded tracker builds");
    assert_is_the_table(threaded.runtime.topology(), "build_threaded");

    for config in [TrackerConfigId::OneNode, TrackerConfigId::FiveNodes] {
        let (sim, _) = build_sim(&SimTrackerParams::new(AruConfig::aru_min(), config));
        assert_is_the_table(sim.topology(), &format!("build_sim, {config:?}"));
    }
}

/// The order-sensitive rows of the table, spelled out once against Figure 5
/// (a reordered row would still agree with its own lowerings).
#[test]
fn the_table_orders_joins_as_figure_5_does() {
    let t = TrackerGraph::topology();
    let sources: Vec<_> = t.source_threads().map(|n| t.name(n)).collect();
    let sinks: Vec<_> = t.sink_threads().map(|n| t.name(n)).collect();
    assert_eq!((sources, sinks), (vec!["digitizer"], vec!["gui"]));
    // Detectors: mask (driver) → frame → model; GUI: C6 (driver) then C9.
    let inputs = |name| {
        t.inputs(node(&t, name))
            .map(|e| t.name(e.from))
            .collect::<Vec<_>>()
    };
    assert_eq!(inputs("target-det-1"), ["C4", "C3", "C7"]);
    assert_eq!(inputs("target-det-2"), ["C5", "C3", "C8"]);
    assert_eq!(inputs("gui"), ["C6", "C9"]);
    let c3: Vec<_> = t.outputs(node(&t, "C3")).map(|e| t.name(e.to)).collect();
    assert_eq!(c3, ["target-det-1", "target-det-2"]);
}
