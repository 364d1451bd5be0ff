//! Abstract task-graph topology.
//!
//! ARU assumption 2 (paper §3.3.3): *"To achieve optimal performance, the
//! application task graph is made available to the runtime system."* Both
//! runtimes (threaded and simulated) and the GC algorithms operate on this
//! shared representation: a bipartite graph of **thread** nodes alternating
//! with **buffer** (channel/queue) nodes, with numbered connections.
//!
//! Connection numbering matters: a node's *output* connections index its
//! `backwardSTP` vector, and a buffer's *input* (consumer) connections carry
//! the per-consumer consumption state GC relies on.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Identifies a node (thread, channel, or queue) in the task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a directed connection (edge) in the task graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConnId(pub u32);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What a node is. Threads compute; channels and queues buffer timestamped
/// items (queues with destructive FIFO gets, channels with non-destructive
/// timestamp-addressed gets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    Thread,
    Channel,
    Queue,
}

impl NodeKind {
    #[must_use]
    pub fn is_thread(self) -> bool {
        matches!(self, NodeKind::Thread)
    }

    #[must_use]
    pub fn is_buffer(self) -> bool {
        !self.is_thread()
    }
}

/// One directed edge: `from` produces into / feeds `to`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Edge {
    pub id: ConnId,
    pub from: NodeId,
    pub to: NodeId,
    /// Index of this edge among `from`'s output connections — the slot it
    /// occupies in `from`'s backwardSTP vector.
    pub out_index: usize,
    /// Index of this edge among `to`'s input connections — the slot carrying
    /// per-consumer consumption state on a buffer.
    pub in_index: usize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct NodeInfo {
    kind: NodeKind,
    name: String,
    outputs: Vec<ConnId>,
    inputs: Vec<ConnId>,
}

/// Errors constructing or validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Threads must connect to buffers and buffers to threads.
    NotBipartite { from: NodeId, to: NodeId },
    /// Unknown node id.
    UnknownNode(NodeId),
    /// The graph contains a directed cycle (pipelines are DAGs).
    Cyclic,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NotBipartite { from, to } => {
                write!(f, "edge {from}->{to} connects two nodes of the same class")
            }
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::Cyclic => write!(f, "task graph contains a cycle"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The application task graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    edges: Vec<Edge>,
}

impl Topology {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeInfo {
            kind,
            name: name.into(),
            outputs: Vec::new(),
            inputs: Vec::new(),
        });
        id
    }

    /// Convenience wrappers.
    pub fn add_thread(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Thread, name)
    }

    pub fn add_channel(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Channel, name)
    }

    pub fn add_queue(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Queue, name)
    }

    /// Connect `from` → `to`, enforcing thread↔buffer alternation.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> Result<ConnId, TopologyError> {
        let fk = self.kind_checked(from)?;
        let tk = self.kind_checked(to)?;
        if fk.is_thread() == tk.is_thread() {
            return Err(TopologyError::NotBipartite { from, to });
        }
        let id = ConnId(self.edges.len() as u32);
        let out_index = self.nodes[from.0 as usize].outputs.len();
        let in_index = self.nodes[to.0 as usize].inputs.len();
        self.edges.push(Edge {
            id,
            from,
            to,
            out_index,
            in_index,
        });
        self.nodes[from.0 as usize].outputs.push(id);
        self.nodes[to.0 as usize].inputs.push(id);
        Ok(id)
    }

    fn kind_checked(&self, n: NodeId) -> Result<NodeKind, TopologyError> {
        self.nodes
            .get(n.0 as usize)
            .map(|i| i.kind)
            .ok_or(TopologyError::UnknownNode(n))
    }

    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    #[must_use]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.0 as usize].kind
    }

    #[must_use]
    pub fn name(&self, n: NodeId) -> &str {
        &self.nodes[n.0 as usize].name
    }

    #[must_use]
    pub fn edge(&self, c: ConnId) -> &Edge {
        &self.edges[c.0 as usize]
    }

    /// Ids of all nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All edges.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Output edges of `n`, in out_index order.
    pub fn outputs(&self, n: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.nodes[n.0 as usize]
            .outputs
            .iter()
            .map(|&c| self.edge(c))
    }

    /// Input edges of `n`, in in_index order.
    pub fn inputs(&self, n: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.nodes[n.0 as usize]
            .inputs
            .iter()
            .map(|&c| self.edge(c))
    }

    #[must_use]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.nodes[n.0 as usize].outputs.len()
    }

    #[must_use]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.nodes[n.0 as usize].inputs.len()
    }

    /// Source threads: thread nodes with no inputs — the nodes ARU paces
    /// ("Source threads, i.e. threads on the left of the pipeline, use the
    /// propagated summary-STP information to adjust their rate").
    pub fn source_threads(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(|&n| self.kind(n).is_thread() && self.in_degree(n) == 0)
    }

    /// Sink threads: thread nodes with no outputs (e.g. the GUI task).
    pub fn sink_threads(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(|&n| self.kind(n).is_thread() && self.out_degree(n) == 0)
    }

    /// Kahn topological order; error if cyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, TopologyError> {
        let mut indeg: Vec<usize> = self.node_ids().map(|n| self.in_degree(n)).collect();
        let mut q: VecDeque<NodeId> = self
            .node_ids()
            .filter(|n| indeg[n.0 as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = q.pop_front() {
            order.push(n);
            for e in self.outputs(n) {
                let d = &mut indeg[e.to.0 as usize];
                *d -= 1;
                if *d == 0 {
                    q.push_back(e.to);
                }
            }
        }
        if order.len() == self.nodes.len() {
            Ok(order)
        } else {
            Err(TopologyError::Cyclic)
        }
    }

    /// Validate: bipartite by construction; check acyclicity.
    pub fn validate(&self) -> Result<(), TopologyError> {
        self.topo_order().map(|_| ())
    }

    /// Pipeline depth: the number of *buffer hops* on the longest
    /// source→sink path. Paper §3.3.2: *"The worst case propagation time
    /// for a summary-STP value to reach the producer from the last consumer
    /// in the pipeline is equal to the time it takes for an item to be
    /// processed and be emitted by the application"* — i.e. one pipeline
    /// latency, which spans exactly `depth()` put/get hops.
    ///
    /// Returns 0 for a graph with no edges.
    #[must_use]
    pub fn depth(&self) -> usize {
        // Longest path in a DAG via topological order, counting buffer
        // nodes traversed.
        let Ok(order) = self.topo_order() else {
            return 0;
        };
        let mut dist = vec![0usize; self.nodes.len()];
        let mut best = 0;
        for n in order {
            for e in self.outputs(n) {
                let w = usize::from(self.kind(e.to).is_buffer());
                let cand = dist[n.0 as usize] + w;
                if cand > dist[e.to.0 as usize] {
                    dist[e.to.0 as usize] = cand;
                    best = best.max(cand);
                }
            }
        }
        best
    }

    /// Render an ASCII adjacency listing (used by examples to print the
    /// pipeline, mirroring the paper's Figure 5).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for n in self.node_ids() {
            let k = match self.kind(n) {
                NodeKind::Thread => "thread",
                NodeKind::Channel => "chan  ",
                NodeKind::Queue => "queue ",
            };
            let outs: Vec<String> = self
                .outputs(n)
                .map(|e| self.name(e.to).to_string())
                .collect();
            let _ = writeln!(s, "{k} {:<18} -> [{}]", self.name(n), outs.join(", "));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear3() -> (Topology, NodeId, NodeId, NodeId, NodeId, NodeId) {
        // src -> ch1 -> mid -> ch2 -> sink
        let mut t = Topology::new();
        let src = t.add_thread("src");
        let ch1 = t.add_channel("ch1");
        let mid = t.add_thread("mid");
        let ch2 = t.add_channel("ch2");
        let sink = t.add_thread("sink");
        t.connect(src, ch1).unwrap();
        t.connect(ch1, mid).unwrap();
        t.connect(mid, ch2).unwrap();
        t.connect(ch2, sink).unwrap();
        (t, src, ch1, mid, ch2, sink)
    }

    #[test]
    fn builds_linear_pipeline() {
        let (t, src, ch1, mid, _, sink) = linear3();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.out_degree(src), 1);
        assert_eq!(t.in_degree(mid), 1);
        assert_eq!(t.kind(ch1), NodeKind::Channel);
        assert!(t.validate().is_ok());
        assert_eq!(t.source_threads().collect::<Vec<_>>(), vec![src]);
        assert_eq!(t.sink_threads().collect::<Vec<_>>(), vec![sink]);
    }

    #[test]
    fn rejects_thread_to_thread() {
        let mut t = Topology::new();
        let a = t.add_thread("a");
        let b = t.add_thread("b");
        assert!(matches!(
            t.connect(a, b),
            Err(TopologyError::NotBipartite { .. })
        ));
    }

    #[test]
    fn rejects_buffer_to_buffer() {
        let mut t = Topology::new();
        let a = t.add_channel("a");
        let b = t.add_queue("b");
        assert!(t.connect(a, b).is_err());
    }

    #[test]
    fn rejects_unknown_node() {
        let mut t = Topology::new();
        let a = t.add_thread("a");
        assert_eq!(
            t.connect(a, NodeId(99)),
            Err(TopologyError::UnknownNode(NodeId(99)))
        );
    }

    #[test]
    fn connection_indices_are_per_node() {
        let mut t = Topology::new();
        let a = t.add_thread("a");
        let c1 = t.add_channel("c1");
        let c2 = t.add_channel("c2");
        let b = t.add_thread("b");
        let e1 = t.connect(a, c1).unwrap();
        let e2 = t.connect(a, c2).unwrap();
        let e3 = t.connect(c1, b).unwrap();
        let e4 = t.connect(c2, b).unwrap();
        assert_eq!(t.edge(e1).out_index, 0);
        assert_eq!(t.edge(e2).out_index, 1);
        assert_eq!(t.edge(e3).in_index, 0);
        assert_eq!(t.edge(e4).in_index, 1);
        assert_eq!(t.edge(e3).out_index, 0, "c1's first output");
        assert_eq!(t.edge(e4).out_index, 0, "c2's first output");
    }

    #[test]
    fn topo_order_respects_edges() {
        let (t, ..) = linear3();
        let order = t.topo_order().unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for e in t.edges() {
            assert!(pos(e.from) < pos(e.to));
        }
    }

    #[test]
    fn detects_cycle() {
        // a -> c -> b -> c2 -> a  (valid bipartite alternation, but cyclic)
        let mut t = Topology::new();
        let a = t.add_thread("a");
        let c = t.add_channel("c");
        let b = t.add_thread("b");
        let c2 = t.add_channel("c2");
        t.connect(a, c).unwrap();
        t.connect(c, b).unwrap();
        t.connect(b, c2).unwrap();
        t.connect(c2, a).unwrap();
        assert_eq!(t.validate(), Err(TopologyError::Cyclic));
    }

    #[test]
    fn fan_out_sources_sinks() {
        // one source feeding two branches that end in two sinks
        let mut t = Topology::new();
        let src = t.add_thread("src");
        let c1 = t.add_channel("c1");
        let c2 = t.add_channel("c2");
        let s1 = t.add_thread("s1");
        let s2 = t.add_thread("s2");
        t.connect(src, c1).unwrap();
        t.connect(src, c2).unwrap();
        t.connect(c1, s1).unwrap();
        t.connect(c2, s2).unwrap();
        assert_eq!(t.source_threads().count(), 1);
        assert_eq!(t.sink_threads().count(), 2);
        assert_eq!(t.out_degree(src), 2);
    }

    #[test]
    fn depth_counts_buffer_hops() {
        let (t, ..) = linear3(); // src -> ch1 -> mid -> ch2 -> sink
        assert_eq!(t.depth(), 2);
        let empty = Topology::new();
        assert_eq!(empty.depth(), 0);
        // diamond: src -> {c1,c2} -> {a,b} -> c3/c4 -> sink : depth 2
        let mut d = Topology::new();
        let src = d.add_thread("src");
        let c1 = d.add_channel("c1");
        let c2 = d.add_channel("c2");
        let a = d.add_thread("a");
        let b2 = d.add_thread("b");
        let c3 = d.add_channel("c3");
        let sink = d.add_thread("sink");
        d.connect(src, c1).unwrap();
        d.connect(src, c2).unwrap();
        d.connect(c1, a).unwrap();
        d.connect(c2, b2).unwrap();
        d.connect(a, c3).unwrap();
        d.connect(b2, c3).unwrap();
        d.connect(c3, sink).unwrap();
        assert_eq!(d.depth(), 2);
    }

    #[test]
    fn render_mentions_all_nodes() {
        let (t, ..) = linear3();
        let s = t.render();
        for n in ["src", "ch1", "mid", "ch2", "sink"] {
            assert!(s.contains(n), "render missing {n}: {s}");
        }
    }
}
