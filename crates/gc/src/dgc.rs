//! Dead-timestamp garbage collection (DGC).
//!
//! Paper §4: *"DGC is based on dead timestamp identification, a unifying
//! concept that simultaneously identifies both dead items (memory) and
//! unnecessary computations (processing). Each node (be it a thread, a
//! channel, or a queue) propagates information about locally dead items to
//! neighboring nodes. These nodes use the information in turn to determine
//! which items they can garbage collect."*
//!
//! The propagation over the (acyclic) task graph:
//!
//! * a **sink thread** declares nothing dead in advance (it may display any
//!   future frame): its forward floor is 0;
//! * a **thread** with outputs can skip any timestamp that is already dead
//!   in *every* buffer it feeds: `skip_before(T) = min over output buffers
//!   of dead_before(B)`;
//! * a **buffer**'s `dead_before(B)` is the minimum, over its consumer
//!   connections `e`, of `max(floor(e), skip_before(consumer(e)))`: consumer
//!   `e` will never touch a timestamp below its consumption floor, *and*
//!   even if it did, any timestamp below the consumer's own skip floor would
//!   produce only dead outputs.
//!
//! Because the graph is a DAG, one reverse-topological pass computes the
//! exact fixpoint. The result both drives reclamation (`dead_before`) and
//! computation elimination (`skip_before`) — the latter is what the paper
//! reports as having "limited success" compared to ARU, which our Figure
//! 6/7 reproduction shows too.

use crate::marks::ConsumerMarks;
use aru_core::graph::{NodeId, Topology};
use std::collections::HashMap;
use vtime::Timestamp;

/// The per-node guarantees computed by one DGC pass.
///
/// One bound per node of the task graph, indexed by [`NodeId`]: a buffer's
/// is its dead-before, a thread's its skip-before. The graph is bipartite,
/// so one table holds both; a node the pass never saw reads 0 ("unknown":
/// reclaim nothing, skip nothing).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DgcResult {
    bounds: Vec<Timestamp>,
}

impl DgcResult {
    /// Dead-before bound for buffer `b`: items with `ts < dead_before` may
    /// be reclaimed (0 when unknown).
    #[must_use]
    pub fn buffer_dead_before(&self, b: NodeId) -> Timestamp {
        self.bound(b)
    }

    /// Skip-before bound for thread `t`: inputs with `ts < skip_before`
    /// need not be processed — everything they would produce is provably
    /// dead downstream (0 when unknown).
    #[must_use]
    pub fn thread_skip_before(&self, t: NodeId) -> Timestamp {
        self.bound(t)
    }

    fn bound(&self, n: NodeId) -> Timestamp {
        self.bounds
            .get(n.0 as usize)
            .copied()
            .unwrap_or(Timestamp::ZERO)
    }
}

/// Computes DGC guarantees over a fixed topology.
///
/// ```
/// use aru_core::Topology;
/// use aru_gc::{ConsumerMarks, DgcEngine};
/// use std::collections::HashMap;
/// use vtime::Timestamp;
///
/// // src → A → mid → B → sink
/// let mut topo = Topology::new();
/// let src = topo.add_thread("src");
/// let a = topo.add_channel("A");
/// let mid = topo.add_thread("mid");
/// let b = topo.add_channel("B");
/// let sink = topo.add_thread("sink");
/// topo.connect(src, a).unwrap();
/// topo.connect(a, mid).unwrap();
/// topo.connect(mid, b).unwrap();
/// topo.connect(b, sink).unwrap();
///
/// // The sink consumed up to ts 9 from B.
/// let mut marks = HashMap::new();
/// let mut mb = ConsumerMarks::new(1);
/// mb.advance(0, Timestamp(9));
/// marks.insert(b, mb);
///
/// let res = DgcEngine::new(&topo).compute(&topo, &marks);
/// assert_eq!(res.buffer_dead_before(b), Timestamp(10)); // reclaim ts < 10
/// assert_eq!(res.thread_skip_before(mid), Timestamp(10)); // skip dead work
/// ```
#[derive(Debug, Clone)]
pub struct DgcEngine {
    /// Every node of the graph in reverse topological order, each with
    /// where its out-edges end in `succ` (they start where the previous
    /// node's end): the sweep walks two flat arrays, not the `Topology`.
    order: Vec<SweepNode>,
    succ: Vec<Succ>,
}

#[derive(Debug, Clone, Copy)]
struct SweepNode {
    id: NodeId,
    is_thread: bool,
    succ_end: u32,
}

/// One out-edge: the node it leads to, and its slot among the source's
/// outputs (for a buffer, the consumer's slot in its marks).
#[derive(Debug, Clone, Copy)]
struct Succ {
    to: u32,
    out_index: u32,
}

impl DgcEngine {
    /// Prepare the engine for a topology.
    ///
    /// # Panics
    /// Panics if the topology is cyclic (validated at pipeline build time).
    #[must_use]
    pub fn new(topo: &Topology) -> Self {
        let mut ids = topo.topo_order().expect("task graph must be acyclic");
        ids.reverse();
        let mut succ = Vec::with_capacity(topo.edge_count());
        let order = ids
            .into_iter()
            .map(|id| {
                succ.extend(topo.outputs(id).map(|e| Succ {
                    to: e.to.0,
                    out_index: e.out_index as u32,
                }));
                SweepNode {
                    id,
                    is_thread: topo.kind(id).is_thread(),
                    succ_end: succ.len() as u32,
                }
            })
            .collect();
        DgcEngine { order, succ }
    }

    /// One exact propagation pass over `topo`, the topology the engine was
    /// built for.
    ///
    /// `marks` maps every buffer node to its current consumption marks
    /// (buffers absent from the map are treated as having fresh marks and
    /// yield a floor of 0, reclaiming nothing).
    #[must_use]
    pub fn compute(&self, topo: &Topology, marks: &HashMap<NodeId, ConsumerMarks>) -> DgcResult {
        debug_assert_eq!(topo.node_count(), self.order.len(), "another topology");
        let mut res = DgcResult::default();
        self.compute_into(|n| marks.get(&n), &mut res);
        res
    }

    /// [`DgcEngine::compute`] for a caller that runs the pass periodically:
    /// the marks are read where they live (`marks(b)` is buffer `b`'s, or
    /// `None` for "fresh") and `res` is cleared and refilled, so a pass
    /// allocates nothing once `res` has grown to the graph's size.
    pub fn compute_into<'m>(
        &self,
        marks: impl Fn(NodeId) -> Option<&'m ConsumerMarks>,
        res: &mut DgcResult,
    ) {
        let bounds = &mut res.bounds;
        bounds.clear();
        bounds.resize(self.order.len(), Timestamp::ZERO);
        let mut succ_start = 0;
        // Reverse topological order: every bound read below was written
        // earlier in this same pass.
        for node in &self.order {
            let succ = &self.succ[succ_start..node.succ_end as usize];
            succ_start = node.succ_end as usize;
            let bound = if node.is_thread {
                // What is dead in every buffer the thread feeds; a sink
                // never pre-declares deadness.
                let dead = succ.iter().map(|s| bounds[s.to as usize]).min();
                dead.unwrap_or(Timestamp::ZERO)
            } else {
                let m = marks(node.id);
                let dead = succ.iter().map(|s| {
                    let floor = m.map_or(Timestamp::ZERO, |m| m.floor(s.out_index as usize));
                    floor.max(bounds[s.to as usize])
                });
                // No consumer will ever read a buffer without out-edges.
                dead.min().unwrap_or(Timestamp(u64::MAX))
            };
            bounds[node.id.0 as usize] = bound;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// src → A → mid → B → sink
    fn linear() -> (Topology, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let src = t.add_thread("src");
        let a = t.add_channel("A");
        let mid = t.add_thread("mid");
        let b = t.add_channel("B");
        let sink = t.add_thread("sink");
        t.connect(src, a).unwrap();
        t.connect(a, mid).unwrap();
        t.connect(mid, b).unwrap();
        t.connect(b, sink).unwrap();
        (t, src, a, mid, b, sink)
    }

    #[test]
    fn fresh_pipeline_reclaims_nothing() {
        let (topo, _src, a, mid, b, _sink) = linear();
        let eng = DgcEngine::new(&topo);
        let res = eng.compute(&topo, &HashMap::new());
        assert_eq!(res.buffer_dead_before(a), Timestamp::ZERO);
        assert_eq!(res.buffer_dead_before(b), Timestamp::ZERO);
        assert_eq!(res.thread_skip_before(mid), Timestamp::ZERO);
    }

    #[test]
    fn consumption_floor_propagates_backwards() {
        let (topo, _src, a, mid, b, _sink) = linear();
        let eng = DgcEngine::new(&topo);
        let mut marks = HashMap::new();
        // sink consumed ts 9 from B; mid consumed ts 20 from A.
        let mut mb = ConsumerMarks::new(1);
        mb.advance(0, Timestamp(9));
        marks.insert(b, mb);
        let mut ma = ConsumerMarks::new(1);
        ma.advance(0, Timestamp(20));
        marks.insert(a, ma);

        let res = eng.compute(&topo, &marks);
        assert_eq!(res.buffer_dead_before(b), Timestamp(10));
        // mid can skip anything below 10 (outputs already dead in B)
        assert_eq!(res.thread_skip_before(mid), Timestamp(10));
        // A's only consumer (mid) has floor 21 > mid's skip 10
        assert_eq!(res.buffer_dead_before(a), Timestamp(21));
    }

    #[test]
    fn skip_propagation_beats_slow_consumption() {
        // mid has consumed only ts 2 from A, but the sink is far ahead
        // (ts 50): everything mid would produce below 51 is dead, so A can
        // reclaim below 51 even though mid never read it.
        let (topo, _src, a, mid, b, _sink) = linear();
        let eng = DgcEngine::new(&topo);
        let mut marks = HashMap::new();
        let mut mb = ConsumerMarks::new(1);
        mb.advance(0, Timestamp(50));
        marks.insert(b, mb);
        let mut ma = ConsumerMarks::new(1);
        ma.advance(0, Timestamp(2));
        marks.insert(a, ma);

        let res = eng.compute(&topo, &marks);
        assert_eq!(res.thread_skip_before(mid), Timestamp(51));
        assert_eq!(res.buffer_dead_before(a), Timestamp(51));
    }

    #[test]
    fn fan_out_buffer_waits_for_slowest_branch() {
        // src → C → {det1, det2} → (C1, C2) → sink-per-branch
        let mut t = Topology::new();
        let src = t.add_thread("src");
        let c = t.add_channel("C");
        let d1 = t.add_thread("d1");
        let d2 = t.add_thread("d2");
        let c1 = t.add_channel("C1");
        let c2 = t.add_channel("C2");
        let s1 = t.add_thread("s1");
        let s2 = t.add_thread("s2");
        t.connect(src, c).unwrap();
        t.connect(c, d1).unwrap();
        t.connect(c, d2).unwrap();
        t.connect(d1, c1).unwrap();
        t.connect(d2, c2).unwrap();
        t.connect(c1, s1).unwrap();
        t.connect(c2, s2).unwrap();

        let eng = DgcEngine::new(&t);
        let mut marks = HashMap::new();
        let mut mc = ConsumerMarks::new(2);
        mc.advance(0, Timestamp(30)); // d1 fast
        mc.advance(1, Timestamp(5)); // d2 slow
        marks.insert(c, mc);
        let res = eng.compute(&t, &marks);
        // C must retain for the slow branch.
        assert_eq!(res.buffer_dead_before(c), Timestamp(6));
    }

    #[test]
    fn consumerless_buffer_is_all_dead() {
        let mut t = Topology::new();
        let src = t.add_thread("src");
        let c = t.add_channel("C");
        t.connect(src, c).unwrap();
        let eng = DgcEngine::new(&t);
        let res = eng.compute(&t, &HashMap::new());
        assert_eq!(res.buffer_dead_before(c), Timestamp(u64::MAX));
        // src itself can skip everything — its only output is never read.
        assert_eq!(res.thread_skip_before(src), Timestamp(u64::MAX));
    }

    /// DGC safety: dead_before never exceeds any consumer's true future
    /// need. Randomized check across mark configurations on the fan-out
    /// graph: for every buffer, dead_before <= max over consumers of
    /// (floor, consumer skip) — and in particular a consumer that still
    /// needs ts k (floor <= k, skip <= k) keeps k alive.
    #[test]
    fn dead_before_is_min_over_consumers() {
        let (topo, _src, a, mid, b, _sink) = linear();
        let eng = DgcEngine::new(&topo);
        for (ma_ts, mb_ts) in [(0u64, 0u64), (5, 1), (1, 5), (100, 3), (3, 100)] {
            let mut marks = HashMap::new();
            let mut ma = ConsumerMarks::new(1);
            if ma_ts > 0 {
                ma.advance(0, Timestamp(ma_ts));
            }
            marks.insert(a, ma);
            let mut mb = ConsumerMarks::new(1);
            if mb_ts > 0 {
                mb.advance(0, Timestamp(mb_ts));
            }
            marks.insert(b, mb);
            let res = eng.compute(&topo, &marks);
            let floor_a = if ma_ts > 0 { ma_ts + 1 } else { 0 };
            let skip_mid = res.thread_skip_before(mid).0;
            assert_eq!(
                res.buffer_dead_before(a).0,
                floor_a.max(skip_mid),
                "single-consumer buffer: dead = max(floor, consumer skip)"
            );
        }
    }
}
