//! Property-based tests of the GC algorithms over random topologies and
//! consumption states.

use aru_core::{AruConfig, NodeId, NodeKind, Topology};
use aru_gc::{
    ref_dead_before, Acquire, BufferCore, ConsumerMarks, DgcEngine, DgcResult, Footprint, GcMode,
    InputPolicy,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, HashMap};
use vtime::{Timestamp, TsStore};

/// A random alternating pipeline with optional fan-out at each stage:
/// thread → {1..3 channels} → thread → … , ending in sink threads.
#[derive(Debug, Clone)]
struct RandomGraph {
    /// fan-out degree per stage (1..=2), and marks per channel consumer.
    stages: Vec<u8>,
    marks_raw: Vec<u64>,
}

fn graph_strategy() -> impl Strategy<Value = RandomGraph> {
    (
        prop::collection::vec(1u8..3, 1..4),
        prop::collection::vec(0u64..100, 0..40),
    )
        .prop_map(|(stages, marks_raw)| RandomGraph { stages, marks_raw })
}

/// Build: one source; per stage, `fan` channels each feeding its own
/// consumer thread; consumers of stage i are producers of stage i+1 (first
/// consumer only, to keep it a DAG without re-merging).
fn build(g: &RandomGraph) -> (Topology, Vec<NodeId>, HashMap<NodeId, ConsumerMarks>) {
    let mut topo = Topology::new();
    let mut marks = HashMap::new();
    let mut chans = Vec::new();
    let mut producer = topo.add_thread("src");
    let mut mark_iter = g.marks_raw.iter().copied();
    for (si, &fan) in g.stages.iter().enumerate() {
        let mut next_producer = None;
        for f in 0..fan {
            let c = topo.add_channel(format!("c{si}_{f}"));
            topo.connect(producer, c).unwrap();
            let t = topo.add_thread(format!("t{si}_{f}"));
            topo.connect(c, t).unwrap();
            let mut m = ConsumerMarks::new(1);
            if let Some(raw) = mark_iter.next() {
                if raw > 0 {
                    m.advance(0, Timestamp(raw));
                }
            }
            marks.insert(c, m);
            chans.push(c);
            if next_producer.is_none() {
                next_producer = Some(t);
            }
        }
        producer = next_producer.unwrap();
    }
    (topo, chans, marks)
}

/// The sweep as it stood before the dense result: one `HashMap` per bound,
/// filled node by node in reverse topological order. Kept here, and only
/// here, as the reference `DgcEngine::compute_into` is checked against.
#[derive(Default)]
struct OracleResult {
    dead_before: HashMap<NodeId, Timestamp>,
    skip_before: HashMap<NodeId, Timestamp>,
}

impl OracleResult {
    fn buffer_dead_before(&self, b: NodeId) -> Timestamp {
        self.dead_before.get(&b).copied().unwrap_or(Timestamp::ZERO)
    }

    fn thread_skip_before(&self, t: NodeId) -> Timestamp {
        self.skip_before.get(&t).copied().unwrap_or(Timestamp::ZERO)
    }
}

fn oracle_compute(topo: &Topology, marks: &HashMap<NodeId, ConsumerMarks>) -> OracleResult {
    let mut order = topo.topo_order().expect("acyclic");
    order.reverse();
    let mut res = OracleResult::default();
    for n in order {
        match topo.kind(n) {
            NodeKind::Thread => {
                let skip = if topo.out_degree(n) == 0 {
                    Timestamp::ZERO
                } else {
                    topo.outputs(n)
                        .map(|e| res.buffer_dead_before(e.to))
                        .min()
                        .unwrap_or(Timestamp::ZERO)
                };
                res.skip_before.insert(n, skip);
            }
            NodeKind::Channel | NodeKind::Queue => {
                let dead = if topo.out_degree(n) == 0 {
                    Timestamp(u64::MAX)
                } else {
                    topo.outputs(n)
                        .map(|e| {
                            let floor = marks
                                .get(&n)
                                .map(|m| m.floor(e.out_index))
                                .unwrap_or(Timestamp::ZERO);
                            floor.max(res.thread_skip_before(e.to))
                        })
                        .min()
                        .unwrap_or(Timestamp::ZERO)
                };
                res.dead_before.insert(n, dead);
            }
        }
    }
    res
}

/// A random bipartite DAG: nodes in a fixed order, each a thread or a
/// buffer, and edges only from an earlier node to a later one of the other
/// kind — fan-in, fan-out, re-merging, isolated nodes, consumerless
/// buffers and parallel edges all occur. Every buffer draws either no
/// marks at all (absent from the map) or one raw mark per consumer slot
/// (0 = that consumer has read nothing yet).
#[derive(Debug, Clone)]
struct RandomDag {
    is_thread: Vec<bool>,
    edges: Vec<(usize, usize)>,
    /// Per node: 0 = absent from the marks map; the rest seeds the marks.
    marks_raw: Vec<u64>,
}

fn dag_strategy() -> impl Strategy<Value = RandomDag> {
    (
        prop::collection::vec(any::<bool>(), 1..14),
        prop::collection::vec((0usize..14, 0usize..14), 0..40),
        prop::collection::vec(0u64..1_000_000, 14..15),
    )
        .prop_map(|(is_thread, edges, marks_raw)| RandomDag {
            is_thread,
            edges,
            marks_raw,
        })
}

fn build_dag(g: &RandomDag) -> (Topology, HashMap<NodeId, ConsumerMarks>) {
    let mut topo = Topology::new();
    let n = g.is_thread.len();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            if g.is_thread[i] {
                topo.add_thread(format!("t{i}"))
            } else if i % 2 == 0 {
                topo.add_channel(format!("c{i}"))
            } else {
                topo.add_queue(format!("q{i}"))
            }
        })
        .collect();
    for &(a, b) in &g.edges {
        let (a, b) = (a % n, b % n);
        let (from, to) = (a.min(b), a.max(b));
        if g.is_thread[from] != g.is_thread[to] {
            topo.connect(ids[from], ids[to]).unwrap();
        }
    }
    let mut marks = HashMap::new();
    for (i, &id) in ids.iter().enumerate() {
        let raw = g.marks_raw[i];
        if g.is_thread[i] || raw & 3 == 0 {
            continue; // a quarter of the buffers stay absent: floor 0
        }
        let slots = topo.out_degree(id);
        let mut m = ConsumerMarks::new(slots);
        for slot in 0..slots {
            // A different mark per slot; some slots never advanced.
            let ts = (raw >> (slot % 8)) % 97;
            if ts > 0 {
                m.advance(slot, Timestamp(ts));
            }
        }
        marks.insert(id, m);
    }
    (topo, marks)
}

fn assert_matches_oracle(
    topo: &Topology,
    marks: &HashMap<NodeId, ConsumerMarks>,
    got: &DgcResult,
) -> Result<(), TestCaseError> {
    let want = oracle_compute(topo, marks);
    for n in topo.node_ids() {
        if topo.kind(n).is_thread() {
            prop_assert_eq!(
                got.thread_skip_before(n),
                want.thread_skip_before(n),
                "skip_before({})",
                topo.name(n)
            );
        } else {
            prop_assert_eq!(
                got.buffer_dead_before(n),
                want.buffer_dead_before(n),
                "dead_before({})",
                topo.name(n)
            );
        }
    }
    // Past the graph's last node is "unknown", whatever the buffer held
    // before this pass.
    for past in topo.node_count()..topo.node_count() + 16 {
        prop_assert_eq!(got.buffer_dead_before(NodeId(past as u32)), Timestamp::ZERO);
        prop_assert_eq!(got.thread_skip_before(NodeId(past as u32)), Timestamp::ZERO);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dense sweep against the `HashMap` sweep it replaced, through
    /// both entry points: `compute` (a fresh result) and `compute_into`
    /// with one result buffer carried across two graphs of different size
    /// — the second pass must not see anything the first left behind.
    #[test]
    fn dense_sweep_matches_hashmap_oracle(a in dag_strategy(), b in dag_strategy()) {
        let mut reused = DgcResult::default();
        for g in [&a, &b, &a] {
            let (topo, marks) = build_dag(g);
            let engine = DgcEngine::new(&topo);
            assert_matches_oracle(&topo, &marks, &engine.compute(&topo, &marks))?;
            engine.compute_into(|n| marks.get(&n), &mut reused);
            assert_matches_oracle(&topo, &marks, &reused)?;
        }
    }

    /// DGC's bound dominates REF's bound on every buffer (cross-node
    /// knowledge can only reclaim more), and never reclaims what a
    /// sink-feeding consumer may still request.
    #[test]
    fn dgc_dominates_ref_and_respects_sinks(g in graph_strategy()) {
        let (topo, chans, marks) = build(&g);
        let engine = DgcEngine::new(&topo);
        let res = engine.compute(&topo, &marks);
        for &c in &chans {
            let ref_bound = ref_dead_before(&marks[&c]);
            let dgc_bound = res.buffer_dead_before(c);
            prop_assert!(
                dgc_bound >= ref_bound,
                "{}: dgc {dgc_bound:?} < ref {ref_bound:?}", topo.name(c)
            );
            // Buffers whose consumer is a sink: bound == consumer floor.
            let consumer = topo.outputs(c).next().unwrap().to;
            if topo.out_degree(consumer) == 0 {
                prop_assert_eq!(
                    dgc_bound, marks[&c].floor(0),
                    "sink-feeding buffer over-reclaimed"
                );
            }
        }
    }

    /// Monotonicity: advancing any single consumer mark never lowers any
    /// dead-before or skip-before bound.
    #[test]
    fn dgc_is_monotone_in_marks(g in graph_strategy(), bump in 1u64..50) {
        let (topo, chans, marks) = build(&g);
        if chans.is_empty() {
            return Ok(());
        }
        let engine = DgcEngine::new(&topo);
        let before = engine.compute(&topo, &marks);
        // bump the first channel's consumer mark
        let mut marks2 = marks.clone();
        let target = chans[0];
        let cur = marks2[&target].mark(0).map_or(0, |t| t.raw());
        marks2.get_mut(&target).unwrap().advance(0, Timestamp(cur + bump));
        let after = engine.compute(&topo, &marks2);
        for n in topo.node_ids() {
            match topo.kind(n) {
                NodeKind::Channel | NodeKind::Queue => prop_assert!(
                    after.buffer_dead_before(n) >= before.buffer_dead_before(n),
                    "dead_before regressed at {}", topo.name(n)
                ),
                NodeKind::Thread => prop_assert!(
                    after.thread_skip_before(n) >= before.thread_skip_before(n),
                    "skip_before regressed at {}", topo.name(n)
                ),
            }
        }
    }

    /// Idempotence: recomputing with the same marks yields the same bounds.
    #[test]
    fn dgc_is_deterministic(g in graph_strategy()) {
        let (topo, _chans, marks) = build(&g);
        let engine = DgcEngine::new(&topo);
        let a = engine.compute(&topo, &marks);
        let b = engine.compute(&topo, &marks);
        for n in topo.node_ids() {
            prop_assert_eq!(a.buffer_dead_before(n), b.buffer_dead_before(n));
            prop_assert_eq!(a.thread_skip_before(n), b.thread_skip_before(n));
        }
    }

    /// REF floor equals the minimum consumer floor (mark + 1, or 0).
    #[test]
    fn ref_bound_is_min_floor(raw in prop::collection::vec(0u64..1000, 1..6)) {
        let mut m = ConsumerMarks::new(raw.len());
        for (i, &r) in raw.iter().enumerate() {
            if r > 0 {
                m.advance(i, Timestamp(r));
            }
        }
        let want = raw.iter().map(|&r| if r > 0 { r + 1 } else { 0 }).min().unwrap();
        prop_assert_eq!(ref_dead_before(&m), Timestamp(want));
    }
}

/// An item of the `BufferCore` model test: its id, and bytes derived from
/// it so a replacement changes the live-byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Item(u64);

impl Footprint for Item {
    fn bytes(&self) -> u64 {
        1 + self.0 % 7
    }
}

#[derive(Debug, Clone, Copy)]
enum BufOp {
    Insert(u64),
    Lookup(InputPolicy, u64, u64),
    Release(usize, u64),
    RaiseDgc(u64),
    Drain,
}

const POLICIES: [InputPolicy; 5] = [
    InputPolicy::DriverLatest,
    InputPolicy::FifoNext,
    InputPolicy::JoinExact,
    InputPolicy::JoinLatestAtOrBefore,
    InputPolicy::LatestOpt,
];

fn buf_op_strategy() -> impl Strategy<Value = BufOp> {
    (0u8..40, 0u64..60, 0u64..60, 0usize..5).prop_map(|(k, a, b, i)| match k {
        0..=17 => BufOp::Insert(a), // small range: replacements are common
        18..=27 => BufOp::Lookup(POLICIES[i], a, b),
        28..=33 => BufOp::Release(i, a),
        34..=38 => BufOp::RaiseDgc(a),
        _ => BufOp::Drain,
    })
}

/// The buffer semantics spelled out over a `BTreeMap`: REF floor = min
/// consumer floor (everything, with no consumers), DGC raises it, and items
/// below the bound are gone the moment it moves.
struct BufModel {
    gc: GcMode,
    items: BTreeMap<Timestamp, Item>,
    marks: Vec<Option<u64>>,
    dgc: Timestamp,
    purged: Timestamp,
}

impl BufModel {
    fn bound(&self) -> Timestamp {
        let floor = |m: &Option<u64>| m.map_or(0, |t| t + 1);
        let ref_floor = Timestamp(self.marks.iter().map(floor).min().unwrap_or(u64::MAX));
        match self.gc {
            GcMode::None => Timestamp::ZERO,
            GcMode::Ref => ref_floor,
            GcMode::Dgc => ref_floor.max(self.dgc),
        }
    }

    /// Purge if the bound moved; the freed items, in timestamp order.
    fn purge(&mut self) -> Vec<Item> {
        let bound = self.bound();
        if bound <= self.purged {
            return Vec::new();
        }
        self.purged = bound;
        let keep = self.items.split_off(&bound);
        std::mem::replace(&mut self.items, keep)
            .into_values()
            .collect()
    }

    fn lookup(
        &self,
        policy: InputPolicy,
        floor: Timestamp,
        driver: Timestamp,
    ) -> Acquire<'_, Item> {
        let newest = self.items.iter().next_back();
        let found = match policy {
            InputPolicy::DriverLatest | InputPolicy::LatestOpt => {
                newest.filter(|(&ts, _)| ts >= floor)
            }
            InputPolicy::FifoNext => self.items.get_key_value(&floor),
            InputPolicy::JoinExact => self.items.get_key_value(&driver),
            InputPolicy::JoinLatestAtOrBefore => self.items.range(..=driver).next_back().or(newest),
        };
        match (found, policy) {
            (Some((&ts, item)), _) => Acquire::Got(ts, item),
            (None, InputPolicy::LatestOpt) => Acquire::Skip,
            (None, InputPolicy::JoinExact) if newest.is_some_and(|(&ts, _)| ts > driver) => {
                Acquire::Abandon
            }
            (None, _) => Acquire::Block,
        }
    }
}

/// The frees of one core op, in the order the core handed them over, and
/// the same items as the model frees them (timestamp order, which the
/// store's order need not be), compared as a set; the order itself is
/// checked against a shadow `TsStore` holding the same items.
fn check_frees(
    got: &[Item],
    want: Vec<Item>,
    shadow_order: Vec<Item>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, &shadow_order[..], "freed out of store order");
    let mut got = got.to_vec();
    got.sort_unstable_by_key(|i| i.0);
    let mut want = want;
    want.sort_unstable_by_key(|i| i.0);
    prop_assert_eq!(got, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `BufferCore` against the model, under every GC mode and consumer
    /// count: each lookup's result, the exact items each op frees (a
    /// replacement's displaced item, a dead-on-arrival insert, a purge, a
    /// drain), the live bytes, and a dead bound that never moves backwards.
    #[test]
    fn buffer_core_matches_model(
        mode in 0u8..3,
        consumers in 0usize..3,
        ops in prop::collection::vec(buf_op_strategy(), 1..100),
    ) {
        let gc = [GcMode::None, GcMode::Ref, GcMode::Dgc][mode as usize];
        let mut core = BufferCore::new(gc, &AruConfig::aru_min());
        prop_assert_eq!(core.configure(consumers, |_| {}), 0);
        let mut model = BufModel {
            gc,
            items: BTreeMap::new(),
            marks: vec![None; consumers],
            dgc: Timestamp::ZERO,
            purged: Timestamp::ZERO,
        };
        model.purge(); // configure moves the watermark to the bound
        let mut shadow: TsStore<Item> = TsStore::new();
        let mut next_id = 0;
        let mut last_bound = core.dead_before();
        for op in ops {
            let mut freed = Vec::new();
            match op {
                BufOp::Insert(t) => {
                    let (ts, item) = (Timestamp(t), Item(next_id));
                    next_id += 1;
                    core.insert(ts, item, |v| freed.push(v));
                    let want = if ts < model.purged {
                        vec![item]
                    } else {
                        shadow.insert(ts, item);
                        model.items.insert(ts, item).into_iter().collect()
                    };
                    prop_assert_eq!(freed, want);
                }
                BufOp::Lookup(policy, floor, driver) => {
                    let (floor, driver) = (Timestamp(floor), Timestamp(driver));
                    prop_assert_eq!(
                        core.lookup(policy, floor, Some(driver)),
                        model.lookup(policy, floor, driver)
                    );
                }
                BufOp::Release(i, t) if consumers > 0 => {
                    let idx = i % consumers;
                    let n = core.release(idx, Timestamp(t), |v| freed.push(v));
                    prop_assert_eq!(n, freed.len());
                    let mark = &mut model.marks[idx];
                    *mark = Some(mark.map_or(t, |m| m.max(t)));
                    let mut order = Vec::new();
                    shadow.purge_before(core.dead_before(), |v| order.push(v));
                    check_frees(&freed, model.purge(), order)?;
                }
                BufOp::Release(..) => {}
                BufOp::RaiseDgc(t) => {
                    let n = core.raise_dgc(Timestamp(t), |v| freed.push(v));
                    prop_assert_eq!(n, freed.len());
                    model.dgc = model.dgc.max(Timestamp(t));
                    let mut order = Vec::new();
                    shadow.purge_before(core.dead_before(), |v| order.push(v));
                    check_frees(&freed, model.purge(), order)?;
                }
                BufOp::Drain => {
                    core.drain(|v| freed.push(v));
                    let mut order = Vec::new();
                    shadow.drain(|v| order.push(v));
                    check_frees(&freed, std::mem::take(&mut model.items).into_values().collect(), order)?;
                }
            }
            let bound = core.dead_before();
            prop_assert_eq!(bound, model.bound());
            prop_assert!(bound >= last_bound, "dead bound moved back: {:?} -> {:?}", last_bound, bound);
            last_bound = bound;
            prop_assert_eq!(core.store().len(), model.items.len());
            prop_assert_eq!(core.live_bytes(), model.items.values().map(Footprint::bytes).sum::<u64>());
        }
    }
}
