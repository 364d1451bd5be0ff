//! The dense, id-indexed postmortem against the `HashMap` oracle it
//! replaced (`oracle/mod.rs`), over *arbitrary* event sequences: dangling
//! `Get`/`Free`, re-`Alloc` of an id, gets that precede their allocation,
//! iterations that appear only in a `SinkOutput`, block-gapped and huge ids,
//! several nodes, huge seqs. Every public query and every report must agree
//! exactly, whichever side of the dense/spill split a key lands on.
//!
//! Two things the generator keeps well-formed, because both
//! implementations `debug_assert` them: times never go backwards along the
//! sequence, and an id is freed at most once per allocation.

#[path = "oracle/mod.rs"]
mod oracle;

use aru_core::graph::NodeId;
use aru_metrics::footprint::ideal_series;
use aru_metrics::{
    FootprintReport, ItemId, IterKey, Lineage, PerfReport, Trace, TraceEvent, WasteReport,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;
use vtime::{Micros, SimTime, Timestamp};

/// Dense ids, ids one recorder block (256) apart, and ids no table may be
/// sized by.
const IDS: [u64; 12] = [
    0,
    1,
    2,
    3,
    4,
    5,
    256,
    257,
    512,
    1 << 40,
    u64::MAX - 1,
    u64::MAX,
];
const NODES: [u32; 5] = [0, 1, 2, 700, u32::MAX];
const SEQS: [u64; 6] = [0, 1, 2, 3, 90, u64::MAX];

/// One generated event: `(kind, id, node, seq, bytes, time step)`.
type Op = (u8, usize, usize, usize, u64, u64);

fn ops_strategy() -> impl Strategy<Value = (Vec<Op>, u64)> {
    (
        prop::collection::vec(
            (
                0u8..12,
                0usize..IDS.len(),
                0usize..NODES.len(),
                0usize..SEQS.len(),
                0u64..5_000,
                0u64..3,
            ),
            0..120,
        ),
        // The recorder's id bound: none, small, past the block gaps, absurd.
        0usize..4,
    )
        .prop_map(|(ops, b)| (ops, [0, 5, 600, u64::MAX][b]))
}

/// Materialize the ops; returns the trace and the latest allocation time.
fn build(ops: &[Op], next_item: u64) -> (Trace, SimTime) {
    let mut events = Vec::new();
    let mut freed: HashSet<u64> = HashSet::new();
    let mut t = 0u64;
    let mut last_alloc = SimTime::ZERO;
    for &(kind, id, node, seq, bytes, dt) in ops {
        t += dt;
        let (t, item) = (SimTime(t), ItemId(IDS[id]));
        let iter = IterKey::new(NodeId(NODES[node]), SEQS[seq]);
        events.push(match kind {
            0..=2 => {
                freed.remove(&item.0);
                last_alloc = t;
                TraceEvent::Alloc {
                    t,
                    item,
                    buffer: NodeId(NODES[(node + 1) % NODES.len()]),
                    ts: Timestamp(SEQS[(seq + id) % SEQS.len()]),
                    bytes,
                    producer: iter,
                }
            }
            3..=5 => TraceEvent::Get {
                t,
                item,
                consumer: iter,
            },
            6 | 7 => {
                if !freed.insert(item.0) {
                    continue;
                }
                TraceEvent::Free { t, item }
            }
            8 | 9 => TraceEvent::IterEnd {
                t,
                iter,
                busy: Micros(bytes % 50),
            },
            10 => TraceEvent::SinkOutput {
                t,
                iter,
                ts: Timestamp(SEQS[id % SEQS.len()]),
            },
            _ => TraceEvent::OpTimeout { t, node: iter.node },
        });
    }
    (Trace::from_events(events, next_item), last_alloc)
}

fn assert_agree(tr: &Trace, t_end: SimTime) -> Result<(), TestCaseError> {
    let new = Lineage::analyze(tr);
    let old = oracle::Lineage::analyze(tr);

    for id in IDS.map(ItemId) {
        prop_assert_eq!(new.is_item_used(id), old.is_item_used(id), "used {:?}", id);
        prop_assert_eq!(
            new.last_useful_get(id),
            old.last_useful_get(id),
            "get {:?}",
            id
        );
        prop_assert_eq!(
            new.ideal_release(id),
            old.ideal_release(id),
            "release {:?}",
            id
        );
    }
    for node in NODES {
        for seq in SEQS {
            let k = IterKey::new(NodeId(node), seq);
            prop_assert_eq!(new.is_iter_used(k), old.is_iter_used(k), "iter {:?}", k);
        }
    }
    prop_assert_eq!(new.item_counts(), old.item_counts());
    prop_assert!(new.item_counts().1 <= new.item_counts().0);
    prop_assert_eq!(new.sink_outputs(), &old.sink_outputs[..]);

    // The item table, in id order, field by field.
    let items: Vec<_> = new.items().collect();
    prop_assert_eq!(items.len(), old.items.len());
    for ((id, rec), (oid, orec)) in items.iter().zip(&old.items) {
        prop_assert_eq!(id, oid);
        prop_assert_eq!(
            (
                rec.alloc_t,
                rec.free_t(),
                rec.bytes,
                rec.ts,
                new.producer(*id),
                rec.used
            ),
            (
                orec.alloc_t,
                orec.free_t,
                orec.bytes,
                orec.ts,
                Some(orec.producer),
                old.is_item_used(*id)
            )
        );
    }
    // Iterations: each once; busy and usefulness as the oracle has them.
    let iters = new.iterations();
    let distinct: HashSet<IterKey> = iters.iter().map(|it| it.key).collect();
    prop_assert_eq!(distinct.len(), iters.len());
    for it in iters {
        let busy = old.iter_busy.get(&it.key).copied().unwrap_or(Micros::ZERO);
        prop_assert_eq!(
            (it.busy, it.used),
            (busy, old.is_iter_used(it.key)),
            "{:?}",
            it.key
        );
    }
    prop_assert!(old.iter_busy.keys().all(|k| distinct.contains(k)));

    // The five reports.
    prop_assert_eq!(
        WasteReport::compute(&new, t_end),
        oracle::waste(&old, t_end)
    );
    prop_assert_eq!(
        format!("{:?}", FootprintReport::compute(tr, &new, t_end)),
        format!("{:?}", oracle::footprint(tr, &old, t_end))
    );
    prop_assert_eq!(
        format!("{:?}", PerfReport::compute(tr, &new, t_end)),
        format!("{:?}", oracle::perf(&old, t_end))
    );
    // IdealGc::from_lineage is this series plus these two numbers
    // (`tests/postmortem_oracle.rs` compares the real thing).
    let (ideal, oracle_ideal) = (ideal_series(&new, t_end), oracle::ideal_series(&old, t_end));
    prop_assert_eq!(ideal.points(), oracle_ideal.points());
    let useful_busy = iters
        .iter()
        .filter(|it| it.used)
        .fold(Micros::ZERO, |acc, it| acc + it.busy);
    prop_assert_eq!((useful_busy, new.item_counts().1), oracle::igc_useful(&old));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn dense_postmortem_matches_the_hashmap_oracle(case in ops_strategy()) {
        let (ops, next_item) = case;
        let (tr, last_alloc) = build(&ops, next_item);
        // The run's end: at, after, and (clamping every later release) at
        // the last allocation.
        for t_end in [tr.last_time(), SimTime(tr.last_time().0 + 7), last_alloc] {
            assert_agree(&tr, t_end)?;
        }
    }
}

/// A recorder-shaped trace (ids in order, seqs counting up per node) takes
/// the dense side everywhere; the same events with every id and seq moved
/// out of range take the spill side. Both must match the oracle — and so
/// each other, up to the renaming.
#[test]
fn dense_side_and_spill_side_give_the_same_answers() {
    let shift = |far: bool| {
        let id = move |i: u64| ItemId(if far { u64::MAX - 100 + i } else { i });
        let key =
            move |n: u32, s: u64| IterKey::new(NodeId(n), if far { u64::MAX - 100 + s } else { s });
        let mut ev = Vec::new();
        for i in 0..40u64 {
            ev.push(TraceEvent::Alloc {
                t: SimTime(10 * i),
                item: id(i),
                buffer: NodeId(1),
                ts: Timestamp(i),
                bytes: 100 + i,
                producer: key(0, i),
            });
            ev.push(TraceEvent::IterEnd {
                t: SimTime(10 * i + 1),
                iter: key(0, i),
                busy: Micros(3),
            });
            if i % 3 == 0 {
                ev.push(TraceEvent::Get {
                    t: SimTime(10 * i + 2),
                    item: id(i),
                    consumer: key(2, i / 3),
                });
                if i % 2 == 0 {
                    ev.push(TraceEvent::SinkOutput {
                        t: SimTime(10 * i + 3),
                        iter: key(2, i / 3),
                        ts: Timestamp(i),
                    });
                }
                ev.push(TraceEvent::IterEnd {
                    t: SimTime(10 * i + 4),
                    iter: key(2, i / 3),
                    busy: Micros(2),
                });
                ev.push(TraceEvent::Free {
                    t: SimTime(10 * i + 5),
                    item: id(i),
                });
            }
        }
        Trace::from_events(ev, 40)
    };
    let (near, far) = (shift(false), shift(true));
    let t_end = near.last_time();
    assert_agree(&near, t_end).unwrap();
    assert_agree(&far, t_end).unwrap();
    let (a, b) = (Lineage::analyze(&near), Lineage::analyze(&far));
    assert_eq!(
        WasteReport::compute(&a, t_end),
        WasteReport::compute(&b, t_end)
    );
    let (ideal_a, ideal_b) = (ideal_series(&a, t_end), ideal_series(&b, t_end));
    assert_eq!(ideal_a.points(), ideal_b.points());
}
