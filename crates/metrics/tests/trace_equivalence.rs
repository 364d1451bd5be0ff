//! Recorder equivalence: the sharded [`SharedTrace`]/[`LocalTrace`] stack
//! must be a pure performance change. For a fixed-seed synthetic run, the
//! postmortem reports computed from the coarse recorder it replaced — one
//! global `Mutex<Trace>`, kept here as the oracle — and from the sharded
//! recorder must render byte-identically, and concurrent buffered writers
//! must never lose or duplicate an event.

use aru_core::graph::NodeId;
use aru_metrics::{
    FootprintReport, ItemId, IterKey, Lineage, PerfReport, SharedTrace, Trace, TraceEvent,
    TraceSink, WasteReport,
};
use proptest::prelude::*;
use std::sync::Mutex;
use vtime::{Micros, SimTime, Timestamp};

/// Deterministic splitmix64 — the fixed-seed op-sequence generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One synthetic buffer-op. `Get`/`Free`/`Emit` pick an item by *index in
/// allocation order*, so the same script drives any recorder even though
/// sharded item ids are block-allocated (non-dense).
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc { bytes: u64 },
    Get { nth: usize },
    Free { nth: usize },
    IterEnd,
    Emit { nth: usize },
}

/// Generate a fixed-length op script from a seed. Ids are tracked by
/// allocation index; frees pick only live items.
fn script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut ops = Vec::with_capacity(len);
    let mut allocated = 0usize;
    let mut live: Vec<usize> = Vec::new();
    for _ in 0..len {
        let r = rng.below(100);
        let op = if allocated == 0 || r < 40 {
            live.push(allocated);
            allocated += 1;
            Op::Alloc {
                bytes: 1 + rng.below(100_000),
            }
        } else if r < 60 {
            Op::Get {
                nth: rng.below(allocated as u64) as usize,
            }
        } else if r < 75 && !live.is_empty() {
            let k = rng.below(live.len() as u64) as usize;
            Op::Free {
                nth: live.swap_remove(k),
            }
        } else if r < 90 {
            Op::IterEnd
        } else {
            Op::Emit {
                nth: rng.below(allocated as u64) as usize,
            }
        };
        ops.push(op);
    }
    ops
}

/// Apply a script through any recorder, via closures over its five ops.
#[allow(clippy::type_complexity)]
fn apply(
    ops: &[Op],
    mut alloc: impl FnMut(SimTime, Timestamp, u64, IterKey) -> ItemId,
    mut get: impl FnMut(SimTime, ItemId, IterKey),
    mut free: impl FnMut(SimTime, ItemId),
    mut iter_end: impl FnMut(SimTime, IterKey, Micros),
    mut emit: impl FnMut(SimTime, IterKey, Timestamp),
) {
    let src = IterKey::new(NodeId(0), 0);
    let snk = IterKey::new(NodeId(2), 0);
    let mut ids: Vec<ItemId> = Vec::new();
    let mut t = 0u64;
    let mut iter = 0u64;
    for op in ops {
        t += 7;
        match *op {
            Op::Alloc { bytes } => {
                let ts = Timestamp(ids.len() as u64);
                ids.push(alloc(SimTime(t), ts, bytes, src));
            }
            Op::Get { nth } => get(SimTime(t), ids[nth], snk),
            Op::Free { nth } => free(SimTime(t), ids[nth]),
            Op::IterEnd => {
                iter_end(SimTime(t), IterKey::new(NodeId(2), iter), Micros(5));
                iter += 1;
            }
            Op::Emit { nth } => emit(SimTime(t), snk, Timestamp(nth as u64)),
        }
    }
}

/// Render every postmortem report to one string — the byte-compared unit.
fn reports(trace: &Trace) -> String {
    let t_end = trace.last_time();
    let lineage = Lineage::analyze(trace);
    let waste = WasteReport::compute(&lineage, t_end);
    let footprint = FootprintReport::compute(trace, &lineage, t_end);
    let perf = PerfReport::compute(trace, &lineage, t_end);
    format!("{waste:?}\n{footprint:?}\n{perf:?}")
}

#[test]
fn fixed_seed_reports_are_byte_identical_across_recorders() {
    let buf = NodeId(1);
    for seed in [2005u64, 7, 0xdead_beef] {
        let ops = script(seed, 4000);

        let coarse = Mutex::new(Trace::new());
        apply(
            &ops,
            |t, ts, bytes, p| coarse.lock().unwrap().alloc(t, buf, ts, bytes, p),
            |t, id, c| coarse.lock().unwrap().get(t, id, c),
            |t, id| coarse.lock().unwrap().free(t, id),
            |t, iter, busy| {
                coarse
                    .lock()
                    .unwrap()
                    .record(TraceEvent::IterEnd { t, iter, busy })
            },
            |t, k, ts| coarse.lock().unwrap().sink_output(t, k, ts),
        );

        // Two buffered writers, one for the buffer's item events and one
        // for the task's own records — the runtime's exact split. (RefCell
        // only because `apply` takes one closure per op; the runtime owns
        // a buffer's LocalTrace behind its state mutex and a task's in its
        // context.)
        let shared = SharedTrace::new();
        let local = std::cell::RefCell::new(shared.local());
        let task = std::cell::RefCell::new(shared.local());
        apply(
            &ops,
            |t, ts, bytes, p| local.borrow_mut().alloc(t, buf, ts, bytes, p),
            |t, id, c| local.borrow_mut().get(t, id, c),
            |t, id| local.borrow_mut().free(t, id),
            |t, iter, busy| {
                task.borrow_mut()
                    .record(TraceEvent::IterEnd { t, iter, busy })
            },
            |t, k, ts| task.borrow_mut().sink_output(t, k, ts),
        );
        drop((local, task));

        assert_eq!(
            reports(&coarse.into_inner().unwrap()),
            reports(&shared.snapshot()),
            "seed {seed}: buffered-writer reports diverge from coarse"
        );
    }
}

#[test]
fn coarse_and_local_agree_on_event_multiset() {
    let mut coarse = Trace::new();
    let shared = SharedTrace::new();
    let mut local = shared.local();
    let p = IterKey::new(NodeId(0), 0);
    for j in 0..10u64 {
        coarse.alloc(SimTime(j), NodeId(1), Timestamp(j), 5, p);
        local.alloc(SimTime(j), NodeId(1), Timestamp(j), 5, p);
    }
    drop(local);
    let snap = shared.snapshot();
    assert_eq!(coarse.events(), snap.events());
    assert_eq!(coarse.last_time(), snap.last_time());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent buffered writers: whatever the thread count, op count and
    /// interleaving, the snapshot holds exactly the recorded events — none
    /// lost at chunk seals or flushes, no item id duplicated — and is
    /// time-ordered.
    #[test]
    fn concurrent_writers_lose_nothing(
        threads in 2usize..5,
        per in 1u64..3000,
        seed in any::<u64>(),
    ) {
        let tr = SharedTrace::new();
        std::thread::scope(|s| {
            for i in 0..threads {
                let tr = &tr;
                s.spawn(move || {
                    let mut rng = Rng(seed ^ i as u64);
                    let mut local = tr.local();
                    let p = IterKey::new(NodeId(i as u32), 0);
                    for j in 0..per {
                        let id = local.alloc(SimTime(j), NodeId(9), Timestamp(j), 1, p);
                        if rng.below(2) == 0 {
                            local.get(SimTime(j), id, p);
                            local.free(SimTime(j), id);
                        }
                    }
                });
            }
        });
        let snap = tr.snapshot();
        let mut ids: Vec<u64> = snap
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Alloc { item, .. } => Some(item.0),
                _ => None,
            })
            .collect();
        prop_assert_eq!(ids.len() as u64, threads as u64 * per, "lost an alloc");
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "duplicated item id");
        let times: Vec<SimTime> = snap.events().iter().map(TraceEvent::time).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "snapshot not time-ordered");
    }
}
