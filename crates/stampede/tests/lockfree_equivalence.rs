//! Differential oracle: the lock-free queue against the mutex queue.
//!
//! `LfQueue` (DESIGN.md §14) must be observably equivalent to the
//! mutex-based `Queue` for everything a task can see on the data path —
//! returned items (FIFO order, payloads, timestamps), occupancy, byte
//! accounting, consumer marks, and the summary-STP a put returns —
//! under arbitrary interleavings of blocking and non-blocking ops. The mutex implementation stays compiled precisely
//! to serve as this oracle.
//!
//! Documented divergences (module docs on `lfqueue`), pinned by tests
//! here rather than papered over:
//!
//! * `Queue` is unbounded; `LfQueue` is bounded. The random driver keeps
//!   occupancy under the ring capacity so puts never block.
//! * `Queue::close` frees queued items; `LfQueue::close` leaves them
//!   drainable (the ring reclaims slots on pop).
//! * `LfQueue` records no per-item lineage trace events, so traces are
//!   not compared.

use aru_core::{AruConfig, NodeId, Stp};
use aru_metrics::{IterKey, SharedTrace};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stampede::bench_api;
use stampede::{LfQueue, Queue, StampedeError, TaskCtx};
use std::sync::Arc;
use vtime::{Clock, ManualClock, Micros, Timestamp, WallClock};

/// Ring capacity for the lock-free side; the driver keeps occupancy
/// safely below it so `LfQueue::put` never parks.
const CAPACITY: usize = 64;
const OCCUPANCY_CAP: usize = 48;

fn cfg() -> AruConfig {
    AruConfig::aru_min()
}

struct Pair {
    mx: Arc<Queue<Vec<u8>>>,
    lf: Arc<LfQueue<Vec<u8>>>,
    mx_ctx: TaskCtx,
    lf_ctx: TaskCtx,
    producer: IterKey,
    next_ts: u64,
    pending: usize,
}

impl Pair {
    fn new() -> Self {
        let clock = Arc::new(ManualClock::new());
        let mx_trace = SharedTrace::new();
        let lf_trace = SharedTrace::new();
        let mx = bench_api::queue(
            NodeId(1),
            "oracle-q",
            &cfg(),
            Arc::clone(&clock) as Arc<dyn Clock>,
            mx_trace.clone(),
            1,
        );
        let lf = bench_api::lfqueue(NodeId(1), "lf-q", &cfg(), CAPACITY, lf_trace.clone(), 1);
        let ctx = |trace: &SharedTrace| {
            let mut c = bench_api::task_ctx(
                NodeId(9),
                "oracle-task",
                1,
                false,
                &cfg(),
                Arc::clone(&clock) as Arc<dyn Clock>,
                trace.clone(),
            );
            // A warmed summary makes every get a deposit, so the queues'
            // controllers (and the summary puts return) have state to agree on.
            bench_api::warm_summary(&mut c, Stp(Micros(1_234)));
            c
        };
        Pair {
            mx,
            lf,
            mx_ctx: ctx(&mx_trace),
            lf_ctx: ctx(&lf_trace),
            producer: IterKey::new(NodeId(7), 0),
            next_ts: 0,
            pending: 0,
        }
    }

    fn put(&mut self, size: usize) -> Result<(), TestCaseError> {
        if self.pending + 1 > OCCUPANCY_CAP {
            return Ok(());
        }
        let ts = Timestamp(self.next_ts);
        self.next_ts += 1;
        self.pending += 1;
        let payload = vec![ts.raw() as u8; size];
        let a = self.mx.put(ts, payload.clone(), self.producer).unwrap();
        let b = self.lf.put(ts, payload, self.producer).unwrap();
        prop_assert_eq!(a, b, "put must return the same summary-STP");
        self.check_observables()
    }

    fn get(&mut self) -> Result<(), TestCaseError> {
        if self.pending == 0 {
            return self.try_get();
        }
        self.pending -= 1;
        let a = self.mx.get(0, &mut self.mx_ctx).unwrap();
        let b = self.lf.get(0, &mut self.lf_ctx).unwrap();
        prop_assert_eq!(a.ts, b.ts, "FIFO order must match");
        prop_assert_eq!(a.value.as_ref(), &b.value, "payloads must match");
        self.check_observables()
    }

    fn try_get(&mut self) -> Result<(), TestCaseError> {
        let a = self.mx.try_get(0, &mut self.mx_ctx).unwrap();
        let b = self.lf.try_get(0, &mut self.lf_ctx).unwrap();
        match (&a, &b) {
            (Some(x), Some(y)) => {
                self.pending -= 1;
                prop_assert_eq!(x.ts, y.ts);
                prop_assert_eq!(x.value.as_ref(), &y.value);
            }
            (None, None) => {}
            _ => prop_assert!(false, "try_get availability must match"),
        }
        self.check_observables()
    }

    fn check_observables(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.mx.len(), self.lf.len(), "occupancy must match");
        prop_assert_eq!(
            self.mx.live_bytes(),
            self.lf.live_bytes(),
            "byte accounting must match"
        );
        Ok(())
    }

    fn check_final(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            self.mx.marks_snapshot().mark(0),
            self.lf.marks_snapshot().mark(0),
            "consumer GC marks must match"
        );
        prop_assert_eq!(
            self.mx.summary(),
            self.lf.summary(),
            "controller summary state must match"
        );
        Ok(())
    }
}

proptest! {
    /// Random op sequences over both queues: every observable the data
    /// path exposes agrees after every op, and the control-plane state
    /// (marks, summary) agrees at the end.
    #[test]
    fn random_op_sequences_agree_with_mutex_oracle(
        ops in prop::collection::vec((0u64..3, 1u64..33), 1..200)
    ) {
        let mut pair = Pair::new();
        for (kind, size) in ops {
            match kind {
                0 => pair.put(size as usize)?,
                1 => pair.try_get()?,
                2 => pair.get()?,
                _ => unreachable!(),
            }
        }
        pair.check_final()?;
    }
}

/// Scripted mixed sequence pinning the exact FIFO stream both queues
/// must produce (a readable anchor next to the randomized property).
#[test]
fn scripted_mixed_ops_produce_identical_streams() {
    let mut pair = Pair::new();
    pair.put(8).unwrap();
    for _ in 0..5 {
        pair.put(16).unwrap();
    }
    for _ in 0..4 {
        pair.get().unwrap();
    }
    pair.put(4).unwrap();
    pair.try_get().unwrap();
    pair.try_get().unwrap();
    pair.try_get().unwrap(); // drains to empty: both sides report None
    pair.check_final().unwrap();
    assert_eq!(pair.mx.len(), 0);
    assert_eq!(pair.lf.len(), 0);
}

/// The one intended close-semantics divergence, pinned so a future
/// change to either side trips a test instead of silently shifting
/// behavior: the mutex queue frees queued items on close, the lock-free
/// queue leaves them drainable and reports `Closed` only once empty.
#[test]
fn close_semantics_divergence_is_pinned() {
    let mut pair = Pair::new();
    for _ in 0..3 {
        pair.put(8).unwrap();
    }

    pair.mx.close();
    pair.lf.close();

    // Mutex oracle: items freed, consumers see Closed immediately.
    assert_eq!(pair.mx.len(), 0);
    assert_eq!(pair.mx.live_bytes(), 0);
    assert!(matches!(
        pair.mx.try_get(0, &mut pair.mx_ctx),
        Err(StampedeError::Closed)
    ));

    // Lock-free queue: the queued prefix drains, then Closed.
    assert_eq!(pair.lf.len(), 3);
    for i in 0..3u64 {
        let it = pair.lf.get(0, &mut pair.lf_ctx).unwrap();
        assert_eq!(it.ts, Timestamp(i));
    }
    assert!(matches!(
        pair.lf.try_get(0, &mut pair.lf_ctx),
        Err(StampedeError::Closed)
    ));
    assert_eq!(pair.lf.live_bytes(), 0);

    // New puts fail identically on both sides.
    let p = pair.producer;
    assert!(matches!(
        pair.mx.put(Timestamp(99), vec![0; 4], p),
        Err(StampedeError::Closed)
    ));
    assert!(matches!(
        pair.lf.put(Timestamp(99), vec![0; 4], p),
        Err(StampedeError::Closed)
    ));
}

/// Close racing a drain: a consumer looping `get` while the producer is
/// still putting (and then closes) must receive every item exactly once,
/// in FIFO order, with no gap and no stranded tail — close never strands
/// a drainable item. Pins the close/`get` race the single-threaded
/// scripted tests above cannot reach.
#[test]
fn close_mid_drain_delivers_contiguous_stream_then_closed() {
    const ITEMS: u64 = 40; // stays under CAPACITY so puts never park
    for round in 0..50 {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let trace = SharedTrace::new();
        let lf = bench_api::lfqueue::<Vec<u8>>(
            NodeId(1),
            "lf-close",
            &cfg(),
            CAPACITY,
            trace.clone(),
            1,
        );
        let producer = IterKey::new(NodeId(7), 0);
        let prod = {
            let lf = Arc::clone(&lf);
            std::thread::spawn(move || {
                for i in 0..ITEMS {
                    lf.put(Timestamp(i), vec![i as u8; 8], producer).unwrap();
                }
                lf.close();
            })
        };
        let mut ctx = bench_api::task_ctx(
            NodeId(9),
            "drain-task",
            1,
            false,
            &cfg(),
            Arc::clone(&clock),
            trace.clone(),
        );
        bench_api::warm_summary(&mut ctx, Stp(Micros(1_234)));
        // A generous timeout so a lost wakeup fails the test instead of
        // hanging it.
        bench_api::set_op_timeout(&mut ctx, Micros::from_millis(5_000));
        let mut seen = Vec::new();
        loop {
            match lf.get(0, &mut ctx) {
                Ok(item) => seen.push(item.ts.raw()),
                Err(StampedeError::Closed) => break,
                Err(e) => panic!("round {round}: unexpected error mid-drain: {e:?}"),
            }
        }
        prod.join().unwrap();
        let expect: Vec<u64> = (0..ITEMS).collect();
        assert_eq!(seen, expect, "round {round}: stream torn or stranded");
        assert_eq!(lf.live_bytes(), 0);
        assert!(matches!(
            lf.try_get(0, &mut ctx),
            Err(StampedeError::Closed)
        ));
    }
}

/// The occupancy pair `(len, live_bytes)` must never tear: with every
/// item the same size, any snapshot a concurrent observer takes satisfies
/// `bytes == len * size` exactly. Hammers the mutex queue's `occupancy()`
/// from a racing reader; both values are read under one hold of the state
/// lock (the loom suite pins the same invariant on the channel under
/// exhaustive interleavings).
#[test]
fn occupancy_pair_never_tears_under_concurrent_ops() {
    const SIZE: usize = 7;
    const ITEMS: u64 = 4_000;
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let trace = SharedTrace::new();
    let q = bench_api::queue::<Vec<u8>>(
        NodeId(1),
        "obs-q",
        &cfg(),
        Arc::clone(&clock),
        trace.clone(),
        1,
    );
    let producer = IterKey::new(NodeId(7), 0);
    let prod = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            for i in 0..ITEMS {
                q.put(Timestamp(i), vec![0u8; SIZE], producer).unwrap();
            }
        })
    };
    let cons = {
        let q = Arc::clone(&q);
        let clock = Arc::clone(&clock);
        let trace = trace.clone();
        std::thread::spawn(move || {
            let mut ctx =
                bench_api::task_ctx(NodeId(9), "obs-task", 1, false, &cfg(), clock, trace);
            bench_api::warm_summary(&mut ctx, Stp(Micros(1_234)));
            let mut drained = 0u64;
            while drained < ITEMS {
                if q.try_get(0, &mut ctx).unwrap().is_some() {
                    drained += 1;
                }
            }
        })
    };
    while !prod.is_finished() || !cons.is_finished() {
        let (len, bytes) = q.occupancy();
        assert_eq!(
            bytes,
            len as u64 * SIZE as u64,
            "torn occupancy pair: len {len}, bytes {bytes}"
        );
    }
    prod.join().unwrap();
    cons.join().unwrap();
    assert_eq!(q.occupancy(), (0, 0));
}
