//! Model-checked concurrency tests for the runtime's blocking protocols.
//!
//! These only compile under `RUSTFLAGS="--cfg loom"`; run them with
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p stampede --lib loom_
//! ```
//!
//! Every `Mutex`/`Condvar`/atomic these tests touch routes through
//! [`crate::sync`], so the vendored loom scheduler explores all bounded
//! interleavings (and all `notify_one` victim choices). A lost wakeup — a
//! notify that fires in the window between a waiter's predicate check and
//! its park — shows up as a model-checker deadlock, deterministically,
//! instead of a once-a-month CI hang.
//!
//! What is covered and why:
//!
//! * **Task put vs. a parked get** ([`Channel`] parks only gets, on one
//!   condvar): the task put path must wake a consumer parked in
//!   `get_latest`, and a release must never need to.
//! * **Watermark purge vs. a blocked get**: `release` advances the purge
//!   watermark while a consumer is parked inside `get_latest`; the put
//!   that satisfies the get races the purge for the state lock.
//! * **Queue single-condvar `notify_one`**: the model picks every possible
//!   victim, so a wrong-victim wakeup (producer woken instead of the
//!   consumer) would deadlock here. With two getters parked, the sleeper
//!   gate of [`crate::sync::Condvar`] counts above 1 and must still let
//!   each put's wake through.
//! * **[`Shutdown`] set vs. timed sleep**: the timeout path and the
//!   notified path are both explored; `set()` must win in every
//!   interleaving.
//! * **Lock-free queue** ([`crate::lfqueue::LfQueue`], DESIGN.md §14):
//!   slot-claim sequence numbers across a ring wrap-around, the seqlock's
//!   torn-read retry/fallback, close racing a capacity-blocked put, and
//!   the epoch-parking handoff between a parked consumer and a completing
//!   put — each would deadlock (lost wakeup) or assert (torn/duplicated
//!   item) under a broken ordering.
//! * **The DGC pass without a thread** ([`crate::runtime::DgcPass`]): two
//!   tasks reach a due iteration end together while a third releases.
//!   One sweeps, the other goes on without waiting for the claim, and no
//!   bound moves back.

use crate::channel::{BufferAdmin, Channel};
use crate::queue::Queue;
use crate::runtime::DgcPass;
use crate::shutdown::Shutdown;
use crate::sync::{Condvar, Mutex};
use crate::task::TaskCtx;
use aru_core::{AruConfig, NodeId, Topology};
use aru_gc::{ConsumerMarks, GcMode};
use aru_metrics::{IterKey, SharedTrace};
use std::sync::Arc;
use vtime::{ManualClock, Micros, SimTime, Timestamp};

fn test_ctx(trace: &SharedTrace, shutdown: &Shutdown) -> TaskCtx {
    TaskCtx::new(
        NodeId(0),
        "loom".into(),
        1,
        false,
        &AruConfig::aru_min(),
        Arc::new(ManualClock::new()),
        trace,
        shutdown.clone(),
        None,
    )
}

fn test_lfqueue(capacity: usize, trace: &SharedTrace) -> Arc<crate::lfqueue::LfQueue<Vec<u8>>> {
    let q = Arc::new(crate::lfqueue::LfQueue::new(
        NodeId(1),
        "lfq".into(),
        &AruConfig::aru_min(),
        capacity,
        trace.clone(),
    ));
    crate::channel::BufferAdmin::configure_consumers(&*q, 1);
    q
}

fn test_channel(trace: &SharedTrace) -> Arc<Channel<Vec<u8>>> {
    let ch = Arc::new(Channel::new(
        NodeId(1),
        "ch".into(),
        &AruConfig::aru_min(),
        GcMode::Ref,
        Arc::new(ManualClock::new()),
        trace.clone(),
    ));
    ch.configure_consumers(1);
    ch
}

/// The task put path wakes a parked get: the producer's two
/// `put_arc`s land ts 0 and ts 1 while the consumer parks in
/// `get_latest`, releases what it got and, if that was ts 0, parks again
/// for ts 1. Nothing bounds the channel, so both puts may land before the
/// first get, which then returns ts 1. Any interleaving that loses the
/// wakeup deadlocks the model.
#[test]
fn loom_task_put_wakes_parked_get() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let shutdown = Shutdown::new();
        let ch = test_channel(&trace);

        let producer = {
            let ch = Arc::clone(&ch);
            let mut ctx = test_ctx(&trace, &shutdown);
            loom::thread::spawn(move || {
                for ts in 0..2u8 {
                    ch.put_arc(&mut ctx, false, Timestamp(ts.into()), Arc::new(vec![ts]), 1)
                        .unwrap();
                }
            })
        };

        let mut ctx = test_ctx(&trace, &shutdown);
        let mut got = ch.get_latest(0, &mut ctx, Timestamp::ZERO).unwrap();
        ch.release(0, got.ts);
        if got.ts == Timestamp(0) {
            got = ch.get_latest(0, &mut ctx, got.ts.next()).unwrap();
        }
        assert_eq!(got.ts, Timestamp(1));
        assert_eq!(*got.value, vec![1u8]);

        producer.join().unwrap();
    });
}

/// Satellite (d): a put and a watermark purge race a blocked get. The
/// consumer parks waiting for ts 1 while one thread inserts ts 1 and
/// another releases ts 0 (advancing `purged_before` and reclaiming). The
/// get must wake and return ts 1 in every interleaving — a purge that
/// swallowed the put's notify, or a put whose notify fired before the
/// consumer parked without leaving the item visible, would deadlock.
#[test]
fn loom_put_and_purge_racing_a_blocked_get() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let shutdown = Shutdown::new();
        let ch = test_channel(&trace);
        let p = IterKey::new(NodeId(0), 0);

        ch.put(Timestamp(0), vec![0u8], p).unwrap();

        let putter = {
            let ch = Arc::clone(&ch);
            loom::thread::spawn(move || {
                ch.put(Timestamp(1), vec![1u8], p).unwrap();
            })
        };
        let purger = {
            let ch = Arc::clone(&ch);
            loom::thread::spawn(move || {
                ch.release(0, Timestamp(0));
            })
        };

        let mut ctx = test_ctx(&trace, &shutdown);
        let got = ch.get_latest(0, &mut ctx, Timestamp(1)).unwrap();
        assert_eq!(got.ts, Timestamp(1));

        putter.join().unwrap();
        purger.join().unwrap();
    });
}

/// A consumer parked in `get_latest` must be woken by `close()` with
/// `Err(Closed)` in every interleaving, including close() landing before
/// the consumer first takes the lock.
#[test]
fn loom_close_wakes_blocked_consumer() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let shutdown = Shutdown::new();
        let ch = test_channel(&trace);

        let closer = {
            let ch = Arc::clone(&ch);
            loom::thread::spawn(move || ch.close())
        };

        let mut ctx = test_ctx(&trace, &shutdown);
        let got = ch.get_latest(0, &mut ctx, Timestamp::ZERO);
        assert!(got.is_err(), "close must unblock the consumer");

        closer.join().unwrap();
    });
}

/// Queue handoff through a single condvar with `notify_one`: the model
/// enumerates every victim choice, so this deadlocks if the queue ever
/// depends on notify_one hitting a specific waiter.
#[test]
fn loom_queue_handoff_has_no_lost_wakeup() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let shutdown = Shutdown::new();
        let q = Arc::new(Queue::new(
            NodeId(1),
            "q".into(),
            &AruConfig::aru_min(),
            Arc::new(ManualClock::new()),
            trace.clone(),
        ));
        q.configure_consumers(1);
        let p = IterKey::new(NodeId(0), 0);

        let producer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                q.put(Timestamp(7), vec![7u8], p).unwrap();
            })
        };

        let mut ctx = test_ctx(&trace, &shutdown);
        let got = q.get(0, &mut ctx).unwrap();
        assert_eq!(got.ts, Timestamp(7));

        producer.join().unwrap();
    });
}

/// Two getters parked on the queue's one condvar, two puts: the wake gate
/// sees a sleeper count above 1 under `notify_one`, and each put must
/// still wake a getter. A waiter that counted itself only after
/// releasing the lock, or a put that read the count before taking it,
/// would skip a wake here and deadlock the model.
#[test]
fn loom_queue_two_getters_two_puts_wake_both() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let shutdown = Shutdown::new();
        let q = Arc::new(Queue::new(
            NodeId(1),
            "q".into(),
            &AruConfig::aru_min(),
            Arc::new(ManualClock::new()),
            trace.clone(),
        ));
        q.configure_consumers(1);
        let p = IterKey::new(NodeId(0), 0);

        let getters: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let mut ctx = test_ctx(&trace, &shutdown);
                loom::thread::spawn(move || q.get(0, &mut ctx).unwrap().ts)
            })
            .collect();

        q.put(Timestamp(1), vec![1u8], p).unwrap();
        q.put(Timestamp(2), vec![2u8], p).unwrap();

        let mut got: Vec<Timestamp> = getters.into_iter().map(|g| g.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, [Timestamp(1), Timestamp(2)]);
    });
}

/// Slot-claim protocol across a ring wrap-around: capacity 2, three items,
/// so slot 0 is reused with a bumped sequence number while the producer
/// parks on full and the consumer parks on empty. A slot whose sequence
/// lags its position would hand out a duplicate or drop an item (assert),
/// and a lost epoch-parking wakeup on either side deadlocks the model.
#[test]
fn loom_lfqueue_slot_claim_survives_wraparound() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let shutdown = Shutdown::new();
        let q = test_lfqueue(2, &trace);
        let p = IterKey::new(NodeId(0), 0);

        let producer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                for i in 0..3u64 {
                    q.put(Timestamp(i), vec![i as u8], p).unwrap();
                }
            })
        };

        let mut ctx = test_ctx(&trace, &shutdown);
        for i in 0..3u64 {
            let got = q.get(0, &mut ctx).unwrap();
            assert_eq!(got.ts, Timestamp(i), "FIFO must hold across the wrap");
            assert_eq!(*got.value, vec![i as u8]);
        }

        producer.join().unwrap();
        assert!(q.is_empty());
        assert_eq!(q.live_bytes(), 0, "byte accounting drains to zero");
    });
}

/// Seqlock torn-read protection: a reader racing two writes must either
/// return a published (generation, payload) pair or give up (`None`, the
/// fall-back-to-lock signal after bounded retries) — never a mix of the
/// two writes. After the writer quiesces, a read must succeed.
#[test]
fn loom_seqlock_readers_never_observe_torn_pairs() {
    loom::model(|| {
        let c = Arc::new(crate::seqlock::SeqCell::new(0, 0));
        let writer = {
            let c = Arc::clone(&c);
            // A single writer thread satisfies the cell's external-
            // serialization invariant (normally the control mutex).
            loom::thread::spawn(move || {
                c.write(1, 2);
                c.write(2, 4);
            })
        };
        if let Some((g, v)) = c.try_read() {
            assert_eq!(v, g * 2, "torn seqlock read: ({g}, {v})");
        }
        writer.join().unwrap();
        assert_eq!(
            c.try_read(),
            Some((2, 4)),
            "a quiescent cell must serve the bounded-optimistic read"
        );
    });
}

/// `close()` racing a put that parked on a full ring: the ring never
/// opens (nothing pops), so the put must observe the close and return
/// `Err(Closed)` in every interleaving — close-before-park, close-while-
/// parked (the wakeup must not be lost), and close-between-retries.
#[test]
fn loom_lfqueue_close_races_blocked_put() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let q = test_lfqueue(2, &trace);
        let p = IterKey::new(NodeId(0), 0);
        q.put(Timestamp(0), vec![0u8], p).unwrap();
        q.put(Timestamp(1), vec![1u8], p).unwrap();

        let producer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || q.put(Timestamp(2), vec![2u8], p))
        };
        let closer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || q.close())
        };

        let res = producer.join().unwrap();
        closer.join().unwrap();
        assert!(
            matches!(res, Err(crate::error::StampedeError::Closed)),
            "a put blocked on a full ring must observe the close"
        );
        assert_eq!(q.len(), 2, "queued items stay drainable after close");
    });
}

/// Epoch-parking handoff: a consumer that finds the ring empty loads the
/// push epoch, re-checks it under the park lock, and sleeps only if no
/// put completed in between; the put bumps the epoch *before* checking
/// the waiter counter. The model explores the put landing before the
/// epoch load, between load and park, and after the park — a lost wakeup
/// in any of them deadlocks.
#[test]
fn loom_lfqueue_waiter_handoff_has_no_lost_wakeup() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let shutdown = Shutdown::new();
        let q = test_lfqueue(2, &trace);
        let p = IterKey::new(NodeId(0), 0);

        let producer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                q.put(Timestamp(9), vec![9u8], p).unwrap();
            })
        };

        let mut ctx = test_ctx(&trace, &shutdown);
        let got = q.get(0, &mut ctx).unwrap();
        assert_eq!(got.ts, Timestamp(9));

        producer.join().unwrap();
    });
}

/// The task-loop wake path under shutdown: a consumer blocks in `get`
/// (empty ring), a producer completes one `put` and immediately
/// `close()`s. In every interleaving — close landing before the consumer
/// parks, between its epoch load and park, or while it sleeps — the
/// consumer must receive the item (never `Err(Closed)` with the item
/// still drainable) and only then observe the close. Before the
/// closed-check required `ring.is_empty()`, the schedule "failed
/// try_pop → put completes → close lands → closed-check" stranded the
/// item and this test failed.
#[test]
fn loom_lfqueue_close_never_strands_drainable_item() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let shutdown = Shutdown::new();
        let q = test_lfqueue(2, &trace);
        let p = IterKey::new(NodeId(0), 0);

        let producer = {
            let q = Arc::clone(&q);
            loom::thread::spawn(move || {
                q.put(Timestamp(3), vec![3u8], p).unwrap();
                q.close();
            })
        };

        let mut ctx = test_ctx(&trace, &shutdown);
        let got = q.get(0, &mut ctx).expect("pre-close item stays drainable");
        assert_eq!(got.ts, Timestamp(3));
        assert!(
            matches!(q.get(0, &mut ctx), Err(crate::error::StampedeError::Closed)),
            "drained + closed must report Closed"
        );

        producer.join().unwrap();
    });
}

/// `occupancy()` returns a coherent `(len, live_bytes)` pair: a sampler
/// racing two puts of 7-byte items must always see `bytes == len * 7`.
/// Both values are read under one hold of the state lock the puts
/// mutate under; a read-side mirror kept as two independent atomics
/// failed this on the schedule "store len=2 → sample → store bytes=14".
#[test]
fn loom_channel_obs_pair_never_tears() {
    loom::model(|| {
        let trace = SharedTrace::new();
        let ch = test_channel(&trace);
        let p = IterKey::new(NodeId(0), 0);

        let producer = {
            let ch = Arc::clone(&ch);
            loom::thread::spawn(move || {
                ch.put(Timestamp(0), vec![0u8; 7], p).unwrap();
                ch.put(Timestamp(1), vec![1u8; 7], p).unwrap();
            })
        };

        let (len, bytes) = ch.occupancy();
        assert_eq!(
            bytes,
            len as u64 * 7,
            "torn occupancy pair: len {len}, bytes {bytes}"
        );

        producer.join().unwrap();
        assert_eq!(ch.occupancy(), (2, 14));
    });
}

/// Shutdown set vs. a concurrent timed sleep: whether the sleeper parks
/// before or after the flag flips — and even if the model fires the
/// timeout spuriously — the sleeper must observe the shutdown.
#[test]
fn loom_shutdown_set_always_wakes_sleeper() {
    loom::model(|| {
        let s = Shutdown::new();
        let s2 = s.clone();
        let sleeper = loom::thread::spawn(move || s2.sleep(Micros::from_secs(3600)));
        s.set();
        assert!(
            sleeper.join().unwrap(),
            "sleeper missed a shutdown that was set"
        );
        assert!(s.is_set());
    });
}

/// A buffer whose marks cannot be copied until `open` is set: the task
/// that sweeps waits inside the pass, holding the claim, until the other
/// task has come back from its own attempt.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cond: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock() = true;
        self.cond.notify_all();
    }
}

impl BufferAdmin for Gate {
    fn node(&self) -> NodeId {
        NodeId(5)
    }
    fn configure_consumers(&self, _n: usize) {}
    fn copy_marks(&self, _into: &mut ConsumerMarks) {
        let mut open = self.open.lock();
        while !*open {
            self.cond.wait(&mut open);
        }
    }
    fn apply_dead_before(&self, _bound: Timestamp) {}
    fn close(&self) {}
    fn live_bytes(&self) -> u64 {
        0
    }
    fn flush_trace(&self) {}
    fn publish_telemetry(&self, _now: SimTime) {}
}

/// Two tasks reach a due iteration end together while a third releases
/// ts 5 from B, on `src → A → mid → B → sink` plus the [`Gate`] fed by
/// src. Exactly one of the two sweeps. The other returns while the
/// sweeper still holds the claim, or the model deadlocks: a claim that
/// waits for the lock would never let the gate open. A later pass sees
/// the release, and no bound it publishes is below the first pass's.
#[test]
fn loom_dgc_pass_has_one_sweeper_that_no_task_waits_for() {
    loom::model(|| {
        let mut topo = Topology::new();
        let src = topo.add_thread("src");
        let a = topo.add_channel("A");
        let mid = topo.add_thread("mid");
        let b = topo.add_channel("B");
        let sink = topo.add_thread("sink");
        let g = topo.add_channel("G");
        for (from, to) in [(src, a), (a, mid), (mid, b), (b, sink), (src, g)] {
            topo.connect(from, to).unwrap();
        }
        let trace = SharedTrace::new();
        let channel = |node| {
            let ch = Arc::new(Channel::<Vec<u8>>::new(
                node,
                "ch".into(),
                &AruConfig::aru_min(),
                GcMode::Dgc,
                Arc::new(ManualClock::new()),
                trace.clone(),
            ));
            ch.configure_consumers(1);
            ch
        };
        let (ch_a, ch_b) = (channel(a), channel(b));
        let p = IterKey::new(src, 0);
        ch_a.put(Timestamp(3), vec![0u8], p).unwrap();
        ch_b.put(Timestamp(5), vec![0u8], p).unwrap();
        let gate = Arc::new(Gate::default());
        let buffers: Vec<Arc<dyn BufferAdmin>> = vec![ch_a.clone(), ch_b.clone(), gate.clone()];
        let pass = Arc::new(DgcPass::new(&topo, buffers));

        let tasks: Vec<_> = (0..2)
            .map(|_| {
                let (pass, gate) = (Arc::clone(&pass), Arc::clone(&gate));
                loom::thread::spawn(move || {
                    let swept = pass.run_if_due(SimTime(0));
                    gate.open();
                    swept
                })
            })
            .collect();
        let releaser = {
            let ch_b = Arc::clone(&ch_b);
            loom::thread::spawn(move || ch_b.release(0, Timestamp(5)))
        };
        let swept = tasks
            .into_iter()
            .filter(|_| true)
            .map(|t| t.join().unwrap());
        assert_eq!(swept.filter(|&s| s).count(), 1, "exactly one task sweeps");
        releaser.join().unwrap();

        let first = pass.result.read().clone();
        assert!(
            pass.run_if_due(SimTime(2_000)),
            "the next pass is due at 2 ms"
        );
        let second = pass.result.read().clone();
        for n in [a, b] {
            assert!(second.buffer_dead_before(n) >= first.buffer_dead_before(n));
            assert_eq!(second.buffer_dead_before(n), Timestamp(6));
        }
        assert_eq!(ch_a.len(), 0, "ts 3 in A is dead once B is consumed to 5");
    });
}
