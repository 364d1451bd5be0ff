//! Timestamped FIFO queues with destructive gets.
//!
//! Stampede queues complement channels: items are delivered in FIFO order
//! and a `get` removes the item (each item is consumed by exactly one
//! consumer). ARU piggybacking is identical to channels: consumers deposit
//! their summary-STP on `get`, producers receive the queue's summary as the
//! return of `put`.
//!
//! Under DGC a queue can also drop queued items whose timestamps are
//! provably dead downstream (`apply_dead_before`), which is the queue
//! analogue of channel reclamation.
//!
//! Observers (`len`, `live_bytes`, `occupancy`, `summary`) take the state
//! lock, for the reason the [`crate::channel`] docs give. The lock-free
//! backend ([`crate::lfqueue::LfQueue`]) is where a summary is read
//! without a lock.

use crate::channel::BufferAdmin;
use crate::error::StampedeError;
use crate::item::{ItemData, StampedItem};
use crate::sync::{Condvar, Mutex};
use crate::task::TaskCtx;
use crate::tele::BufTele;
use aru_core::{AruConfig, AruController, NodeId, NodeKind};
use aru_gc::ConsumerMarks;
use aru_metrics::{ItemId, IterKey, LocalTrace, SharedTrace};
use std::collections::VecDeque;
use std::sync::Arc;
use vtime::{Clock, SimTime, Timestamp};

struct QStored<T> {
    ts: Timestamp,
    value: Arc<T>,
    id: ItemId,
    bytes: u64,
}

struct QueueState<T> {
    items: VecDeque<QStored<T>>,
    /// Buffered trace writer, `&mut`-accessed under the state mutex every
    /// queue op already holds — recording is an append to the writer's
    /// chunk.
    trace: LocalTrace,
    marks: ConsumerMarks,
    aru: AruController,
    closed: bool,
    live_bytes: u64,
    /// Timestamps are non-decreasing front to back, so the items a DGC
    /// purge frees are a prefix. A put below the tail clears it; a put
    /// into an empty queue sets it again.
    in_order: bool,
    /// Live-telemetry accumulator (see `crate::tele::BufTele`).
    tele: BufTele,
}

/// A FIFO buffer of timestamped items.
pub struct Queue<T: ItemData> {
    node: NodeId,
    name: String,
    clock: Arc<dyn Clock>,
    state: Mutex<QueueState<T>>,
    /// Consumers blocked in `get`. Queues are unbounded so producers never
    /// wait — one wait set suffices, and `put` wakes exactly one getter
    /// (`notify_one`): an item is consumed destructively by one consumer,
    /// so waking more would just stampede them back to sleep.
    cond: Condvar,
}

impl<T: ItemData> Queue<T> {
    pub(crate) fn new(
        node: NodeId,
        name: String,
        config: &AruConfig,
        clock: Arc<dyn Clock>,
        trace: SharedTrace,
    ) -> Self {
        let tele = BufTele::new(trace.telemetry(), "queue", &name, node);
        Queue {
            node,
            name,
            clock,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                trace: trace.local(),
                marks: ConsumerMarks::new(0),
                aru: AruController::new(NodeKind::Queue, 0, false, config),
                closed: false,
                live_bytes: 0,
                in_order: true,
                tele,
            }),
            cond: Condvar::new(),
        }
    }

    pub(crate) fn configure_consumers(&self, n: usize) {
        let mut st = self.state.lock();
        st.marks = ConsumerMarks::new(n);
        st.aru.ensure_outputs(n);
    }

    /// Shared deposit path for every get variant: fold the consumer's
    /// summary-STP and record the hop.
    fn deposit_locked(
        &self,
        st: &mut QueueState<T>,
        chan_out_index: usize,
        ctx: &TaskCtx,
        now: vtime::SimTime,
    ) {
        if let Some(summary) = ctx.summary() {
            st.aru.receive_feedback(chan_out_index, summary);
            st.tele.on_deposit(ctx.node(), summary.period(), now);
        }
    }

    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enqueue, stamped by the queue's clock; returns the queue's
    /// summary-STP as backward feedback. A task's put goes through its
    /// endpoint, which stamps it with the task's read instead.
    pub fn put(
        &self,
        ts: Timestamp,
        value: T,
        producer: IterKey,
    ) -> Result<Option<aru_core::Stp>, StampedeError> {
        self.put_and_wake(|last| self.clock.now().max(last), ts, value, producer)
            .map(|(summary, _)| summary)
    }

    /// [`Queue::put`] at the time `stamp` makes of the queue's last record
    /// (its read, raised to that record), also reporting whether it issued
    /// a wake (`false`: no getter was parked, and the put made no syscall
    /// to find out).
    fn put_and_wake(
        &self,
        stamp: impl FnOnce(SimTime) -> SimTime,
        ts: Timestamp,
        value: T,
        producer: IterKey,
    ) -> Result<(Option<aru_core::Stp>, bool), StampedeError> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(StampedeError::Closed);
        }
        let now = stamp(st.trace.last_time());
        match st.items.back() {
            Some(tail) if ts < tail.ts => st.in_order = false,
            None => st.in_order = true,
            Some(_) => {}
        }
        let bytes = value.size_bytes();
        let id = st.trace.alloc(now, self.node, ts, bytes, producer);
        st.items.push_back(QStored {
            ts,
            value: Arc::new(value),
            id,
            bytes,
        });
        st.live_bytes += bytes;
        let len = st.items.len();
        st.tele.on_put(1, len);
        let summary = st.aru.summary();
        if let Some(s) = summary {
            st.tele.on_return(producer.node, s.period(), now);
        }
        drop(st);
        Ok((summary, self.cond.notify_one()))
    }

    /// Dequeue the oldest item, blocking while empty (up to the task's op
    /// timeout, when one is configured).
    ///
    /// A get that found an item waiting is stamped with the task's last
    /// read, raised to the queue's last record; one that parked, with the
    /// read it took on its last wake-up (`TaskCtx::park_op`).
    pub fn get(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
    ) -> Result<StampedItem<T>, StampedeError> {
        let mut st = self.state.lock();
        ctx.park_op(
            &mut st,
            |st, ctx, woke| match st.items.pop_front() {
                Some(stored) => {
                    let now = woke.unwrap_or_else(|| ctx.stamp_after(st.trace.last_time()));
                    Some(Ok(self.take_locked(st, chan_out_index, ctx, now, stored)))
                }
                None => st.closed.then_some(Err(StampedeError::Closed)),
            },
            |st, deadline| {
                let timed_out = self.cond.wait_until(st, deadline);
                if timed_out {
                    st.tele.on_timeout();
                }
                timed_out
            },
        )
    }

    /// Non-blocking dequeue, stamped like a get that did not block.
    pub fn try_get(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
    ) -> Result<Option<StampedItem<T>>, StampedeError> {
        let mut st = self.state.lock();
        match st.items.pop_front() {
            Some(stored) => {
                let now = ctx.stamp_after(st.trace.last_time());
                Ok(Some(self.take_locked(
                    &mut st,
                    chan_out_index,
                    ctx,
                    now,
                    stored,
                )))
            }
            None if st.closed => Err(StampedeError::Closed),
            None => Ok(None),
        }
    }

    /// The bookkeeping of a get that popped `stored`, stamped `now`: bytes,
    /// the consumer's mark, its deposit, and the get and free records.
    fn take_locked(
        &self,
        st: &mut QueueState<T>,
        chan_out_index: usize,
        ctx: &TaskCtx,
        now: SimTime,
        stored: QStored<T>,
    ) -> StampedItem<T> {
        st.live_bytes -= stored.bytes;
        st.marks.advance(chan_out_index, stored.ts);
        self.deposit_locked(st, chan_out_index, ctx, now);
        let len = st.items.len();
        st.tele.on_get(1, len);
        st.trace.get(now, stored.id, ctx.iter_key());
        st.trace.free(now, stored.id);
        StampedItem {
            ts: stored.ts,
            value: stored.value,
        }
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupancy().0
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently held.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.occupancy().1
    }

    /// A coherent `(len, live_bytes)` snapshot: both values are read under
    /// one hold of the state lock, so they come from the same op boundary.
    #[must_use]
    pub fn occupancy(&self) -> (usize, u64) {
        let st = self.state.lock();
        (st.items.len(), st.live_bytes)
    }

    /// The queue's current summary-STP (the value a put would return).
    #[must_use]
    pub fn summary(&self) -> Option<aru_core::Stp> {
        self.state.lock().aru.summary()
    }

    /// Snapshot the consumer marks.
    #[must_use]
    pub fn marks_snapshot(&self) -> ConsumerMarks {
        self.state.lock().marks.clone()
    }

    /// Drop queued items with `ts < bound` (their downstream outputs are
    /// provably dead), tracing the frees in queue order.
    ///
    /// A task runs a due DGC pass at every iteration end, and usually the
    /// bound trails the consumption frontier so nothing queued is dead.
    /// While the queue is in order the dead items are a prefix: the pass
    /// costs one compare plus one pop per item it frees, however long the
    /// queue. Only an out-of-order queue is walked whole, once, in place.
    pub fn apply_dead_before(&self, bound: Timestamp) {
        if bound == Timestamp::ZERO {
            return;
        }
        let mut st = self.state.lock();
        let QueueState {
            items,
            trace,
            live_bytes,
            in_order,
            tele,
            ..
        } = &mut *st;
        let before = items.len();
        let mut now = None;
        let mut free = |stored: &QStored<T>| {
            *live_bytes -= stored.bytes;
            let now = *now.get_or_insert_with(|| self.clock.now().max(trace.last_time()));
            trace.free(now, stored.id);
        };
        if *in_order {
            let dead = items.iter().take_while(|s| s.ts < bound).count();
            items.drain(..dead).for_each(|stored| free(&stored));
        } else {
            items.retain(|stored| {
                let dead = stored.ts < bound;
                if dead {
                    free(stored);
                }
                !dead
            });
        }
        let dropped = before - items.len();
        if dropped > 0 {
            tele.on_purged(dropped as u64);
        }
    }

    /// Close: wake blocked getters; free queued items.
    pub fn close(&self) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.closed = true;
        let now = self.clock.now().max(st.trace.last_time());
        while let Some(stored) = st.items.pop_front() {
            st.trace.free(now, stored.id);
        }
        st.live_bytes = 0;
        drop(st);
        self.cond.notify_all();
    }
}

impl<T: ItemData> BufferAdmin for Queue<T> {
    fn node(&self) -> NodeId {
        Queue::node(self)
    }
    fn configure_consumers(&self, n: usize) {
        Queue::configure_consumers(self, n)
    }
    fn copy_marks(&self, into: &mut ConsumerMarks) {
        into.clone_from(&self.state.lock().marks);
    }
    fn apply_dead_before(&self, bound: Timestamp) {
        Queue::apply_dead_before(self, bound)
    }
    fn close(&self) {
        Queue::close(self)
    }
    fn live_bytes(&self) -> u64 {
        Queue::live_bytes(self)
    }
    fn flush_trace(&self) {
        self.state.lock().trace.flush();
    }
    fn publish_telemetry(&self, now: SimTime) {
        let mut st = self.state.lock();
        let len = st.items.len();
        let live = st.live_bytes;
        st.tele.publish(now, len, live);
    }
}

/// Producer endpoint bound directly to the mutex [`Queue`] (the
/// backend-agnostic endpoint the builder hands out is
/// [`crate::backend::QueueOutput`], which wraps this).
pub struct MutexQueueOutput<T: ItemData> {
    pub(crate) q: Arc<Queue<T>>,
    pub(crate) thread_out_index: usize,
}

impl<T: ItemData> MutexQueueOutput<T> {
    /// Enqueue an item, folding the queue's summary-STP back into the
    /// producing thread. The task reads the clock before the queue's lock;
    /// the put is stamped with that read, raised to the queue's last
    /// record.
    pub fn put(&self, ctx: &mut TaskCtx, ts: Timestamp, value: T) -> Result<(), StampedeError> {
        let t0 = ctx.op_sample();
        ctx.read_clock();
        let producer = ctx.iter_key();
        let stamp = |last| ctx.stamp_after(last);
        let (summary, _) = self.q.put_and_wake(stamp, ts, value, producer)?;
        if let Some(stp) = summary {
            let now = ctx.last_read();
            ctx.receive_feedback_from(self.thread_out_index, stp, now, self.q.node());
        }
        if let Some(t0) = t0 {
            ctx.record_put_ns(t0);
        }
        Ok(())
    }

    #[must_use]
    pub fn queue(&self) -> &Queue<T> {
        &self.q
    }

    /// A shared handle to the queue (for monitoring outside the task).
    #[must_use]
    pub fn queue_arc(&self) -> Arc<Queue<T>> {
        Arc::clone(&self.q)
    }
}

/// Consumer endpoint bound directly to the mutex [`Queue`] (wrapped by
/// [`crate::backend::QueueInput`]).
pub struct MutexQueueInput<T: ItemData> {
    pub(crate) q: Arc<Queue<T>>,
    pub(crate) chan_out_index: usize,
}

impl<T: ItemData> MutexQueueInput<T> {
    /// Blocking FIFO get.
    pub fn get(&mut self, ctx: &mut TaskCtx) -> Result<StampedItem<T>, StampedeError> {
        let t0 = ctx.op_sample();
        let item = self.q.get(self.chan_out_index, ctx)?;
        if let Some(t0) = t0 {
            ctx.record_get_ns(t0);
        }
        Ok(item)
    }

    /// Non-blocking FIFO get.
    pub fn try_get(&mut self, ctx: &mut TaskCtx) -> Result<Option<StampedItem<T>>, StampedeError> {
        self.q.try_get(self.chan_out_index, ctx)
    }

    #[must_use]
    pub fn queue(&self) -> &Queue<T> {
        &self.q
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::bench_api;
    use aru_metrics::TraceEvent;
    use proptest::prelude::*;
    use vtime::{ManualClock, Micros};

    fn queue(clock: Arc<ManualClock>, trace: SharedTrace) -> Arc<Queue<Vec<u8>>> {
        let q = Arc::new(Queue::new(
            NodeId(1),
            "q".into(),
            &AruConfig::aru_min(),
            clock,
            trace,
        ));
        q.configure_consumers(1);
        q
    }

    fn ctx(clock: Arc<ManualClock>) -> TaskCtx {
        bench_api::task_ctx(
            NodeId(9),
            "q-test",
            1,
            false,
            &AruConfig::aru_min(),
            clock,
            SharedTrace::new(),
        )
    }

    /// The gate: puts with nobody parked issue no wake at all; a put that
    /// finds a getter parked issues exactly one, and the getter returns
    /// the item. The parked getter is observed through the sleeper count
    /// (not a sleep), so the test does not depend on timing.
    #[test]
    fn put_wakes_only_when_a_getter_is_parked() {
        let clock = Arc::new(ManualClock::new());
        let q = queue(Arc::clone(&clock), SharedTrace::new());
        let p = IterKey::new(NodeId(0), 0);
        let mut wakes = 0;
        for ts in 0..1_000u64 {
            let (_, woke) = q
                .put_and_wake(|last| last, Timestamp(ts), vec![0u8; 64], p)
                .unwrap();
            wakes += usize::from(woke);
        }
        assert_eq!(wakes, 0, "no getter was parked, so no put may wake");

        let mut c = ctx(Arc::clone(&clock));
        while q.try_get(0, &mut c).unwrap().is_some() {}
        let getter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.get(0, &mut ctx(clock)).unwrap().ts)
        };
        while q.cond.sleepers() == 0 {
            std::thread::yield_now();
        }
        let (_, woke) = q
            .put_and_wake(|last| last, Timestamp(1_000), vec![1u8; 64], p)
            .unwrap();
        assert!(woke, "a parked getter must be woken");
        assert_eq!(getter.join().unwrap(), Timestamp(1_000));
    }

    /// The purge as it was before the in-order prefix path: look for a dead
    /// item anywhere, then rebuild the whole queue without the dead ones.
    fn apply_dead_before_rebuild<T: ItemData>(q: &Queue<T>, bound: Timestamp) {
        if bound == Timestamp::ZERO {
            return;
        }
        let mut st = q.state.lock();
        if !st.items.iter().any(|s| s.ts < bound) {
            return;
        }
        let now = q.clock.now();
        let mut kept = VecDeque::with_capacity(st.items.len());
        let mut dropped = 0u64;
        while let Some(stored) = st.items.pop_front() {
            if stored.ts < bound {
                st.live_bytes -= stored.bytes;
                st.trace.free(now, stored.id);
                dropped += 1;
            } else {
                kept.push_back(stored);
            }
        }
        st.items = kept;
        st.tele.on_purged(dropped);
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Put at the last put's timestamp plus this (0: a duplicate).
        PutAfter(u64),
        /// Put at this timestamp, usually out of order.
        PutAt(u64),
        Get,
        /// Raise the DGC bound by this much (0: a repeated pass).
        Purge(u64),
    }

    /// Weights 3 : 1 : 2 : 2 for in-order puts, arbitrary puts, gets and
    /// DGC passes.
    fn op() -> impl Strategy<Value = Op> {
        (0u64..8, 0u64..40).prop_map(|(kind, x)| match kind {
            0..=2 => Op::PutAfter(x % 4),
            3 => Op::PutAt(x),
            4 | 5 => Op::Get,
            _ => Op::Purge(x % 6),
        })
    }

    /// Queue contents as `(ts, id, bytes)`, front to back.
    fn survivors(q: &Queue<Vec<u8>>) -> Vec<(Timestamp, ItemId, u64)> {
        let st = q.state.lock();
        st.items.iter().map(|s| (s.ts, s.id, s.bytes)).collect()
    }

    fn frees(trace: &SharedTrace) -> Vec<ItemId> {
        let trace = trace.snapshot();
        let ids = trace.events().iter().filter_map(|e| match *e {
            TraceEvent::Free { item, .. } => Some(item),
            _ => None,
        });
        ids.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-order prefix purge and the in-place `retain` against the
        /// scan-and-rebuild they replaced: in-order, out-of-order and
        /// duplicate timestamps, gets, and a monotone DGC bound. Both queues
        /// keep the same survivors in the same order, free the same items
        /// in the same trace order at the same times, and hold the same
        /// bytes after every op.
        fn purge_matches_the_rebuild_oracle(ops in prop::collection::vec(op(), 1..120)) {
            let clock = Arc::new(ManualClock::new());
            let (fast_trace, oracle_trace) = (SharedTrace::new(), SharedTrace::new());
            let fast = queue(Arc::clone(&clock), fast_trace.clone());
            let oracle = queue(Arc::clone(&clock), oracle_trace.clone());
            let (mut fast_ctx, mut oracle_ctx) = (ctx(Arc::clone(&clock)), ctx(Arc::clone(&clock)));
            let p = IterKey::new(NodeId(0), 0);
            let (mut last, mut bound) = (0u64, 0u64);
            for (i, op) in ops.into_iter().enumerate() {
                clock.advance(Micros(1));
                match op {
                    Op::PutAfter(d) | Op::PutAt(d) => {
                        let ts = match op {
                            Op::PutAfter(_) => last + d,
                            _ => d,
                        };
                        last = ts;
                        let bytes = vec![0u8; 1 + i % 7];
                        fast.put(Timestamp(ts), bytes.clone(), p).unwrap();
                        oracle.put(Timestamp(ts), bytes, p).unwrap();
                    }
                    Op::Get => {
                        let a = fast.try_get(0, &mut fast_ctx).unwrap().map(|it| it.ts);
                        let b = oracle.try_get(0, &mut oracle_ctx).unwrap().map(|it| it.ts);
                        prop_assert_eq!(a, b);
                    }
                    Op::Purge(d) => {
                        bound += d;
                        fast.apply_dead_before(Timestamp(bound));
                        apply_dead_before_rebuild(&oracle, Timestamp(bound));
                    }
                }
                prop_assert_eq!(survivors(&fast), survivors(&oracle));
                prop_assert_eq!(fast.live_bytes(), oracle.live_bytes());
            }
            BufferAdmin::flush_trace(&*fast);
            BufferAdmin::flush_trace(&*oracle);
            prop_assert_eq!(frees(&fast_trace), frees(&oracle_trace));
            let (a, b) = (fast_trace.snapshot(), oracle_trace.snapshot());
            prop_assert_eq!(a.events(), b.events());
        }
    }
}
