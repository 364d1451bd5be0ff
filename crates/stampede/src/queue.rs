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
    /// queue op already holds — recording is a plain `Vec::push`.
    trace: LocalTrace,
    marks: ConsumerMarks,
    aru: AruController,
    closed: bool,
    live_bytes: u64,
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
            st.tele.on_deposit(ctx.node(), summary.period(), || now);
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

    /// Enqueue; returns the queue's summary-STP as backward feedback.
    pub fn put(
        &self,
        ts: Timestamp,
        value: T,
        producer: IterKey,
    ) -> Result<Option<aru_core::Stp>, StampedeError> {
        let now = self.clock.now();
        let mut st = self.state.lock();
        if st.closed {
            return Err(StampedeError::Closed);
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
            st.tele.on_return(producer.node, s.period(), || now);
        }
        drop(st);
        self.cond.notify_one();
        Ok(summary)
    }

    /// Dequeue the oldest item, blocking while empty (up to the task's op
    /// timeout, when one is configured).
    pub fn get(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
    ) -> Result<StampedItem<T>, StampedeError> {
        let deadline = crate::channel::op_deadline(ctx);
        let mut st = self.state.lock();
        let mut blocked = false;
        loop {
            if let Some(stored) = st.items.pop_front() {
                if blocked {
                    ctx.block_end(self.clock.now());
                }
                st.live_bytes -= stored.bytes;
                st.marks.advance(chan_out_index, stored.ts);
                let now = self.clock.now();
                self.deposit_locked(&mut st, chan_out_index, ctx, now);
                let len = st.items.len();
                st.tele.on_get(1, len);
                st.trace.get(now, stored.id, ctx.iter_key());
                st.trace.free(now, stored.id);
                return Ok(StampedItem {
                    ts: stored.ts,
                    value: stored.value,
                });
            }
            if st.closed {
                if blocked {
                    ctx.block_end(self.clock.now());
                }
                return Err(StampedeError::Closed);
            }
            if !blocked {
                blocked = true;
                ctx.block_begin(self.clock.now());
            }
            match deadline {
                None => self.cond.wait(&mut st),
                Some(dl) => {
                    let now = std::time::Instant::now();
                    if now >= dl {
                        ctx.block_end(self.clock.now());
                        st.tele.on_timeout();
                        st.trace.op_timeout(self.clock.now(), ctx.node());
                        return Err(StampedeError::Timeout);
                    }
                    self.cond.wait_for(&mut st, dl - now);
                }
            }
        }
    }

    /// Non-blocking dequeue.
    pub fn try_get(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
    ) -> Result<Option<StampedItem<T>>, StampedeError> {
        let mut st = self.state.lock();
        match st.items.pop_front() {
            Some(stored) => {
                st.live_bytes -= stored.bytes;
                st.marks.advance(chan_out_index, stored.ts);
                let now = self.clock.now();
                self.deposit_locked(&mut st, chan_out_index, ctx, now);
                let len = st.items.len();
                st.tele.on_get(1, len);
                st.trace.get(now, stored.id, ctx.iter_key());
                st.trace.free(now, stored.id);
                Ok(Some(StampedItem {
                    ts: stored.ts,
                    value: stored.value,
                }))
            }
            None if st.closed => Err(StampedeError::Closed),
            None => Ok(None),
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

    /// Snapshot the consumer marks (for DGC).
    #[must_use]
    pub fn marks_snapshot(&self) -> ConsumerMarks {
        self.state.lock().marks.clone()
    }

    /// Drop queued items with `ts < bound` (their downstream outputs are
    /// provably dead).
    pub fn apply_dead_before(&self, bound: Timestamp) {
        if bound == Timestamp::ZERO {
            return;
        }
        let mut st = self.state.lock();
        // Common case: the DGC bound trails the consumption frontier and
        // nothing queued is dead — skip the rebuild entirely.
        if !st.items.iter().any(|s| s.ts < bound) {
            return;
        }
        let now = self.clock.now();
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

    /// Close: wake blocked getters; free queued items.
    pub fn close(&self) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.closed = true;
        let now = self.clock.now();
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
    fn marks_snapshot(&self) -> ConsumerMarks {
        Queue::marks_snapshot(self)
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
    /// producing thread.
    pub fn put(&self, ctx: &mut TaskCtx, ts: Timestamp, value: T) -> Result<(), StampedeError> {
        let t0 = ctx.op_sample();
        let summary = self.q.put(ts, value, ctx.iter_key())?;
        if let Some(stp) = summary {
            ctx.receive_feedback_from(self.thread_out_index, stp, self.q.node());
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
