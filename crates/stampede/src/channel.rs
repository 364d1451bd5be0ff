//! Timestamped channels with get-latest semantics and ARU piggybacking.
//!
//! A channel stores `(timestamp, item)` pairs. Gets are *non-destructive*
//! (several consumers may read the same item) and *sparse in virtual time*:
//! a consumer asks for the **latest** item newer than anything it has seen,
//! skipping over stale items — the behaviour that creates the wasted
//! resources ARU eliminates.
//!
//! Feedback piggybacking (paper §3.3.2) happens exactly at the two buffer
//! operations:
//!
//! * on `get`, the consumer deposits its summary-STP into the channel's
//!   backward vector slot for that connection;
//! * on `put`, the channel's compressed summary-STP is handed back to the
//!   producer as the operation's return value.
//!
//! Reclamation: items below the channel's dead-before bound — the REF
//! consumption floor, raised further by the periodic DGC pass via
//! [`Channel::apply_dead_before`] — are purged when the bound *moves*
//! ([`Channel::release`] / [`Channel::apply_dead_before`], the only two
//! movers). Every other operation checks a purge watermark instead of
//! scanning: a `put`/`get` pays one timestamp compare, not a map walk.
//!
//! Hot-path notes: producer and consumer waiters sit on separate condvars,
//! so a `put` wakes only consumers and reclamation wakes only producers
//! blocked on a full bounded channel — no broadcast storms through
//! unrelated waiters. The summary-STP a `put` returns is the controller's
//! cached compression ([`AruController::summary`] is a field read;
//! recompression happens only when a consumer deposits feedback), so the
//! put path never recomputes the backward-vector compression.
//!
//! Observers ([`Channel::len`], [`Channel::live_bytes`],
//! [`Channel::occupancy`], [`Channel::summary`]) take the state lock.
//! Nothing on the data path calls them (the exporter publishes from inside
//! the lock it already holds), so a lock-free copy would cost every op a
//! write for no reader.

use crate::error::StampedeError;
use crate::item::{ItemData, StampedItem};
use crate::task::TaskCtx;
use crate::tele::BufTele;
use aru_core::{AruConfig, AruController, NodeKind, Stp};
use aru_gc::{ref_dead_before, ConsumerMarks, GcMode};
use aru_metrics::{ItemId, IterKey, LocalTrace, SharedTrace};
use crate::sync::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vtime::{Clock, SimTime, Timestamp, TsStore};

/// Wall-clock deadline for one blocking buffer operation, from the task's
/// configured op timeout (`None` = block forever).
pub(crate) fn op_deadline(ctx: &TaskCtx) -> Option<Instant> {
    ctx.op_timeout().map(|d| Instant::now() + Duration::from(d))
}

/// An item held by a channel.
struct Stored<T> {
    value: Arc<T>,
    id: ItemId,
    bytes: u64,
}

struct ChannelState<T> {
    items: TsStore<Stored<T>>,
    /// Buffered trace writer. Living inside the state mutex, it is written
    /// with `&mut` access on every op the channel already serializes —
    /// recording an event is a plain `Vec::push`, no second lock.
    trace: LocalTrace,
    marks: ConsumerMarks,
    aru: AruController,
    /// Highest dead-before bound received from the cross-graph DGC pass.
    dgc_dead_before: Timestamp,
    /// Purge watermark: everything below this is already reclaimed. The
    /// dead-before bound only moves in `release`/`apply_dead_before`, which
    /// purge immediately — so any op whose bound is at the watermark skips
    /// the purge with one compare.
    purged_before: Timestamp,
    /// Optional item-count bound: puts block while the channel is full
    /// (classic backpressure — the alternative to ARU this runtime lets
    /// you compare against; `None` reproduces Stampede's unbounded
    /// channels).
    capacity: Option<usize>,
    closed: bool,
    live_bytes: u64,
    /// Live-telemetry accumulator (DESIGN.md §12): plain counters and a
    /// sampled occupancy histogram, recorded under this mutex and drained
    /// to the shared registry only on exporter ticks.
    tele: BufTele,
}

/// A timestamped, multi-consumer, get-latest buffer.
pub struct Channel<T: ItemData> {
    node: aru_core::NodeId,
    name: String,
    gc_mode: GcMode,
    clock: Arc<dyn Clock>,
    state: Mutex<ChannelState<T>>,
    /// Consumers blocked in a get, waiting for data.
    cons: Condvar,
    /// Producers blocked in a bounded put, waiting for capacity.
    prod: Condvar,
}

impl<T: ItemData> Channel<T> {
    /// Construct an unconnected channel. The builder calls
    /// [`Channel::configure_consumers`] once the topology is frozen.
    #[must_use]
    pub(crate) fn new(
        node: aru_core::NodeId,
        name: String,
        config: &AruConfig,
        gc_mode: GcMode,
        capacity: Option<usize>,
        clock: Arc<dyn Clock>,
        trace: SharedTrace,
    ) -> Self {
        let tele = BufTele::new(trace.telemetry(), "channel", &name, node);
        Channel {
            node,
            name,
            gc_mode,
            clock,
            state: Mutex::new(ChannelState {
                items: TsStore::new(),
                trace: trace.local(),
                marks: ConsumerMarks::new(0),
                aru: AruController::new(NodeKind::Channel, 0, false, config),
                dgc_dead_before: Timestamp::ZERO,
                purged_before: Timestamp::ZERO,
                capacity,
                closed: false,
                live_bytes: 0,
                tele,
            }),
            cons: Condvar::new(),
            prod: Condvar::new(),
        }
    }

    /// Shared deposit path for every get: fold the consumer's summary-STP
    /// into the channel controller and record the hop.
    fn deposit_locked(
        &self,
        st: &mut ChannelState<T>,
        chan_out_index: usize,
        ctx: &TaskCtx,
        now: SimTime,
    ) {
        if let Some(summary) = ctx.summary() {
            st.aru.receive_feedback(chan_out_index, summary);
            st.tele.on_deposit(ctx.node(), summary.period(), || now);
        }
    }

    /// Pre-size the consumer bookkeeping to the channel's final out-degree.
    /// Must run before any operation: a consumer connection that has not yet
    /// consumed anything pins every timestamp, and the REF floor can only
    /// know that if the slot exists.
    pub(crate) fn configure_consumers(&self, n: usize) {
        let mut st = self.state.lock();
        st.marks = ConsumerMarks::new(n);
        st.purged_before = Timestamp::ZERO;
        st.aru.ensure_outputs(n);
    }

    #[must_use]
    pub fn node(&self) -> aru_core::NodeId {
        self.node
    }

    /// One reading of the channel's clock (the fan-out path shares it
    /// across every channel in the bundle).
    pub(crate) fn clock_now(&self) -> SimTime {
        self.clock.now()
    }

    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Insert an item at `ts`. Returns the channel's current summary-STP —
    /// the backward feedback the producer folds into its own state.
    ///
    /// A put at an existing timestamp replaces the item (the old one is
    /// freed); source threads issue monotonically increasing timestamps so
    /// this only happens in adversarial tests.
    ///
    /// Ignores any capacity bound (used internally and by tests); task code
    /// goes through [`Output::put`], which blocks on a full bounded channel.
    pub fn put(
        &self,
        ts: Timestamp,
        value: T,
        producer: IterKey,
    ) -> Result<Option<Stp>, StampedeError> {
        let bytes = value.size_bytes();
        let value = Arc::new(value);
        let now = self.clock.now();
        let mut st = self.state.lock();
        if st.closed {
            return Err(StampedeError::Closed);
        }
        let summary = self.put_locked(&mut st, now, producer, ts, value, bytes);
        drop(st);
        // New data helps consumers only — a put never opens capacity.
        self.cons.notify_all();
        Ok(summary)
    }

    /// The one insertion path, under the state lock: record the alloc,
    /// insert (freeing any displaced item at the same timestamp), apply the
    /// dead-on-arrival check, count the put, and hand back the channel's
    /// summary-STP (the cached compression — a field
    /// read, recomputed only on feedback).
    fn put_locked(
        &self,
        st: &mut ChannelState<T>,
        now: SimTime,
        producer: IterKey,
        ts: Timestamp,
        value: Arc<T>,
        bytes: u64,
    ) -> Option<Stp> {
        let id = st.trace.alloc(now, self.node, ts, bytes, producer);
        if let Some(old) = st.items.insert(ts, Stored { value, id, bytes }) {
            st.live_bytes -= old.bytes;
            st.trace.free(now, old.id);
        }
        st.live_bytes += bytes;
        self.reclaim_if_below_floor(st, ts, now);
        let len = st.items.len();
        st.tele.on_put(1, len);
        let summary = st.aru.summary();
        if let Some(s) = summary {
            st.tele.on_return(producer.node, s.period(), || now);
        }
        summary
    }

    /// [`Channel::put_blocking`] for an already-shared payload — the path
    /// both it and the fan-out take. `now` is the fan-out's single clock
    /// read (N channels share one `Arc` and one time instead of N deep
    /// clones and N reads); a lone put passes `None` and the clock is read
    /// under the lock. If this channel makes the producer wait for
    /// capacity the clock is re-read after the wait so trace times stay
    /// monotone within the channel's event stream.
    pub(crate) fn put_arc_blocking(
        &self,
        ctx: &mut TaskCtx,
        now: Option<SimTime>,
        ts: Timestamp,
        value: Arc<T>,
        bytes: u64,
    ) -> Result<Option<Stp>, StampedeError> {
        let mut value = Some(value);
        let summary = self.block_until(&self.prod, ctx, |st, ctx, waited| {
            let full = st
                .capacity
                .is_some_and(|cap| st.items.len() >= cap && !st.items.contains(ts));
            if full {
                return None;
            }
            let now = match now {
                Some(shared) if !waited => shared,
                _ => self.clock.now(),
            };
            let value = value.take().expect("a probe completes at most once");
            Some(self.put_locked(st, now, ctx.iter_key(), ts, value, bytes))
        })?;
        self.cons.notify_all();
        Ok(summary)
    }

    /// Capacity-aware insert: blocks while a bounded channel is full
    /// (backpressure). The wait is recorded as blocking time, so it is
    /// excluded from the producer's current-STP just like waiting for
    /// upstream data.
    pub fn put_blocking(
        &self,
        ctx: &mut TaskCtx,
        ts: Timestamp,
        value: T,
    ) -> Result<Option<Stp>, StampedeError> {
        let bytes = value.size_bytes();
        self.put_arc_blocking(ctx, None, ts, Arc::new(value), bytes)
    }

    /// Shared tail of every single-item get: deposit the consumer's
    /// summary-STP, count the get, record it against the iteration.
    fn record_get_locked(
        &self,
        st: &mut ChannelState<T>,
        chan_out_index: usize,
        ctx: &TaskCtx,
        id: ItemId,
    ) {
        let now = self.clock.now();
        self.deposit_locked(st, chan_out_index, ctx, now);
        let len = st.items.len();
        st.tele.on_get(1, len);
        st.trace.get(now, id, ctx.iter_key());
    }

    /// Retrieve the newest item with `ts >= floor` (the *consumer's* local
    /// freshness floor), blocking until one exists. `chan_out_index`
    /// identifies the consumer connection on the channel side. The
    /// consumer's summary-STP (from `ctx`) is deposited as backward
    /// feedback.
    ///
    /// Note that this does **not** advance the channel's GC marks: the
    /// consumer still holds the item while processing it, so the release
    /// happens at iteration end via [`Channel::release`] (Stampede's
    /// consume-on-iteration-end semantics) — the endpoint wrappers in
    /// [`Input`] arrange this automatically.
    pub fn get_latest(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
        floor: Timestamp,
    ) -> Result<StampedItem<T>, StampedeError> {
        self.block_until(&self.cons, ctx, |st, ctx, _| {
            self.take_latest_locked(st, chan_out_index, ctx, floor)
        })
    }

    /// The get-latest probe: the newest item with `ts >= floor` is the
    /// newest item overall (when fresh enough) — O(1) on the ring store.
    fn take_latest_locked(
        &self,
        st: &mut ChannelState<T>,
        chan_out_index: usize,
        ctx: &TaskCtx,
        floor: Timestamp,
    ) -> Option<StampedItem<T>> {
        let (ts, value, id) = st
            .items
            .latest()
            .filter(|&(ts, _)| ts >= floor)
            .map(|(ts, stored)| (ts, Arc::clone(&stored.value), stored.id))?;
        self.record_get_locked(st, chan_out_index, ctx, id);
        Some(StampedItem { ts, value })
    }

    /// Release this consumer connection's claim on everything up to and
    /// including `ts`: the channel mark advances and dead items may be
    /// reclaimed. Called at the end of the consuming iteration.
    pub fn release(&self, chan_out_index: usize, ts: Timestamp) {
        let mut st = self.state.lock();
        st.marks.advance(chan_out_index, ts);
        let removed = self.purge_locked(&mut st);
        drop(st);
        // Reclamation may have opened capacity for a blocked producer;
        // nothing new arrived, so consumers stay asleep.
        if removed > 0 {
            self.prod.notify_all();
        }
    }

    /// Join get: block until the item with exactly timestamp `ts` exists.
    /// Returns `Ok(None)` when the timestamp can no longer arrive (a newer
    /// item exists but `ts` does not — the frame was lost), letting the
    /// caller abandon the iteration.
    pub fn get_exact(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
        ts: Timestamp,
    ) -> Result<Option<StampedItem<T>>, StampedeError> {
        self.block_until(&self.cons, ctx, |st, ctx, _| {
            if let Some(stored) = st.items.get(ts) {
                let (value, id) = (Arc::clone(&stored.value), stored.id);
                self.record_get_locked(st, chan_out_index, ctx, id);
                return Some(Some(StampedItem { ts, value }));
            }
            let newer_exists = st.items.latest().is_some_and(|(latest, _)| latest > ts);
            newer_exists.then_some(None)
        })
    }

    /// Join get: block until the channel is non-empty, then return the
    /// newest item with timestamp at or before `ts` (falling back to the
    /// overall newest when everything is newer) — e.g. the freshest color
    /// model no newer than the frame being analyzed.
    pub fn get_latest_at_or_before(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
        ts: Timestamp,
    ) -> Result<StampedItem<T>, StampedeError> {
        self.block_until(&self.cons, ctx, |st, ctx, _| {
            let (ts, value, id) = st
                .items
                .latest_at_or_before(ts)
                .or_else(|| st.items.latest())
                .map(|(its, stored)| (its, Arc::clone(&stored.value), stored.id))?;
            self.record_get_locked(st, chan_out_index, ctx, id);
            Some(StampedItem { ts, value })
        })
    }

    /// Sliding-window get: block until at least one item with `ts >= floor`
    /// exists, then return the newest `n` items (oldest first). Supports
    /// the paper's motivating use case of "a gesture recognition module
    /// \[that\] may need to analyze a sliding window over a video stream".
    /// The window may span items older than `floor` (re-reading for context
    /// is the point of a sliding window); freshness is guaranteed only for
    /// the newest element.
    pub fn get_latest_window(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
        floor: Timestamp,
        n: usize,
    ) -> Result<Vec<StampedItem<T>>, StampedeError> {
        assert!(n > 0, "window must be non-empty");
        self.block_until(&self.cons, ctx, |st, ctx, _| {
            st.items.latest().filter(|&(ts, _)| ts >= floor)?;
            let now = self.clock.now();
            self.deposit_locked(st, chan_out_index, ctx, now);
            // Build the window directly (newest-first, then reverse) and
            // record the gets as one batched trace append — no per-item
            // `trace.get` calls, no intermediate picked Vec.
            let ChannelState { items, trace, tele, .. } = st;
            let mut window = Vec::with_capacity(n.min(items.len()));
            let mut ids = Vec::with_capacity(n.min(items.len()));
            items.for_each_newest(n, |ts, stored| {
                window.push(StampedItem {
                    ts,
                    value: Arc::clone(&stored.value),
                });
                ids.push(stored.id);
            });
            tele.on_get(ids.len() as u64, items.len());
            trace.get_n(now, ctx.iter_key(), ids);
            window.reverse();
            Some(window)
        })
    }

    /// Non-blocking variant: `Ok(None)` when nothing at or above `floor`
    /// is available.
    pub fn try_get_latest(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
        floor: Timestamp,
    ) -> Result<Option<StampedItem<T>>, StampedeError> {
        let mut st = self.state.lock();
        match self.take_latest_locked(&mut st, chan_out_index, ctx, floor) {
            Some(item) => Ok(Some(item)),
            None if st.closed => Err(StampedeError::Closed),
            None => Ok(None),
        }
    }

    fn dead_bound_locked(&self, st: &ChannelState<T>) -> Timestamp {
        match self.gc_mode {
            GcMode::None => Timestamp::ZERO,
            GcMode::Ref => ref_dead_before(&st.marks),
            GcMode::Dgc => ref_dead_before(&st.marks).max(st.dgc_dead_before),
        }
    }

    /// Dead-on-arrival check for the put paths: a put below the reclaimed
    /// floor (adversarial timestamps only — sources are monotone) is freed
    /// immediately, matching the eager per-op purge this watermark scheme
    /// replaced. One compare in the common case.
    fn reclaim_if_below_floor(&self, st: &mut ChannelState<T>, ts: Timestamp, now: vtime::SimTime) {
        if self.gc_mode.reclaims() && ts < st.purged_before {
            if let Some(stored) = st.items.remove(ts) {
                st.live_bytes -= stored.bytes;
                st.trace.free(now, stored.id);
            }
        }
    }

    /// Reclaim everything below the dead-before bound. Returns how many
    /// items were freed.
    ///
    /// Amortized by the purge watermark: the bound moves only in
    /// [`Channel::release`] / [`Channel::apply_dead_before`] (which purge
    /// right away), so every put/get-path call lands on the one-compare
    /// fast path. When the bound did move, the dead prefix is detached
    /// with a single `split_off` — O(log n + dead) instead of
    /// collect-keys-then-remove-each.
    fn purge_locked(&self, st: &mut ChannelState<T>) -> usize {
        if !self.gc_mode.reclaims() {
            return 0;
        }
        let bound = self.dead_bound_locked(st);
        if bound <= st.purged_before {
            return 0;
        }
        st.purged_before = bound;
        let now = self.clock.now();
        let mut removed = 0;
        let ChannelState {
            items,
            trace,
            live_bytes,
            ..
        } = &mut *st;
        items.purge_before(bound, |stored| {
            *live_bytes -= stored.bytes;
            trace.free(now, stored.id);
            removed += 1;
        });
        st.tele.on_purged(removed as u64);
        removed
    }

    /// The one blocking-wait loop behind every blocking get and put.
    ///
    /// `probe` runs under the state lock, first on entry and again after
    /// every wakeup (`waited` = this call has parked at least once):
    /// `Some(result)` completes the op, `None` parks on `cond` (consumers
    /// wait on `cons`, producers on `prod`). A closed channel fails the op
    /// with `Closed` — close drains the store and rejects inserts, so a
    /// closed channel never holds anything a probe could find. The task's
    /// op timeout bounds the whole call: when it passes, the timeout is
    /// counted and traced once and the op fails with `Timeout`. Everything
    /// from the first park to the return is recorded as blocked time,
    /// excluded from the task's current-STP.
    #[inline]
    fn block_until<R>(
        &self,
        cond: &Condvar,
        ctx: &mut TaskCtx,
        mut probe: impl FnMut(&mut ChannelState<T>, &mut TaskCtx, bool) -> Option<R>,
    ) -> Result<R, StampedeError> {
        let deadline = op_deadline(ctx);
        let mut st = self.state.lock();
        let mut waited = false;
        let res = loop {
            if st.closed {
                break Err(StampedeError::Closed);
            }
            if let Some(done) = probe(&mut st, ctx, waited) {
                break Ok(done);
            }
            if !waited {
                waited = true;
                ctx.block_begin(self.clock.now());
            }
            if self.wait_step(cond, &mut st, deadline) {
                st.tele.on_timeout();
                st.trace.op_timeout(self.clock.now(), ctx.node());
                break Err(StampedeError::Timeout);
            }
        };
        drop(st);
        if waited {
            ctx.block_end(self.clock.now());
        }
        res
    }

    /// One bounded wait; `true` means the op deadline passed before
    /// anything woke us.
    fn wait_step(
        &self,
        cond: &Condvar,
        st: &mut MutexGuard<'_, ChannelState<T>>,
        deadline: Option<Instant>,
    ) -> bool {
        match deadline {
            None => {
                cond.wait(st);
                false
            }
            Some(dl) => {
                let now = Instant::now();
                if now >= dl {
                    return true;
                }
                cond.wait_for(st, dl - now);
                false
            }
        }
    }

    // ---- admin interface used by the runtime/GC driver ---------------------

    /// Snapshot of the per-consumer marks (for the cross-graph DGC pass).
    #[must_use]
    pub fn marks_snapshot(&self) -> ConsumerMarks {
        self.state.lock().marks.clone()
    }

    /// Raise the DGC dead-before bound (monotone) and purge.
    pub fn apply_dead_before(&self, bound: Timestamp) {
        let mut st = self.state.lock();
        if bound > st.dgc_dead_before {
            st.dgc_dead_before = bound;
            let removed = self.purge_locked(&mut st);
            drop(st);
            if removed > 0 {
                self.prod.notify_all();
            }
        }
    }

    /// Close the channel: all blocked and future gets/puts fail with
    /// [`StampedeError::Closed`]; remaining items are freed.
    pub fn close(&self) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.closed = true;
        let now = self.clock.now();
        let mut freed = Vec::with_capacity(st.items.len());
        st.items.drain(|stored| freed.push(stored.id));
        st.live_bytes = 0;
        st.trace.free_n(now, freed);
        drop(st);
        // Close unblocks everyone, whichever side they wait on.
        self.cons.notify_all();
        self.prod.notify_all();
    }

    /// The channel's current summary-STP (the value a put would return).
    #[must_use]
    pub fn summary(&self) -> Option<Stp> {
        self.state.lock().aru.summary()
    }

    /// Bytes currently held.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.occupancy().1
    }

    /// Items currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupancy().0
    }

    /// A coherent `(len, live_bytes)` snapshot: both values are read under
    /// one hold of the state lock, so they come from the same op boundary.
    #[must_use]
    pub fn occupancy(&self) -> (usize, u64) {
        let st = self.state.lock();
        (st.items.len(), st.live_bytes)
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(ring, spill)` occupancy of the item store — observability for
    /// tests. A dense in-order stream should keep the spill side at 0.
    #[must_use]
    pub fn store_depths(&self) -> (usize, usize) {
        self.state.lock().items.depths()
    }
}

/// Type-erased admin view the runtime's GC driver uses.
pub(crate) trait BufferAdmin: Send + Sync {
    fn node(&self) -> aru_core::NodeId;
    fn configure_consumers(&self, n: usize);
    fn marks_snapshot(&self) -> ConsumerMarks;
    fn apply_dead_before(&self, bound: Timestamp);
    fn close(&self);
    fn live_bytes(&self) -> u64;
    /// Publish any buffered trace events (the runtime calls this before
    /// every snapshot it takes: the exporter's fault report and the run
    /// report after joining the task threads).
    fn flush_trace(&self);
    /// Drain the buffer's telemetry accumulators into the shared metrics
    /// registry and refresh the occupancy gauges (exporter tick / stop).
    /// `now` stamps the journal's occupancy records — passed in because
    /// not every backend owns a clock (the lock-free ring does not).
    fn publish_telemetry(&self, now: SimTime);
}

impl<T: ItemData> BufferAdmin for Channel<T> {
    fn node(&self) -> aru_core::NodeId {
        Channel::node(self)
    }
    fn configure_consumers(&self, n: usize) {
        Channel::configure_consumers(self, n)
    }
    fn marks_snapshot(&self) -> ConsumerMarks {
        Channel::marks_snapshot(self)
    }
    fn apply_dead_before(&self, bound: Timestamp) {
        Channel::apply_dead_before(self, bound)
    }
    fn close(&self) {
        Channel::close(self)
    }
    fn live_bytes(&self) -> u64 {
        Channel::live_bytes(self)
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

/// A typed producer endpoint: one thread→channel connection.
pub struct Output<T: ItemData> {
    pub(crate) ch: Arc<Channel<T>>,
    /// Slot in the *producing thread's* backward vector.
    pub(crate) thread_out_index: usize,
}

impl<T: ItemData> Output<T> {
    /// Put an item; folds the channel's returned summary-STP into the
    /// producing thread's ARU state (the backward propagation hop). Blocks
    /// while a bounded channel is full.
    pub fn put(&self, ctx: &mut TaskCtx, ts: Timestamp, value: T) -> Result<(), StampedeError> {
        let t0 = ctx.op_sample();
        let summary = self.ch.put_blocking(ctx, ts, value)?;
        if let Some(stp) = summary {
            ctx.receive_feedback_from(self.thread_out_index, stp, self.ch.node());
        }
        if let Some(t0) = t0 {
            ctx.record_put_ns(t0);
        }
        Ok(())
    }

    /// The channel this endpoint feeds.
    #[must_use]
    pub fn channel(&self) -> &Channel<T> {
        &self.ch
    }

    /// A shared handle to the channel (for monitoring outside the task).
    #[must_use]
    pub fn channel_arc(&self) -> Arc<Channel<T>> {
        Arc::clone(&self.ch)
    }
}

/// A typed consumer endpoint: one channel→thread connection.
///
/// The endpoint tracks its own freshness floor (the next timestamp it would
/// accept), and registers a deferred *release* with the task context on
/// every successful get: the channel's GC marks advance only when the
/// consuming iteration completes, because the task holds the item while
/// processing it.
pub struct Input<T: ItemData> {
    pub(crate) ch: Arc<Channel<T>>,
    /// This connection's index among the channel's outputs.
    pub(crate) chan_out_index: usize,
    /// Local freshness floor: next acceptable timestamp.
    pub(crate) floor: Timestamp,
}

impl<T: ItemData> Input<T> {
    fn took(&mut self, ctx: &mut TaskCtx, ts: Timestamp) {
        if ts.next() > self.floor {
            self.floor = ts.next();
        }
        let ch = Arc::clone(&self.ch);
        let idx = self.chan_out_index;
        ctx.defer_release(Box::new(move || ch.release(idx, ts)));
    }

    /// Blocking get-latest (see [`Channel::get_latest`]).
    pub fn get_latest(&mut self, ctx: &mut TaskCtx) -> Result<StampedItem<T>, StampedeError> {
        let t0 = ctx.op_sample();
        let item = self.ch.get_latest(self.chan_out_index, ctx, self.floor)?;
        if let Some(t0) = t0 {
            ctx.record_get_ns(t0);
        }
        self.took(ctx, item.ts);
        Ok(item)
    }

    /// Non-blocking get-latest.
    pub fn try_get_latest(
        &mut self,
        ctx: &mut TaskCtx,
    ) -> Result<Option<StampedItem<T>>, StampedeError> {
        match self.ch.try_get_latest(self.chan_out_index, ctx, self.floor)? {
            Some(item) => {
                self.took(ctx, item.ts);
                Ok(Some(item))
            }
            None => Ok(None),
        }
    }

    /// Blocking exact-timestamp join (see [`Channel::get_exact`]).
    pub fn get_exact(
        &mut self,
        ctx: &mut TaskCtx,
        ts: Timestamp,
    ) -> Result<Option<StampedItem<T>>, StampedeError> {
        match self.ch.get_exact(self.chan_out_index, ctx, ts)? {
            Some(item) => {
                self.took(ctx, item.ts);
                Ok(Some(item))
            }
            None => {
                // The join target is unattainable; release through `ts` so
                // GC is not pinned by a frame nobody will ever process.
                self.took(ctx, ts);
                Ok(None)
            }
        }
    }

    /// Blocking newest-at-or-before join (see
    /// [`Channel::get_latest_at_or_before`]).
    pub fn get_latest_at_or_before(
        &mut self,
        ctx: &mut TaskCtx,
        ts: Timestamp,
    ) -> Result<StampedItem<T>, StampedeError> {
        let item = self
            .ch
            .get_latest_at_or_before(self.chan_out_index, ctx, ts)?;
        self.took(ctx, item.ts);
        Ok(item)
    }

    /// Sliding-window get (see [`Channel::get_latest_window`]): blocks for
    /// freshness, returns up to `n` newest items oldest-first. Only the
    /// history the *next* window can no longer contain is released for GC,
    /// so consecutive windows overlap correctly.
    pub fn get_latest_window(
        &mut self,
        ctx: &mut TaskCtx,
        n: usize,
    ) -> Result<Vec<StampedItem<T>>, StampedeError> {
        let window = self
            .ch
            .get_latest_window(self.chan_out_index, ctx, self.floor, n)?;
        let newest = window.last().expect("window is non-empty").ts;
        if newest.next() > self.floor {
            self.floor = newest.next();
        }
        if window.len() == n {
            // The next window holds the n newest items and at least one new
            // one, so the current oldest can never be needed again.
            let release_ts = window[0].ts;
            let ch = Arc::clone(&self.ch);
            let idx = self.chan_out_index;
            ctx.defer_release(Box::new(move || ch.release(idx, release_ts)));
        }
        Ok(window)
    }

    /// The channel this endpoint reads.
    #[must_use]
    pub fn channel(&self) -> &Channel<T> {
        &self.ch
    }
}
