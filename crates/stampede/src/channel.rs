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
//! What a channel decides — lookups, dead bound, purge watermark — is the
//! [`BufferCore`] the simulator runs too; this module adds the lock, the
//! waits, the trace and the telemetry. Items below the REF floor, raised
//! by the DGC pass via [`Channel::apply_dead_before`], are purged when the
//! bound moves; a `put`/`get` pays one timestamp compare, not a map walk.
//!
//! Channels are unbounded, as in Stampede: a `put` never waits (ARU, not
//! a full channel, paces producers), so only gets park, all on one
//! condvar that a put or a close wakes; reclamation wakes no one. The
//! summary-STP a `put` returns is the controller's cached compression
//! ([`BufferCore::summary`] is a field read; recompression happens only
//! when a consumer deposits feedback), so the put path never recomputes
//! the backward-vector compression.
//!
//! Observers ([`Channel::len`], [`Channel::live_bytes`],
//! [`Channel::occupancy`], [`Channel::summary`]) take the state lock.
//! Nothing on the data path calls them (the exporter publishes from inside
//! the lock it already holds), so a lock-free copy would cost every op a
//! write for no reader.

use crate::error::StampedeError;
use crate::item::{ItemData, StampedItem};
use crate::sync::{Condvar, Mutex};
use crate::task::{ChannelRelease, TaskCtx};
use crate::tele::BufTele;
use aru_core::{AruConfig, Stp};
use aru_gc::{Acquire, BufferCore, ConsumerMarks, Footprint, GcMode, InputPolicy};
use aru_metrics::{ItemId, IterKey, LocalTrace, SharedTrace};
use std::sync::Arc;
use vtime::{Clock, SimTime, Timestamp};

/// An item held by a channel.
struct Stored<T> {
    value: Arc<T>,
    id: ItemId,
    bytes: u64,
}

impl<T> Footprint for Stored<T> {
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Where a core op hands the items it frees.
type Reclaim<'a, T> = &'a mut dyn FnMut(Stored<T>);

struct ChannelState<T> {
    core: BufferCore<Stored<T>>,
    /// Buffered trace writer. Living inside the state mutex, it is written
    /// with `&mut` access on every op the channel already serializes —
    /// recording an event is an append to the writer's chunk, no second
    /// lock.
    trace: LocalTrace,
    closed: bool,
    /// Live-telemetry accumulator (DESIGN.md §12): plain counters and a
    /// sampled occupancy histogram, recorded under this mutex and drained
    /// to the shared registry only on exporter ticks.
    tele: BufTele,
}

/// A timestamped, multi-consumer, get-latest buffer.
pub struct Channel<T: ItemData> {
    node: aru_core::NodeId,
    name: String,
    clock: Arc<dyn Clock>,
    state: Mutex<ChannelState<T>>,
    /// Consumers blocked in a get, waiting for data.
    cons: Condvar,
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
        clock: Arc<dyn Clock>,
        trace: SharedTrace,
    ) -> Self {
        let tele = BufTele::new(trace.telemetry(), "channel", &name, node);
        Channel {
            node,
            name,
            clock,
            state: Mutex::new(ChannelState {
                core: BufferCore::new(gc_mode, config),
                trace: trace.local(),
                closed: false,
                tele,
            }),
            cons: Condvar::new(),
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
            st.core.deposit(chan_out_index, summary);
            st.tele.on_deposit(ctx.node(), summary.period(), || now);
        }
    }

    /// Pre-size the consumer bookkeeping to the channel's final out-degree.
    /// Must run before any operation: a consumer connection that has not yet
    /// consumed anything pins every timestamp, and the REF floor can only
    /// know that if the slot exists.
    pub(crate) fn configure_consumers(&self, n: usize) {
        self.reclaim(|core, freed| core.configure(n, freed));
    }

    #[must_use]
    pub fn node(&self) -> aru_core::NodeId {
        self.node
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
    /// Stamped by the channel's clock, raised to the channel's last record
    /// (used by tests); task code goes through [`Output::put`], which is
    /// stamped by the task's read.
    pub fn put(
        &self,
        ts: Timestamp,
        value: T,
        producer: IterKey,
    ) -> Result<Option<Stp>, StampedeError> {
        let bytes = value.size_bytes();
        let stamp = |last: SimTime| self.clock.now().max(last);
        self.put_stamped(stamp, producer, ts, Arc::new(value), bytes)
    }

    /// A task's put of an already-shared payload — the path both
    /// [`Output::put`] and the fan-out take. It never waits. The fan-out
    /// passes `reuse_read`: the task's last read, the fan-out's single
    /// clock read, stamps the put (N channels share one `Arc` and one read
    /// instead of N deep clones and N reads); a lone put reads the clock
    /// under the lock. Either stamp is raised to the channel's last record
    /// and is the task's last read when this returns.
    pub(crate) fn put_arc(
        &self,
        ctx: &mut TaskCtx,
        reuse_read: bool,
        ts: Timestamp,
        value: Arc<T>,
        bytes: u64,
    ) -> Result<Option<Stp>, StampedeError> {
        let producer = ctx.iter_key();
        let stamp = |last| {
            if !reuse_read {
                ctx.read_clock();
            }
            ctx.stamp_after(last)
        };
        self.put_stamped(stamp, producer, ts, value, bytes)
    }

    /// The one insertion path: under the state lock, fail on a closed
    /// channel, take the stamp `stamp` makes of the channel's last record,
    /// record the alloc, insert (freeing a displaced item at the same
    /// timestamp, or the new one if it is dead on arrival) and count the
    /// put; then wake the parked gets and hand back the channel's
    /// summary-STP (the cached compression — a field read, recomputed
    /// only on feedback).
    fn put_stamped(
        &self,
        stamp: impl FnOnce(SimTime) -> SimTime,
        producer: IterKey,
        ts: Timestamp,
        value: Arc<T>,
        bytes: u64,
    ) -> Result<Option<Stp>, StampedeError> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(StampedeError::Closed);
        }
        let ChannelState {
            core, trace, tele, ..
        } = &mut *st;
        let now = stamp(trace.last_time());
        let id = trace.alloc(now, self.node, ts, bytes, producer);
        let stored = Stored { value, id, bytes };
        core.insert(ts, stored, |old| trace.free(now, old.id));
        tele.on_put(1, core.store().len());
        let summary = core.summary();
        if let Some(s) = summary {
            tele.on_return(producer.node, s.period(), || now);
        }
        drop(st);
        self.cons.notify_all();
        Ok(summary)
    }

    /// The one single-item get probe: look `policy` up at `at` (get-latest's
    /// floor, the joins' target); on a hit, deposit the consumer's
    /// summary-STP and record the get. `Some(None)`: the join target can
    /// never arrive; `None`: nothing to take yet. A hit is stamped `woke`
    /// when the get parked, else [`TaskCtx::stamp_after`] the channel's
    /// last record.
    fn take_locked(
        &self,
        st: &mut ChannelState<T>,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
        policy: InputPolicy,
        at: Timestamp,
        woke: Option<SimTime>,
    ) -> Option<Option<StampedItem<T>>> {
        let (ts, value, id) = match st.core.lookup(policy, at, Some(at)) {
            Acquire::Got(ts, s) => (ts, Arc::clone(&s.value), s.id),
            Acquire::Abandon => return Some(None),
            Acquire::Block | Acquire::Skip => return None,
        };
        let now = woke.unwrap_or_else(|| ctx.stamp_after(st.trace.last_time()));
        self.deposit_locked(st, chan_out_index, ctx, now);
        st.tele.on_get(1, st.core.store().len());
        st.trace.get(now, id, ctx.iter_key());
        Some(Some(StampedItem { ts, value }))
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
        self.block_until(ctx, |st, ctx, woke| {
            let policy = InputPolicy::DriverLatest;
            self.take_locked(st, chan_out_index, ctx, policy, floor, woke)
                .flatten()
        })
    }

    /// Release this consumer connection's claim on everything up to and
    /// including `ts`: the channel mark advances and dead items may be
    /// reclaimed. Called at the end of the consuming iteration.
    pub fn release(&self, chan_out_index: usize, ts: Timestamp) {
        self.reclaim(|core, freed| core.release(chan_out_index, ts, freed));
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
        self.block_until(ctx, |st, ctx, woke| {
            self.take_locked(st, chan_out_index, ctx, InputPolicy::JoinExact, ts, woke)
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
        self.block_until(ctx, |st, ctx, woke| {
            let policy = InputPolicy::JoinLatestAtOrBefore;
            self.take_locked(st, chan_out_index, ctx, policy, ts, woke)
                .flatten()
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
        self.block_until(ctx, |st, ctx, woke| {
            st.core.store().latest().filter(|&(ts, _)| ts >= floor)?;
            let now = woke.unwrap_or_else(|| ctx.stamp_after(st.trace.last_time()));
            self.deposit_locked(st, chan_out_index, ctx, now);
            // Build the window directly (newest-first, then reverse) and
            // record the gets as one batched trace append — no per-item
            // `trace.get` calls, no intermediate picked Vec.
            let ChannelState {
                core, trace, tele, ..
            } = st;
            let items = core.store();
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
        let policy = InputPolicy::DriverLatest;
        let item = self.take_locked(&mut st, chan_out_index, ctx, policy, floor, None);
        match item.flatten() {
            Some(item) => Ok(Some(item)),
            None if st.closed => Err(StampedeError::Closed),
            None => Ok(None),
        }
    }

    /// Run a core op that may free items: trace each free (one clock read,
    /// at the first, raised to the channel's last record). Nothing new
    /// arrived, so no get is woken.
    fn reclaim(&self, op: impl FnOnce(&mut BufferCore<Stored<T>>, Reclaim<'_, T>) -> usize) {
        let mut st = self.state.lock();
        let ChannelState {
            core, trace, tele, ..
        } = &mut *st;
        let mut now = None;
        let removed = op(core, &mut |stored| {
            let now = *now.get_or_insert_with(|| self.clock.now().max(trace.last_time()));
            trace.free(now, stored.id);
        });
        tele.on_purged(removed as u64);
    }

    /// Every blocking get: the probe, under the state lock, in the task's
    /// one wait path ([`TaskCtx::park_op`]), parked on `cons`.
    /// `Some(result)` completes the op; `woke` stamps what the probe
    /// records. A closed channel fails the op with `Closed` — close drains
    /// the store and rejects inserts, so a closed channel never holds
    /// anything a probe could find. An op timeout is counted here and
    /// traced by the task.
    #[inline]
    fn block_until<R>(
        &self,
        ctx: &mut TaskCtx,
        mut probe: impl FnMut(&mut ChannelState<T>, &mut TaskCtx, Option<SimTime>) -> Option<R>,
    ) -> Result<R, StampedeError> {
        let mut st = self.state.lock();
        ctx.park_op(
            &mut st,
            |st, ctx, woke| {
                if st.closed {
                    return Some(Err(StampedeError::Closed));
                }
                probe(st, ctx, woke).map(Ok)
            },
            |st, deadline| {
                let timed_out = self.cons.wait_until(st, deadline);
                if timed_out {
                    st.tele.on_timeout();
                }
                timed_out
            },
        )
    }

    // ---- admin interface used by the runtime's DGC pass --------------------

    /// Raise the DGC dead-before bound (monotone) and purge.
    pub fn apply_dead_before(&self, bound: Timestamp) {
        self.reclaim(|core, freed| core.raise_dgc(bound, freed));
    }

    /// Close the channel: all parked and future gets and all future puts
    /// fail with [`StampedeError::Closed`]; remaining items are freed.
    pub fn close(&self) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.closed = true;
        let now = self.clock.now().max(st.trace.last_time());
        let mut freed = Vec::with_capacity(st.core.store().len());
        st.core.drain(|stored| freed.push(stored.id));
        st.trace.free_n(now, freed);
        drop(st);
        self.cons.notify_all();
    }

    /// The channel's current summary-STP (the value a put would return).
    #[must_use]
    pub fn summary(&self) -> Option<Stp> {
        self.state.lock().core.summary()
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
        (st.core.store().len(), st.core.live_bytes())
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(ring, spill)` occupancy of the item store — observability for
    /// tests. A dense in-order stream should keep the spill side at 0.
    #[must_use]
    pub fn store_depths(&self) -> (usize, usize) {
        self.state.lock().core.store().depths()
    }
}

impl<T: ItemData> ChannelRelease for Channel<T> {
    fn release(&self, out_index: usize, ts: Timestamp) {
        // The inherent method.
        Channel::release(self, out_index, ts);
    }
}

/// Type-erased admin view the runtime's DGC pass and exporter use.
pub(crate) trait BufferAdmin: Send + Sync {
    fn node(&self) -> aru_core::NodeId;
    fn configure_consumers(&self, n: usize);
    /// Copy the per-consumer marks into `into`, reusing its allocation.
    fn copy_marks(&self, into: &mut ConsumerMarks);
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
    fn copy_marks(&self, into: &mut ConsumerMarks) {
        into.clone_from(self.state.lock().core.marks());
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
        let (len, live) = (st.core.store().len(), st.core.live_bytes());
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
    /// producing thread's ARU state (the backward propagation hop). Never
    /// waits.
    pub fn put(&self, ctx: &mut TaskCtx, ts: Timestamp, value: T) -> Result<(), StampedeError> {
        let t0 = ctx.op_sample();
        let bytes = value.size_bytes();
        let summary = self.ch.put_arc(ctx, false, ts, Arc::new(value), bytes)?;
        if let Some(stp) = summary {
            let now = ctx.last_read();
            ctx.receive_feedback_from(self.thread_out_index, stp, now, self.ch.node());
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
        ctx.defer_release(self.ch.clone(), self.chan_out_index, ts);
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
        match self
            .ch
            .try_get_latest(self.chan_out_index, ctx, self.floor)?
        {
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
            ctx.defer_release(self.ch.clone(), self.chan_out_index, window[0].ts);
        }
        Ok(window)
    }

    /// The channel this endpoint reads.
    #[must_use]
    pub fn channel(&self) -> &Channel<T> {
        &self.ch
    }
}
