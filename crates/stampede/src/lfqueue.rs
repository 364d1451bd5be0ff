//! Lock-free bounded FIFO queue: the uncontended hot path takes no lock.
//!
//! [`LfQueue`] is the lock-free counterpart of the mutex-based [`Queue`](crate::Queue)
//! (`queue.rs`), which stays compiled in as the *oracle* — the
//! differential suite (`tests/lockfree_equivalence.rs`) drives both
//! through identical op sequences and compares everything observable.
//! The split of responsibilities (DESIGN.md §14):
//!
//! * **Data plane** — items move through an `MpmcRing`: one claim CAS
//!   plus one release store per op, payloads stored *inline* (no
//!   `Arc::new` per item: a destructive FIFO get transfers ownership, so
//!   there is nothing to share).
//! * **Control plane** — the ARU controller and the deposit fold stay
//!   behind a mutex, but the hot path only reaches it on *summary
//!   change*: `put` reads the compressed summary-STP through a
//!   `SeqCell` (a few loads), and `get` deposits backward STP only
//!   when the consumer's summary differs from what it last deposited
//!   (one load + compare per op otherwise). A converged loop never
//!   touches the control mutex — the event-driven framing of the
//!   Feedback Scheduling paper applied to the buffer API itself.
//! * **Blocking** — futex-style: waiters register in an atomic counter
//!   and park on a condvar under a tiny `Mutex<()>`; the opposite side
//!   only touches that mutex when the counter says someone is parked.
//!   The wakeup-relevant atomics (the `push_ops`/`pop_ops` epochs and
//!   the waiter counters) are `SeqCst`, giving the Dekker-style
//!   guarantee that either the parker re-checks and sees the op's epoch
//!   bump, or the op sees the parker's registration and wakes it. The
//!   epoch re-check under the park lock (rather than "is the ring
//!   non-empty") also keeps the loom model live: a transiently
//!   full/empty ring (competitor mid-transfer) parks on a condvar the
//!   competitor will signal, instead of spinning on state the loom
//!   scheduler may never let the competitor publish.
//!
//! What the lock-free queue intentionally does **not** do (and why the
//! mutex `Queue` remains the general-purpose buffer): per-item lineage
//! tracing — `alloc`/`get`/`free` events cost a buffered `Vec` push
//! under the state lock this path doesn't have, so `flush_trace` is a
//! no-op and counters + sampled occupancy ride in per-endpoint registry
//! shards (`LfEndpointTele`) instead — and DGC purging
//! (`apply_dead_before` is a no-op: a bounded ring's reclamation is
//! bounded by construction, a popped slot is reused, never
//! accumulated). Close never strands a drainable item: a `put` that
//! claimed its slot before `close()` landed still completes, and the
//! blocking gets treat "closed" as terminal only once the ring is
//! observably empty (they park on the pre-pop epoch otherwise, which
//! the completing push bumps). Items nobody asks for after close are
//! freed by the ring's `Drop`.

use crate::channel::BufferAdmin;
use crate::error::StampedeError;
use crate::item::ItemData;
use crate::ring::MpmcRing;
use crate::seqlock::{decode_summary, encode_summary, SeqCell};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex};
use crate::task::TaskCtx;
use crate::tele::LfEndpointTele;
use aru_core::{AruConfig, AruController, NodeId, NodeKind, Stp};
use aru_gc::ConsumerMarks;
use aru_metrics::journal::{HopGate, HopLeg, OccupancyGate};
use aru_metrics::{Gauge, IterKey, JournalShard, SharedTrace};
use std::sync::Arc;
use std::time::Instant;
use vtime::{SimTime, Timestamp};

/// Deposit/mark slots pre-allocated per queue, so consumer endpoints
/// reach their slot without locking or resizing. `configure_consumers`
/// enforces the bound.
pub const MAX_LF_CONSUMERS: usize = 8;

/// Producer-side fold-refresh cadence: even when the published summary
/// generation is unchanged, re-fold every N puts so the producer
/// controller's staleness horizon keeps seeing live feedback (power of
/// two).
pub(crate) const FOLD_REFRESH: u64 = 64;

struct LfStored<T> {
    ts: Timestamp,
    value: T,
    bytes: u64,
}

/// An item handed to a consumer: ownership moves out of the queue — no
/// `Arc`, unlike the non-destructive channel's `StampedItem`.
#[derive(Debug, PartialEq, Eq)]
pub struct LfItem<T> {
    pub ts: Timestamp,
    pub value: T,
}

/// Per-consumer state, written only through the owning consumer index.
struct ConsumerSlot {
    /// Highest consumed timestamp + 1 (0 = nothing consumed yet) — the
    /// GC mark, advanced with a CAS-max loop.
    mark: AtomicU64,
    /// Last deposited summary (encoded; 0 = none): the change gate that
    /// keeps deposits off the control mutex while the summary is stable.
    last_deposit: AtomicU64,
}

/// Control-plane state: reached only on summary change and by admin ops.
/// The journal shard lives here so the control mutex is the single
/// writer it requires — and recording stays off the lock-free hot path
/// by construction (only summary *changes* reach this struct at all).
struct LfControl {
    aru: AruController,
    /// Seqlock generation (word 0 of the summary cell), bumped per write.
    generation: u64,
    consumers: usize,
    journal: JournalShard,
    deposit_hops: HopGate,
    occupancy_records: OccupancyGate,
}

/// Bounded lock-free MPMC FIFO queue with out-of-band summary-STP.
pub struct LfQueue<T: ItemData> {
    node: NodeId,
    name: String,
    ring: MpmcRing<LfStored<T>>,
    closed: AtomicBool,
    live_bytes: AtomicU64,
    /// Completed-push / completed-pop epochs (SeqCst): the condition
    /// parked waiters re-check before sleeping.
    push_ops: AtomicU64,
    pop_ops: AtomicU64,
    cons_waiters: AtomicUsize,
    prod_waiters: AtomicUsize,
    cons_park: Mutex<()>,
    cons_cond: Condvar,
    prod_park: Mutex<()>,
    prod_cond: Condvar,
    control: Mutex<LfControl>,
    /// (generation, encoded summary) published by the control plane.
    summary_cell: SeqCell,
    slots: [ConsumerSlot; MAX_LF_CONSUMERS],
    /// Telemetry bundle: endpoints cut their per-writer shards from it.
    trace: SharedTrace,
    occupancy_gauge: Gauge,
    live_bytes_gauge: Gauge,
}

impl<T: ItemData> LfQueue<T> {
    pub(crate) fn new(
        node: NodeId,
        name: String,
        config: &AruConfig,
        capacity: usize,
        trace: SharedTrace,
    ) -> Self {
        let tele = trace.telemetry();
        let r = &tele.registry;
        let labels: &[(&str, &str)] = &[("channel", name.as_str()), ("kind", "lfqueue")];
        let occupancy_gauge = r.gauge("aru_channel_occupancy_items", labels);
        let live_bytes_gauge = r.gauge("aru_channel_live_bytes", labels);
        let journal = tele.journal.shard();
        LfQueue {
            node,
            name,
            ring: MpmcRing::new(capacity),
            closed: AtomicBool::new(false),
            live_bytes: AtomicU64::new(0),
            push_ops: AtomicU64::new(0),
            pop_ops: AtomicU64::new(0),
            cons_waiters: AtomicUsize::new(0),
            prod_waiters: AtomicUsize::new(0),
            cons_park: Mutex::new(()),
            cons_cond: Condvar::new(),
            prod_park: Mutex::new(()),
            prod_cond: Condvar::new(),
            control: Mutex::new(LfControl {
                aru: AruController::new(NodeKind::Queue, 0, false, config),
                generation: 0,
                consumers: 0,
                journal,
                deposit_hops: HopGate::new(HopLeg::Deposit),
                occupancy_records: OccupancyGate::default(),
            }),
            summary_cell: SeqCell::new(0, 0),
            slots: std::array::from_fn(|_| ConsumerSlot {
                mark: AtomicU64::new(0),
                last_deposit: AtomicU64::new(0),
            }),
            trace,
            occupancy_gauge,
            live_bytes_gauge,
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

    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Items currently queued — a racy snapshot, no lock.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Bytes held — one atomic load, no lock.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::SeqCst)
    }

    /// The queue's compressed summary-STP, via the seqlock (falls back to
    /// the control mutex only on sustained collision with a writer).
    #[must_use]
    pub fn summary(&self) -> Option<Stp> {
        self.read_summary().1
    }

    /// `(generation, summary)` — the generation lets producer endpoints
    /// gate their feedback fold on change.
    pub(crate) fn read_summary(&self) -> (u64, Option<Stp>) {
        match self.summary_cell.try_read() {
            Some((gen, enc)) => (gen, decode_summary(enc)),
            None => {
                // Bounded optimism exhausted: a writer is (re)publishing.
                // The writer holds the control mutex, so locking it both
                // waits out the write and yields the authoritative value.
                let c = self.control.lock();
                (c.generation, c.aru.summary())
            }
        }
    }

    pub(crate) fn telemetry(&self) -> &aru_metrics::Telemetry {
        self.trace.telemetry()
    }

    // ---- hot-path ops -------------------------------------------------------

    /// Insert one item, parking while the ring is full. Returns the
    /// queue's summary-STP for the producer to fold (as `Queue::put`
    /// does), or `Err(Closed)` once the queue is closed. Outside a task
    /// the park has no deadline; a task's put parks through its endpoint
    /// ([`LfQueueOutput::put`]) instead.
    ///
    /// Uncontended cost: one claim CAS + release store (ring), two
    /// `SeqCst` ops (epoch bump, waiter check), one relaxed RMW
    /// (`live_bytes`), and 2–3 seqlock loads — no lock, no clock read,
    /// no allocation.
    pub fn put(
        &self,
        ts: Timestamp,
        value: T,
        _producer: IterKey,
    ) -> Result<Option<Stp>, StampedeError> {
        let mut st = Self::put_state(ts, value);
        loop {
            if let Some(done) = self.try_put(&mut st) {
                return done.map(|(_, summary)| summary);
            }
            self.park_producer(st.1, None);
        }
    }

    /// [`LfQueue::put`] in a task: the full-ring park is the task's
    /// ([`TaskCtx::park_op`]), so it is blocked time, bounded by the op
    /// timeout. Also returns the summary's seqlock generation.
    pub(crate) fn put_in_task(
        &self,
        ctx: &mut TaskCtx,
        ts: Timestamp,
        value: T,
    ) -> Result<(u64, Option<Stp>), StampedeError> {
        let mut st = Self::put_state(ts, value);
        ctx.park_op(
            &mut st,
            |st, _ctx, _woke| self.try_put(st),
            |st, deadline| self.park_producer(st.1, deadline),
        )
    }

    /// A put's wait state: the item not yet in the ring, and the pop
    /// epoch read before the latest push attempt.
    fn put_state(ts: Timestamp, value: T) -> (Option<LfStored<T>>, u64) {
        let bytes = value.size_bytes();
        (Some(LfStored { ts, value, bytes }), 0)
    }

    /// One push attempt: `Some` completes the put (pushed, or closed),
    /// `None` means the ring was full.
    fn try_put(
        &self,
        (item, epoch): &mut (Option<LfStored<T>>, u64),
    ) -> Option<Result<(u64, Option<Stp>), StampedeError>> {
        if self.closed.load(Ordering::SeqCst) {
            return Some(Err(StampedeError::Closed));
        }
        // Epoch *before* the attempt: a pop completing after this load
        // flips the epoch and the park re-check refuses to sleep.
        *epoch = self.pop_ops.load(Ordering::SeqCst);
        let stored = item.take().expect("a put completes at most once");
        let bytes = stored.bytes;
        if let Err(back) = self.ring.try_push(stored) {
            *item = Some(back);
            return None;
        }
        self.live_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.push_ops.fetch_add(1, Ordering::SeqCst);
        self.wake_consumers();
        Some(Ok(self.read_summary()))
    }

    /// Remove the oldest item, parking while empty (up to the task's op
    /// timeout). Deposits the consumer's summary-STP (change-gated) and
    /// advances its GC mark. Items already queued stay drainable after
    /// [`LfQueue::close`]; empty-and-closed reports `Err(Closed)`.
    pub fn get(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
    ) -> Result<LfItem<T>, StampedeError> {
        // The push epoch read before the latest pop attempt: the park
        // re-checks it.
        let mut epoch = 0;
        ctx.park_op(
            &mut epoch,
            |epoch, ctx, _woke| {
                *epoch = self.push_ops.load(Ordering::SeqCst);
                if let Some(stored) = self.ring.try_pop() {
                    self.finish_pop(&stored, chan_out_index, ctx);
                    return Some(Ok(LfItem {
                        ts: stored.ts,
                        value: stored.value,
                    }));
                }
                // Closed but not empty: a push claimed its slot but has not
                // released it yet (`try_pop` saw the slot unready). Parking
                // on the pre-pop epoch is safe — the completing push bumps
                // `push_ops` and wakes us, and the park re-check refuses to
                // sleep if it already did. Returning `Closed` here would
                // strand a drainable item, breaking the close contract the
                // mutex oracle keeps.
                let drained = self.closed.load(Ordering::SeqCst) && self.ring.is_empty();
                drained.then_some(Err(StampedeError::Closed))
            },
            |epoch, deadline| self.park_consumer(*epoch, deadline),
        )
    }

    /// Non-blocking [`LfQueue::get`]: `Ok(None)` when nothing is
    /// available and the queue is open, `Err(Closed)` once it is closed
    /// *and* drained (matching `Queue::try_get`).
    pub fn try_get(
        &self,
        chan_out_index: usize,
        ctx: &mut TaskCtx,
    ) -> Result<Option<LfItem<T>>, StampedeError> {
        match self.ring.try_pop() {
            Some(stored) => {
                self.finish_pop(&stored, chan_out_index, ctx);
                Ok(Some(LfItem {
                    ts: stored.ts,
                    value: stored.value,
                }))
            }
            None if self.closed.load(Ordering::SeqCst) && self.ring.is_empty() => {
                Err(StampedeError::Closed)
            }
            None => Ok(None),
        }
    }

    /// Snapshot of the per-consumer GC marks (decoded from the lock-free
    /// slots; the control lock is taken only to read the consumer count).
    #[must_use]
    pub fn marks_snapshot(&self) -> ConsumerMarks {
        let mut marks = ConsumerMarks::new(self.control.lock().consumers);
        BufferAdmin::copy_marks(self, &mut marks);
        marks
    }

    /// Close the queue: blocked ops wake, later puts fail with
    /// `Err(Closed)`, queued items stay drainable by consumers.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        {
            let _g = self.cons_park.lock();
            self.cons_cond.notify_all();
        }
        {
            let _g = self.prod_park.lock();
            self.prod_cond.notify_all();
        }
    }

    // ---- internals ----------------------------------------------------------

    /// Post-pop bookkeeping shared by get/try_get: byte accounting, pop
    /// epoch, mark advance, change-gated deposit, producer wakeup.
    fn finish_pop(&self, stored: &LfStored<T>, chan_out_index: usize, ctx: &mut TaskCtx) {
        self.live_bytes.fetch_sub(stored.bytes, Ordering::Relaxed);
        self.pop_ops.fetch_add(1, Ordering::SeqCst);
        self.advance_mark(chan_out_index, stored.ts);
        self.deposit(chan_out_index, ctx);
        self.wake_producers();
    }

    /// CAS-max on the consumer's mark (encoded ts + 1; the loom stand-in
    /// has no `fetch_max`, and this loop is bounded: a CAS failure means
    /// the mark already advanced past us).
    fn advance_mark(&self, chan_out_index: usize, ts: Timestamp) {
        let slot = &self.slots[chan_out_index];
        let enc = ts.0 + 1;
        let mut cur = slot.mark.load(Ordering::Relaxed);
        while cur < enc {
            match slot
                .mark
                .compare_exchange(cur, enc, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Deposit the consumer's summary-STP: fold into the controller and
    /// republish the seqlock cell — but only when the summary differs
    /// from this consumer's last deposit. The converged steady state
    /// costs one load and a compare.
    fn deposit(&self, chan_out_index: usize, ctx: &TaskCtx) {
        let Some(summary) = ctx.summary() else { return };
        let slot = &self.slots[chan_out_index];
        let enc = encode_summary(Some(summary));
        if slot.last_deposit.load(Ordering::Relaxed) == enc {
            return;
        }
        slot.last_deposit.store(enc, Ordering::Relaxed);
        let mut c = self.control.lock();
        c.aru.receive_feedback(chan_out_index, summary);
        let folded = c.aru.summary();
        c.generation += 1;
        // Seqlock writer invariant: we hold the control mutex.
        self.summary_cell
            .write(c.generation, encode_summary(folded));
        // The deposit hop, through the gate of the mutex buffers' deposits
        // (`BufTele::on_deposit`).
        let c = &mut *c;
        let (now, value) = (ctx.last_read(), summary.period());
        c.deposit_hops
            .record(&c.journal, now, self.node, ctx.node(), value);
    }

    /// Park until a push completes (the epoch moves), close lands, or the
    /// deadline passes; `true` = the deadline had passed. The epoch
    /// re-check runs under the park lock, so a wakeup slipping between
    /// re-check and sleep is impossible: wakers take the same lock to
    /// notify.
    fn park_consumer(&self, epoch: u64, deadline: Option<Instant>) -> bool {
        self.cons_waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = self.cons_park.lock();
        let quiet =
            !self.closed.load(Ordering::SeqCst) && self.push_ops.load(Ordering::SeqCst) == epoch;
        let timed_out = quiet && self.cons_cond.wait_until(&mut g, deadline);
        drop(g);
        self.cons_waiters.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }

    /// Park until a pop completes (the epoch moves), close lands, or the
    /// deadline passes; `true` = the deadline had passed. The mirror of
    /// [`LfQueue::park_consumer`].
    fn park_producer(&self, epoch: u64, deadline: Option<Instant>) -> bool {
        self.prod_waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = self.prod_park.lock();
        let quiet =
            !self.closed.load(Ordering::SeqCst) && self.pop_ops.load(Ordering::SeqCst) == epoch;
        let timed_out = quiet && self.prod_cond.wait_until(&mut g, deadline);
        drop(g);
        self.prod_waiters.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }

    fn wake_consumers(&self) {
        if self.cons_waiters.load(Ordering::SeqCst) != 0 {
            let _g = self.cons_park.lock();
            self.cons_cond.notify_all();
        }
    }

    fn wake_producers(&self) {
        if self.prod_waiters.load(Ordering::SeqCst) != 0 {
            let _g = self.prod_park.lock();
            self.prod_cond.notify_all();
        }
    }
}

impl<T: ItemData> BufferAdmin for LfQueue<T> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn configure_consumers(&self, n: usize) {
        assert!(
            n <= MAX_LF_CONSUMERS,
            "LfQueue supports at most {MAX_LF_CONSUMERS} consumers (asked for {n})"
        );
        let mut c = self.control.lock();
        c.consumers = c.consumers.max(n);
        c.aru.ensure_outputs(n);
    }

    fn copy_marks(&self, into: &mut ConsumerMarks) {
        // Slot marks only move forward, so raising an earlier copy to them
        // brings it up to date in place.
        let n = self.control.lock().consumers;
        for (i, slot) in self.slots.iter().take(n).enumerate() {
            let enc = slot.mark.load(Ordering::SeqCst);
            if enc > 0 {
                into.advance(i, Timestamp(enc - 1));
            }
        }
    }

    fn apply_dead_before(&self, _bound: Timestamp) {
        // Nothing to purge: a bounded ring reuses slots on pop, so
        // reclamation is bounded by construction (see module docs).
    }

    fn close(&self) {
        LfQueue::close(self);
    }

    fn live_bytes(&self) -> u64 {
        LfQueue::live_bytes(self)
    }

    fn flush_trace(&self) {
        // The lock-free queue records no per-item lineage events
        // (documented tradeoff, module docs).
    }

    fn publish_telemetry(&self, now: SimTime) {
        // Counters live in per-endpoint registry shards and merge at
        // snapshot time; only the point-in-time gauges are refreshed
        // here, from lock-free state.
        let len = self.ring.len() as u64;
        self.occupancy_gauge.set(len as f64);
        self.live_bytes_gauge
            .set(self.live_bytes.load(Ordering::SeqCst) as f64);
        // Occupancy journal record on change — exporter-tick cadence
        // only, so locking the control mutex for its journal shard is off
        // the hot path.
        let c = &mut *self.control.lock();
        c.occupancy_records.record(&c.journal, now, self.node, len);
    }
}

/// Producer endpoint. Folds the returned summary into the task
/// controller only when the published generation moved, plus a
/// `FOLD_REFRESH` heartbeat so staleness tracking keeps seeing live
/// feedback between changes.
pub struct LfQueueOutput<T: ItemData> {
    pub(crate) q: Arc<LfQueue<T>>,
    pub(crate) thread_out_index: usize,
    tele: LfEndpointTele,
    last_gen: Option<u64>,
    ops: u64,
    // Per-endpoint journal shard: the producer endpoint is the single
    // writer, so the Return hop (queue summary handed back on put) can be
    // recorded without touching the queue's control mutex.
    journal: JournalShard,
    return_hops: HopGate,
}

impl<T: ItemData> LfQueueOutput<T> {
    pub(crate) fn new(q: Arc<LfQueue<T>>, thread_out_index: usize) -> Self {
        let tele = LfEndpointTele::output(q.telemetry(), q.name());
        let journal = q.telemetry().journal.shard();
        LfQueueOutput {
            q,
            thread_out_index,
            tele,
            last_gen: None,
            ops: 0,
            journal,
            return_hops: HopGate::new(HopLeg::Return),
        }
    }

    pub fn put(&mut self, ctx: &mut TaskCtx, ts: Timestamp, value: T) -> Result<(), StampedeError> {
        let t0 = ctx.op_sample();
        let (gen, summary) = self.q.put_in_task(ctx, ts, value).inspect_err(|e| {
            if *e == StampedeError::Timeout {
                self.tele.on_timeout();
            }
        })?;
        let q = &self.q;
        self.tele.on_op(1, || q.len());
        self.fold(ctx, gen, summary);
        if let Some(t0) = t0 {
            ctx.record_put_ns(t0);
        }
        Ok(())
    }

    /// Change-gated feedback fold (one compare when converged).
    fn fold(&mut self, ctx: &mut TaskCtx, gen: u64, summary: Option<Stp>) {
        self.ops = self.ops.wrapping_add(1);
        let refresh = self.ops & (FOLD_REFRESH - 1) == 0;
        if self.last_gen == Some(gen) && !refresh {
            return;
        }
        self.last_gen = Some(gen);
        if let Some(s) = summary {
            // The lock-free put reads no clock, so the fold (gated, like
            // this) does.
            let now = ctx.read_clock();
            // Return hop on value change: the queue's summary reached this
            // producer, through the mutex buffers' gate.
            let (q, value) = (self.q.node(), s.period());
            self.return_hops
                .record(&self.journal, now, q, ctx.node(), value);
            ctx.receive_feedback_from(self.thread_out_index, s, now, self.q.node());
        }
    }

    #[must_use]
    pub fn queue(&self) -> &LfQueue<T> {
        &self.q
    }

    #[must_use]
    pub fn queue_arc(&self) -> Arc<LfQueue<T>> {
        Arc::clone(&self.q)
    }
}

/// Consumer endpoint.
pub struct LfQueueInput<T: ItemData> {
    pub(crate) q: Arc<LfQueue<T>>,
    pub(crate) chan_out_index: usize,
    tele: LfEndpointTele,
}

impl<T: ItemData> LfQueueInput<T> {
    pub(crate) fn new(q: Arc<LfQueue<T>>, chan_out_index: usize) -> Self {
        let tele = LfEndpointTele::input(q.telemetry(), q.name());
        LfQueueInput {
            q,
            chan_out_index,
            tele,
        }
    }

    pub fn get(&mut self, ctx: &mut TaskCtx) -> Result<LfItem<T>, StampedeError> {
        let t0 = ctx.op_sample();
        let res = self.q.get(self.chan_out_index, ctx);
        match &res {
            Ok(_) => {
                let q = &self.q;
                self.tele.on_op(1, || q.len());
            }
            Err(StampedeError::Timeout) => self.tele.on_timeout(),
            Err(_) => {}
        }
        if let Some(t0) = t0 {
            ctx.record_get_ns(t0);
        }
        res
    }

    pub fn try_get(&mut self, ctx: &mut TaskCtx) -> Result<Option<LfItem<T>>, StampedeError> {
        let res = self.q.try_get(self.chan_out_index, ctx);
        if matches!(&res, Ok(Some(_))) {
            let q = &self.q;
            self.tele.on_op(1, || q.len());
        }
        res
    }

    #[must_use]
    pub fn queue(&self) -> &LfQueue<T> {
        &self.q
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::bench_api;
    use vtime::Micros;

    fn q(capacity: usize) -> Arc<LfQueue<Vec<u8>>> {
        let q = Arc::new(LfQueue::new(
            NodeId(1),
            "lf".into(),
            &AruConfig::aru_min(),
            capacity,
            SharedTrace::new(),
        ));
        BufferAdmin::configure_consumers(&*q, 1);
        q
    }

    fn ctx() -> TaskCtx {
        bench_api::task_ctx(
            NodeId(9),
            "lf-test",
            1,
            false,
            &AruConfig::aru_min(),
            Arc::new(vtime::ManualClock::new()),
            SharedTrace::new(),
        )
    }

    #[test]
    fn fifo_put_get_with_accounting() {
        let q = q(8);
        let p = IterKey::new(NodeId(0), 0);
        let mut c = ctx();
        for ts in 0..5u64 {
            q.put(Timestamp(ts), vec![ts as u8; 8], p).unwrap();
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.live_bytes(), 40);
        for ts in 0..5u64 {
            let it = q.get(0, &mut c).unwrap();
            assert_eq!(it.ts, Timestamp(ts));
            assert_eq!(it.value, vec![ts as u8; 8]);
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.live_bytes(), 0);
        assert_eq!(q.marks_snapshot().mark(0), Some(Timestamp(4)));
    }

    #[test]
    fn deposit_publishes_summary_to_producers() {
        let q = q(8);
        let p = IterKey::new(NodeId(0), 0);
        let mut c = ctx();
        bench_api::warm_summary(&mut c, Stp(Micros(1_500)));
        assert_eq!(q.put(Timestamp(0), vec![0; 4], p).unwrap(), None);
        q.get(0, &mut c).unwrap();
        let s = q.put(Timestamp(1), vec![0; 4], p).unwrap();
        assert_eq!(s, q.summary());
        assert!(s.is_some(), "deposited summary must reach the next put");
    }

    #[test]
    fn close_wakes_and_drains() {
        let q = q(8);
        let p = IterKey::new(NodeId(0), 0);
        q.put(Timestamp(0), vec![1u8; 4], p).unwrap();
        q.close();
        let mut c = ctx();
        // Pre-close items stay drainable.
        assert_eq!(q.get(0, &mut c).unwrap().ts, Timestamp(0));
        assert!(matches!(q.get(0, &mut c), Err(StampedeError::Closed)));
        assert!(matches!(
            q.put(Timestamp(1), vec![1u8; 4], p),
            Err(StampedeError::Closed)
        ));
    }

    #[test]
    fn blocked_get_times_out() {
        let q = q(8);
        let mut c = ctx();
        bench_api::set_op_timeout(&mut c, Micros(10_000)); // 10ms
        let t0 = std::time::Instant::now();
        assert!(matches!(q.get(0, &mut c), Err(StampedeError::Timeout)));
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn full_queue_blocks_put_until_get() {
        let q = q(2);
        let p = IterKey::new(NodeId(0), 0);
        q.put(Timestamp(0), vec![0u8; 4], p).unwrap();
        q.put(Timestamp(1), vec![0u8; 4], p).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            q2.put(Timestamp(2), vec![0u8; 4], p).unwrap();
        });
        // Give the producer a chance to park (best-effort).
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut c = ctx();
        assert_eq!(q.get(0, &mut c).unwrap().ts, Timestamp(0));
        producer.join().unwrap();
        assert_eq!(q.len(), 2);
    }
}
