//! Trace collection.
//!
//! [`Trace`] is a plain event log with typed append helpers (used directly
//! by the single-threaded simulator); [`SharedTrace`] wraps the same event
//! model for the threaded runtime. Appends are kept trivially cheap —
//! postmortem analysis does all the work after the run, exactly like the
//! paper's infrastructure.
//!
//! # Sharded recording
//!
//! The measurement layer must not serialize the pipeline it measures: a
//! global `Mutex<Vec<TraceEvent>>` turns every `put`/`get`/`alloc`/`free`
//! in the threaded runtime into a contention point and distorts the very
//! waste/footprint numbers we reproduce. [`SharedTrace`] therefore shards:
//!
//! * every writer is a [`LocalTrace`] (opened with [`SharedTrace::local`]):
//!   a buffered single-owner writer on a private **shard**, a list of
//!   sealed `Vec` chunks behind its own mutex. Channels and queues keep
//!   their writer inside the state mutex they already hold, and a task
//!   context owns one for its own records (the supervisor's crash and
//!   restart records among them), so recording an event is a plain
//!   `Vec::push` and the shard lock is taken once per `SHARD_CHUNK` events
//!   (flush), not once per event. Snapshotting is the only other reader
//!   of a shard, so the lock is never contended. The [`SharedTrace`]
//!   handle itself writes nothing.
//! * item ids come from one shared atomic, reserved in writer-private
//!   blocks (`ID_BLOCK`) held under the writer's ambient exclusion, so
//!   id generation adds no shared-cache-line traffic and no extra atomics
//!   to the hot path.
//! * [`SharedTrace::snapshot`] collects all shards once, sorts each
//!   (already nearly sorted — per-shard times are nondecreasing) and
//!   k-way merges them by time, so every postmortem report sees one
//!   identical, time-ordered event stream.
//!
//! Merge ordering guarantee: events are ordered by time; ties are broken
//! by shard registration order, then by append order within the shard.
//! All analyses are insensitive to tie order (they key on `ItemId` /
//! `IterKey` and integrate over time), which the trace-equivalence tests
//! pin down.

use crate::event::{ItemId, IterKey, TraceEvent};
use crate::registry::Telemetry;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use aru_core::graph::NodeId;
use std::sync::Arc;
use vtime::{Micros, SimTime, Timestamp};

/// Wall-clock µs since the Unix epoch, or 0 when the clock is unavailable
/// (pre-epoch system time). Trace times are relative to an arbitrary
/// per-run origin; this stamp, taken once at recorder creation, is what
/// lets exported telemetry and trace reports be correlated across runs and
/// nodes.
#[must_use]
pub fn wall_clock_unix_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// An in-memory event trace.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
    next_item: u64,
    /// Max event time so far — kept incrementally so [`Trace::last_time`]
    /// is O(1) instead of a full scan.
    max_time: SimTime,
    /// Wall-clock creation instant (see [`wall_clock_unix_us`]); 0 for
    /// default-constructed traces.
    epoch_unix_us: u64,
}

impl Trace {
    #[must_use]
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            next_item: 0,
            max_time: SimTime::ZERO,
            epoch_unix_us: wall_clock_unix_us(),
        }
    }

    /// Wall-clock run origin in µs since the Unix epoch (0 = unknown).
    #[must_use]
    pub fn epoch_unix_us(&self) -> u64 {
        self.epoch_unix_us
    }

    /// Exclusive upper bound of the ids this trace's recorder handed out
    /// (hand-built traces may carry ids beyond it).
    pub(crate) fn next_item(&self) -> u64 {
        self.next_item
    }

    /// Override the wall-clock origin (used by snapshots to carry the
    /// recorder's epoch, and by tests).
    pub fn set_epoch_unix_us(&mut self, epoch: u64) {
        self.epoch_unix_us = epoch;
    }

    fn push(&mut self, ev: TraceEvent) {
        self.max_time = self.max_time.max(ev.time());
        self.events.push(ev);
    }

    /// Allocate a fresh [`ItemId`] and record the allocation.
    pub fn alloc(
        &mut self,
        t: SimTime,
        buffer: NodeId,
        ts: Timestamp,
        bytes: u64,
        producer: IterKey,
    ) -> ItemId {
        let item = ItemId(self.next_item);
        self.next_item += 1;
        self.push(TraceEvent::Alloc {
            t,
            item,
            buffer,
            ts,
            bytes,
            producer,
        });
        item
    }

    pub fn free(&mut self, t: SimTime, item: ItemId) {
        self.push(TraceEvent::Free { t, item });
    }

    pub fn get(&mut self, t: SimTime, item: ItemId, consumer: IterKey) {
        self.push(TraceEvent::Get { t, item, consumer });
    }

    pub fn iter_end(&mut self, t: SimTime, iter: IterKey, busy: Micros) {
        self.push(TraceEvent::IterEnd { t, iter, busy });
    }

    pub fn sink_output(&mut self, t: SimTime, iter: IterKey, ts: Timestamp) {
        self.push(TraceEvent::SinkOutput { t, iter, ts });
    }

    pub fn task_crash(&mut self, t: SimTime, node: NodeId, attempt: u32) {
        self.push(TraceEvent::TaskCrash { t, node, attempt });
    }

    pub fn task_restart(&mut self, t: SimTime, node: NodeId, attempt: u32, backoff: Micros) {
        self.push(TraceEvent::TaskRestart {
            t,
            node,
            attempt,
            backoff,
        });
    }

    pub fn op_timeout(&mut self, t: SimTime, node: NodeId) {
        self.push(TraceEvent::OpTimeout { t, node });
    }

    pub fn stale_summary(&mut self, t: SimTime, iter: IterKey) {
        self.push(TraceEvent::StaleSummary { t, iter });
    }

    pub fn summary_dropped(&mut self, t: SimTime, node: NodeId) {
        self.push(TraceEvent::SummaryDropped { t, node });
    }

    pub fn pace_decision(
        &mut self,
        t: SimTime,
        node: NodeId,
        raw: Micros,
        target: Micros,
        clamped: bool,
    ) {
        self.push(TraceEvent::PaceDecision {
            t,
            node,
            raw,
            target,
            clamped,
        });
    }

    /// All events in record order (runtimes record in nondecreasing time;
    /// merged traces are time-ordered).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last event (end-of-run proxy when no explicit end is
    /// supplied). O(1): the max is tracked on append.
    #[must_use]
    pub fn last_time(&self) -> SimTime {
        self.max_time
    }

    /// Build a trace from per-shard event runs by k-way merge.
    ///
    /// Each run is sorted individually first (runs recorded in time order —
    /// the normal case — are detected in O(n) and not re-sorted), then all
    /// runs are merged by time in a single pass. Ties are broken by run
    /// index, then by position within the run, making the result
    /// deterministic for a given set of runs.
    #[must_use]
    pub fn from_runs(mut runs: Vec<Vec<TraceEvent>>, next_item: u64) -> Trace {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        runs.retain(|r| !r.is_empty());
        for run in &mut runs {
            if !run.is_sorted_by_key(TraceEvent::time) {
                // Stable: preserves append order within equal times.
                run.sort_by_key(TraceEvent::time);
            }
        }
        let events = match runs.len() {
            0 => Vec::new(),
            1 => runs.pop().expect("one run"),
            _ => {
                let total = runs.iter().map(Vec::len).sum();
                let mut out = Vec::with_capacity(total);
                // Heap holds (time, run index); position per run advances
                // monotonically, so (time, run) is a sufficient tiebreak.
                let mut pos = vec![0usize; runs.len()];
                let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = runs
                    .iter()
                    .enumerate()
                    .map(|(i, r)| Reverse((r[0].time(), i)))
                    .collect();
                while let Some(Reverse((_, i))) = heap.pop() {
                    out.push(runs[i][pos[i]]);
                    pos[i] += 1;
                    if pos[i] < runs[i].len() {
                        heap.push(Reverse((runs[i][pos[i]].time(), i)));
                    }
                }
                out
            }
        };
        let max_time = events.last().map_or(SimTime::ZERO, TraceEvent::time);
        Trace {
            events,
            next_item,
            max_time,
            epoch_unix_us: 0,
        }
    }
}

/// Events per sealed shard chunk. Large enough that sealing (a pointer
/// swap) is rare; small enough that a mostly-idle task doesn't hold
/// megabytes of slack.
const SHARD_CHUNK: usize = 1024;

/// Item ids are reserved from the shared counter in blocks of this size,
/// one block at a time per [`LocalTrace`]: the `alloc` hot path then bumps
/// a writer-private counter instead of contending on one shared cache line
/// (measured ~8× slower under 4 producers). Ids stay globally unique —
/// blocks never overlap — but are not globally dense; analyses key on
/// identity, never on density.
/// Under loom the block shrinks to 2 so a model-checked test crosses the
/// refill boundary (the interesting interleaving) within the model's
/// preemption budget instead of after 256 uncontended bumps.
const ID_BLOCK: u64 = if cfg!(loom) { 2 } else { 256 };

/// One [`LocalTrace`]'s published events: sealed chunks in append order.
///
/// The mutex is for the snapshotting reader only: the owning writer is the
/// single writer, so its flushes never contend.
type Shard = Mutex<Vec<Vec<TraceEvent>>>;

#[derive(Debug)]
struct TraceCore {
    next_item: AtomicU64,
    /// Registry of every shard ever created for this trace, in
    /// registration order (the order [`SharedTrace::local`] opened their
    /// writers; the merge tiebreak).
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Live-telemetry bundle (metrics registry + flight-recorder journal).
    /// Carried here because the trace handle already reaches every
    /// channel, queue, and task context — telemetry rides along with zero
    /// constructor churn.
    telemetry: Telemetry,
    /// Wall-clock creation instant (see [`wall_clock_unix_us`]).
    epoch_unix_us: u64,
}

/// Thread-safe sharded trace handle for the threaded runtime.
///
/// The handle opens writers and takes snapshots; it writes nothing itself,
/// and a clone is another handle on the same trace. Every record goes
/// through a [`LocalTrace`]: a buffer's records (items are allocated, read
/// and freed only inside buffers, so a buffer's writer is the one source of
/// item ids) and a task's own records (iteration ends, sink outputs, stale
/// summaries, pace decisions, op timeouts, crashes and restarts).
#[derive(Debug, Clone)]
pub struct SharedTrace {
    core: Arc<TraceCore>,
}

impl Default for SharedTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedTrace {
    #[must_use]
    pub fn new() -> Self {
        let core = Arc::new(TraceCore {
            next_item: AtomicU64::new(0),
            shards: Mutex::default(),
            telemetry: Telemetry::new(),
            epoch_unix_us: wall_clock_unix_us(),
        });
        SharedTrace { core }
    }

    /// The live-telemetry bundle every clone of this trace shares.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.telemetry
    }

    /// Wall-clock creation instant of this recorder, µs since the Unix
    /// epoch.
    #[must_use]
    pub fn epoch_unix_us(&self) -> u64 {
        self.core.epoch_unix_us
    }

    /// Snapshot into an owned [`Trace`] for postmortem analysis: all shards
    /// are collected and k-way merged by time, once (concurrent appends may
    /// interleave slightly out of order within a shard; each shard is
    /// re-sorted stably before the merge when that happened).
    ///
    /// Non-destructive — shards keep recording; a later snapshot sees a
    /// superset. Events sitting in an unflushed [`LocalTrace`] buffer are
    /// *not* visible yet — flush (or drop) the writer first.
    #[must_use]
    pub fn snapshot(&self) -> Trace {
        let shards: Vec<Arc<Shard>> = self.core.shards.lock().clone();
        let runs: Vec<Vec<TraceEvent>> = shards.iter().map(|s| s.lock().concat()).collect();
        let mut trace = Trace::from_runs(runs, self.core.next_item.load(Ordering::Relaxed));
        trace.set_epoch_unix_us(self.core.epoch_unix_us);
        trace
    }

    /// Open a buffered single-owner writer on a fresh shard of this trace.
    /// This is the hot-path recorder: see [`LocalTrace`].
    #[must_use]
    pub fn local(&self) -> LocalTrace {
        let shard = Arc::new(Shard::default());
        self.core.shards.lock().push(Arc::clone(&shard));
        LocalTrace {
            core: Arc::clone(&self.core),
            shard,
            buf: Vec::with_capacity(SHARD_CHUNK),
            id_next: 0,
            id_end: 0,
        }
    }
}

/// Buffered single-owner trace writer — the zero-synchronization hot path.
///
/// A `LocalTrace` owns a pending-event buffer written through `&mut self`:
/// recording an event is a plain `Vec::push` (no lock, no atomics), and
/// item ids come from a plain-integer block refilled from the shared
/// counter once every `ID_BLOCK` allocs. The buffer is handed to the
/// writer's shard as one sealed chunk every `SHARD_CHUNK` events — one
/// lock acquisition per 1024 events instead of one per event.
///
/// The owner provides the mutual exclusion: channels and queues keep their
/// `LocalTrace` inside the state mutex they already hold on every buffer
/// operation, and a task context owns its own, so recording adds no second
/// lock to the hot path.
///
/// **Visibility**: buffered events reach [`SharedTrace::snapshot`] only
/// after a flush — automatic every `SHARD_CHUNK` events and on drop, or
/// explicit via [`LocalTrace::flush`]. A task flushes its writer when its
/// loop exits and before its supervisor records a crash; the runtime
/// flushes every buffer after joining the task threads, before it
/// snapshots.
#[derive(Debug)]
pub struct LocalTrace {
    core: Arc<TraceCore>,
    shard: Arc<Shard>,
    /// Pending events, not yet visible to snapshots.
    buf: Vec<TraceEvent>,
    /// Private id block `[id_next, id_end)`; plain integers — the owner's
    /// `&mut` access is the synchronization.
    id_next: u64,
    id_end: u64,
}

impl LocalTrace {
    fn push(&mut self, ev: TraceEvent) {
        self.buf.push(ev);
        if self.buf.len() >= SHARD_CHUNK {
            self.flush();
        }
    }

    /// Publish all buffered events to the shard (one lock acquisition).
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let chunk = std::mem::replace(&mut self.buf, Vec::with_capacity(SHARD_CHUNK));
        self.shard.lock().push(chunk);
    }

    pub fn alloc(
        &mut self,
        t: SimTime,
        buffer: NodeId,
        ts: Timestamp,
        bytes: u64,
        producer: IterKey,
    ) -> ItemId {
        let item = self.next_id();
        self.push(TraceEvent::Alloc {
            t,
            item,
            buffer,
            ts,
            bytes,
            producer,
        });
        item
    }

    pub fn free(&mut self, t: SimTime, item: ItemId) {
        self.push(TraceEvent::Free { t, item });
    }

    pub fn get(&mut self, t: SimTime, item: ItemId, consumer: IterKey) {
        self.push(TraceEvent::Get { t, item, consumer });
    }

    pub fn op_timeout(&mut self, t: SimTime, node: NodeId) {
        self.push(TraceEvent::OpTimeout { t, node });
    }

    pub fn iter_end(&mut self, t: SimTime, iter: IterKey, busy: Micros) {
        self.push(TraceEvent::IterEnd { t, iter, busy });
    }

    pub fn sink_output(&mut self, t: SimTime, iter: IterKey, ts: Timestamp) {
        self.push(TraceEvent::SinkOutput { t, iter, ts });
    }

    pub fn stale_summary(&mut self, t: SimTime, iter: IterKey) {
        self.push(TraceEvent::StaleSummary { t, iter });
    }

    pub fn task_crash(&mut self, t: SimTime, node: NodeId, attempt: u32) {
        self.push(TraceEvent::TaskCrash { t, node, attempt });
    }

    pub fn task_restart(&mut self, t: SimTime, node: NodeId, attempt: u32, backoff: Micros) {
        self.push(TraceEvent::TaskRestart {
            t,
            node,
            attempt,
            backoff,
        });
    }

    pub fn pace_decision(
        &mut self,
        t: SimTime,
        node: NodeId,
        raw: Micros,
        target: Micros,
        clamped: bool,
    ) {
        self.push(TraceEvent::PaceDecision {
            t,
            node,
            raw,
            target,
            clamped,
        });
    }

    /// Next item id, drawn from this writer's private block.
    fn next_id(&mut self) -> ItemId {
        if self.id_next == self.id_end {
            let start = self.core.next_item.fetch_add(ID_BLOCK, Ordering::Relaxed);
            self.id_next = start;
            self.id_end = start + ID_BLOCK;
        }
        let item = ItemId(self.id_next);
        self.id_next += 1;
        item
    }

    /// Flush check hoisted out of the per-event loop for batch appends.
    /// The buffer may overshoot `SHARD_CHUNK` by one batch; chunk size is
    /// a flush cadence, not a correctness bound.
    fn maybe_flush(&mut self) {
        if self.buf.len() >= SHARD_CHUNK {
            self.flush();
        }
    }

    /// Batch `get`: one `Get` event per item, one flush check.
    pub fn get_n(
        &mut self,
        t: SimTime,
        consumer: IterKey,
        items: impl IntoIterator<Item = ItemId>,
    ) {
        let items = items.into_iter();
        self.buf.reserve(items.size_hint().0);
        for item in items {
            self.buf.push(TraceEvent::Get { t, item, consumer });
        }
        self.maybe_flush();
    }

    /// Batch `free`: one `Free` event per item, one flush check.
    pub fn free_n(&mut self, t: SimTime, items: impl IntoIterator<Item = ItemId>) {
        let items = items.into_iter();
        self.buf.reserve(items.size_hint().0);
        for item in items {
            self.buf.push(TraceEvent::Free { t, item });
        }
        self.maybe_flush();
    }
}

impl Drop for LocalTrace {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_assigns_unique_item_ids() {
        let mut tr = Trace::new();
        let p = IterKey::new(NodeId(0), 0);
        let a = tr.alloc(SimTime(1), NodeId(1), Timestamp(0), 10, p);
        let b = tr.alloc(SimTime(2), NodeId(1), Timestamp(1), 10, p);
        assert_ne!(a, b);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.last_time(), SimTime(2));
    }

    #[test]
    fn from_runs_merges_and_tiebreaks_by_run_index() {
        let p = IterKey::new(NodeId(0), 0);
        let run0 = vec![
            TraceEvent::Free {
                t: SimTime(5),
                item: ItemId(0),
            },
            TraceEvent::Free {
                t: SimTime(9),
                item: ItemId(1),
            },
        ];
        let run1 = vec![TraceEvent::Alloc {
            t: SimTime(5),
            item: ItemId(2),
            buffer: NodeId(1),
            ts: Timestamp(0),
            bytes: 1,
            producer: p,
        }];
        let tr = Trace::from_runs(vec![run0, run1], 3);
        assert_eq!(tr.len(), 3);
        // tie at t=5: run 0 first
        assert!(matches!(tr.events()[0], TraceEvent::Free { .. }));
        assert!(matches!(tr.events()[1], TraceEvent::Alloc { .. }));
        assert_eq!(tr.last_time(), SimTime(9));
        assert_eq!(tr.next_item, 3);
    }

    #[test]
    fn concurrent_writers_merge_in_time_order() {
        // Each writer crosses a chunk seal on its own shard; cloned handles
        // open writers on the same trace.
        let tr = SharedTrace::new();
        let per = SHARD_CHUNK as u64 + 100;
        std::thread::scope(|s| {
            for i in 0..4 {
                let mut local = tr.clone().local();
                s.spawn(move || {
                    for j in 0..per {
                        local.task_crash(SimTime(j), NodeId(i), j as u32);
                    }
                });
            }
        });
        let snap = tr.snapshot();
        assert_eq!(snap.len() as u64, 4 * per);
        let times: Vec<_> = snap.events().iter().map(TraceEvent::time).collect();
        assert!(times.is_sorted(), "snapshot is time-sorted");
    }

    #[test]
    fn shard_chunk_sealing_loses_nothing() {
        // Cross several chunk boundaries on one writer.
        let tr = SharedTrace::new();
        let mut local = tr.local();
        let n = (SHARD_CHUNK * 3 + 17) as u64;
        for j in 0..n {
            local.task_restart(SimTime(j), NodeId(0), 1, Micros(5));
        }
        local.flush();
        let snap = tr.snapshot();
        assert_eq!(snap.len(), n as usize);
        assert_eq!(snap.last_time(), SimTime(n - 1));
        // a later snapshot still sees everything plus newer events
        local.task_crash(SimTime(n), NodeId(0), 1);
        drop(local);
        assert_eq!(tr.snapshot().len(), n as usize + 1);
    }

    #[test]
    fn snapshot_carries_wall_clock_epoch() {
        let tr = SharedTrace::new();
        assert!(tr.epoch_unix_us() > 0, "epoch stamped at creation");
        assert_eq!(tr.snapshot().epoch_unix_us(), tr.epoch_unix_us());
        assert!(Trace::new().epoch_unix_us() > 0);
        assert_eq!(Trace::default().epoch_unix_us(), 0);
    }

    #[test]
    fn empty_trace_last_time_is_zero() {
        assert_eq!(Trace::new().last_time(), SimTime::ZERO);
        assert_eq!(SharedTrace::new().snapshot().last_time(), SimTime::ZERO);
    }

    #[test]
    fn local_trace_flushes_on_chunk_boundary_and_drop() {
        let tr = SharedTrace::new();
        let mut local = tr.local();
        let n = SHARD_CHUNK as u64 + 7;
        for j in 0..n {
            local.free(SimTime(j), ItemId(j));
        }
        // The full chunk is visible; the 7-event tail is still buffered.
        assert_eq!(tr.snapshot().len(), SHARD_CHUNK);
        local.flush();
        assert_eq!(tr.snapshot().len(), n as usize);
        local.get(SimTime(n), ItemId(0), IterKey::new(NodeId(0), 0));
        drop(local);
        assert_eq!(tr.snapshot().len(), n as usize + 1);
    }

    #[test]
    fn local_trace_ids_unique_across_writers() {
        // Two buffered writers, each crossing an id-block refill, must
        // never hand out the same item id.
        let tr = SharedTrace::new();
        let p = IterKey::new(NodeId(0), 0);
        let mut a = tr.local();
        let mut b = tr.local();
        let mut ids = Vec::new();
        for j in 0..(ID_BLOCK + 10) {
            ids.push(a.alloc(SimTime(j), NodeId(1), Timestamp(j), 1, p));
            ids.push(b.alloc(SimTime(j), NodeId(1), Timestamp(j), 1, p));
        }
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n, "item ids collided across writers");
        drop(a);
        drop(b);
        assert_eq!(tr.snapshot().len(), n);
    }

    #[test]
    fn local_trace_concurrent_writers_lose_nothing() {
        let tr = SharedTrace::new();
        let n_threads = 4u64;
        let per = SHARD_CHUNK as u64 * 2 + 31;
        std::thread::scope(|s| {
            for i in 0..n_threads {
                let tr = &tr;
                s.spawn(move || {
                    let mut local = tr.local();
                    let p = IterKey::new(NodeId(i as u32), 0);
                    for j in 0..per {
                        let id = local.alloc(SimTime(j), NodeId(9), Timestamp(j), 1, p);
                        local.get(SimTime(j), id, p);
                    }
                });
            }
        });
        let snap = tr.snapshot();
        assert_eq!(snap.len() as u64, n_threads * per * 2);
        let mut ids: Vec<u64> = snap
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Alloc { item, .. } => Some(item.0),
                _ => None,
            })
            .collect();
        let n_allocs = ids.len() as u64;
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(n_allocs, n_threads * per);
        assert_eq!(ids.len() as u64, n_allocs, "duplicated item id");
    }

    #[test]
    fn get_n_and_free_n_match_loops_and_flush_on_chunk() {
        let tr = SharedTrace::new();
        let mut local = tr.local();
        let p = IterKey::new(NodeId(2), 1);
        let n = SHARD_CHUNK as u64 + 3;
        local.get_n(SimTime(1), p, (0..n).map(ItemId));
        // Batch crossed the chunk threshold: one flush happened at the end.
        assert_eq!(tr.snapshot().len(), n as usize);
        local.free_n(SimTime(2), (0..5).map(ItemId));
        local.flush();
        let snap = tr.snapshot();
        let loop_shared = SharedTrace::new();
        let mut loop_tr = loop_shared.local();
        for j in 0..n {
            loop_tr.get(SimTime(1), ItemId(j), p);
        }
        for j in 0..5 {
            loop_tr.free(SimTime(2), ItemId(j));
        }
        drop(loop_tr);
        assert_eq!(snap.events(), loop_shared.snapshot().events());
    }
}
