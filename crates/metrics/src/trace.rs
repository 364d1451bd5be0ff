//! Trace collection.
//!
//! [`Trace`] is an encoded event log with typed append helpers (used
//! directly by the single-threaded simulator); [`SharedTrace`] records the
//! same log for the threaded runtime, sharded by writer. Appends are kept
//! trivially cheap — postmortem analysis does all the work after the run,
//! exactly like the paper's infrastructure, reading the log once, in order,
//! through [`Trace::iter`].
//!
//! # One encoded log
//!
//! The trace must not cost memory on the scale of the data it measures: a
//! 56-byte [`TraceEvent`] per record made the trace most of the threaded
//! transport's resident memory and most of the 1000-node simulator cell's.
//! Both substrates therefore store events encoded, in one format:
//!
//! * an event is a tag byte, then its time as a delta against the log's
//!   previous time and (for `Alloc`/`Get`/`Free`) its item id as a zigzag
//!   delta against the log's previous id, then every other field as an
//!   LEB128 varint: ~7–8 bytes per event. Deltas wrap, so any `u64`
//!   round-trips, an order violation included (it costs ten bytes, not a
//!   failure).
//! * a log is a list of sealed byte chunks, cut at event boundaries, and
//!   one open chunk that a writer encodes into in place. A chunk seals as
//!   soon as fewer than one event's worst case of its `CHUNK_BYTES` are
//!   left.
//! * a [`Trace`] is a whole log: its sealed chunks, its open chunk, an
//!   event count and the delta bases. [`Trace::iter`] decodes it; every
//!   in-repo analysis iterates it. [`Trace::events`] decodes it into a
//!   slice once, on its first call, for callers that index.
//!
//! # Sharded recording
//!
//! The measurement layer must not serialize the pipeline it measures: a
//! global `Mutex<Vec<TraceEvent>>` turns every `put`/`get`/`alloc`/`free`
//! in the threaded runtime into a contention point and distorts the very
//! waste/footprint numbers we reproduce. [`SharedTrace`] therefore shards:
//!
//! * every writer is a [`LocalTrace`] (opened with [`SharedTrace::local`]):
//!   an open chunk whose sealed chunks go to a private **shard**, a list of
//!   chunks behind its own mutex. Channels and queues keep their writer
//!   inside the state mutex they already hold, and a task context owns one
//!   for its own records (the supervisor's crash and restart records among
//!   them), so recording an event is encoding it in place at the end of
//!   the writer's open chunk, and the shard lock is taken once per
//!   `CHUNK_BYTES` of events (a seal), not once per event. Snapshotting is
//!   the only other reader of a shard, so the lock is never contended. The
//!   [`SharedTrace`] handle itself writes nothing.
//! * item ids come from one shared atomic, reserved in writer-private
//!   blocks (`ID_BLOCK`) held under the writer's ambient exclusion, so
//!   id generation adds no shared-cache-line traffic and no extra atomics
//!   to the hot path.
//! * [`SharedTrace::snapshot`] k-way merges the shards, decoding each as it
//!   advances, and re-encodes the merged stream into one time-ordered
//!   [`Trace`]. Every postmortem report sees one identical, time-ordered
//!   event stream, and no step holds it at 56 bytes per event.
//!
//! # Every writer records in time order
//!
//! Each writer's times never decrease; [`LocalTrace`] and [`Trace`]
//! `debug_assert!` it on every record. A task's own writer holds its own
//! reads, which only move forward. A buffer's writer is stamped by several
//! tasks, so every stamp it records is raised to the writer's last record
//! ([`LocalTrace::last_time`]). The raise only shrinks a stamp's error:
//! every stamp is a clock read taken at or before its op (a fresh read, a
//! wake-up read, a task's last read, the fan-out's one read), and the
//! buffer's state mutex orders the writer's records, so the last record's
//! time was read before this op ended too. DESIGN.md §9 checks this at
//! every stamp source. The simulator records in event order, which is time
//! order.
//!
//! Merge ordering guarantee: events are ordered by time; ties are broken
//! by shard registration order, then by append order within the shard —
//! a stable sort of the shards' events, concatenated in registration
//! order, by time. All analyses are insensitive to tie order (they key on
//! `ItemId` / `IterKey` and integrate over time), which the
//! trace-equivalence tests pin down.

use crate::event::{ItemId, IterKey, TraceEvent};
use crate::registry::Telemetry;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, MutexGuard};
use aru_core::graph::NodeId;
use std::sync::{Arc, OnceLock};
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

/// A trace writer: the simulator's [`Trace`] and the threaded runtime's
/// [`LocalTrace`]. The control-plane records go through it from
/// [`crate::journal::TaskGates`], the one place that decides them.
pub trait TraceSink {
    /// Append `ev`, which is no earlier than this writer's last event.
    fn record(&mut self, ev: TraceEvent);
}

/// An in-memory event trace: one encoded log (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct Trace {
    sealed: Sealed,
    open: Open,
    next_item: u64,
    /// Wall-clock creation instant (see [`wall_clock_unix_us`]); 0 for
    /// default-constructed traces.
    epoch_unix_us: u64,
    /// [`Trace::events`]'s decoded copy, made on its first call and
    /// dropped by the next record.
    decoded: OnceLock<Vec<TraceEvent>>,
}

impl Trace {
    #[must_use]
    pub fn new() -> Self {
        Trace {
            epoch_unix_us: wall_clock_unix_us(),
            ..Trace::default()
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
        self.record(TraceEvent::Alloc {
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
        self.record(TraceEvent::Free { t, item });
    }

    pub fn get(&mut self, t: SimTime, item: ItemId, consumer: IterKey) {
        self.record(TraceEvent::Get { t, item, consumer });
    }

    pub fn sink_output(&mut self, t: SimTime, iter: IterKey, ts: Timestamp) {
        self.record(TraceEvent::SinkOutput { t, iter, ts });
    }

    pub fn op_timeout(&mut self, t: SimTime, node: NodeId) {
        self.record(TraceEvent::OpTimeout { t, node });
    }

    /// All events in time order, decoded as they are read.
    #[must_use]
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(&self.sealed.chunks, self.open.written(), self.len())
    }

    /// All events in time order, as a slice: decoded into a copy on the
    /// first call (56 bytes per event), which the trace keeps until its
    /// next record. Analyses read [`Trace::iter`] instead.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        self.decoded.get_or_init(|| self.iter().collect())
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.sealed.events + self.open.pending
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Time of the last event (end-of-run proxy when no explicit end is
    /// supplied).
    #[must_use]
    pub fn last_time(&self) -> SimTime {
        SimTime(self.open.last.t)
    }

    /// A trace of `events`, which must be in time order, with the id bound
    /// `next_item` (hand-built traces may carry ids beyond it).
    #[must_use]
    pub fn from_events(events: Vec<TraceEvent>, next_item: u64) -> Trace {
        let mut trace = Trace {
            next_item,
            ..Trace::default()
        };
        for ev in events {
            trace.record(ev);
        }
        trace
    }

    #[cold]
    #[inline(never)]
    fn seal(&mut self) {
        let (chunk, events) = self.open.take();
        self.sealed.push(chunk, events);
    }
}

impl TraceSink for Trace {
    #[inline(always)]
    fn record(&mut self, ev: TraceEvent) {
        self.decoded.take();
        if self.open.push(ev) {
            self.seal();
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Bytes per chunk. A writer seals its open chunk as soon as fewer than
/// `MAX_EVENT_BYTES` are left in it, so an event is never split. At ~7 B
/// per event that is one shard-lock acquisition per ~600 events, and a
/// mostly-idle writer holds one page. A power of two: see [`Encoder`].
const CHUNK_BYTES: usize = 4096;

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

/// The sealed chunks of a log, in append order: one delta-coded event
/// stream, cut at event boundaries.
#[derive(Debug, Default, Clone)]
struct Sealed {
    chunks: Vec<Vec<u8>>,
    /// Events in `chunks`.
    events: usize,
}

impl Sealed {
    fn push(&mut self, chunk: Vec<u8>, events: usize) {
        self.chunks.push(chunk);
        self.events += events;
    }
}

/// One [`LocalTrace`]'s published events.
///
/// The mutex is for the snapshotting reader only: the owning writer is the
/// single writer, so its flushes never contend.
type Shard = Mutex<Sealed>;

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

    /// Snapshot into an owned [`Trace`] for postmortem analysis: the
    /// shards are merged into one time-ordered log, re-encoded (see the
    /// module docs for the tie order).
    ///
    /// Non-destructive — shards keep recording; a later snapshot sees a
    /// superset. Events sitting in an unflushed [`LocalTrace`] buffer are
    /// *not* visible yet — flush (or drop) the writer first.
    #[must_use]
    pub fn snapshot(&self) -> Trace {
        let shards: Vec<Arc<Shard>> = self.core.shards.lock().clone();
        // Held through the merge: one cut of every shard. A writer that
        // seals meanwhile waits; none takes a second shard's lock.
        let logs: Vec<MutexGuard<'_, Sealed>> = shards.iter().map(|s| s.lock()).collect();
        let mut trace = Trace {
            next_item: self.core.next_item.load(Ordering::Relaxed),
            epoch_unix_us: self.core.epoch_unix_us,
            ..Trace::default()
        };
        merge(&logs, &mut trace);
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
            open: Open::default(),
            id_next: 0,
            id_end: 0,
        }
    }
}

// ---- encoding ---------------------------------------------------------------
//
// An event is a tag byte, its time as a delta against the previous event of
// the same log, then its fields in declaration order: an item id as a
// zigzag delta against the log's previous item id, every other field as an
// LEB128 varint. Times never go backwards within a log, so their delta is a
// plain varint; ids do (a get or a free names an item allocated before the
// writer's latest alloc), so theirs is zigzagged. Deltas wrap, so every
// `u64` round-trips.

/// Event tags: the first byte of every encoded event. A `PaceDecision`'s
/// `clamped` flag is its tag.
mod tag {
    pub(super) const ALLOC: u8 = 0;
    pub(super) const FREE: u8 = 1;
    pub(super) const GET: u8 = 2;
    pub(super) const ITER_END: u8 = 3;
    pub(super) const SINK_OUTPUT: u8 = 4;
    pub(super) const TASK_CRASH: u8 = 5;
    pub(super) const TASK_RESTART: u8 = 6;
    pub(super) const OP_TIMEOUT: u8 = 7;
    pub(super) const STALE_SUMMARY: u8 = 8;
    pub(super) const SUMMARY_DROPPED: u8 = 9;
    pub(super) const PACE: u8 = 10;
    pub(super) const PACE_CLAMPED: u8 = 11;
}

/// Longest encoding of one event, an `Alloc`: tag, time and item deltas,
/// buffer, ts, bytes, producer node and seq (a `u64` varint takes up to ten
/// bytes, a `u32` up to five).
const MAX_EVENT_BYTES: usize = 1 + 10 + 10 + 5 + 10 + 10 + 5 + 10;

/// The bases of a log's deltas: the time and item id of its last event
/// (item id of its last event that had one).
#[derive(Debug, Default, Clone, Copy)]
struct Bases {
    t: u64,
    item: u64,
}

/// Maps a wrapping difference to an unsigned value that is small when the
/// difference is small either way.
fn zigzag(d: u64) -> u64 {
    let d = d as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// A writer's open chunk: a fixed array that events are encoded into in
/// place, sealed as a `Vec` of its written prefix.
type Chunk = Box<[u8; CHUNK_BYTES]>;

const _: () = assert!(CHUNK_BYTES.is_power_of_two() && MAX_EVENT_BYTES < CHUNK_BYTES);

fn new_chunk() -> Chunk {
    vec![0; CHUNK_BYTES]
        .into_boxed_slice()
        .try_into()
        .expect("a CHUNK_BYTES-long slice")
}

/// The open end of a log, shared by both writers: the chunk being encoded
/// into, its event count and the delta bases after the last event.
#[derive(Debug, Clone)]
struct Open {
    /// Its first `pos` bytes are encoded events not yet sealed.
    buf: Chunk,
    pos: usize,
    /// Events in `buf`.
    pending: usize,
    /// Delta bases after the last event encoded, sealed or not.
    last: Bases,
}

impl Default for Open {
    fn default() -> Self {
        Open {
            buf: new_chunk(),
            pos: 0,
            pending: 0,
            last: Bases::default(),
        }
    }
}

impl Open {
    /// Encode `ev` at the end of the chunk; true when the chunk is full
    /// and must be sealed before the next event.
    #[inline(always)]
    fn push(&mut self, ev: TraceEvent) -> bool {
        debug_assert!(
            self.last.t <= ev.time().0,
            "{ev:?} recorded after an event at {}",
            self.last.t
        );
        self.pos = encode(&mut self.buf, self.pos, ev, &mut self.last);
        debug_assert!(self.pos <= CHUNK_BYTES, "an event overran its chunk");
        self.pending += 1;
        self.pos > CHUNK_BYTES - MAX_EVENT_BYTES
    }

    /// The encoded events not yet sealed.
    fn written(&self) -> &[u8] {
        &self.buf[..self.pos]
    }

    /// Seal: the written chunk and its event count, leaving a fresh chunk
    /// open (the bases carry on).
    fn take(&mut self) -> (Vec<u8>, usize) {
        let full = std::mem::replace(&mut self.buf, new_chunk());
        let mut chunk = (full as Box<[u8]>).into_vec();
        chunk.truncate(std::mem::take(&mut self.pos));
        (chunk, std::mem::take(&mut self.pending))
    }
}

/// Writes one event into the open chunk from `pos` on.
///
/// Every index is masked with `CHUNK_BYTES - 1`, which needs no bounds
/// check; the seal leaves `MAX_EVENT_BYTES` free, so the mask never wraps.
/// In place and unchecked, a record costs no more than the 56-byte push
/// did (`metrics.trace.record_ns`); encoded into a stack buffer appended
/// with `extend_from_slice` it cost more than the push, and with checked
/// indices about 2× (release micros of single `alloc`, `get`, `free` and
/// `iter_end` records).
struct Encoder<'a> {
    chunk: &'a mut [u8; CHUNK_BYTES],
    pos: usize,
}

impl<'a> Encoder<'a> {
    /// The tag, then `t` as a delta against `last.t`.
    #[inline(always)]
    fn start(
        chunk: &'a mut [u8; CHUNK_BYTES],
        pos: usize,
        tag: u8,
        t: SimTime,
        last: &mut Bases,
    ) -> Self {
        let mut e = Encoder { chunk, pos };
        e.byte(tag);
        e.varint(t.0.wrapping_sub(last.t));
        last.t = t.0;
        e
    }

    #[inline(always)]
    fn byte(&mut self, b: u8) {
        self.chunk[self.pos & (CHUNK_BYTES - 1)] = b;
        self.pos += 1;
    }

    /// LEB128: seven bits per byte, low bits first, the high bit set on
    /// every byte but the last.
    #[inline(always)]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    #[inline(always)]
    fn item(&mut self, item: ItemId, last: &mut Bases) {
        self.varint(zigzag(item.0.wrapping_sub(last.item)));
        last.item = item.0;
    }

    #[inline(always)]
    fn node(&mut self, node: NodeId) {
        self.varint(node.0.into());
    }

    #[inline(always)]
    fn key(&mut self, key: IterKey) {
        self.node(key.node);
        self.varint(key.seq);
    }
}

/// Encode `ev` into `chunk` at `pos` against the shard's bases, which it
/// advances; returns the position after the event.
///
/// Inlined, like [`Open::push`], into each record method, where the
/// variant is known: the match folds away.
#[inline(always)]
fn encode(chunk: &mut [u8; CHUNK_BYTES], pos: usize, ev: TraceEvent, last: &mut Bases) -> usize {
    match ev {
        TraceEvent::Alloc {
            t,
            item,
            buffer,
            ts,
            bytes,
            producer,
        } => {
            let mut e = Encoder::start(chunk, pos, tag::ALLOC, t, last);
            e.item(item, last);
            e.node(buffer);
            e.varint(ts.0);
            e.varint(bytes);
            e.key(producer);
            e.pos
        }
        TraceEvent::Free { t, item } => {
            let mut e = Encoder::start(chunk, pos, tag::FREE, t, last);
            e.item(item, last);
            e.pos
        }
        TraceEvent::Get { t, item, consumer } => {
            let mut e = Encoder::start(chunk, pos, tag::GET, t, last);
            e.item(item, last);
            e.key(consumer);
            e.pos
        }
        TraceEvent::IterEnd { t, iter, busy } => {
            let mut e = Encoder::start(chunk, pos, tag::ITER_END, t, last);
            e.key(iter);
            e.varint(busy.0);
            e.pos
        }
        TraceEvent::SinkOutput { t, iter, ts } => {
            let mut e = Encoder::start(chunk, pos, tag::SINK_OUTPUT, t, last);
            e.key(iter);
            e.varint(ts.0);
            e.pos
        }
        TraceEvent::TaskCrash { t, node, attempt } => {
            let mut e = Encoder::start(chunk, pos, tag::TASK_CRASH, t, last);
            e.node(node);
            e.varint(attempt.into());
            e.pos
        }
        TraceEvent::TaskRestart {
            t,
            node,
            attempt,
            backoff,
        } => {
            let mut e = Encoder::start(chunk, pos, tag::TASK_RESTART, t, last);
            e.node(node);
            e.varint(attempt.into());
            e.varint(backoff.0);
            e.pos
        }
        TraceEvent::OpTimeout { t, node } => {
            let mut e = Encoder::start(chunk, pos, tag::OP_TIMEOUT, t, last);
            e.node(node);
            e.pos
        }
        TraceEvent::StaleSummary { t, iter } => {
            let mut e = Encoder::start(chunk, pos, tag::STALE_SUMMARY, t, last);
            e.key(iter);
            e.pos
        }
        TraceEvent::SummaryDropped { t, node } => {
            let mut e = Encoder::start(chunk, pos, tag::SUMMARY_DROPPED, t, last);
            e.node(node);
            e.pos
        }
        TraceEvent::PaceDecision {
            t,
            node,
            raw,
            target,
            clamped,
        } => {
            let tag = if clamped {
                tag::PACE_CLAMPED
            } else {
                tag::PACE
            };
            let mut e = Encoder::start(chunk, pos, tag, t, last);
            e.node(node);
            e.varint(raw.0);
            e.varint(target.0);
            e.pos
        }
    }
}

/// Decoder over one log's chunks, in append order: the events of a
/// [`Trace`] ([`Trace::iter`]) or of one shard (the snapshot's merge).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// Decoded after the last chunk: a [`Trace`]'s open chunk.
    tail: &'a [u8],
    cur: &'a [u8],
    /// Position of the next event in `cur`.
    i: usize,
    last: Bases,
    /// Events not yet decoded.
    left: usize,
}

impl<'a> Iter<'a> {
    #[inline]
    fn new(chunks: &'a [Vec<u8>], tail: &'a [u8], events: usize) -> Self {
        Iter {
            chunks: chunks.iter(),
            tail,
            cur: &[],
            i: 0,
            last: Bases::default(),
            left: events,
        }
    }

    /// Move to the next chunk with bytes in it. Inlined, so that the
    /// iterator stays in registers through a caller's loop.
    #[inline]
    fn next_chunk(&mut self) {
        while self.i == self.cur.len() {
            self.cur = match self.chunks.next() {
                Some(chunk) => chunk,
                None => std::mem::take(&mut self.tail),
            };
            self.i = 0;
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        if self.i == self.cur.len() {
            self.next_chunk();
        }
        // A local cursor, so that the event's fields are read from
        // registers rather than through `self`.
        let mut r = Reader {
            buf: self.cur,
            i: self.i,
        };
        let ev = r.event(&mut self.last);
        self.i = r.i;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Reads one chunk from `i` on.
struct Reader<'a> {
    buf: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    #[inline(always)]
    fn byte(&mut self) -> u8 {
        let b = self.buf[self.i];
        self.i += 1;
        b
    }

    /// LEB128 (see [`Encoder::varint`]). Values of one and two bytes,
    /// most fields, are read byte by byte behind branches the predictor
    /// mostly gets right; a longer value is read eight bytes at a time.
    #[inline(always)]
    fn varint(&mut self) -> u64 {
        let b = self.buf[self.i];
        if b < 0x80 {
            self.i += 1;
            return u64::from(b);
        }
        let c = self.buf[self.i + 1];
        if c < 0x80 {
            self.i += 2;
            return u64::from(b & 0x7f) | u64::from(c) << 7;
        }
        self.varint_long()
    }

    /// A varint of three bytes or more: the first byte with its high bit
    /// clear ends it, and the 7-bit groups before it are packed without a
    /// branch per byte.
    #[inline(always)]
    fn varint_long(&mut self) -> u64 {
        if let Some(word) = self.buf.get(self.i..self.i + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            let stops = !word & 0x8080_8080_8080_8080;
            if stops != 0 {
                self.i += (stops.trailing_zeros() / 8 + 1) as usize;
                // The bytes up to the first stop, without their high bits.
                let mut v = word & (stops ^ (stops - 1)) & 0x7f7f_7f7f_7f7f_7f7f;
                v = (v & 0x007f_007f_007f_007f) | ((v & 0x7f00_7f00_7f00_7f00) >> 1);
                v = (v & 0x0000_3fff_0000_3fff) | ((v & 0x3fff_0000_3fff_0000) >> 2);
                return (v & 0x0fff_ffff) | ((v & 0x0fff_ffff_0000_0000) >> 4);
            }
        }
        let (v, i) = varint_bytes(self.buf, self.i);
        self.i = i;
        v
    }

    #[inline(always)]
    fn node(&mut self) -> NodeId {
        NodeId(u32::try_from(self.varint()).expect("a trace node id is a u32"))
    }

    #[inline(always)]
    fn attempt(&mut self) -> u32 {
        u32::try_from(self.varint()).expect("a trace attempt is a u32")
    }

    #[inline(always)]
    fn key(&mut self) -> IterKey {
        let node = self.node();
        IterKey::new(node, self.varint())
    }

    /// One event, against the log's bases, which it advances.
    ///
    /// Struct-literal fields are evaluated in the order written, which is
    /// the order [`encode`] wrote them.
    #[inline(always)]
    fn event(&mut self, last: &mut Bases) -> TraceEvent {
        let tag = self.byte();
        last.t = last.t.wrapping_add(self.varint());
        let t = SimTime(last.t);
        let mut item = |r: &mut Self| {
            last.item = last.item.wrapping_add(unzigzag(r.varint()));
            ItemId(last.item)
        };
        match tag {
            tag::ALLOC => TraceEvent::Alloc {
                t,
                item: item(self),
                buffer: self.node(),
                ts: Timestamp(self.varint()),
                bytes: self.varint(),
                producer: self.key(),
            },
            tag::FREE => TraceEvent::Free {
                t,
                item: item(self),
            },
            tag::GET => TraceEvent::Get {
                t,
                item: item(self),
                consumer: self.key(),
            },
            tag::ITER_END => TraceEvent::IterEnd {
                t,
                iter: self.key(),
                busy: Micros(self.varint()),
            },
            tag::SINK_OUTPUT => TraceEvent::SinkOutput {
                t,
                iter: self.key(),
                ts: Timestamp(self.varint()),
            },
            tag::TASK_CRASH => TraceEvent::TaskCrash {
                t,
                node: self.node(),
                attempt: self.attempt(),
            },
            tag::TASK_RESTART => TraceEvent::TaskRestart {
                t,
                node: self.node(),
                attempt: self.attempt(),
                backoff: Micros(self.varint()),
            },
            tag::OP_TIMEOUT => TraceEvent::OpTimeout {
                t,
                node: self.node(),
            },
            tag::STALE_SUMMARY => TraceEvent::StaleSummary {
                t,
                iter: self.key(),
            },
            tag::SUMMARY_DROPPED => TraceEvent::SummaryDropped {
                t,
                node: self.node(),
            },
            tag::PACE | tag::PACE_CLAMPED => TraceEvent::PaceDecision {
                t,
                node: self.node(),
                raw: Micros(self.varint()),
                target: Micros(self.varint()),
                clamped: tag == tag::PACE_CLAMPED,
            },
            _ => unreachable!("unknown trace event tag {tag}"),
        }
    }
}

/// A varint read byte by byte from `buf[i..]`, and the position after it:
/// one longer than eight bytes, or one in a chunk's last eight bytes.
#[inline(never)]
fn varint_bytes(buf: &[u8], mut i: usize) -> (u64, usize) {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = buf[i];
        i += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return (v, i);
        }
        shift += 7;
    }
}

/// Merge the shards, each in time order, into `out` ordered by time, then
/// shard, then position in the shard, decoding each shard as it advances.
fn merge(logs: &[MutexGuard<'_, Sealed>], out: &mut Trace) {
    use std::cmp::Reverse;
    use std::collections::binary_heap::{BinaryHeap, PeekMut};

    let mut runs: Vec<Iter<'_>> = logs
        .iter()
        .filter(|log| log.events > 0)
        .map(|log| Iter::new(&log.chunks, &[], log.events))
        .collect();
    let mut heads: Vec<TraceEvent> = runs
        .iter_mut()
        .map(|run| run.next().expect("a shard with events"))
        .collect();
    // (time of the run's head, run index): the index is the tiebreak, and
    // a run's position only advances.
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = heads
        .iter()
        .enumerate()
        .map(|(i, ev)| Reverse((ev.time(), i)))
        .collect();
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((_, i)) = *top;
        out.record(heads[i]);
        match runs[i].next() {
            Some(ev) => {
                heads[i] = ev;
                *top = Reverse((ev.time(), i));
            }
            None => {
                PeekMut::pop(top);
            }
        }
    }
}

/// Buffered single-owner trace writer — the zero-synchronization hot path.
///
/// A `LocalTrace` is the open end of a log whose sealed chunks go to its
/// shard: recording an event encodes it (~7 bytes, see the encoding notes
/// above) in place at the open chunk's end (no lock, no atomics), and item
/// ids come from a plain-integer block refilled from the shared counter
/// once every `ID_BLOCK` allocs. The chunk is handed to the writer's shard
/// once less than one event's worst case is left of its `CHUNK_BYTES` —
/// one lock acquisition per few hundred events.
///
/// The owner provides the mutual exclusion: channels and queues keep their
/// `LocalTrace` inside the state mutex they already hold on every buffer
/// operation, and a task context owns its own, so recording adds no second
/// lock to the hot path.
///
/// **Visibility**: buffered events reach [`SharedTrace::snapshot`] only
/// after a flush — automatic when a chunk seals and on drop, or explicit
/// via [`LocalTrace::flush`]. A task flushes its writer when its loop exits
/// and before its supervisor records a crash; the runtime flushes every
/// buffer after joining the task threads, before it snapshots.
#[derive(Debug)]
pub struct LocalTrace {
    core: Arc<TraceCore>,
    shard: Arc<Shard>,
    open: Open,
    /// Private id block `[id_next, id_end)`; plain integers — the owner's
    /// `&mut` access is the synchronization.
    id_next: u64,
    id_end: u64,
}

impl TraceSink for LocalTrace {
    #[inline(always)]
    fn record(&mut self, ev: TraceEvent) {
        if self.open.push(ev) {
            self.flush();
        }
    }
}

impl LocalTrace {
    /// Publish the open chunk to the shard (one lock acquisition).
    pub fn flush(&mut self) {
        if self.open.pos == 0 {
            return;
        }
        let (chunk, events) = self.open.take();
        self.shard.lock().push(chunk, events);
    }

    /// Time of the last event this writer recorded (zero before the
    /// first): every later record must be stamped at or after it.
    #[must_use]
    pub fn last_time(&self) -> SimTime {
        SimTime(self.open.last.t)
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
        self.record(TraceEvent::Alloc {
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
        self.record(TraceEvent::Free { t, item });
    }

    pub fn get(&mut self, t: SimTime, item: ItemId, consumer: IterKey) {
        self.record(TraceEvent::Get { t, item, consumer });
    }

    pub fn op_timeout(&mut self, t: SimTime, node: NodeId) {
        self.record(TraceEvent::OpTimeout { t, node });
    }

    pub fn sink_output(&mut self, t: SimTime, iter: IterKey, ts: Timestamp) {
        self.record(TraceEvent::SinkOutput { t, iter, ts });
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

    /// Batch `get`: one `Get` event per item.
    pub fn get_n(
        &mut self,
        t: SimTime,
        consumer: IterKey,
        items: impl IntoIterator<Item = ItemId>,
    ) {
        for item in items {
            self.get(t, item, consumer);
        }
    }

    /// Batch `free`: one `Free` event per item.
    pub fn free_n(&mut self, t: SimTime, items: impl IntoIterator<Item = ItemId>) {
        for item in items {
            self.free(t, item);
        }
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
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Events enough to cross a chunk seal when each encodes to at least
    /// three bytes (a tag, a time delta and one more field), as in every
    /// test that sizes its writes from this.
    const EVENTS_PAST_A_SEAL: usize = CHUNK_BYTES / 3 + 1;
    const _: () = assert!(3 * EVENTS_PAST_A_SEAL > CHUNK_BYTES - MAX_EVENT_BYTES);

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
    fn concurrent_writers_merge_in_time_order() {
        // Each writer crosses a chunk seal on its own shard; cloned handles
        // open writers on the same trace.
        let tr = SharedTrace::new();
        let per = EVENTS_PAST_A_SEAL as u64 + 100;
        std::thread::scope(|s| {
            for i in 0..4 {
                let mut local = tr.clone().local();
                s.spawn(move || {
                    for j in 0..per {
                        local.record(TraceEvent::TaskCrash {
                            t: SimTime(j),
                            node: NodeId(i),
                            attempt: j as u32,
                        });
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
        let n = (EVENTS_PAST_A_SEAL * 3 + 17) as u64;
        for j in 0..n {
            local.record(TraceEvent::TaskRestart {
                t: SimTime(j),
                node: NodeId(0),
                attempt: 1,
                backoff: Micros(5),
            });
        }
        local.flush();
        let snap = tr.snapshot();
        assert_eq!(snap.len(), n as usize);
        assert_eq!(snap.last_time(), SimTime(n - 1));
        // a later snapshot still sees everything plus newer events
        local.record(TraceEvent::TaskCrash {
            t: SimTime(n),
            node: NodeId(0),
            attempt: 1,
        });
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
        // `Free { t: j, item: j }` after `Free { t: j - 1, item: j - 1 }`
        // is three bytes (tag, two one-byte deltas), and so is the first,
        // at (0, 0). A chunk seals at the first of them that leaves fewer
        // than `MAX_EVENT_BYTES` free.
        let per_chunk = (CHUNK_BYTES - MAX_EVENT_BYTES) / 3 + 1;
        let n = per_chunk as u64 + 7;
        let recorded: Vec<TraceEvent> = (0..n)
            .map(|j| TraceEvent::Free {
                t: SimTime(j),
                item: ItemId(j),
            })
            .collect();
        for j in 0..per_chunk as u64 - 1 {
            local.free(SimTime(j), ItemId(j));
        }
        // Nothing is visible before the seal.
        assert_eq!(tr.snapshot().len(), 0);
        for j in per_chunk as u64 - 1..n {
            local.free(SimTime(j), ItemId(j));
        }
        // The full chunk is visible; the 7-event tail is still buffered.
        assert_eq!(tr.snapshot().events(), &recorded[..per_chunk]);
        local.flush();
        assert_eq!(tr.snapshot().events(), &recorded[..]);
        local.get(SimTime(n), ItemId(0), IterKey::new(NodeId(0), 0));
        drop(local);
        let snap = tr.snapshot();
        assert_eq!(snap.len(), n as usize + 1);
        assert_eq!(&snap.events()[..n as usize], &recorded[..]);
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
        let per = EVENTS_PAST_A_SEAL as u64 * 2 + 31;
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
        // Every `Get` of the batch is five bytes: tag, time delta (1, then
        // 0), item delta (0, then 1), consumer node and seq.
        let per_chunk = (CHUNK_BYTES - MAX_EVENT_BYTES) / 5 + 1;
        let n = 2 * per_chunk as u64 + 3;
        local.get_n(SimTime(1), p, (0..n).map(ItemId));
        // The batch sealed two chunks; its last three events are buffered.
        assert_eq!(tr.snapshot().len(), 2 * per_chunk);
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
        assert_eq!(snap.len(), n as usize + 5);
        assert_eq!(snap.events(), loop_shared.snapshot().events());
    }

    #[test]
    fn longest_event_is_max_event_bytes() {
        // Every variant, both pace tags, with ten-byte time and item deltas
        // (from a fresh writer's zero bases: 2^63 takes ten bytes as a
        // varint, and its zigzag is u64::MAX) and every other field at its
        // maximum. The encoder masks its indices instead of checking them,
        // so an event longer than `MAX_EVENT_BYTES` would wrap to the start
        // of its chunk.
        let t = SimTime(1 << 63);
        let item = ItemId(1 << 63);
        let node = NodeId(u32::MAX);
        let key = IterKey::new(node, u64::MAX);
        let max = Micros(u64::MAX);
        let pace = |clamped| TraceEvent::PaceDecision {
            t,
            node,
            raw: max,
            target: max,
            clamped,
        };
        let events = [
            TraceEvent::Alloc {
                t,
                item,
                buffer: node,
                ts: Timestamp(u64::MAX),
                bytes: u64::MAX,
                producer: key,
            },
            TraceEvent::Free { t, item },
            TraceEvent::Get {
                t,
                item,
                consumer: key,
            },
            TraceEvent::IterEnd {
                t,
                iter: key,
                busy: max,
            },
            TraceEvent::SinkOutput {
                t,
                iter: key,
                ts: Timestamp(u64::MAX),
            },
            TraceEvent::TaskCrash {
                t,
                node,
                attempt: u32::MAX,
            },
            TraceEvent::TaskRestart {
                t,
                node,
                attempt: u32::MAX,
                backoff: max,
            },
            TraceEvent::OpTimeout { t, node },
            TraceEvent::StaleSummary { t, iter: key },
            TraceEvent::SummaryDropped { t, node },
            pace(false),
            pace(true),
        ];
        let mut tags = Vec::new();
        for ev in events {
            let tr = SharedTrace::new();
            let mut local = tr.local();
            local.record(ev);
            assert!(
                local.open.pos <= MAX_EVENT_BYTES,
                "{ev:?} encodes to {} bytes",
                local.open.pos
            );
            if matches!(ev, TraceEvent::Alloc { .. }) {
                assert_eq!(local.open.pos, MAX_EVENT_BYTES);
            }
            tags.push(local.open.buf[0]);
            local.flush();
            assert_eq!(tr.snapshot().events(), &[ev]);
        }
        // One event per tag: no variant, and neither pace tag, is missed.
        assert_eq!(tags, (tag::ALLOC..=tag::PACE_CLAMPED).collect::<Vec<_>>());
    }

    /// Full-range values, with the edges and small values well represented.
    fn wide_u64() -> impl Strategy<Value = u64> {
        (0u8..4, any::<u64>()).prop_map(|(kind, v)| match kind {
            0 => 0,
            1 => u64::MAX,
            2 => v % (1 << 14),
            _ => v,
        })
    }

    fn wide_u32() -> impl Strategy<Value = u32> {
        (0u8..4, any::<u32>()).prop_map(|(kind, v)| match kind {
            0 => 0,
            1 => u32::MAX,
            2 => v % 300,
            _ => v,
        })
    }

    /// Everything of an event but its time: the variant (0..12, the two
    /// `PaceDecision` tags counted apart) and its fields.
    type Fields = (u8, u64, u32, u64, u64, u32, u64);

    fn fields() -> impl Strategy<Value = Fields> {
        (
            0u8..12,
            wide_u64(),
            wide_u32(),
            wide_u64(),
            wide_u64(),
            wide_u32(),
            wide_u64(),
        )
    }

    fn build(t: u64, (kind, a, node, b, c, node2, seq): Fields) -> TraceEvent {
        let t = SimTime(t);
        let node = NodeId(node);
        let key = IterKey::new(NodeId(node2), seq);
        match kind {
            0 => TraceEvent::Alloc {
                t,
                item: ItemId(a),
                buffer: node,
                ts: Timestamp(b),
                bytes: c,
                producer: key,
            },
            1 => TraceEvent::Free { t, item: ItemId(a) },
            2 => TraceEvent::Get {
                t,
                item: ItemId(a),
                consumer: key,
            },
            3 => TraceEvent::IterEnd {
                t,
                iter: key,
                busy: Micros(b),
            },
            4 => TraceEvent::SinkOutput {
                t,
                iter: key,
                ts: Timestamp(b),
            },
            5 => TraceEvent::TaskCrash {
                t,
                node,
                attempt: node2,
            },
            6 => TraceEvent::TaskRestart {
                t,
                node,
                attempt: node2,
                backoff: Micros(b),
            },
            7 => TraceEvent::OpTimeout { t, node },
            8 => TraceEvent::StaleSummary { t, iter: key },
            9 => TraceEvent::SummaryDropped { t, node },
            _ => TraceEvent::PaceDecision {
                t,
                node,
                raw: Micros(b),
                target: Micros(c),
                clamped: kind == 11,
            },
        }
    }

    /// One step of a round-trip writer. The times the steps carry are
    /// recorded in ascending order, not as drawn.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Record this event (any item id).
        Record(u64, Fields),
        /// `LocalTrace::alloc`: the id comes from the writer.
        Alloc(u64),
        /// Another writer reserves an id block from the shared counter.
        Reserve,
        /// The writer's block runs out: its next alloc refills.
        Exhaust,
        Flush,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, wide_u64(), fields()).prop_map(|(kind, t, f)| match kind {
            0..=5 => Op::Record(t, f),
            6 | 7 => Op::Alloc(t),
            8 => Op::Reserve,
            _ if f.0 % 2 == 0 => Op::Exhaust,
            _ => Op::Flush,
        })
    }

    /// The decoded contents of one writer's shard.
    fn decode_shard(local: &LocalTrace) -> (Vec<TraceEvent>, usize) {
        let log = local.shard.lock();
        let events: Vec<TraceEvent> = Iter::new(&log.chunks, &[], log.events).collect();
        (events, log.events)
    }

    /// Cases per property; Miri runs a handful.
    const CASES: u32 = if cfg!(miri) { 4 } else { 256 };

    /// Most records per typed round trip: enough to cross several seals;
    /// under Miri, a few dozen.
    const TYPED_RECORDS: usize = if cfg!(miri) {
        64
    } else {
        4 * EVENTS_PAST_A_SEAL
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        // Every variant, extreme values and time steps, ids that go
        // backwards, id-block refills and seals at any point: the shard
        // decodes to exactly what was recorded, with its count.
        fn encoding_round_trips_every_trace_event(
            ops in prop::collection::vec(op(), 0..300),
        ) {
            let tr = SharedTrace::new();
            let mut local = tr.local();
            let producer = IterKey::new(NodeId(u32::MAX), u64::MAX);
            let mut times: Vec<u64> = ops
                .iter()
                .filter_map(|op| match *op {
                    Op::Record(t, _) | Op::Alloc(t) => Some(t),
                    _ => None,
                })
                .collect();
            times.sort_unstable();
            let mut times = times.into_iter();
            let mut recorded = Vec::new();
            for op in ops {
                match op {
                    Op::Record(_, f) => {
                        let ev = build(times.next().expect("a time per record"), f);
                        local.record(ev);
                        recorded.push(ev);
                    }
                    Op::Alloc(_) => {
                        let t = SimTime(times.next().expect("a time per alloc"));
                        let (buffer, ts) = (NodeId(3), Timestamp(u64::MAX));
                        let item = local.alloc(t, buffer, ts, u64::MAX, producer);
                        recorded.push(TraceEvent::Alloc { t, item, buffer, ts, bytes: u64::MAX, producer });
                    }
                    Op::Reserve => {
                        tr.core.next_item.fetch_add(ID_BLOCK, Ordering::Relaxed);
                    }
                    Op::Exhaust => local.id_end = local.id_next,
                    Op::Flush => local.flush(),
                }
            }
            local.flush();
            let (decoded, events) = decode_shard(&local);
            prop_assert_eq!(&decoded, &recorded);
            prop_assert_eq!(events, recorded.len());
            let log = local.shard.lock();
            prop_assert!(
                log.chunks.iter().all(|c| !c.is_empty() && c.len() <= CHUNK_BYTES),
                "a chunk is empty or longer than CHUNK_BYTES"
            );
        }

        // The simulator's writer: every kind, through `Trace`'s typed
        // methods and `record`, at extreme values, with item ids that go
        // backwards, across several seals. The log decodes to exactly what
        // was recorded, however it is read.
        fn trace_round_trips_typed_records(
            steps in prop::collection::vec((0u8..6, wide_u64(), fields()), 0..TYPED_RECORDS),
        ) {
            let mut tr = Trace::new();
            let mut times: Vec<u64> = steps.iter().map(|&(_, t, _)| t).collect();
            times.sort_unstable();
            let mut recorded = Vec::new();
            let mut allocs = 0u64;
            for ((kind, _, f), t) in steps.into_iter().zip(times) {
                let ev = build(t, f);
                let t = SimTime(t);
                let (_, a, node, b, c, node2, seq) = f;
                let key = IterKey::new(NodeId(node2), seq);
                recorded.push(match kind {
                    0 => {
                        let item = tr.alloc(t, NodeId(node), Timestamp(b), c, key);
                        prop_assert_eq!(item, ItemId(allocs));
                        allocs += 1;
                        TraceEvent::Alloc { t, item, buffer: NodeId(node), ts: Timestamp(b), bytes: c, producer: key }
                    }
                    1 => {
                        tr.free(t, ItemId(a));
                        TraceEvent::Free { t, item: ItemId(a) }
                    }
                    2 => {
                        tr.get(t, ItemId(a), key);
                        TraceEvent::Get { t, item: ItemId(a), consumer: key }
                    }
                    3 => {
                        tr.sink_output(t, key, Timestamp(b));
                        TraceEvent::SinkOutput { t, iter: key, ts: Timestamp(b) }
                    }
                    4 => {
                        tr.op_timeout(t, NodeId(node));
                        TraceEvent::OpTimeout { t, node: NodeId(node) }
                    }
                    _ => {
                        tr.record(ev);
                        ev
                    }
                });
            }
            let decoded: Vec<TraceEvent> = tr.iter().collect();
            prop_assert_eq!(&decoded, &recorded);
            prop_assert_eq!(tr.iter().len(), recorded.len());
            prop_assert_eq!(tr.events(), &recorded[..]);
            prop_assert_eq!(tr.len(), recorded.len());
            prop_assert_eq!(tr.last_time(), recorded.last().map_or(SimTime::ZERO, TraceEvent::time));
            prop_assert_eq!(tr.next_item(), allocs);
            prop_assert!(
                tr.sealed.chunks.iter().all(|c| !c.is_empty() && c.len() <= CHUNK_BYTES),
                "a chunk is empty or longer than CHUNK_BYTES"
            );
        }

        // Several writers, random flush points, many equal times across
        // shards: every snapshot equals the shards' events, concatenated in
        // registration order and stably sorted by time.
        fn snapshot_equals_sorted_oracle(
            n in 1usize..6,
            steps in prop::collection::vec((0usize..6, 0u64..3, 0u8..24, fields()), 0..300),
        ) {
            let tr = SharedTrace::new();
            let mut writers: Vec<LocalTrace> = (0..n).map(|_| tr.local()).collect();
            let mut runs: Vec<Vec<TraceEvent>> = vec![Vec::new(); n];
            let mut clocks = vec![0u64; n];
            let check = |runs: &Vec<Vec<TraceEvent>>| -> Result<(), TestCaseError> {
                let snap = tr.snapshot();
                let mut want: Vec<(usize, TraceEvent)> = runs
                    .iter()
                    .enumerate()
                    .flat_map(|(w, run)| run.iter().map(move |&ev| (w, ev)))
                    .collect();
                // Stable: equal (time, shard) keeps append order.
                want.sort_by_key(|&(w, ev)| (ev.time(), w));
                let want: Vec<TraceEvent> = want.into_iter().map(|(_, ev)| ev).collect();
                prop_assert_eq!(snap.events(), &want[..]);
                prop_assert_eq!(snap.last_time(), want.last().map_or(SimTime::ZERO, TraceEvent::time));
                prop_assert_eq!(snap.next_item(), tr.core.next_item.load(Ordering::Relaxed));
                Ok(())
            };
            for (w, step, action, f) in steps {
                let w = w % n;
                match action {
                    0 => writers[w].flush(),
                    1 => {
                        writers.iter_mut().for_each(LocalTrace::flush);
                        check(&runs)?;
                    }
                    _ => {
                        clocks[w] += step;
                        let t = clocks[w];
                        let ev = if f.0 == 0 {
                            let item = writers[w].alloc(SimTime(t), NodeId(1), Timestamp(t), 64, IterKey::new(NodeId(0), t));
                            TraceEvent::Alloc { t: SimTime(t), item, buffer: NodeId(1), ts: Timestamp(t), bytes: 64, producer: IterKey::new(NodeId(0), t) }
                        } else {
                            let ev = build(t, f);
                            writers[w].record(ev);
                            ev
                        };
                        runs[w].push(ev);
                    }
                }
            }
            drop(writers);
            check(&runs)?;
        }
    }
}
