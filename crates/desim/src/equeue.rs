//! The event-queue seam: a calendar queue with the old binary heap kept
//! compiled as its differential oracle.
//!
//! The engine processes events in strict `(time, seq)` order. With a
//! `BinaryHeap` every push and pop costs O(log n) comparisons on a
//! pointer-hopping arena, which caps the simulator around a few million
//! events/s — far short of what 1000-node sweeps need. Event times in a
//! discrete-event simulator are not adversarial, though: they cluster just
//! ahead of the cursor (service times, pacing sleeps, transfer delays), the
//! classic regime where Brown's calendar queue gives O(1) amortized
//! enqueue/dequeue.
//!
//! [`CalendarQueue`] hashes each event into `buckets[(time >> shift) & mask]`
//! (widths and bucket counts are powers of two, so the mapping is
//! division-free). Buckets are *sorted* split key/payload vectors with a
//! dead-prefix cursor: the bucket minimum is one array read, a pop is a
//! cursor bump, and the near-monotone arrivals of a forward-moving engine
//! make the sorted insert an append almost always. Pushes land first in a
//! small staging buffer and merge into the calendar in prefetched batches,
//! so the cold writes into the arrival band happen as independent,
//! overlappable cache misses rather than a serial miss chain. A pop scans
//! forward from the bucket holding the last popped time ("the current
//! day"), considering only events due within that bucket's window of the
//! current year, compares the hit against the staging minimum by full
//! `(time, seq)`, and takes the smaller — so the pop order is *identical*
//! to the heap's. If a whole year passes without a hit (every pending
//! event is far in the future, so the width is stale for the current
//! distribution) it recalibrates — re-estimating the width and jumping the
//! floor to the pending minimum — and rescans.
//!
//! Resize policy: when the population outgrows `LOAD_FACTOR` events per
//! bucket the calendar doubles; when it shrinks below an eighth of that it
//! halves (never below `MIN_BUCKETS`). Fat buckets are deliberate —
//! sorted buckets pop in O(1) at any occupancy. On each rebuild the bucket
//! width is re-estimated as `GAP_MULT ×` the mean positive gap between
//! the front `WIDTH_SAMPLE` pending events (density *at the cursor* is
//! what pop cost depends on), rounded to a power of two. All of this is a
//! pure function of the push/pop history, so runs stay deterministic and
//! replayable.
//!
//! Same pattern as the PR 7/8 mutex-vs-lockfree seam: [`EventQueue`]
//! dispatches over both implementations, the engine picks one from
//! [`EventQueueKind`], and the equivalence suite (`tests/
//! engine_equivalence.rs`) asserts byte-identical reports across them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vtime::SimTime;

/// Which priority structure backs the engine's event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventQueueKind {
    /// The original `BinaryHeap<Reverse<Ev>>` — kept as the oracle.
    BinaryHeap,
    /// Brown's calendar queue (default engine).
    #[default]
    Calendar,
}

/// One scheduled event: `(time, seq)` is the total order, `payload` the
/// engine's event kind (opaque to the queue).
#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The pending-event set, behind the seam.
#[derive(Debug)]
pub enum EventQueue<T> {
    Heap(HeapQueue<T>),
    Calendar(CalendarQueue<T>),
}

impl<T: Clone> EventQueue<T> {
    #[must_use]
    pub fn new(kind: EventQueueKind) -> Self {
        match kind {
            EventQueueKind::BinaryHeap => EventQueue::Heap(HeapQueue::new()),
            EventQueueKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
        }
    }

    /// Schedule `payload` at `time`; `seq` breaks same-timestamp ties (the
    /// engine issues strictly increasing sequence numbers).
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        match self {
            EventQueue::Heap(q) => q.push(time, seq, payload),
            EventQueue::Calendar(q) => q.push(time, seq, payload),
        }
    }

    /// Remove and return the `(time, seq)`-minimum event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        match self {
            EventQueue::Heap(q) => q.pop(),
            EventQueue::Calendar(q) => q.pop(),
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Heap(q) => q.heap.len(),
            EventQueue::Calendar(q) => q.len,
        }
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The original engine: a min-heap via `Reverse`.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> HeapQueue<T> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.seq, e.payload))
    }
}

/// Smallest calendar; also the size below which resize-down stops.
const MIN_BUCKETS: usize = 16;
/// Initial bucket-width exponent (2⁶ = 64 virtual µs — roughly one short
/// service time), so small sims behave sensibly before the first resize
/// re-estimates it.
const INIT_SHIFT: u32 = 6;
/// Width-exponent cap: keeps `day << shift` arithmetic far from u64
/// overflow even with degenerate spans.
const MAX_SHIFT: u32 = 40;
/// How many front events the resize width estimate samples.
const WIDTH_SAMPLE: usize = 32;
/// Resize-up when the population exceeds this many events per bucket.
/// Fat buckets on purpose: sorted buckets pop in O(1) at any occupancy,
/// and fewer/larger allocations keep the header array cache-resident and
/// cut TLB pressure at million-event populations; the only occupancy cost
/// left is the (L1-resident) memmove of a rare out-of-order insert.
const LOAD_FACTOR: usize = 32;
/// Bucket width as a multiple of the mean front gap.
const GAP_MULT: u64 = 2;
/// Staging-buffer capacity: pushes land here (L1-warm append) and merge
/// into the calendar in sorted batches, so the cold writes into the
/// arrival band happen as independent, overlappable misses.
const STAGE_CAP: usize = 64;

/// One calendar day: entries sorted ascending by `(time, seq)`, with a
/// dead prefix `[0, head)` of already-popped slots.
///
/// Sorted order makes every hot operation O(1): the bucket's minimum is
/// `entries[head]`, so a pop is a cursor bump and a lap probe is a single
/// front comparison — no intra-bucket scans at any occupancy (broadcast
/// fan-out puts whole bunches of same-timestamp events in one bucket, so
/// occupancy is not bounded by bucket width). Pushes append: the engine's
/// cursor only moves forward, so times landing in one bucket arrive
/// near-monotonically and the sorted insert is almost always `push`.
#[derive(Debug)]
struct Bucket<T> {
    head: usize,
    /// `(time, seq)` keys, ascending; parallel to `payloads`. Keys live in
    /// their own allocation so the compare-heavy paths (lap probes, sorted
    /// inserts) walk 16-byte elements — four per cache line — instead of
    /// dragging payload bytes through the cache.
    keys: Vec<(u64, u64)>,
    payloads: Vec<T>,
}

impl<T> Bucket<T> {
    const fn new() -> Self {
        Bucket {
            head: 0,
            keys: Vec::new(),
            payloads: Vec::new(),
        }
    }

    #[inline]
    fn live(&self) -> &[(u64, u64)] {
        &self.keys[self.head..]
    }

    /// Sorted insert by `(time, seq)`; amortized O(1) for the monotone
    /// arrivals that dominate, O(occupancy) memmove otherwise.
    #[inline]
    fn insert(&mut self, time: SimTime, seq: u64, payload: T) {
        let key = (time.0, seq);
        match self.keys.last() {
            Some(&k) if k > key => {
                let pos = self.head + self.live().partition_point(|&k| k < key);
                self.keys.insert(pos, key);
                self.payloads.insert(pos, payload);
            }
            _ => {
                self.keys.push(key);
                self.payloads.push(payload);
            }
        }
    }

    /// Pop the bucket minimum (caller has checked it exists and is due):
    /// bump the cursor and reclaim the dead prefix once it dominates.
    #[inline]
    fn pop_front(&mut self) -> (SimTime, u64, T)
    where
        T: Clone,
    {
        let (t, seq) = self.keys[self.head];
        let payload = self.payloads[self.head].clone();
        self.head += 1;
        if self.head == self.keys.len() {
            self.keys.clear();
            self.payloads.clear();
            self.head = 0;
        } else if self.head >= 64 && self.head * 2 >= self.keys.len() {
            self.keys.drain(..self.head);
            self.payloads.drain(..self.head);
            self.head = 0;
        }
        (SimTime(t), seq, payload)
    }
}

/// Brown's calendar queue with deterministic `(time, seq)` tie-breaking.
///
/// Bucket widths are powers of two (`1 << shift`): the day/bucket mapping
/// on every push and pop is then a shift and a mask instead of a u64
/// division — the division was the single largest cost in the hold
/// benchmark, and nothing in the width estimate needs finer granularity.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `buckets.len()` is always a power of two; `mask = len - 1`.
    buckets: Vec<Bucket<T>>,
    mask: u64,
    /// Bucket width is `1 << shift` virtual µs.
    shift: u32,
    /// Total pending events, including the ones still in `stage`.
    len: usize,
    /// Pop floor: the last popped time (no event below it can exist — the
    /// engine never schedules into the past — but pushes below it are
    /// tolerated by lowering the floor).
    last: u64,
    /// Staging buffer: recent pushes not yet merged into the calendar.
    /// Unsorted, bounded by [`STAGE_CAP`].
    stage: Vec<Entry<T>>,
    /// `(time, seq)` minimum of `stage`; `(MAX, MAX)` when empty.
    stage_min: (u64, u64),
    /// Index of `stage_min` within `stage` (0 when empty).
    stage_min_i: usize,
}

/// Best-effort cache-line prefetch; a no-op off x86_64.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects; any address is allowed.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p.cast::<i8>(), core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

impl<T: Clone> CalendarQueue<T> {
    fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::new()).collect(),
            mask: MIN_BUCKETS as u64 - 1,
            shift: INIT_SHIFT,
            len: 0,
            last: 0,
            stage: Vec::with_capacity(STAGE_CAP),
            stage_min: (u64::MAX, u64::MAX),
            stage_min_i: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, time: u64) -> usize {
        ((time >> self.shift) & self.mask) as usize
    }

    #[inline]
    fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        let t = time.0;
        if t < self.last {
            // Defensive: a push below the floor restarts the scan lower
            // instead of silently deferring the event a full year.
            self.last = t;
        }
        let key = (t, seq);
        if key < self.stage_min {
            self.stage_min = key;
            self.stage_min_i = self.stage.len();
        }
        self.stage.push(Entry { time, seq, payload });
        self.len += 1;
        if self.stage.len() == STAGE_CAP {
            self.flush_stage();
        }
    }

    /// Merge the staging buffer into the calendar as one batch. A per-push
    /// merge pays a serial header→tail cache-miss chain per event; here the
    /// batch's bucket headers and tails are prefetched in two sweeps of
    /// *independent* misses the memory system overlaps, and only then are
    /// the (now warm) inserts performed. This is what keeps amortized push
    /// cost flat at large populations.
    fn flush_stage(&mut self) {
        debug_assert_eq!(self.stage.len(), STAGE_CAP);
        let mut idx = [0usize; STAGE_CAP];
        for (i, e) in self.stage.iter().enumerate() {
            let b = ((e.time.0 >> self.shift) & self.mask) as usize;
            idx[i] = b;
            prefetch(&raw const self.buckets[b]);
        }
        for &b in &idx {
            // Warm the sorted-insert compare (last key, usually sharing a
            // line with the key append slot) and the payload append slot.
            let bk = &self.buckets[b];
            let n = bk.keys.len();
            prefetch(bk.keys.as_ptr().wrapping_add(n.saturating_sub(1)));
            prefetch(bk.payloads.as_ptr().wrapping_add(n));
        }
        for (i, e) in self.stage.drain(..).enumerate() {
            self.buckets[idx[i]].insert(e.time, e.seq, e.payload);
        }
        self.stage_min = (u64::MAX, u64::MAX);
        self.stage_min_i = 0;
        while self.len > LOAD_FACTOR * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let cal = if self.len > self.stage.len() {
            match self.lap_scan() {
                Some(hit) => Some(hit),
                None => {
                    // A full lap missed: every calendared event is more than
                    // a year out, i.e. the bucket width is stale for the
                    // current distribution (e.g. it was estimated during the
                    // t=0 wake storm where all events share one timestamp).
                    // Recalibrate — rebuild at the same size, re-estimating
                    // the width from the events actually pending and jumping
                    // the pop floor to their minimum — and rescan: the first
                    // bucket of the new lap is the minimum's own day, so it
                    // must hit.
                    self.resize(self.buckets.len());
                    Some(
                        self.lap_scan()
                            .expect("recalibrated lap must find the minimum"),
                    )
                }
            }
        } else {
            None
        };
        match cal {
            Some((b, t, seq)) if (t, seq) < self.stage_min => Some(self.take_front(b, t)),
            _ => Some(self.pop_stage()),
        }
    }

    /// Remove the staging buffer's `(time, seq)` minimum. Only reached
    /// when that minimum undercuts every calendared event — near-term
    /// wakes pushed just ahead of the cursor — so the O([`STAGE_CAP`])
    /// rescan runs on an L1-resident buffer.
    fn pop_stage(&mut self) -> (SimTime, u64, T) {
        let e = self.stage.swap_remove(self.stage_min_i);
        self.len -= 1;
        self.last = e.time.0;
        self.stage_min = (u64::MAX, u64::MAX);
        self.stage_min_i = 0;
        for (i, s) in self.stage.iter().enumerate() {
            let k = (s.time.0, s.seq);
            if k < self.stage_min {
                self.stage_min = k;
                self.stage_min_i = i;
            }
        }
        (e.time, e.seq, e.payload)
    }

    /// One lap over the calendar starting at the pop floor's day: returns
    /// the `(bucket, time, seq)` of the calendared minimum if any lies
    /// within a year of the floor. Each probe is O(1): a bucket's first
    /// live entry is its `(time, seq)` minimum, and if that entry is out
    /// of window (a future year sharing the bucket) nothing behind it can
    /// be due either.
    #[inline]
    fn lap_scan(&self) -> Option<(usize, u64, u64)> {
        let nb = self.buckets.len() as u64;
        let day = self.last >> self.shift;
        for i in 0..nb {
            let b = ((day + i) & self.mask) as usize;
            let Some(&(t, seq)) = self.buckets[b].live().first() else {
                continue;
            };
            if t < (day + i + 1).saturating_shl(self.shift) {
                return Some((b, t, seq));
            }
        }
        None
    }

    /// Remove bucket `b`'s front entry (time `t`, the global minimum) and
    /// advance the pop floor.
    #[inline]
    fn take_front(&mut self, b: usize, t: u64) -> (SimTime, u64, T) {
        let e = self.buckets[b].pop_front();
        self.len -= 1;
        self.last = t;
        if self.len < self.buckets.len() * LOAD_FACTOR / 8 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        e
    }

    /// Rebuild with `nb` buckets (power of two) and a width re-estimated
    /// from the pending events, rounded to the nearest power of two so the
    /// hot paths stay division-free.
    ///
    /// The width statistic is Brown's: [`GAP_MULT`] `×` the mean positive
    /// gap between the front [`WIDTH_SAMPLE`] events. Pop cost depends on the event
    /// density *at the cursor*, so the estimate must ignore both
    /// same-timestamp storms (zero gaps — e.g. the t=0 wake burst, which
    /// would collapse the width to 1 µs) and far-future outliers (restart
    /// timers, DGC passes — a global `span / len` average lets a handful
    /// of them inflate the width until the live cluster piles hundreds of
    /// events per bucket). If every sampled gap is zero the distribution
    /// says nothing about spacing and the current width is kept.
    fn resize(&mut self, nb: usize) {
        let mut entries: Vec<((u64, u64), T)> = Vec::with_capacity(self.len - self.stage.len());
        for b in &mut self.buckets {
            // Only the live suffix survives; dead prefixes drop here.
            let keys = b.keys.split_off(b.head);
            let payloads = b.payloads.split_off(b.head);
            b.keys.clear();
            b.payloads.clear();
            b.head = 0;
            entries.extend(keys.into_iter().zip(payloads));
        }
        if !entries.is_empty() {
            let k = entries.len().min(WIDTH_SAMPLE);
            if k < entries.len() {
                entries.select_nth_unstable_by_key(k - 1, |e| e.0);
            }
            let mut front: Vec<u64> = entries[..k].iter().map(|e| e.0 .0).collect();
            front.sort_unstable();
            let (mut sum, mut cnt) = (0u64, 0u64);
            for w in front.windows(2) {
                let d = w[1] - w[0];
                if d > 0 {
                    sum += d;
                    cnt += 1;
                }
            }
            if let Some(mean) = (GAP_MULT * sum).checked_div(cnt) {
                let target = mean.max(1);
                // Round log2 to nearest: floor(log2 t), +1 if the remainder
                // exceeds the half-step.
                let fl = 63 - target.leading_zeros();
                let up = u32::from(target - (1u64 << fl) > (1u64 << fl) / 2);
                self.shift = (fl + up).min(MAX_SHIFT);
            }
            // Jump the pop floor to the pending minimum: the floor is only
            // ever ≤ it, and starting the next lap at its day skips any
            // empty stretch the cursor left behind.
            self.last = front[0];
        }
        self.buckets = (0..nb).map(|_| Bucket::new()).collect();
        self.mask = nb as u64 - 1;
        for (k, p) in entries {
            let b = self.bucket_of(k.0);
            self.buckets[b].keys.push(k);
            self.buckets[b].payloads.push(p);
        }
        // Restore each bucket's sorted invariant in one pass (cheaper than
        // per-entry sorted inserts while redistributing).
        for b in &mut self.buckets {
            if b.keys.windows(2).all(|w| w[0] <= w[1]) {
                continue;
            }
            let keys = std::mem::take(&mut b.keys);
            let payloads = std::mem::take(&mut b.payloads);
            let mut pairs: Vec<_> = keys.into_iter().zip(payloads).collect();
            pairs.sort_unstable_by_key(|p| p.0);
            for (k, p) in pairs {
                b.keys.push(k);
                b.payloads.push(p);
            }
        }
    }
}

/// `u64` has no `saturating_shl`; this is `x << s` clamped to `u64::MAX`
/// on overflow (the "window top" of far-future days).
trait SaturatingShl {
    fn saturating_shl(self, s: u32) -> u64;
}

impl SaturatingShl for u64 {
    #[inline]
    fn saturating_shl(self, s: u32) -> u64 {
        if self.leading_zeros() >= s {
            self << s
        } else {
            u64::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T: Clone>(q: &mut EventQueue<T>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, s, _)) = q.pop() {
            out.push((t.0, s));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        for kind in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
            let mut q = EventQueue::new(kind);
            q.push(SimTime(50), 1, ());
            q.push(SimTime(10), 2, ());
            q.push(SimTime(50), 3, ());
            q.push(SimTime(10), 4, ());
            assert_eq!(drain(&mut q), vec![(10, 2), (10, 4), (50, 1), (50, 3)]);
        }
    }

    #[test]
    fn same_timestamp_ties_break_by_seq_regardless_of_push_order() {
        for kind in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
            let mut q = EventQueue::new(kind);
            for seq in [7u64, 3, 9, 1, 5] {
                q.push(SimTime(1000), seq, ());
            }
            assert_eq!(
                drain(&mut q),
                vec![(1000, 1), (1000, 3), (1000, 5), (1000, 7), (1000, 9)]
            );
        }
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        let mut cal = EventQueue::new(EventQueueKind::Calendar);
        let mut heap = EventQueue::new(EventQueueKind::BinaryHeap);
        let mut seq = 0u64;
        let mut now = 0u64;
        // Deterministic pseudo-random schedule: pushes cluster ahead of the
        // cursor like real service times, with occasional far jumps.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut step = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for round in 0..2000 {
            let n_push = 1 + step(4);
            for _ in 0..n_push {
                seq += 1;
                let dt = if step(50) == 0 {
                    step(100_000)
                } else {
                    step(500)
                };
                let t = SimTime(now + dt);
                cal.push(t, seq, ());
                heap.push(t, seq, ());
            }
            if round % 3 != 0 {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at round {round}");
                if let Some((t, _, ())) = a {
                    now = t.0;
                }
            }
        }
        assert_eq!(drain(&mut cal), drain(&mut heap));
    }

    #[test]
    fn grows_and_shrinks_across_resize_thresholds() {
        let mut q = EventQueue::new(EventQueueKind::Calendar);
        for i in 0..10_000u64 {
            q.push(SimTime(i * 37 % 4096), i, ());
        }
        assert_eq!(q.len(), 10_000);
        let mut prev = None;
        let mut popped = 0;
        while let Some((t, s, ())) = q.pop() {
            if let Some(p) = prev {
                assert!((t.0, s) > p, "order violated after resize");
            }
            prev = Some((t.0, s));
            popped += 1;
        }
        assert_eq!(popped, 10_000);
        assert!(q.is_empty());
    }

    #[test]
    fn sparse_far_future_event_found_by_fallback_scan() {
        let mut q = EventQueue::new(EventQueueKind::Calendar);
        // A lone event many "years" past the cursor (the trailing DGC pass
        // shape): the lap scan misses, the fallback must find it.
        q.push(SimTime(3), 1, ());
        assert_eq!(q.pop(), Some((SimTime(3), 1, ())));
        q.push(SimTime(10_000_000), 2, ());
        assert_eq!(q.pop(), Some((SimTime(10_000_000), 2, ())));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_below_pop_floor_is_not_lost() {
        let mut q = EventQueue::new(EventQueueKind::Calendar);
        q.push(SimTime(1000), 1, ());
        assert!(q.pop().is_some());
        // The engine never does this, but the queue must stay safe.
        q.push(SimTime(10), 2, ());
        q.push(SimTime(2000), 3, ());
        assert_eq!(q.pop(), Some((SimTime(10), 2, ())));
        assert_eq!(q.pop(), Some((SimTime(2000), 3, ())));
    }
}
