//! Timestamp-indexed item store: a dense ring with `BTreeMap` spill.
//!
//! Source threads issue monotonically increasing timestamps, so the stream
//! a channel actually holds is almost always a *dense in-order run*:
//! `ts, ts+1, ts+2, …` with occasional short gaps where a frame was
//! dropped. A `BTreeMap<Timestamp, _>` pays O(log n) pointer-chasing on
//! every put, lookup, and purge for a workload that is morally a `VecDeque`.
//! It is the item store of `aru_gc::BufferCore`, the one channel core the
//! threaded runtime (`stampede::Channel`) and the simulator
//! (`desim::SimChannel`) both wrap.
//!
//! [`TsStore`] keeps two sides:
//!
//! * **ring** — a `VecDeque<Option<V>>` where slot `i` holds the item at
//!   timestamp `base + i`. In-order puts are an O(1) `push_back`, lookups
//!   are an O(1) index, the newest item is the back slot, and the
//!   watermark purge pops dead items off the front. Short gaps (≤
//!   `MAX_RING_GAP` = 32 missing timestamps) become `None` holes so a lost
//!   frame does not end the dense run.
//! * **spill** — a `BTreeMap`, holding everything the ring cannot
//!   represent cheaply: timestamps below the ring's base (out-of-order
//!   arrivals) and jumps too far past its back. Correctness never depends
//!   on which side an item landed on.
//!
//! Invariants (checked by the model proptest at the bottom):
//!
//! 1. A timestamp inside the ring's span `[base, base+ring.len())` is never
//!    present in the spill — every query can probe the ring by index first
//!    and fall through to the spill without deduplication.
//! 2. The ring's front and back slots are always occupied (`Some`); holes
//!    only exist in the middle. This keeps "newest item" a field read.
//! 3. Extending the ring across a gap migrates any spill entries that the
//!    new span swallows (they arrived out of order earlier), preserving
//!    invariant 1.
//! 4. `purge_before(b)` leaves no item with `ts < b` on either side.
//!
//! The store is not synchronized: the threaded channel keeps it inside its
//! state mutex, and its observers read the occupancy under that lock; the
//! simulator is single-threaded.

use crate::Timestamp;
use std::collections::{BTreeMap, VecDeque};

/// Largest run of missing timestamps the ring will bridge with holes. A
/// gap beyond this (a source restart, a long skip run under heavy pacing)
/// spills instead — holes cost a slot each, so bridging huge jumps would
/// trade O(1) ops for unbounded memory.
const MAX_RING_GAP: u64 = 32;

/// Items of type `V` indexed by [`Timestamp`]: dense ring plus spill map
/// (see the module docs for the layout and its invariants).
#[derive(Debug, Clone)]
pub struct TsStore<V> {
    /// Timestamp of `ring[0]`; meaningful only while the ring is non-empty.
    base: u64,
    ring: VecDeque<Option<V>>,
    /// Occupied (`Some`) ring slots.
    occupied: usize,
    spill: BTreeMap<Timestamp, V>,
}

impl<V> Default for TsStore<V> {
    fn default() -> Self {
        TsStore {
            base: 0,
            ring: VecDeque::new(),
            occupied: 0,
            spill: BTreeMap::new(),
        }
    }
}

impl<V> TsStore<V> {
    #[must_use]
    pub fn new() -> Self {
        TsStore::default()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.occupied + self.spill.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timestamp of the last ring slot (callers check `!ring.is_empty()`).
    fn back_ts(&self) -> u64 {
        self.base + self.ring.len() as u64 - 1
    }

    fn in_ring_span(&self, ts: u64) -> bool {
        !self.ring.is_empty() && ts >= self.base && ts <= self.back_ts()
    }

    #[must_use]
    pub fn contains(&self, ts: Timestamp) -> bool {
        self.get(ts).is_some()
    }

    #[must_use]
    pub fn get(&self, ts: Timestamp) -> Option<&V> {
        if self.in_ring_span(ts.raw()) {
            self.ring[(ts.raw() - self.base) as usize].as_ref()
        } else {
            self.spill.get(&ts)
        }
    }

    /// Insert, returning the displaced item when `ts` was already present.
    pub fn insert(&mut self, ts: Timestamp, value: V) -> Option<V> {
        let t = ts.raw();
        if self.ring.is_empty() {
            // Anchor a fresh dense run here; the same timestamp may sit in
            // the spill from before the last purge emptied the ring.
            let old = self.spill.remove(&ts);
            self.base = t;
            self.ring.push_back(Some(value));
            self.occupied = 1;
            return old;
        }
        if t >= self.base {
            let back = self.back_ts();
            if t <= back {
                let slot = &mut self.ring[(t - self.base) as usize];
                let old = slot.replace(value);
                if old.is_none() {
                    self.occupied += 1;
                }
                return old;
            }
            if t - back <= MAX_RING_GAP + 1 {
                // Dense append (t == back+1) or a bridgeable gap: grow the
                // ring, pulling in any out-of-order spill entries the new
                // span swallows (invariant 3).
                for _ in back + 1..t {
                    self.ring.push_back(None);
                }
                if t > back + 1 && !self.spill.is_empty() {
                    let trapped: Vec<Timestamp> = self
                        .spill
                        .range(Timestamp(back + 1)..ts)
                        .map(|(&k, _)| k)
                        .collect();
                    for k in trapped {
                        let v = self.spill.remove(&k).expect("key just seen");
                        self.ring[(k.raw() - self.base) as usize] = Some(v);
                        self.occupied += 1;
                    }
                }
                let old = self.spill.remove(&ts);
                self.ring.push_back(Some(value));
                self.occupied += 1;
                return old;
            }
        }
        self.spill.insert(ts, value)
    }

    pub fn remove(&mut self, ts: Timestamp) -> Option<V> {
        if self.in_ring_span(ts.raw()) {
            let taken = self.ring[(ts.raw() - self.base) as usize].take();
            if taken.is_some() {
                self.occupied -= 1;
                self.trim();
            }
            taken
        } else {
            self.spill.remove(&ts)
        }
    }

    /// Restore invariant 2 after a removal: drop leading/trailing holes.
    fn trim(&mut self) {
        if self.occupied == 0 {
            self.ring.clear();
            return;
        }
        while matches!(self.ring.front(), Some(None)) {
            self.ring.pop_front();
            self.base += 1;
        }
        while matches!(self.ring.back(), Some(None)) {
            self.ring.pop_back();
        }
    }

    /// The newest item (greatest timestamp) — O(1) in the dense case.
    #[must_use]
    pub fn latest(&self) -> Option<(Timestamp, &V)> {
        let ring_back = self
            .ring
            .back()
            .and_then(|s| s.as_ref().map(|v| (Timestamp(self.back_ts()), v)));
        let spill_back = self.spill.iter().next_back().map(|(&k, v)| (k, v));
        match (ring_back, spill_back) {
            (Some(r), Some(s)) => Some(if r.0 >= s.0 { r } else { s }),
            (r, s) => r.or(s),
        }
    }

    /// The newest item with timestamp `<= ts`.
    #[must_use]
    pub fn latest_at_or_before(&self, ts: Timestamp) -> Option<(Timestamp, &V)> {
        let t = ts.raw();
        let ring_hit = if !self.ring.is_empty() && t >= self.base {
            let start = (t.min(self.back_ts()) - self.base) as usize;
            (0..=start).rev().find_map(|i| self.ring_entry(i))
        } else {
            None
        };
        let spill_hit = self.spill.range(..=ts).next_back().map(|(&k, v)| (k, v));
        match (ring_hit, spill_hit) {
            (Some(r), Some(s)) => Some(if r.0 >= s.0 { r } else { s }),
            (r, s) => r.or(s),
        }
    }

    fn ring_entry(&self, i: usize) -> Option<(Timestamp, &V)> {
        self.ring[i]
            .as_ref()
            .map(|v| (Timestamp(self.base + i as u64), v))
    }

    /// Visit the `n` newest items in descending timestamp order.
    pub fn for_each_newest(&self, n: usize, mut f: impl FnMut(Timestamp, &V)) {
        let mut ring_it = (0..self.ring.len())
            .rev()
            .filter_map(|i| self.ring_entry(i))
            .peekable();
        let mut spill_it = self.spill.iter().rev().map(|(&k, v)| (k, v)).peekable();
        for _ in 0..n {
            let take_ring = match (ring_it.peek(), spill_it.peek()) {
                (Some(r), Some(s)) => r.0 >= s.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return,
            };
            let (ts, v) = if take_ring {
                ring_it.next().expect("peeked")
            } else {
                spill_it.next().expect("peeked")
            };
            f(ts, v);
        }
    }

    /// Visit items with `ts >= floor` in ascending timestamp order, at most
    /// `max` of them. Returns how many were visited.
    pub fn for_each_from(
        &self,
        floor: Timestamp,
        max: usize,
        mut f: impl FnMut(Timestamp, &V),
    ) -> usize {
        let mut ring_it = self
            .ring_indices_from(floor)
            .filter_map(|i| self.ring_entry(i))
            .peekable();
        let mut spill_it = self.spill.range(floor..).map(|(&k, v)| (k, v)).peekable();
        let mut visited = 0;
        while visited < max {
            let take_ring = match (ring_it.peek(), spill_it.peek()) {
                (Some(r), Some(s)) => r.0 <= s.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (ts, v) = if take_ring {
                ring_it.next().expect("peeked")
            } else {
                spill_it.next().expect("peeked")
            };
            f(ts, v);
            visited += 1;
        }
        visited
    }

    fn ring_indices_from(&self, floor: Timestamp) -> std::ops::Range<usize> {
        if self.ring.is_empty() || floor.raw() > self.back_ts() {
            return 0..0;
        }
        let start = floor
            .raw()
            .saturating_sub(self.base)
            .min(self.ring.len() as u64) as usize;
        start..self.ring.len()
    }

    /// Remove every item with `ts < bound`, handing each to `f`. Front pops
    /// on the ring, one `split_off` on the spill.
    pub fn purge_before(&mut self, bound: Timestamp, mut f: impl FnMut(V)) {
        let b = bound.raw();
        while !self.ring.is_empty() && self.base < b {
            if let Some(Some(v)) = self.ring.pop_front() {
                self.occupied -= 1;
                f(v);
            }
            self.base += 1;
        }
        self.trim();
        if self
            .spill
            .first_key_value()
            .is_some_and(|(&k, _)| k < bound)
        {
            let keep = self.spill.split_off(&bound);
            for (_ts, v) in std::mem::replace(&mut self.spill, keep) {
                f(v);
            }
        }
    }

    /// Remove everything, handing each item to `f` (channel close).
    pub fn drain(&mut self, mut f: impl FnMut(V)) {
        for v in self.ring.drain(..).flatten() {
            f(v);
        }
        self.occupied = 0;
        for (_ts, v) in std::mem::take(&mut self.spill) {
            f(v);
        }
    }

    /// (ring-resident, spill-resident) item counts — observability for
    /// tests: a dense in-order stream should never spill.
    #[must_use]
    pub fn depths(&self) -> (usize, usize) {
        (self.occupied, self.spill.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A store of `ts -> ts` for the listed timestamps, inserted in order.
    fn store_of(tss: &[u64]) -> TsStore<u64> {
        let mut s = TsStore::new();
        for &t in tss {
            assert!(s.insert(Timestamp(t), t).is_none());
        }
        s
    }

    #[test]
    fn dense_stream_stays_in_ring() {
        let mut s = store_of(&(0..100).collect::<Vec<_>>());
        assert_eq!(s.depths(), (100, 0));
        assert_eq!(s.latest(), Some((Timestamp(99), &99)));
        assert_eq!(s.get(Timestamp(42)), Some(&42));
        let mut purged = 0;
        s.purge_before(Timestamp(90), |_| purged += 1);
        assert_eq!(purged, 90);
        assert_eq!(s.len(), 10);
        assert_eq!(s.depths(), (10, 0));
    }

    #[test]
    fn small_gap_becomes_hole_large_gap_spills() {
        let mut s = store_of(&[0, 3]); // gap of 2: bridged
        assert_eq!(s.depths(), (2, 0));
        assert!(s.get(Timestamp(1)).is_none());
        s.insert(Timestamp(500), 500); // far jump: spills
        assert_eq!(s.depths(), (2, 1));
        assert_eq!(s.latest().unwrap().0, Timestamp(500));
    }

    /// The bridging condition is `t - back <= MAX_RING_GAP + 1`: a jump to
    /// `back + MAX_RING_GAP + 1` leaves exactly `MAX_RING_GAP` missing
    /// timestamps, the largest run of holes the ring accepts. Pin both
    /// sides of that boundary so an off-by-one in the condition (or a
    /// redefinition of "gap") trips a test.
    #[test]
    fn gap_of_exactly_max_ring_gap_bridges() {
        let t = MAX_RING_GAP + 1; // MAX_RING_GAP holes between 0 and t
        let s = store_of(&[0, t]);
        assert_eq!(s.depths(), (2, 0), "boundary gap must stay in the ring");
        assert_eq!(s.get(Timestamp(t)), Some(&t));
        for hole in 1..t {
            assert!(s.get(Timestamp(hole)).is_none());
        }
        assert_eq!(s.latest().unwrap().0, Timestamp(t));
    }

    #[test]
    fn gap_one_past_max_ring_gap_spills() {
        let t = MAX_RING_GAP + 2; // one hole too many
        let s = store_of(&[0, t]);
        assert_eq!(s.depths(), (1, 1), "past-boundary gap must spill");
        assert_eq!(s.get(Timestamp(t)), Some(&t));
        assert_eq!(s.latest().unwrap().0, Timestamp(t));
    }

    #[test]
    fn boundary_bridge_migrates_trapped_spill_entry() {
        // 40 spills (gap 39 > MAX_RING_GAP); 20 bridges, back becomes 20.
        let mut s = store_of(&[0, 40, 20]);
        assert_eq!(s.depths(), (2, 1));
        // Exactly-boundary jump from 20 to 20 + MAX_RING_GAP + 1 swallows
        // the spilled 40 into the new span (invariant 3).
        let t = 20 + MAX_RING_GAP + 1;
        assert!(s.insert(Timestamp(t), t).is_none());
        assert_eq!(s.depths(), (4, 0), "trapped spill entry must migrate");
        assert_eq!(s.get(Timestamp(40)), Some(&40));
        assert_eq!(s.latest().unwrap().0, Timestamp(t));
    }

    #[test]
    fn dense_fill_reaching_a_spilled_timestamp_displaces_it() {
        let mut s = store_of(&[0, 100]); // 100 spills
        assert_eq!(s.depths(), (1, 1));
        for t in 1..100 {
            s.insert(Timestamp(t), t);
        }
        // Appending 100 again must displace the spilled copy.
        assert_eq!(s.insert(Timestamp(100), 1000), Some(100));
        assert_eq!(s.depths(), (101, 0));
    }

    /// The ring re-anchors wherever the next insert lands once a removal or
    /// a purge has emptied it; a spilled entry at that timestamp must be
    /// displaced, not duplicated.
    #[test]
    fn reanchor_on_a_spilled_timestamp_displaces_it() {
        let mut s = store_of(&[10, 2]); // 2 is below base: spills
        assert_eq!(s.depths(), (1, 1));
        assert_eq!(s.remove(Timestamp(10)), Some(10));
        assert_eq!(s.depths(), (0, 1));
        assert_eq!(s.insert(Timestamp(2), 99), Some(2));
        assert_eq!(s.depths(), (1, 0));

        let mut s = store_of(&[10, 60]); // 60 is a far jump: spills
        s.purge_before(Timestamp(11), |_| {});
        assert_eq!(s.depths(), (0, 1));
        assert_eq!(s.insert(Timestamp(60), 99), Some(60));
        assert_eq!(s.depths(), (1, 0));
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u64),
        Remove(u64),
        PurgeBefore(u64),
        Latest,
        AtOrBefore(u64),
        Get(u64),
        NewestN(usize),
        RangeFrom(u64, usize),
        Drain,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u64..40, 0u64..200, 1usize..6).prop_map(|(k, ts, n)| match k {
            0..=14 => Op::Insert(ts), // bias toward inserts
            15..=18 => Op::Remove(ts),
            19..=22 => Op::PurgeBefore(ts),
            23..=26 => Op::Latest,
            27..=30 => Op::AtOrBefore(ts),
            31..=33 => Op::Get(ts),
            34..=35 => Op::NewestN(n),
            36..=38 => Op::RangeFrom(ts, n),
            _ => Op::Drain,
        })
    }

    // Mixed in-order / out-of-order / purge interleavings: the store must
    // be observably identical to the plain BTreeMap it replaced. Half the
    // inserts are rewritten into "next dense timestamp" appends so the ring
    // path is genuinely exercised, not just the spill.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        fn store_equals_btreemap_model(
            ops in prop::collection::vec(op_strategy(), 1..120),
            dense_bias in prop::collection::vec(0u8..2, 1..120),
        ) {
            let mut store: TsStore<u64> = TsStore::new();
            let mut model: BTreeMap<Timestamp, u64> = BTreeMap::new();
            let mut next_id = 0u64;
            let mut next_dense = 0u64;
            for (i, op) in ops.iter().enumerate() {
                let op = match (op, dense_bias.get(i).copied().unwrap_or(0)) {
                    (Op::Insert(_), 1) => {
                        next_dense += 1;
                        Op::Insert(next_dense)
                    }
                    (o, _) => *o,
                };
                match op {
                    Op::Insert(t) => {
                        let id = next_id;
                        next_id += 1;
                        prop_assert_eq!(
                            store.insert(Timestamp(t), id),
                            model.insert(Timestamp(t), id)
                        );
                    }
                    Op::Remove(t) => {
                        prop_assert_eq!(
                            store.remove(Timestamp(t)),
                            model.remove(&Timestamp(t))
                        );
                    }
                    Op::PurgeBefore(t) => {
                        let bound = Timestamp(t);
                        let mut got = Vec::new();
                        store.purge_before(bound, |id| got.push(id));
                        got.sort_unstable();
                        let keep = model.split_off(&bound);
                        let mut want: Vec<u64> =
                            std::mem::replace(&mut model, keep).into_values().collect();
                        want.sort_unstable();
                        prop_assert_eq!(got, want);
                    }
                    Op::Latest => {
                        let want = model.iter().next_back().map(|(&ts, id)| (ts, id));
                        prop_assert_eq!(store.latest(), want);
                    }
                    Op::AtOrBefore(t) => {
                        let ts = Timestamp(t);
                        let want = model.range(..=ts).next_back().map(|(&ts, id)| (ts, id));
                        prop_assert_eq!(store.latest_at_or_before(ts), want);
                    }
                    Op::Get(t) => {
                        prop_assert_eq!(store.get(Timestamp(t)), model.get(&Timestamp(t)));
                    }
                    Op::NewestN(n) => {
                        let mut got = Vec::new();
                        store.for_each_newest(n, |ts, &id| got.push((ts, id)));
                        let want: Vec<(Timestamp, u64)> =
                            model.iter().rev().take(n).map(|(&ts, &id)| (ts, id)).collect();
                        prop_assert_eq!(got, want);
                    }
                    Op::RangeFrom(t, n) => {
                        let floor = Timestamp(t);
                        let mut got = Vec::new();
                        let visited = store.for_each_from(floor, n, |ts, &id| got.push((ts, id)));
                        let want: Vec<(Timestamp, u64)> =
                            model.range(floor..).take(n).map(|(&ts, &id)| (ts, id)).collect();
                        prop_assert_eq!(visited, want.len());
                        prop_assert_eq!(got, want);
                    }
                    Op::Drain => {
                        let mut got = Vec::new();
                        store.drain(|id| got.push(id));
                        got.sort_unstable();
                        let mut want: Vec<u64> =
                            std::mem::take(&mut model).into_values().collect();
                        want.sort_unstable();
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(store.depths(), (0, 0));
                    }
                }
                prop_assert_eq!(store.len(), model.len());
                prop_assert_eq!(store.is_empty(), model.is_empty());
                let (ring, spill) = store.depths();
                prop_assert_eq!(ring + spill, model.len());
                for probe in [0u64, 1, 50, 199] {
                    prop_assert_eq!(
                        store.contains(Timestamp(probe)),
                        model.contains_key(&Timestamp(probe))
                    );
                }
            }
        }
    }
}
