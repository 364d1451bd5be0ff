//! Postmortem lineage analysis: which items and iterations were *useful*.
//!
//! The paper distinguishes *successful* items (those that "make it to the
//! end of the pipeline") from *wasted* ones. We compute this exactly, not
//! heuristically, from the event trace:
//!
//! * every `Alloc` records which thread iteration produced the item;
//! * every `Get` records which thread iteration consumed it;
//! * every `SinkOutput` marks an iteration of a sink thread as having
//!   emitted pipeline output.
//!
//! An **iteration is useful** iff it emitted a sink output or produced at
//! least one useful item; an **item is useful** iff some useful iteration
//! consumed it. Usefulness is therefore the backward-reachable set from the
//! sink outputs over the bipartite item/iteration lineage graph, computed by
//! a single worklist pass.
//!
//! # Layout
//!
//! The analysis runs over millions of events, so nothing on its path hashes
//! (DESIGN.md §9). Items sit in an id-indexed table (`IdTable`: recorder
//! ids are bounded by the trace's id counter; anything else spills).
//! Iterations are interned to a dense `u32` in first-seen order through a
//! per-node `seq` table. The `Get`s are kept in one flat list during the
//! pass and turned into the iteration → items adjacency by a counting sort;
//! the worklist pass that marks usefulness also folds each useful `Get` into
//! its item's `last_useful_get` / `ideal_release`, so every later query is a
//! field read and every report a linear sweep in id order. Results are a
//! function of the event sequence alone.

use crate::dense::IdTable;
use crate::event::{ItemId, IterKey, TraceEvent};
use crate::trace::Trace;
use std::collections::HashMap;
use vtime::{Micros, SimTime, TimeWeightedSeries, Timestamp};

/// One row of the item table: the facts of an `Alloc` event plus what the
/// rest of the trace says about that item. When an id is allocated more
/// than once (only hand-built traces do that) the row is that of the latest
/// allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ItemRecord {
    pub alloc_t: SimTime,
    pub bytes: u64,
    pub ts: Timestamp,
    /// Was the item consumed on a path that reached a sink output?
    pub used: bool,
    /// A row can exist without an `Alloc` (a hole between ids).
    allocated: bool,
    freed: bool,
    /// Some useful `Get` belongs to this record; the next two fields are
    /// its latest useful `Get` and the latest end of a useful consumer.
    got: bool,
    free_t: SimTime,
    last_useful_get: SimTime,
    ideal_release: SimTime,
    /// Interned producer iteration.
    producer: u32,
    /// Length of the `Get` list at the (latest) `Alloc`: earlier `Get`s on
    /// this id still propagate usefulness but are not this record's.
    gets_from: u32,
}

impl ItemRecord {
    /// `None` if never freed before the end of the run.
    #[must_use]
    pub fn free_t(&self) -> Option<SimTime> {
        self.freed.then_some(self.free_t)
    }
}

/// One thread-loop iteration that appears anywhere in the trace.
#[derive(Debug, Clone, Copy)]
pub struct IterRecord {
    pub key: IterKey,
    /// Busy time summed over the iteration's `IterEnd` events (zero when it
    /// never completed).
    pub busy: Micros,
    /// Was the iteration on a path that reached a sink output?
    pub used: bool,
    /// Time of the last `IterEnd`; zero when it never completed.
    end_t: SimTime,
}

const ABSENT: u32 = u32::MAX;

/// Iterations interned to dense indices, in first-seen order.
#[derive(Debug, Clone, Default)]
struct IterTable {
    slots: Vec<IterRecord>,
    /// `by_node[node][seq]` is an index into `slots`, or `ABSENT`.
    by_node: Vec<Vec<u32>>,
    /// Rows `by_node` may still grow by; set from the event count so the
    /// tables stay O(events) whatever node ids and seqs a trace carries.
    budget: u64,
    /// Keys the budget kept out of `by_node`.
    spill: HashMap<IterKey, u32>,
}

impl IterTable {
    fn index_of(&self, key: IterKey) -> Option<u32> {
        let in_table = usize::try_from(key.seq)
            .ok()
            .and_then(|s| self.by_node.get(key.node.0 as usize)?.get(s))
            .copied()
            .filter(|&i| i != ABSENT);
        in_table.or_else(|| self.spill.get(&key).copied())
    }

    fn intern(&mut self, key: IterKey) -> u32 {
        if let Some(i) = self.index_of(key) {
            return i;
        }
        let i = self.slots.len() as u32;
        self.slots.push(IterRecord {
            key,
            busy: Micros::ZERO,
            used: false,
            end_t: SimTime::ZERO,
        });
        // Rows the tables would have to grow by to hold `key`.
        let n = key.node.0 as usize;
        let rows = self.by_node.get(n).map_or(0, Vec::len) as u64;
        let grow = (n as u64 + 1)
            .saturating_sub(self.by_node.len() as u64)
            .saturating_add(key.seq.saturating_add(1).saturating_sub(rows));
        if grow > self.budget {
            self.spill.insert(key, i);
            return i;
        }
        self.budget -= grow;
        if n >= self.by_node.len() {
            self.by_node.resize_with(n + 1, Vec::new);
        }
        let s = key.seq as usize;
        if s >= self.by_node[n].len() {
            self.by_node[n].resize(s + 1, ABSENT);
        }
        self.by_node[n][s] = i;
        i
    }
}

/// One `Get`, in trace order.
#[derive(Clone, Copy)]
struct GetRec {
    t: SimTime,
    item: u64,
    consumer: u32,
}

/// The lineage analysis result.
///
/// ```
/// use aru_core::graph::NodeId;
/// use aru_metrics::{IterKey, Lineage, Trace};
/// use vtime::{Micros, SimTime, Timestamp};
///
/// let mut tr = Trace::new();
/// let src = IterKey::new(NodeId(0), 0);
/// let sink = IterKey::new(NodeId(2), 0);
/// let used = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, src);
/// let wasted = tr.alloc(SimTime(1), NodeId(1), Timestamp(1), 100, src);
/// tr.get(SimTime(2), used, sink);
/// tr.sink_output(SimTime(3), sink, Timestamp(0));
///
/// let lin = Lineage::analyze(&tr);
/// assert!(lin.is_item_used(used));    // reached the pipeline end
/// assert!(!lin.is_item_used(wasted)); // never consumed → wasted
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    items: IdTable<ItemRecord>,
    iters: IterTable,
    sink_outputs: Vec<(SimTime, IterKey, Timestamp)>,
    /// Items allocated / of those, useful.
    counts: (usize, usize),
    /// `(time, bytes)` of every useful item's allocation and of its ideal
    /// release, each sorted by time: the ideal footprint's edges, kept so
    /// that no report has to sort them again.
    pub(crate) ideal_allocs: Vec<(SimTime, u64)>,
    pub(crate) ideal_releases: Vec<(SimTime, u64)>,
    /// Live bytes over time, from the trace's `Alloc`s and `Free`s: what
    /// [`crate::footprint::observed_series`] computes, built in the same
    /// pass so that the footprint report does not read the trace again.
    pub(crate) observed: TimeWeightedSeries,
}

impl Lineage {
    /// Run the analysis over a trace.
    ///
    /// # Panics
    /// Panics on a trace of 2³² events or more (indices are `u32`).
    #[must_use]
    pub fn analyze(trace: &Trace) -> Lineage {
        assert!(
            u32::try_from(trace.len()).is_ok(),
            "trace too long for the lineage tables"
        );
        let mut items: IdTable<ItemRecord> = IdTable::for_items(trace);
        let mut iters = IterTable {
            budget: 2 * trace.len() as u64 + 1024,
            ..IterTable::default()
        };
        let mut gets: Vec<GetRec> = Vec::new();
        let mut sink_outputs = Vec::new();
        // Iterations to expand: the sink-output ones to begin with.
        let mut worklist: Vec<u32> = Vec::new();
        let mut observed = TimeWeightedSeries::new();
        let mut live: i64 = 0;

        for ev in trace {
            match ev {
                TraceEvent::Alloc {
                    t,
                    item,
                    ts,
                    bytes,
                    producer,
                    ..
                } => {
                    *items.slot(item.0) = ItemRecord {
                        alloc_t: t,
                        bytes,
                        ts,
                        producer: iters.intern(producer),
                        gets_from: gets.len() as u32,
                        allocated: true,
                        ..ItemRecord::default()
                    };
                    live += bytes as i64;
                    observed.push(t, live as f64);
                }
                TraceEvent::Free { t, item } => {
                    if let Some(slot) = items.get_mut(item.0).filter(|s| s.allocated) {
                        debug_assert!(!slot.freed, "double free of {item:?}");
                        if !slot.freed {
                            live -= slot.bytes as i64;
                        }
                        slot.free_t = t;
                        slot.freed = true;
                    }
                    debug_assert!(live >= 0, "footprint went negative");
                    observed.push(t, live as f64);
                }
                TraceEvent::Get { t, item, consumer } => gets.push(GetRec {
                    t,
                    item: item.0,
                    consumer: iters.intern(consumer),
                }),
                TraceEvent::IterEnd { t, iter, busy } => {
                    let i = iters.intern(iter);
                    let slot = &mut iters.slots[i as usize];
                    slot.busy += busy;
                    slot.end_t = t;
                }
                TraceEvent::SinkOutput { t, iter, ts } => {
                    worklist.push(iters.intern(iter));
                    sink_outputs.push((t, iter, ts));
                }
                // Fault events carry no lineage: a crashed iteration never
                // reached iter_end, and restarts/timeouts/staleness don't
                // move items.
                TraceEvent::TaskCrash { .. }
                | TraceEvent::TaskRestart { .. }
                | TraceEvent::OpTimeout { .. }
                | TraceEvent::StaleSummary { .. }
                | TraceEvent::SummaryDropped { .. }
                | TraceEvent::PaceDecision { .. } => {}
            }
        }

        // Iteration → positions of its gets (CSR), by counting sort:
        // `order[start[c]..start[c + 1]]` are consumer `c`'s.
        let mut start = vec![0u32; iters.slots.len() + 1];
        for g in &gets {
            start[g.consumer as usize + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut next = start.clone();
        let mut order = vec![0u32; gets.len()];
        for (p, g) in gets.iter().enumerate() {
            let n = &mut next[g.consumer as usize];
            order[*n as usize] = p as u32;
            *n += 1;
        }

        // Backward reachability from the sink-output iterations. Each
        // useful iteration is expanded once, so each of its gets is folded
        // into the item's release times exactly once.
        while let Some(c) = worklist.pop() {
            let consumer = &mut iters.slots[c as usize];
            if std::mem::replace(&mut consumer.used, true) {
                continue;
            }
            let end_t = consumer.end_t;
            for &p in &order[start[c as usize] as usize..start[c as usize + 1] as usize] {
                let g = gets[p as usize];
                let Some(slot) = items.get_mut(g.item).filter(|s| s.allocated) else {
                    continue; // a get on an id nobody allocated: not an item
                };
                if !std::mem::replace(&mut slot.used, true) {
                    worklist.push(slot.producer);
                }
                if p >= slot.gets_from {
                    // The consumer holds the item until its iteration ends;
                    // one cut off by the end of the run (`end_t` zero)
                    // releases at the get.
                    slot.last_useful_get = slot.last_useful_get.max(g.t);
                    slot.ideal_release = slot.ideal_release.max(end_t).max(g.t);
                    slot.got = true;
                }
            }
        }

        let mut counts = (0, 0);
        let mut ideal_allocs = Vec::new();
        let mut ideal_releases = Vec::new();
        for (_, s) in items.iter().filter(|(_, s)| s.allocated) {
            counts.0 += 1;
            if s.used {
                counts.1 += 1;
                ideal_allocs.push((s.alloc_t, s.bytes));
                // Useful only through gets of an earlier allocation of the
                // id: an ideal system holds it for no time at all.
                let release = if s.got { s.ideal_release } else { s.alloc_t };
                ideal_releases.push((release, s.bytes));
            }
        }
        // Ids are handed out in time order, so the first is all but sorted.
        ideal_allocs.sort_unstable_by_key(|&(t, _)| t);
        ideal_releases.sort_unstable_by_key(|&(t, _)| t);

        Lineage {
            items,
            iters,
            sink_outputs,
            counts,
            ideal_allocs,
            ideal_releases,
            observed,
        }
    }

    /// The record of an allocated item.
    #[must_use]
    pub fn item(&self, item: ItemId) -> Option<&ItemRecord> {
        self.items.get(item.0).filter(|s| s.allocated)
    }

    /// Was this item consumed on a path that reached a sink output? `false`
    /// for an id the trace never allocates, whoever got it.
    #[must_use]
    pub fn is_item_used(&self, item: ItemId) -> bool {
        self.item(item).is_some_and(|s| s.used)
    }

    /// Was this iteration on a path that reached a sink output?
    #[must_use]
    pub fn is_iter_used(&self, iter: IterKey) -> bool {
        self.iters
            .index_of(iter)
            .is_some_and(|i| self.iters.slots[i as usize].used)
    }

    /// All item records, in `ItemId` order.
    pub fn items(&self) -> impl Iterator<Item = (ItemId, &ItemRecord)> {
        let allocated = self.items.iter().filter(|(_, s)| s.allocated);
        allocated.map(|(id, s)| (ItemId(id), s))
    }

    /// The iteration that produced this item.
    #[must_use]
    pub fn producer(&self, item: ItemId) -> Option<IterKey> {
        self.item(item)
            .map(|s| self.iters.slots[s.producer as usize].key)
    }

    /// Every iteration the trace mentions, in first-seen order.
    #[must_use]
    pub fn iterations(&self) -> &[IterRecord] {
        &self.iters.slots
    }

    /// Sink outputs in trace order: `(time, iteration, virtual timestamp)`.
    #[must_use]
    pub fn sink_outputs(&self) -> &[(SimTime, IterKey, Timestamp)] {
        &self.sink_outputs
    }

    /// Last time a *useful* consumer retrieved this item. `None` when the
    /// item was never usefully consumed (an ideal system would not have
    /// created it at all).
    #[must_use]
    pub fn last_useful_get(&self, item: ItemId) -> Option<SimTime> {
        self.item(item).filter(|s| s.got).map(|s| s.last_useful_get)
    }

    /// The instant an ideal GC could reclaim this item: the *end* of the
    /// last useful iteration that consumed it — the consumer still holds
    /// and processes the item after the `get`, so it is needed until its
    /// iteration completes. Falls back to the get time when the consuming
    /// iteration never completed (end of run).
    #[must_use]
    pub fn ideal_release(&self, item: ItemId) -> Option<SimTime> {
        self.item(item).filter(|s| s.got).map(|s| s.ideal_release)
    }

    /// Count of items / useful items.
    #[must_use]
    pub fn item_counts(&self) -> (usize, usize) {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;
    use aru_core::graph::NodeId;

    /// Build a two-stage pipeline trace:
    ///   src iter0 -> item0 -> mid iter0 -> item2 -> sink iter0 (output)
    ///   src iter1 -> item1 (skipped, never consumed)
    fn sample_trace() -> Trace {
        let src0 = IterKey::new(NodeId(0), 0);
        let src1 = IterKey::new(NodeId(0), 1);
        let mid0 = IterKey::new(NodeId(2), 0);
        let sink0 = IterKey::new(NodeId(4), 0);
        let buf_a = NodeId(1);
        let buf_b = NodeId(3);

        let mut tr = Trace::new();
        let i0 = tr.alloc(SimTime(0), buf_a, Timestamp(0), 100, src0);
        tr.record(TraceEvent::IterEnd {
            t: SimTime(10),
            iter: src0,
            busy: Micros(10),
        });
        let i1 = tr.alloc(SimTime(20), buf_a, Timestamp(1), 100, src1);
        tr.record(TraceEvent::IterEnd {
            t: SimTime(30),
            iter: src1,
            busy: Micros(10),
        });
        tr.get(SimTime(40), i0, mid0);
        let i2 = tr.alloc(SimTime(80), buf_b, Timestamp(0), 50, mid0);
        tr.record(TraceEvent::IterEnd {
            t: SimTime(90),
            iter: mid0,
            busy: Micros(50),
        });
        tr.get(SimTime(100), i2, sink0);
        tr.sink_output(SimTime(110), sink0, Timestamp(0));
        tr.record(TraceEvent::IterEnd {
            t: SimTime(110),
            iter: sink0,
            busy: Micros(10),
        });
        tr.free(SimTime(120), i0);
        tr.free(SimTime(130), i1);
        // i2 never freed
        let _ = i1;
        tr
    }

    #[test]
    fn reaching_chain_is_used() {
        let tr = sample_trace();
        let lin = Lineage::analyze(&tr);
        assert!(lin.is_item_used(ItemId(0)), "consumed frame is useful");
        assert!(lin.is_item_used(ItemId(2)), "detection record is useful");
        assert!(!lin.is_item_used(ItemId(1)), "skipped frame is wasted");
        assert!(lin.is_iter_used(IterKey::new(NodeId(0), 0)));
        assert!(!lin.is_iter_used(IterKey::new(NodeId(0), 1)));
        assert!(lin.is_iter_used(IterKey::new(NodeId(2), 0)));
        assert!(lin.is_iter_used(IterKey::new(NodeId(4), 0)));
        assert_eq!(lin.item_counts(), (3, 2));
    }

    #[test]
    fn free_times_recorded() {
        let tr = sample_trace();
        let lin = Lineage::analyze(&tr);
        let free_t: Vec<_> = lin.items().map(|(id, rec)| (id, rec.free_t())).collect();
        let expect = [Some(SimTime(120)), Some(SimTime(130)), None];
        assert_eq!(
            free_t,
            [ItemId(0), ItemId(1), ItemId(2)]
                .into_iter()
                .zip(expect)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn last_useful_get() {
        let tr = sample_trace();
        let lin = Lineage::analyze(&tr);
        assert_eq!(lin.last_useful_get(ItemId(0)), Some(SimTime(40)));
        assert_eq!(lin.last_useful_get(ItemId(2)), Some(SimTime(100)));
        assert_eq!(lin.last_useful_get(ItemId(1)), None);
    }

    #[test]
    fn get_by_wasted_iteration_does_not_make_item_useful() {
        // item consumed by an iteration whose own output never reaches a
        // sink is still wasted.
        let src0 = IterKey::new(NodeId(0), 0);
        let mid0 = IterKey::new(NodeId(2), 0);
        let mut tr = Trace::new();
        let i0 = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 10, src0);
        tr.get(SimTime(5), i0, mid0);
        let _i1 = tr.alloc(SimTime(10), NodeId(3), Timestamp(0), 10, mid0);
        // i1 is never consumed by anything; no sink output exists.
        let lin = Lineage::analyze(&tr);
        assert!(!lin.is_item_used(i0));
        assert!(!lin.is_iter_used(mid0));
        assert_eq!(lin.last_useful_get(i0), None);
    }

    #[test]
    fn diamond_sharing_marks_shared_input_once() {
        // one frame feeds two detectors; only detector A's record reaches
        // the sink. The frame is useful (A used it); B's record is wasted.
        let src0 = IterKey::new(NodeId(0), 0);
        let det_a = IterKey::new(NodeId(2), 0);
        let det_b = IterKey::new(NodeId(3), 0);
        let sink = IterKey::new(NodeId(5), 0);
        let mut tr = Trace::new();
        let frame = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, src0);
        tr.get(SimTime(10), frame, det_a);
        tr.get(SimTime(10), frame, det_b);
        let rec_a = tr.alloc(SimTime(20), NodeId(4), Timestamp(0), 1, det_a);
        let rec_b = tr.alloc(SimTime(20), NodeId(4), Timestamp(0), 1, det_b);
        tr.get(SimTime(30), rec_a, sink);
        tr.sink_output(SimTime(31), sink, Timestamp(0));
        let lin = Lineage::analyze(&tr);
        assert!(lin.is_item_used(frame));
        assert!(lin.is_item_used(rec_a));
        assert!(!lin.is_item_used(rec_b));
        assert!(lin.is_iter_used(det_a));
        assert!(!lin.is_iter_used(det_b));
    }

    /// The pinned decision for the one odd input: an id that is got but
    /// never allocated is not an item. It is neither counted nor "used",
    /// so the useful count can never exceed the item count — while a get
    /// that merely *precedes* its allocation in the merged event order
    /// (two recorder shards, equal times) still marks the item useful.
    #[test]
    fn get_on_a_never_allocated_id_is_not_an_item() {
        let sink = IterKey::new(NodeId(2), 0);
        let mut tr = Trace::from_events(
            vec![
                TraceEvent::Get {
                    t: SimTime(5),
                    item: ItemId(7),
                    consumer: sink,
                },
                TraceEvent::Get {
                    t: SimTime(5),
                    item: ItemId(0),
                    consumer: sink,
                },
            ],
            0,
        );
        let late = tr.alloc(
            SimTime(5),
            NodeId(1),
            Timestamp(0),
            10,
            IterKey::new(NodeId(0), 0),
        );
        tr.sink_output(SimTime(6), sink, Timestamp(0));
        let lin = Lineage::analyze(&tr);
        assert_eq!(late, ItemId(0));
        assert!(!lin.is_item_used(ItemId(7)));
        assert!(lin.is_item_used(late));
        assert_eq!(lin.item_counts(), (1, 1));
        // The early get is not in the record: nothing to release on.
        assert_eq!(lin.last_useful_get(late), None);
        assert_eq!(lin.ideal_release(late), None);
    }

    /// Ids and seqs far outside the recorder's range take the spill side;
    /// the answers are the same and nothing is sized by them.
    #[test]
    fn sparse_ids_and_seqs_spill() {
        let src = IterKey::new(NodeId(u32::MAX), u64::MAX);
        let sink = IterKey::new(NodeId(3), u64::MAX - 1);
        let (far, near) = (ItemId(u64::MAX - 1), ItemId(1 << 40));
        let alloc = |t, item, ts| TraceEvent::Alloc {
            t: SimTime(t),
            item,
            buffer: NodeId(1),
            ts: Timestamp(ts),
            bytes: 8,
            producer: src,
        };
        let tr = Trace::from_events(
            vec![
                alloc(0, far, u64::MAX),
                alloc(1, near, 0),
                TraceEvent::Get {
                    t: SimTime(2),
                    item: far,
                    consumer: sink,
                },
                TraceEvent::SinkOutput {
                    t: SimTime(3),
                    iter: sink,
                    ts: Timestamp(u64::MAX),
                },
                TraceEvent::IterEnd {
                    t: SimTime(4),
                    iter: sink,
                    busy: Micros(1),
                },
                TraceEvent::Free {
                    t: SimTime(9),
                    item: far,
                },
            ],
            u64::MAX,
        );
        let lin = Lineage::analyze(&tr);
        assert!(lin.is_item_used(far) && !lin.is_item_used(near));
        assert!(lin.is_iter_used(src) && lin.is_iter_used(sink));
        assert_eq!(lin.ideal_release(far), Some(SimTime(4)));
        assert_eq!(lin.item_counts(), (2, 1));
        let ids: Vec<ItemId> = lin.items().map(|(id, _)| id).collect();
        assert_eq!(ids, [near, far], "id order across the spill");
        assert!(lin.iters.by_node.len() <= 4 && lin.iters.spill.len() == 2);
    }

    #[test]
    fn empty_trace() {
        let lin = Lineage::analyze(&Trace::new());
        assert_eq!(lin.item_counts(), (0, 0));
        assert!(lin.sink_outputs().is_empty());
    }
}
