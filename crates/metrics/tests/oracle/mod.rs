//! Test-only oracle: the `HashMap` postmortem this repository shipped until
//! PR 14, kept to pin the dense, id-indexed implementation in
//! `aru_metrics::lineage` (and the reports built on it) to the exact same
//! answers. Included by `#[path]` from `crates/metrics/tests/` and from the
//! root `tests/`.
//!
//! It is the old code moved, with three deliberate differences, each a
//! contract the new implementation documents:
//!
//! * a `Get` on an id that is never allocated does not make that id a
//!   "used item" (`item_counts().1 <= .0` always);
//! * a frame's birth is the earliest allocation among the *item records*
//!   carrying its timestamp, so a re-allocated id counts once, as in every
//!   other report (the old code re-read the `Alloc` events);
//! * sums run in `ItemId` / `IterKey` order, not `RandomState` order. Every
//!   term is an integer below 2^53, so this changes no result; it makes the
//!   oracle itself reproducible.

#![allow(dead_code)]

use aru_metrics::{FootprintReport, ItemId, IterKey, PerfReport, Trace, TraceEvent, WasteReport};
use std::collections::{BTreeMap, HashMap, HashSet};
use vtime::{Micros, OnlineStats, SimTime, TimeWeightedSeries, Timestamp};

/// Static facts about one item, extracted from the trace.
#[derive(Debug, Clone)]
pub struct ItemRecord {
    pub alloc_t: SimTime,
    pub free_t: Option<SimTime>,
    pub bytes: u64,
    pub ts: Timestamp,
    pub producer: IterKey,
    /// Times/consumers of every `Get` on this item.
    pub gets: Vec<(SimTime, IterKey)>,
}

/// The lineage analysis result, on hash maps.
#[derive(Debug, Default)]
pub struct Lineage {
    pub items: BTreeMap<ItemId, ItemRecord>,
    pub iter_busy: BTreeMap<IterKey, Micros>,
    iter_end_time: HashMap<IterKey, SimTime>,
    used_items: HashSet<ItemId>,
    used_iters: HashSet<IterKey>,
    pub sink_outputs: Vec<(SimTime, IterKey, Timestamp)>,
}

impl Lineage {
    pub fn analyze(trace: &Trace) -> Lineage {
        let mut items: BTreeMap<ItemId, ItemRecord> = BTreeMap::new();
        let mut iter_busy: BTreeMap<IterKey, Micros> = BTreeMap::new();
        let mut iter_end_time: HashMap<IterKey, SimTime> = HashMap::new();
        let mut consumed_by: HashMap<IterKey, Vec<ItemId>> = HashMap::new();
        let mut sink_outputs = Vec::new();

        for ev in trace.events() {
            match *ev {
                TraceEvent::Alloc {
                    t,
                    item,
                    ts,
                    bytes,
                    producer,
                    ..
                } => {
                    items.insert(
                        item,
                        ItemRecord {
                            alloc_t: t,
                            free_t: None,
                            bytes,
                            ts,
                            producer,
                            gets: Vec::new(),
                        },
                    );
                }
                TraceEvent::Free { t, item } => {
                    if let Some(rec) = items.get_mut(&item) {
                        rec.free_t = Some(t);
                    }
                }
                TraceEvent::Get { t, item, consumer } => {
                    if let Some(rec) = items.get_mut(&item) {
                        rec.gets.push((t, consumer));
                    }
                    consumed_by.entry(consumer).or_default().push(item);
                }
                TraceEvent::IterEnd { t, iter, busy } => {
                    *iter_busy.entry(iter).or_insert(Micros::ZERO) += busy;
                    iter_end_time.insert(iter, t);
                }
                TraceEvent::SinkOutput { t, iter, ts } => {
                    sink_outputs.push((t, iter, ts));
                }
                _ => {}
            }
        }

        // Backward reachability from sink-output iterations.
        let mut used_iters: HashSet<IterKey> = HashSet::new();
        let mut used_items: HashSet<ItemId> = HashSet::new();
        let mut worklist: Vec<IterKey> = sink_outputs.iter().map(|&(_, it, _)| it).collect();
        while let Some(iter) = worklist.pop() {
            if !used_iters.insert(iter) {
                continue;
            }
            if let Some(consumed) = consumed_by.get(&iter) {
                for &item in consumed {
                    if used_items.insert(item) {
                        if let Some(rec) = items.get(&item) {
                            worklist.push(rec.producer);
                        }
                    }
                }
            }
        }
        // Difference 1: only allocated ids are items.
        used_items.retain(|id| items.contains_key(id));

        Lineage {
            items,
            iter_busy,
            iter_end_time,
            used_items,
            used_iters,
            sink_outputs,
        }
    }

    pub fn is_item_used(&self, item: ItemId) -> bool {
        self.used_items.contains(&item)
    }

    pub fn is_iter_used(&self, iter: IterKey) -> bool {
        self.used_iters.contains(&iter)
    }

    pub fn last_useful_get(&self, item: ItemId) -> Option<SimTime> {
        let rec = self.items.get(&item)?;
        rec.gets
            .iter()
            .filter(|&&(_, c)| self.used_iters.contains(&c))
            .map(|&(t, _)| t)
            .max()
    }

    pub fn ideal_release(&self, item: ItemId) -> Option<SimTime> {
        let rec = self.items.get(&item)?;
        rec.gets
            .iter()
            .filter(|&&(_, c)| self.used_iters.contains(&c))
            .map(|&(t, c)| self.iter_end_time.get(&c).copied().unwrap_or(t).max(t))
            .max()
    }

    pub fn item_counts(&self) -> (usize, usize) {
        (self.items.len(), self.used_items.len())
    }
}

/// Live-bytes step function from Alloc/Free events.
pub fn observed_series(trace: &Trace) -> TimeWeightedSeries {
    let mut live: i64 = 0;
    let mut sizes = HashMap::new();
    let mut series = TimeWeightedSeries::new();
    for ev in trace.events() {
        match *ev {
            TraceEvent::Alloc { t, item, bytes, .. } => {
                sizes.insert(item, bytes);
                live += bytes as i64;
                series.push(t, live as f64);
            }
            TraceEvent::Free { t, item } => {
                let bytes = sizes.remove(&item).unwrap_or(0);
                live -= bytes as i64;
                series.push(t, live as f64);
            }
            _ => {}
        }
    }
    series
}

/// Ideal-GC step function: useful items only, reclaimed at last useful get.
pub fn ideal_series(lineage: &Lineage, t_end: SimTime) -> TimeWeightedSeries {
    let mut edges: Vec<(SimTime, i64)> = Vec::new();
    for (&id, rec) in &lineage.items {
        if !lineage.is_item_used(id) {
            continue; // the ideal system never creates it
        }
        let death = lineage.ideal_release(id).unwrap_or(rec.alloc_t).min(t_end);
        edges.push((rec.alloc_t, rec.bytes as i64));
        edges.push((death, -(rec.bytes as i64)));
    }
    edges.sort_by_key(|&(t, d)| (t, -d));
    let mut series = TimeWeightedSeries::new();
    let mut live = 0i64;
    let mut i = 0;
    while i < edges.len() {
        let t = edges[i].0;
        while i < edges.len() && edges[i].0 == t {
            live += edges[i].1;
            i += 1;
        }
        series.push(t, live as f64);
    }
    series
}

pub fn footprint(trace: &Trace, lineage: &Lineage, t_end: SimTime) -> FootprintReport {
    FootprintReport {
        observed: observed_series(trace),
        ideal: ideal_series(lineage, t_end),
        t_end,
    }
}

pub fn waste(lineage: &Lineage, t_end: SimTime) -> WasteReport {
    let mut total_bt = 0.0;
    let mut wasted_bt = 0.0;
    let mut wasted_items = 0usize;
    for (&id, rec) in &lineage.items {
        let free = rec.free_t.unwrap_or(t_end).min(t_end);
        let life = free.since(rec.alloc_t).as_micros() as f64;
        let bt = rec.bytes as f64 * life;
        total_bt += bt;
        if !lineage.is_item_used(id) {
            wasted_bt += bt;
            wasted_items += 1;
        }
    }
    let mut total_comp = Micros::ZERO;
    let mut wasted_comp = Micros::ZERO;
    for (&iter, &busy) in &lineage.iter_busy {
        total_comp += busy;
        if !lineage.is_iter_used(iter) {
            wasted_comp += busy;
        }
    }
    WasteReport {
        total_byte_time: total_bt,
        wasted_byte_time: wasted_bt,
        total_computation: total_comp,
        wasted_computation: wasted_comp,
        total_items: lineage.items.len(),
        wasted_items,
    }
}

pub fn perf(lineage: &Lineage, t_end: SimTime) -> PerfReport {
    // Difference 2: births from the item records.
    let mut birth: HashMap<Timestamp, SimTime> = HashMap::new();
    for rec in lineage.items.values() {
        birth
            .entry(rec.ts)
            .and_modify(|b| *b = (*b).min(rec.alloc_t))
            .or_insert(rec.alloc_t);
    }
    let mut latency = OnlineStats::new();
    let mut gaps = OnlineStats::new();
    let mut last_out: Option<SimTime> = None;
    let mut outputs = 0usize;
    for &(t, _, ts) in &lineage.sink_outputs {
        outputs += 1;
        if let Some(&b) = birth.get(&ts) {
            latency.push(t.since(b).as_micros() as f64);
        }
        if let Some(prev) = last_out {
            gaps.push(t.since(prev).as_micros() as f64);
        }
        last_out = Some(t);
    }
    let secs = t_end.as_secs_f64();
    PerfReport {
        latency: latency.summary(),
        throughput_fps: if secs > 0.0 {
            outputs as f64 / secs
        } else {
            0.0
        },
        jitter_us: gaps.std_dev(),
        mean_output_gap_us: gaps.mean(),
        outputs,
    }
}

/// What `IdealGc::from_lineage` reports besides the ideal series: the busy
/// time of useful iterations and the number of useful items.
pub fn igc_useful(lineage: &Lineage) -> (Micros, usize) {
    let useful_computation = lineage
        .iter_busy
        .iter()
        .filter(|(&k, _)| lineage.is_iter_used(k))
        .fold(Micros::ZERO, |acc, (_, &b)| acc + b);
    (useful_computation, lineage.item_counts().1)
}
