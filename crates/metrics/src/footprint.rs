//! Memory-footprint series and summaries (paper Figures 6, 8, 9).
//!
//! The *observed* footprint is the step function of live bytes implied by
//! the trace's `Alloc`/`Free` events — "the memory occupancy for all the
//! items in various stages of processing in the different channels of the
//! application pipeline". Its time-weighted mean and σ are the paper's
//! `MUμ`/`MUσ` (Figure 6); its raw time series is Figures 8/9.
//!
//! The *ideal* (IGC) footprint is reconstructed from the same trace the way
//! the paper's Ideal Garbage Collector does (§4, citing their earlier IGC
//! work): only lineage-useful items are materialized, each alive exactly
//! from its allocation to its last useful `Get`. "IGC is not realizable in
//! practice since it requires future knowledge of dropped frames" — here the
//! postmortem trace *is* that future knowledge.

use crate::dense::IdTable;
use crate::event::TraceEvent;
use crate::lineage::Lineage;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use vtime::{SimTime, Summary, TimeWeightedSeries};

/// Label used for the IGC row/series in reports.
pub const IGC_LABEL: &str = "IGC";

/// Footprint series + summary for one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FootprintReport {
    /// Observed live-bytes step function.
    pub observed: TimeWeightedSeries,
    /// Ideal-GC lower-bound step function over the same run.
    pub ideal: TimeWeightedSeries,
    /// End of run used for the summaries.
    pub t_end: SimTime,
}

impl FootprintReport {
    /// Build both series from a trace and its lineage analysis. The trace
    /// parameter is unused: the lineage pass already built the observed
    /// series ([`observed_series`] of the same trace), so the trace is not
    /// decoded a second time.
    #[must_use]
    pub fn compute(_trace: &Trace, lineage: &Lineage, t_end: SimTime) -> FootprintReport {
        FootprintReport {
            observed: lineage.observed.clone(),
            ideal: ideal_series(lineage, t_end),
            t_end,
        }
    }

    /// Time-weighted mean/σ of the observed footprint (bytes).
    #[must_use]
    pub fn observed_summary(&self) -> Summary {
        self.observed.weighted_summary(self.t_end)
    }

    /// Time-weighted mean/σ of the ideal footprint (bytes).
    #[must_use]
    pub fn ideal_summary(&self) -> Summary {
        self.ideal.weighted_summary(self.t_end)
    }

    /// Observed mean as a percentage of the ideal mean (the paper's
    /// "% wrt IGC" column; 100 = optimal).
    #[must_use]
    pub fn pct_wrt_ideal(&self) -> f64 {
        let ideal = self.ideal_summary().mean;
        if ideal <= 0.0 {
            0.0
        } else {
            100.0 * self.observed_summary().mean / ideal
        }
    }
}

/// Live-bytes step function from Alloc/Free events: one pass over the
/// trace. [`Lineage::analyze`] builds the same series in its own pass.
#[must_use]
pub fn observed_series(trace: &Trace) -> TimeWeightedSeries {
    let mut live: i64 = 0;
    // Bytes of each live item; 0 once freed (or never allocated).
    let mut sizes: IdTable<u64> = IdTable::for_items(trace);
    let mut series = TimeWeightedSeries::new();
    for ev in trace {
        match ev {
            TraceEvent::Alloc { t, item, bytes, .. } => {
                *sizes.slot(item.0) = bytes;
                live += bytes as i64;
                series.push(t, live as f64);
            }
            TraceEvent::Free { t, item } => {
                let bytes = sizes.get_mut(item.0).map_or(0, std::mem::take);
                live -= bytes as i64;
                debug_assert!(live >= 0, "footprint went negative");
                series.push(t, live as f64);
            }
            _ => {}
        }
    }
    series
}

/// Ideal-GC step function: useful items only, each alive from its
/// allocation to its [`Lineage::ideal_release`] (its allocation time when it
/// has none), clamped to `t_end`.
#[must_use]
pub fn ideal_series(lineage: &Lineage, t_end: SimTime) -> TimeWeightedSeries {
    // Both edge lists come sorted from the lineage; clamping the releases
    // to `t_end` is monotone, so this is a two-way merge. All edges of one
    // instant are applied before the point is pushed.
    let (allocs, releases) = (&lineage.ideal_allocs, &lineage.ideal_releases);
    let mut series = TimeWeightedSeries::new();
    let mut live = 0i64;
    let (mut a, mut r) = (0, 0);
    loop {
        let next_alloc = allocs.get(a).map(|&(t, _)| t);
        let next_release = releases.get(r).map(|&(t, _)| t.min(t_end));
        let t = match (next_alloc, next_release) {
            (Some(x), Some(y)) => x.min(y),
            (Some(x), None) | (None, Some(x)) => x,
            (None, None) => break,
        };
        while a < allocs.len() && allocs[a].0 == t {
            live += allocs[a].1 as i64;
            a += 1;
        }
        while r < releases.len() && releases[r].0.min(t_end) == t {
            live -= releases[r].1 as i64;
            r += 1;
        }
        debug_assert!(live >= 0);
        series.push(t, live as f64);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::IterKey;
    use aru_core::graph::NodeId;
    use vtime::Timestamp;

    fn key(n: u32, s: u64) -> IterKey {
        IterKey::new(NodeId(n), s)
    }

    #[test]
    fn observed_tracks_alloc_free() {
        let mut tr = Trace::new();
        let a = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, key(0, 0));
        let b = tr.alloc(SimTime(10), NodeId(1), Timestamp(1), 50, key(0, 1));
        tr.free(SimTime(20), a);
        tr.free(SimTime(30), b);
        let s = observed_series(&tr);
        assert_eq!(s.value_at(SimTime(5)), 100.0);
        assert_eq!(s.value_at(SimTime(15)), 150.0);
        assert_eq!(s.value_at(SimTime(25)), 50.0);
        assert_eq!(s.value_at(SimTime(35)), 0.0);
        assert_eq!(s.peak(), 150.0);
    }

    #[test]
    fn ideal_excludes_wasted_items() {
        let mut tr = Trace::new();
        let used = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, key(0, 0));
        let _wasted = tr.alloc(SimTime(0), NodeId(1), Timestamp(1), 900, key(0, 1));
        let sink = key(2, 0);
        tr.get(SimTime(50), used, sink);
        tr.sink_output(SimTime(51), sink, Timestamp(0));
        tr.free(SimTime(90), used);
        let lin = Lineage::analyze(&tr);
        let ideal = ideal_series(&lin, SimTime(100));
        // only the used item, alive [0, 50) — freed at last useful get.
        assert_eq!(ideal.value_at(SimTime(10)), 100.0);
        assert_eq!(ideal.value_at(SimTime(60)), 0.0);
        assert_eq!(ideal.peak(), 100.0);
    }

    #[test]
    fn ideal_is_below_observed_mean() {
        let mut tr = Trace::new();
        let sink = key(2, 0);
        let mut ids = Vec::new();
        for i in 0..10u64 {
            let id = tr.alloc(SimTime(i * 10), NodeId(1), Timestamp(i), 100, key(0, i));
            ids.push(id);
        }
        // only even timestamps reach the sink
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                tr.get(SimTime(100 + i as u64), id, sink);
            }
        }
        tr.sink_output(SimTime(120), sink, Timestamp(8));
        // nothing freed: observed footprint stays at 1000 until the end
        let t_end = SimTime(200);
        let lin = Lineage::analyze(&tr);
        let rep = FootprintReport::compute(&tr, &lin, t_end);
        assert!(
            rep.ideal_summary().mean < rep.observed_summary().mean,
            "ideal {} !< observed {}",
            rep.ideal_summary().mean,
            rep.observed_summary().mean
        );
        assert!(rep.pct_wrt_ideal() > 100.0);
    }

    #[test]
    fn pct_wrt_ideal_of_perfect_run_is_near_100() {
        // One item allocated, used immediately, freed immediately after.
        let mut tr = Trace::new();
        let sink = key(2, 0);
        let a = tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, key(0, 0));
        tr.get(SimTime(10), a, sink);
        tr.sink_output(SimTime(10), sink, Timestamp(0));
        tr.free(SimTime(10), a);
        let lin = Lineage::analyze(&tr);
        let rep = FootprintReport::compute(&tr, &lin, SimTime(10));
        assert!((rep.pct_wrt_ideal() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_ideal_yields_zero_pct() {
        // No sink outputs: ideal footprint is empty.
        let mut tr = Trace::new();
        tr.alloc(SimTime(0), NodeId(1), Timestamp(0), 100, key(0, 0));
        let lin = Lineage::analyze(&tr);
        let rep = FootprintReport::compute(&tr, &lin, SimTime(10));
        assert_eq!(rep.pct_wrt_ideal(), 0.0);
    }
}
