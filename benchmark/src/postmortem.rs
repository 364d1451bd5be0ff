//! The five public postmortem analyses that `RunReport::analyze` and
//! `SimReport::analyze` bundle, called one by one so each gets its own span
//! and its own time.

use crate::spans::Spans;
use crate::spec::Metrics;
use aru_gc::IdealGc;
use aru_metrics::{FootprintReport, Lineage, PerfReport, Trace, WasteReport};
use std::time::Duration;
use vtime::SimTime;

/// Time spent in each analysis (summed when several reports are analyzed).
#[derive(Default)]
pub struct Times {
    pub lineage: Duration,
    pub footprint: Duration,
    pub waste: Duration,
    pub perf: Duration,
    pub igc: Duration,
}

impl Times {
    pub fn total(&self) -> Duration {
        self.lineage + self.footprint + self.waste + self.perf + self.igc
    }

    /// The per-layer metrics of the analysis layer, for a trace (or traces)
    /// of `trace_events` events in all.
    pub fn set_metrics(&self, m: &mut Metrics, trace_events: usize) {
        m.set("metrics.lineage_s", self.lineage.as_secs_f64());
        m.set("metrics.footprint_s", self.footprint.as_secs_f64());
        m.set("metrics.waste_s", self.waste.as_secs_f64());
        m.set("metrics.perf_s", self.perf.as_secs_f64());
        m.set("aru_gc.igc_s", self.igc.as_secs_f64());
        m.set(
            "metrics.analyze_ns_per_event",
            self.total().as_secs_f64() * 1e9 / trace_events.max(1) as f64,
        );
    }
}

/// What the workloads read from the analyses.
pub struct Postmortem {
    pub lineage: Lineage,
    pub footprint: FootprintReport,
    pub waste: WasteReport,
}

/// Run all five on one trace, adding their times to `times`.
pub fn analyze(spans: &mut Spans, trace: &Trace, t_end: SimTime, times: &mut Times) -> Postmortem {
    let (lineage, d) = spans.scope("aru_metrics::Lineage::analyze", |_| Lineage::analyze(trace));
    times.lineage += d;
    let (footprint, d) = spans.scope("aru_metrics::FootprintReport::compute", |_| {
        FootprintReport::compute(trace, &lineage, t_end)
    });
    times.footprint += d;
    let (waste, d) = spans.scope("aru_metrics::WasteReport::compute", |_| {
        WasteReport::compute(&lineage, t_end)
    });
    times.waste += d;
    let (_, d) = spans.scope("aru_metrics::PerfReport::compute", |_| {
        PerfReport::compute(trace, &lineage, t_end)
    });
    times.perf += d;
    let (_, d) = spans.scope("aru_gc::IdealGc::from_lineage", |_| {
        IdealGc::from_lineage(&lineage, t_end)
    });
    times.igc += d;
    Postmortem {
        lineage,
        footprint,
        waste,
    }
}
