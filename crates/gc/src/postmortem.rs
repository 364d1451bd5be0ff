//! The full postmortem suite over one trace — what both runtimes' reports
//! (`stampede::RunReport::analyze`, `desim::SimReport::analyze`) return.
//! It lives here because this is the lowest crate that sees all of the
//! analyses: the four in `aru_metrics` plus [`IdealGc`].

use crate::IdealGc;
use aru_metrics::{FaultReport, FootprintReport, Lineage, PerfReport, Trace, WasteReport};
use vtime::SimTime;

/// Bundled postmortem results for one run, all from one lineage pass.
#[derive(Debug, Clone)]
pub struct Postmortem {
    /// The lineage every report below was computed from; pass it on to
    /// [`aru_metrics::thread_stats()`] rather than analyzing the trace again.
    pub lineage: Lineage,
    pub footprint: FootprintReport,
    pub waste: WasteReport,
    pub perf: PerfReport,
    pub igc: IdealGc,
    pub faults: FaultReport,
}

impl Postmortem {
    /// Analyze `trace`; `t_end` is the end of the run.
    #[must_use]
    pub fn analyze(trace: &Trace, t_end: SimTime) -> Postmortem {
        let lineage = Lineage::analyze(trace);
        Postmortem {
            footprint: FootprintReport::compute(trace, &lineage, t_end),
            waste: WasteReport::compute(&lineage, t_end),
            perf: PerfReport::compute(trace, &lineage, t_end),
            igc: IdealGc::from_lineage(&lineage, t_end),
            faults: FaultReport::compute(trace),
            lineage,
        }
    }
}
