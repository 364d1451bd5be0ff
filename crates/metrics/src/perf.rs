//! Application-performance metrics (paper Figure 10).
//!
//! * **Latency** — "the time it takes an image to make a trip through the
//!   entire pipeline": sink-output time minus the first allocation time of
//!   any item carrying that virtual timestamp (the digitizer's frame).
//! * **Throughput** — "the number of successful frames processed every
//!   second": distinct sink outputs per second of run.
//! * **Jitter** — "the standard deviation of the time difference between
//!   successive output frames".

use crate::dense::IdTable;
use crate::lineage::Lineage;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use vtime::{OnlineStats, SimTime, Summary};

/// Figure-10 metrics for one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Per-output latency statistics (microseconds).
    pub latency: Summary,
    /// Output frames per second.
    pub throughput_fps: f64,
    /// Jitter: σ of inter-output gaps (microseconds).
    pub jitter_us: f64,
    /// Mean inter-output gap (microseconds).
    pub mean_output_gap_us: f64,
    /// Number of sink outputs observed.
    pub outputs: usize,
}

impl PerfReport {
    /// Compute from a lineage. `t_end` bounds the run for the throughput
    /// denominator. The trace parameter is unused — frame births come from
    /// the lineage's item table — and stays for the callers that pass it.
    #[must_use]
    pub fn compute(_trace: &Trace, lineage: &Lineage, t_end: SimTime) -> PerfReport {
        // Earliest allocation per virtual timestamp = frame birth. Frame
        // numbers count up from zero, so index by them; a timestamp at or
        // above the item count (there cannot be that many distinct ones)
        // spills.
        let mut birth: IdTable<Option<SimTime>> = IdTable::new(lineage.item_counts().0 as u64);
        for (_, rec) in lineage.items() {
            let b = birth.slot(rec.ts.raw());
            if b.is_none_or(|b| rec.alloc_t < b) {
                *b = Some(rec.alloc_t);
            }
        }

        let mut latency = OnlineStats::new();
        let mut gaps = OnlineStats::new();
        let mut last_out: Option<SimTime> = None;
        let mut outputs = 0usize;
        for &(t, _, ts) in lineage.sink_outputs() {
            outputs += 1;
            if let Some(&Some(b)) = birth.get(ts.raw()) {
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

    /// Three frames born at 0/100/200, output at 50/180/250:
    /// latencies 50, 80, 50; gaps 130, 70.
    fn sample() -> (Trace, Lineage) {
        let mut tr = Trace::new();
        for (i, output) in [50, 180, 250].into_iter().enumerate() {
            let i = i as u64;
            let id = tr.alloc(SimTime(i * 100), NodeId(1), Timestamp(i), 100, key(0, i));
            tr.get(SimTime(i * 100 + 10), id, key(2, i));
            tr.sink_output(SimTime(output), key(2, i), Timestamp(i));
        }
        let lin = Lineage::analyze(&tr);
        (tr, lin)
    }

    #[test]
    fn latency_from_frame_birth() {
        let (tr, lin) = sample();
        let p = PerfReport::compute(&tr, &lin, SimTime(1_000_000));
        assert_eq!(p.outputs, 3);
        assert!((p.latency.mean - 60.0).abs() < 1e-9);
        assert_eq!(p.latency.min, 50.0);
        assert_eq!(p.latency.max, 80.0);
    }

    #[test]
    fn throughput_counts_outputs_per_second() {
        let (tr, lin) = sample();
        let p = PerfReport::compute(&tr, &lin, SimTime(1_000_000)); // 1 s
        assert!((p.throughput_fps - 3.0).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_gap_sigma() {
        let (tr, lin) = sample();
        let p = PerfReport::compute(&tr, &lin, SimTime(1_000_000));
        // gaps 130, 70 → mean 100, σ 30
        assert!((p.mean_output_gap_us - 100.0).abs() < 1e-9);
        assert!((p.jitter_us - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run() {
        let tr = Trace::new();
        let lin = Lineage::analyze(&tr);
        let p = PerfReport::compute(&tr, &lin, SimTime(0));
        assert_eq!(p.outputs, 0);
        assert_eq!(p.throughput_fps, 0.0);
        assert_eq!(p.jitter_us, 0.0);
        assert_eq!(p.latency.n, 0);
    }

    #[test]
    fn perfectly_periodic_output_has_zero_jitter() {
        let mut tr = Trace::new();
        for i in 0..10u64 {
            tr.alloc(SimTime(i * 100), NodeId(1), Timestamp(i), 1, key(0, i));
            tr.sink_output(SimTime(i * 100 + 20), key(2, i), Timestamp(i));
        }
        let lin = Lineage::analyze(&tr);
        let p = PerfReport::compute(&tr, &lin, SimTime(1000));
        assert_eq!(p.jitter_us, 0.0);
        assert!((p.latency.mean - 20.0).abs() < 1e-9);
    }
}
