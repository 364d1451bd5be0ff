//! Simulator vs threaded runtime on the same graph (ROADMAP 6a). The
//! simulator is the oracle behind every figure; this pins it to the runtime
//! that computes for real. Both substrates lower `graph::STAGES`, get the
//! same five per-stage times (5 / 15 / 20 / 50 / 5 ms — as service times in
//! the simulator, as extra delays on top of the real kernels in the threaded
//! runtime), the same `AruConfig`, and 4 s — virtual with a frictionless
//! cost model and σ = 0, or wall clock.
//!
//! Compared per mode, with the tolerances stated at each assertion: the
//! digitizer's production period, target detection's busy time and the
//! GUI's output period — medians over the last three quarters of the run
//! (the first second is start-up: the source free-runs until the first
//! summary-STP arrives) — and the whole-run postmortem: memory waste, sink
//! outputs, mean observed footprint.
//! Measured values are in EXPERIMENTS.md, "Simulator vs threaded runtime".
//!
//! Real kernels on 737 kB frames need an optimized build to fit their
//! period, so this runs in release only (CI lane `chaos`), once, with no
//! retry: a failure is either a broken lowering or a host too loaded to
//! hold a 50 ms stage to 5 %.

use aru_core::{AruConfig, Topology};
use aru_gc::Postmortem;
use aru_metrics::{Trace, TraceEvent};
use desim::CostModel;
use tracker::app_sim::{run_sim, SimTrackerParams, StageServices, TrackerConfigId};
use tracker::app_threaded::{build_threaded, StageDelays, ThreadedTrackerParams};
use tracker::graph::node;
use vtime::Micros;

const RUN: Micros = Micros(4_000_000);
const STAGE_MS: [u64; 5] = [5, 15, 20, 50, 5];
const BOTTLENECK_US: f64 = (STAGE_MS[3] * 1_000) as f64;

/// What one run is reduced to.
#[derive(Debug)]
struct Reading {
    source_period_us: f64,
    detector_busy_us: f64,
    sink_period_us: f64,
    waste_pct: f64,
    outputs: f64,
    footprint_bytes: f64,
}

/// `(end time, busy time)` of `stage`'s iterations after the first quarter.
fn iterations(trace: &Trace, topo: &Topology, stage: &str) -> Vec<(f64, f64)> {
    let n = node(topo, stage);
    let from = RUN.as_micros() / 4;
    let ends = trace.events().iter().filter_map(|e| match *e {
        TraceEvent::IterEnd { t, iter, busy } if iter.node == n && t.as_micros() >= from => {
            Some((t.as_micros() as f64, busy.as_micros() as f64))
        }
        _ => None,
    });
    ends.collect()
}

/// The typical value: a wall-clock run on a shared host has the odd stalled
/// iteration, which a mean would charge to the pipeline.
fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "stage never iterated");
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn reading(trace: &Trace, topo: &Topology, post: &Postmortem, outputs: usize) -> Reading {
    let period = |stage| {
        let ends = iterations(trace, topo, stage);
        median(ends.windows(2).map(|w| w[1].0 - w[0].0).collect())
    };
    let detector = iterations(trace, topo, "target-det-1");
    Reading {
        source_period_us: period("digitizer"),
        detector_busy_us: median(detector.iter().map(|d| d.1).collect()),
        // One GUI iteration is one sink output.
        sink_period_us: period("gui"),
        waste_pct: post.waste.pct_memory_wasted(),
        outputs: outputs as f64,
        footprint_bytes: post.footprint.observed_summary().mean,
    }
}

fn simulated(aru: &AruConfig) -> Reading {
    let [digitizer, change_detection, histogram, target_detection, gui] =
        STAGE_MS.map(Micros::from_millis);
    let mut params =
        SimTrackerParams::new(aru.clone(), TrackerConfigId::OneNode).with_duration(RUN);
    params.noise_sigma = 0.0;
    params.cost = CostModel::ideal();
    params.services = StageServices {
        digitizer,
        change_detection,
        histogram,
        target_detection,
        gui,
    };
    let report = run_sim(&params);
    reading(
        &report.trace,
        &report.topo,
        &report.analyze(),
        report.outputs(),
    )
}

fn threaded(aru: &AruConfig) -> Reading {
    let [digitizer, change_detection, histogram, target_detection, gui] =
        STAGE_MS.map(Micros::from_millis);
    let mut params = ThreadedTrackerParams::new(aru.clone());
    params.delays = StageDelays {
        digitizer,
        change_detection,
        histogram,
        target_detection,
        gui,
    };
    let tracker = build_threaded(&params).expect("threaded tracker builds");
    let report = tracker
        .runtime
        .run_for(RUN)
        .expect("threaded run completes");
    reading(
        &report.trace,
        &report.topo,
        &report.analyze(),
        report.outputs(),
    )
}

/// `|a - b|` as a share of `b`.
fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b
}

#[test]
#[cfg_attr(debug_assertions, ignore = "real kernels: release only")]
fn simulator_agrees_with_the_threaded_runtime() {
    let mut failures = Vec::new();
    // One mode after the other: two pipelines at once on a small host would
    // measure each other. The last column is the band on the paced source
    // period: ARU-min follows the fastest consumer's summary and sits on the
    // bottleneck; ARU-max follows the slowest of two noisy detectors, which
    // on real threads reads up to 4.4 % above either one's median.
    for (mode, aru, pace_band) in [
        ("No ARU", AruConfig::disabled(), None),
        ("ARU-min", AruConfig::aru_min(), Some(0.05)),
        ("ARU-max", AruConfig::aru_max(), Some(0.10)),
    ] {
        let (sim, real) = (simulated(&aru), threaded(&aru));
        println!("{mode}\n  sim      {sim:?}\n  threaded {real:?}");
        let mut check = |what: &str, ok: bool| {
            if !ok {
                failures.push(format!(
                    "{mode}: {what}\n  sim      {sim:?}\n  threaded {real:?}"
                ));
            }
        };
        if let Some(band) = pace_band {
            // ARU paces the source to the bottleneck's sustainable period.
            check(
                "paced source periods within the band of each other",
                rel(real.source_period_us, sim.source_period_us) < band,
            );
            for r in [&sim, &real] {
                check(
                    "source period within the band of the bottleneck's busy time",
                    rel(r.source_period_us, r.detector_busy_us) < band,
                );
            }
        } else {
            // Unpaced, the digitizer runs at its own cost, and that differs
            // by design: 5.0 ms simulated vs ~5.7 ms with real frame
            // synthesis. Both overrun the bottleneck at least twofold.
            for r in [&sim, &real] {
                check(
                    "unpaced source period below half the bottleneck period",
                    r.source_period_us < BOTTLENECK_US / 2.0,
                );
            }
        }
        // 50 ms of delay plus ~0.04 ms of real detection, on a host whose
        // speed drifts by a few percent in phases of tens of seconds.
        check(
            "target-detection busy time within 8 %",
            rel(real.detector_busy_us, sim.detector_busy_us) < 0.08,
        );
        check(
            "sink output periods within 8 % of each other",
            rel(real.sink_period_us, sim.sink_period_us) < 0.08,
        );
        // Whole-run quantities carry every stall of a shared host — and
        // under ARU-max one stalled detector iteration becomes the summary
        // the source is paced to, so a 0.3 s hiccup idles the pipeline for
        // longer (53 of 79 outputs once in 60 runs). Their bands are wider
        // than a quiet run needs and still far inside what separates the
        // modes (waste 9 vs 86 %, footprint 4.4 vs 30 MB). Unpaced, the
        // slower real digitizer alone wastes 1.5–4.3 points less than the
        // simulated one.
        check(
            "memory waste within 15 points",
            (real.waste_pct - sim.waste_pct).abs() < 15.0,
        );
        check(
            "sink outputs within 40 %",
            rel(real.outputs, sim.outputs) < 0.40,
        );
        // Paced, the pipeline holds about six items, three of them 737 kB
        // frames: one frame kept a period longer is 15 % of the footprint.
        // σ = 0 locks the simulator's phases into one such arrangement (4.4
        // MB under ARU-min, 5.9 MB under ARU-max); the threaded runs land
        // on 3.9–6.3 MB under both.
        check(
            "mean observed footprint within 50 %",
            rel(real.footprint_bytes, sim.footprint_bytes) < 0.50,
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
