//! End-to-end simulator tests: pipeline dynamics, ARU behaviour under the
//! virtual clock, network/cost models, and determinism.

use aru_core::AruConfig;
use desim::{
    CostModel, InputPolicy, NetModel, ServiceModel, Sim, SimBuilder, SimConfig, SimReport, TaskSpec,
};
use vtime::Micros;

/// src(10ms) → C → sink(50ms), single node, no noise.
fn linear(aru: AruConfig, seed: u64, noise: f64) -> SimReport {
    let mut b = SimBuilder::new();
    let n = b.node(8);
    let c = b.channel("c", n);
    let src = b.source("src", n, ServiceModel::new(Micros::from_millis(10), noise));
    let snk = b.task(
        "snk",
        n,
        TaskSpec::sink(ServiceModel::new(Micros::from_millis(50), noise)),
    );
    b.output(src, c, 100_000).unwrap();
    b.input(snk, c, InputPolicy::DriverLatest).unwrap();
    let mut cfg = SimConfig::new(aru);
    cfg.cost = CostModel::ideal();
    cfg.duration = Micros::from_secs(20);
    cfg.seed = seed;
    Sim::run(b, cfg).unwrap()
}

#[test]
fn sink_outputs_at_its_service_rate() {
    let r = linear(AruConfig::disabled(), 1, 0.0);
    // 20 s / 50 ms = ~400 outputs
    let outputs = r.outputs();
    assert!(
        (350..=410).contains(&outputs),
        "expected ~400 outputs, got {outputs}"
    );
}

#[test]
fn no_aru_wastes_most_frames() {
    let r = linear(AruConfig::disabled(), 1, 0.0);
    let a = r.analyze();
    // source makes 5x what the sink consumes: ~80% of items wasted
    assert!(
        a.waste.pct_memory_wasted() > 60.0,
        "waste {:.1}%",
        a.waste.pct_memory_wasted()
    );
    assert!(a.waste.pct_computation_wasted() > 30.0);
}

#[test]
fn aru_min_eliminates_most_waste() {
    let r = linear(AruConfig::aru_min(), 1, 0.0);
    let a = r.analyze();
    assert!(
        a.waste.pct_memory_wasted() < 10.0,
        "waste {:.1}%",
        a.waste.pct_memory_wasted()
    );
    // throughput preserved: sink still outputs at its own rate
    let outputs = r.outputs();
    assert!(outputs > 330, "ARU must not hurt throughput: {outputs}");
}

#[test]
fn footprint_ordering_no_aru_gt_aru_gt_igc() {
    let no = linear(AruConfig::disabled(), 1, 0.0).analyze();
    let min = linear(AruConfig::aru_min(), 1, 0.0).analyze();
    let fp_no = no.footprint.observed_summary().mean;
    let fp_min = min.footprint.observed_summary().mean;
    let igc_no = no.footprint.ideal_summary().mean;
    assert!(
        fp_no > fp_min,
        "No-ARU footprint {fp_no:.0} !> ARU-min {fp_min:.0}"
    );
    assert!(
        fp_min >= min.footprint.ideal_summary().mean * 0.99,
        "observed below ideal"
    );
    assert!(fp_no > igc_no, "baseline must exceed its ideal bound");
}

#[test]
fn paced_source_matches_sink_rate() {
    let r = linear(AruConfig::aru_min(), 3, 0.0);
    let allocs = r
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, aru_metrics::TraceEvent::Alloc { .. }))
        .count();
    let outputs = r.outputs();
    // items produced ≈ items displayed (small startup slack)
    assert!(
        allocs <= outputs + 20,
        "paced source allocated {allocs} for {outputs} outputs"
    );
}

#[test]
fn deterministic_replay() {
    let a = linear(AruConfig::aru_min(), 42, 0.2);
    let b = linear(AruConfig::aru_min(), 42, 0.2);
    assert_eq!(a.trace.len(), b.trace.len());
    assert_eq!(a.outputs(), b.outputs());
    let fa = a.analyze().footprint.observed_summary();
    let fb = b.analyze().footprint.observed_summary();
    assert_eq!(fa.mean.to_bits(), fb.mean.to_bits(), "bit-exact replay");

    let c = linear(AruConfig::aru_min(), 43, 0.2);
    assert!(
        a.trace.len() != c.trace.len() || a.outputs() != c.outputs(),
        "different seeds should diverge"
    );
}

/// The engine counts sink outputs as it records them; the count is the
/// trace's.
#[test]
fn outputs_count_the_traces_sink_outputs() {
    let r = linear(AruConfig::aru_min(), 42, 0.2);
    let in_trace = r
        .trace
        .iter()
        .filter(|e| matches!(e, aru_metrics::TraceEvent::SinkOutput { .. }))
        .count();
    assert!(in_trace > 0);
    assert_eq!(r.outputs(), in_trace);
}

#[test]
fn noise_creates_jitter() {
    let quiet = linear(AruConfig::disabled(), 7, 0.0).analyze();
    let noisy = linear(AruConfig::disabled(), 7, 0.25).analyze();
    assert!(
        quiet.perf.jitter_us < 1.0,
        "quiet jitter {}",
        quiet.perf.jitter_us
    );
    assert!(
        noisy.perf.jitter_us > quiet.perf.jitter_us + 100.0,
        "noisy jitter {} vs quiet {}",
        noisy.perf.jitter_us,
        quiet.perf.jitter_us
    );
}

#[test]
fn remote_channel_adds_latency() {
    fn run(remote: bool) -> SimReport {
        let mut b = SimBuilder::new();
        let n0 = b.node(8);
        let n1 = if remote { b.node(8) } else { n0 };
        // channel on the producer's node; consumer reads it locally in the
        // 1-node case. To model the transfer we place the channel on the
        // *consumer's* node so the producer's put crosses the link.
        let c = b.channel("c", n1);
        let src = b.source("src", n0, ServiceModel::fixed(Micros::from_millis(10)));
        let snk = b.task(
            "snk",
            n1,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(20))),
        );
        b.output(src, c, 738_000).unwrap();
        b.input(snk, c, InputPolicy::DriverLatest).unwrap();
        let mut cfg = SimConfig::new(AruConfig::aru_min());
        cfg.cost = CostModel::ideal();
        cfg.net = NetModel::default();
        cfg.duration = Micros::from_secs(10);
        Sim::run(b, cfg).unwrap()
    }
    let local = run(false).analyze();
    let remote = run(true).analyze();
    let delta = remote.perf.latency.mean - local.perf.latency.mean;
    // 738 kB over GbE ≈ 6 ms
    assert!(
        delta > 3_000.0,
        "remote latency {} should exceed local {} by ~6ms",
        remote.perf.latency.mean,
        local.perf.latency.mean
    );
}

#[test]
fn contention_slows_colocated_tasks() {
    fn run(cores: u32) -> usize {
        let mut b = SimBuilder::new();
        let n = b.node(cores);
        let mut cfg = SimConfig::new(AruConfig::disabled());
        cfg.cost = CostModel {
            contention: 1.0,
            mem_pressure: 0.0,
            pressure_ref_bytes: 1.0,
            alloc_bandwidth: f64::INFINITY,
        };
        cfg.duration = Micros::from_secs(10);
        // two independent source→sink pairs on one node
        for i in 0..2 {
            let c = b.channel(format!("c{i}"), n);
            let src = b.source(
                format!("src{i}"),
                n,
                ServiceModel::fixed(Micros::from_millis(10)),
            );
            let snk = b.task(
                format!("snk{i}"),
                n,
                TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(10))),
            );
            b.output(src, c, 1000).unwrap();
            b.input(snk, c, InputPolicy::DriverLatest).unwrap();
        }
        Sim::run(b, cfg).unwrap().outputs()
    }
    let crowded = run(1);
    let roomy = run(8);
    assert!(
        crowded < roomy * 9 / 10,
        "1-core node ({crowded}) should underperform 8-core ({roomy})"
    );
}

#[test]
fn join_exact_pairs_streams() {
    // src → {Cframe, } ; mid consumes frames, emits masks; td joins mask
    // (driver) with frame (exact) and must always find the matching frame.
    let mut b = SimBuilder::new();
    let n = b.node(8);
    let c_frames_mid = b.channel("frames_mid", n);
    let c_frames_td = b.channel("frames_td", n);
    let c_masks = b.channel("masks", n);
    let c_out = b.channel("out", n);
    let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(5)));
    let mid = b.task(
        "mid",
        n,
        TaskSpec::new(ServiceModel::fixed(Micros::from_millis(15))),
    );
    let td = b.task(
        "td",
        n,
        TaskSpec::new(ServiceModel::fixed(Micros::from_millis(25))),
    );
    let gui = b.task(
        "gui",
        n,
        TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(5))),
    );
    b.output(src, c_frames_mid, 10_000).unwrap();
    b.output(src, c_frames_td, 10_000).unwrap();
    b.input(mid, c_frames_mid, InputPolicy::DriverLatest)
        .unwrap();
    b.output(mid, c_masks, 3_000).unwrap();
    b.input(td, c_masks, InputPolicy::DriverLatest).unwrap();
    b.input(td, c_frames_td, InputPolicy::JoinExact).unwrap();
    b.output(td, c_out, 64).unwrap();
    b.input(gui, c_out, InputPolicy::DriverLatest).unwrap();
    let mut cfg = SimConfig::new(AruConfig::aru_min());
    cfg.cost = CostModel::ideal();
    cfg.duration = Micros::from_secs(10);
    let r = Sim::run(b, cfg).unwrap();
    assert!(r.outputs() > 100, "join pipeline outputs: {}", r.outputs());
    // With paced production and exact joins, waste should be small.
    let a = r.analyze();
    assert!(
        a.waste.pct_memory_wasted() < 30.0,
        "waste {:.1}%",
        a.waste.pct_memory_wasted()
    );
}

#[test]
fn aru_max_throttles_to_slowest_consumer() {
    // src feeds two sinks: 20 ms and 80 ms.
    fn run(aru: AruConfig) -> usize {
        let mut b = SimBuilder::new();
        let n = b.node(8);
        let c = b.channel("c", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(5)));
        let fast = b.task(
            "fast",
            n,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(20))),
        );
        let slow = b.task(
            "slow",
            n,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(80))),
        );
        b.output(src, c, 1000).unwrap();
        b.input(fast, c, InputPolicy::DriverLatest).unwrap();
        b.input(slow, c, InputPolicy::DriverLatest).unwrap();
        let mut cfg = SimConfig::new(aru);
        cfg.cost = CostModel::ideal();
        cfg.duration = Micros::from_secs(10);
        let r = Sim::run(b, cfg).unwrap();
        r.trace
            .events()
            .iter()
            .filter(|e| matches!(e, aru_metrics::TraceEvent::Alloc { .. }))
            .count()
    }
    let produced_min = run(AruConfig::aru_min());
    let produced_max = run(AruConfig::aru_max());
    // min sustains the 20ms consumer (~500 items), max the 80ms (~125).
    assert!(
        produced_max < produced_min / 2,
        "max ({produced_max}) must produce far fewer than min ({produced_min})"
    );
    assert!(
        (400..=650).contains(&produced_min),
        "min should track the fast consumer: {produced_min}"
    );
    assert!(
        (100..=200).contains(&produced_max),
        "max should track the slow consumer: {produced_max}"
    );
}

#[test]
fn gc_none_vs_dgc_footprint() {
    fn run(gc: aru_gc::GcMode) -> f64 {
        let mut b = SimBuilder::new();
        let n = b.node(8);
        let c = b.channel("c", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(5)));
        let snk = b.task(
            "snk",
            n,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(25))),
        );
        b.output(src, c, 10_000).unwrap();
        b.input(snk, c, InputPolicy::DriverLatest).unwrap();
        let mut cfg = SimConfig::new(AruConfig::disabled());
        cfg.gc = gc;
        cfg.cost = CostModel::ideal();
        cfg.duration = Micros::from_secs(10);
        Sim::run(b, cfg)
            .unwrap()
            .analyze()
            .footprint
            .observed_summary()
            .mean
    }
    let none = run(aru_gc::GcMode::None);
    let dgc = run(aru_gc::GcMode::Dgc);
    assert!(
        dgc < none / 5.0,
        "DGC footprint {dgc:.0} should be far below no-GC {none:.0}"
    );
}
