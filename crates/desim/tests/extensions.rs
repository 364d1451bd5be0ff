//! Tests of the simulator extensions: load profiles (dynamic adaptation),
//! FIFO queue semantics (ARU vs classic total-consumption pipelines), and
//! the compression-operator and STP-filter ablations.

use aru_core::{AruConfig, CompressOp, FilterSpec};
use aru_metrics::TraceEvent;
use desim::{CostModel, InputPolicy, ServiceModel, Sim, SimBuilder, SimConfig, TaskSpec};
use vtime::{Micros, OnlineStats, SimTime};

/// Source allocation times (µs) of a run, in record order.
fn alloc_times(r: &desim::SimReport) -> Vec<u64> {
    r.trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Alloc { t, .. } => Some(t.as_micros()),
            _ => None,
        })
        .collect()
}

/// The feedback loop tracks a load step: consumer cost jumps 20 ms → 60 ms
/// halfway; the source's production rate follows within one latency.
#[test]
fn aru_adapts_to_load_step() {
    let mut b = SimBuilder::new();
    let n = b.node(8);
    let c = b.channel("c", n);
    let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(2)));
    let snk = b.task(
        "snk",
        n,
        TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(20))).with_load_step(
            SimTime(10_000_000),
            ServiceModel::fixed(Micros::from_millis(60)),
        ),
    );
    b.output(src, c, 1000).unwrap();
    b.input(snk, c, InputPolicy::DriverLatest).unwrap();
    let mut cfg = SimConfig::new(AruConfig::aru_min());
    cfg.cost = CostModel::ideal();
    cfg.duration = Micros::from_secs(20);
    let r = Sim::run(b, cfg).unwrap();

    // Production rate in each half from alloc timestamps.
    let allocs = alloc_times(&r);
    let half = 10_000_000u64;
    let first: usize = allocs.iter().filter(|&&t| t < half).count();
    let second: usize = allocs.iter().filter(|&&t| t >= half).count();
    // first half ~ 10s/20ms = 500; second ~ 10s/60ms = 167
    assert!(
        (400..=560).contains(&first),
        "first-half production {first} not near 500"
    );
    assert!(
        (130..=240).contains(&second),
        "second-half production {second} not near 167"
    );
}

/// FIFO consumer semantics: every timestamp is consumed, in order.
#[test]
fn fifo_consumes_every_timestamp_in_order() {
    let mut b = SimBuilder::new();
    let n = b.node(8);
    let c = b.channel("c", n);
    // producer slower than consumer: FIFO drains everything
    let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(10)));
    let snk = b.task(
        "snk",
        n,
        TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(2))),
    );
    b.output(src, c, 100).unwrap();
    b.input(snk, c, InputPolicy::FifoNext).unwrap();
    let mut cfg = SimConfig::new(AruConfig::disabled());
    cfg.cost = CostModel::ideal();
    cfg.duration = Micros::from_secs(5);
    let r = Sim::run(b, cfg).unwrap();
    let outputs: Vec<u64> = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SinkOutput { ts, .. } => Some(ts.raw()),
            _ => None,
        })
        .collect();
    assert!(outputs.len() > 400, "outputs {}", outputs.len());
    for (i, &ts) in outputs.iter().enumerate() {
        assert_eq!(ts, i as u64, "FIFO must consume contiguously: {outputs:?}");
    }
}

/// Without ARU, a slow FIFO consumer lets the channel grow without bound;
/// ARU's feedback bounds it — the backpressure comparison.
#[test]
fn aru_bounds_fifo_backlog_where_baseline_grows() {
    fn run(aru: AruConfig) -> (f64, usize) {
        let mut b = SimBuilder::new();
        let n = b.node(8);
        let c = b.channel("c", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(5)));
        let snk = b.task(
            "snk",
            n,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(25))),
        );
        b.output(src, c, 1000).unwrap();
        b.input(snk, c, InputPolicy::FifoNext).unwrap();
        let mut cfg = SimConfig::new(aru);
        cfg.cost = CostModel::ideal();
        cfg.duration = Micros::from_secs(20);
        let r = Sim::run(b, cfg).unwrap();
        let peak = r.analyze().footprint.observed.peak();
        (peak, r.outputs())
    }
    let (peak_base, out_base) = run(AruConfig::disabled());
    let (peak_aru, out_aru) = run(AruConfig::aru_min());
    // Baseline: producer 5x faster, FIFO never skips → backlog grows to
    // ~(20s/5ms − 20s/25ms) items ≈ 3200 × 1 kB.
    assert!(
        peak_base > 1_000_000.0,
        "baseline FIFO backlog should explode, peak {peak_base}"
    );
    // ARU: production paced to the consumer → backlog stays small.
    assert!(
        peak_aru < peak_base / 20.0,
        "ARU peak {peak_aru} should be tiny vs baseline {peak_base}"
    );
    // Both consume at the sink's own rate.
    assert!(out_aru * 10 >= out_base * 9, "{out_aru} vs {out_base}");
}

/// Load steps can also make a task *faster*; the pacer speeds back up.
#[test]
fn aru_speeds_up_when_load_drops() {
    let mut b = SimBuilder::new();
    let n = b.node(8);
    let c = b.channel("c", n);
    let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(2)));
    let snk = b.task(
        "snk",
        n,
        TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(60))).with_load_step(
            SimTime(10_000_000),
            ServiceModel::fixed(Micros::from_millis(15)),
        ),
    );
    b.output(src, c, 1000).unwrap();
    b.input(snk, c, InputPolicy::DriverLatest).unwrap();
    let mut cfg = SimConfig::new(AruConfig::aru_min());
    cfg.cost = CostModel::ideal();
    cfg.duration = Micros::from_secs(20);
    let r = Sim::run(b, cfg).unwrap();
    let outputs: Vec<u64> = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SinkOutput { t, .. } => Some(t.as_micros()),
            _ => None,
        })
        .collect();
    let half = 10_000_000u64;
    let first = outputs.iter().filter(|&&t| t < half).count();
    let second = outputs.iter().filter(|&&t| t >= half).count();
    assert!(
        second > first * 2,
        "sink should speed up after the load drop: {first} then {second}"
    );
}

/// The paper's stereo use case (§1): a matcher pairing two sources by
/// exact timestamp. Without ARU the faster source runs away and pairing
/// throughput collapses; with ARU one feedback loop paces both sources.
#[test]
fn aru_synchronizes_stereo_sources() {
    fn run(aru: AruConfig) -> (usize, usize) {
        let mut b = SimBuilder::new();
        let n = b.node(8);
        let left = b.channel("left", n);
        let right = b.channel("right", n);
        let cam_l = b.source("cam_l", n, ServiceModel::fixed(Micros::from_millis(2)));
        let cam_r = b.source("cam_r", n, ServiceModel::fixed(Micros::from_millis(5)));
        let stereo = b.task(
            "stereo",
            n,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(25))),
        );
        b.output(cam_l, left, 50_000).unwrap();
        b.output(cam_r, right, 50_000).unwrap();
        b.input(stereo, left, InputPolicy::DriverLatest).unwrap();
        b.input(stereo, right, InputPolicy::JoinExact).unwrap();
        let mut cfg = SimConfig::new(aru);
        cfg.cost = CostModel::ideal();
        cfg.duration = Micros::from_secs(10);
        let r = Sim::run(b, cfg).unwrap();
        let allocs = alloc_times(&r).len();
        (r.outputs(), allocs)
    }
    let (pairs_base, allocs_base) = run(AruConfig::disabled());
    let (pairs_aru, allocs_aru) = run(AruConfig::aru_min());
    // ARU pairs at the matcher's rate (~10s / 25ms ≈ 400, minus sync lag);
    // the baseline collapses because the join target recedes.
    assert!(
        pairs_aru > pairs_base * 3,
        "ARU pairs {pairs_aru} should dwarf baseline {pairs_base}"
    );
    assert!(
        pairs_aru > 150,
        "ARU matcher should run near its service rate: {pairs_aru}"
    );
    // and it does so while producing far fewer frames.
    assert!(
        allocs_aru < allocs_base / 3,
        "ARU allocs {allocs_aru} vs baseline {allocs_base}"
    );
}

/// Per-thread and per-channel decompositions are available on sim reports
/// and agree with the aggregate analyses.
#[test]
fn report_decompositions_are_consistent() {
    let mut b = SimBuilder::new();
    let n = b.node(4);
    let c = b.channel("c", n);
    let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(5)));
    let snk = b.task(
        "snk",
        n,
        TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(20))),
    );
    b.output(src, c, 1000).unwrap();
    b.input(snk, c, InputPolicy::DriverLatest).unwrap();
    let mut cfg = SimConfig::new(AruConfig::disabled());
    cfg.cost = CostModel::ideal();
    cfg.duration = Micros::from_secs(5);
    let r = Sim::run(b, cfg).unwrap();

    let a = r.analyze();
    let threads = aru_metrics::thread_stats(&r.trace, &a.lineage);
    assert_eq!(threads.len(), 2);
    let total_busy: u64 = threads.values().map(|s| s.total_busy.as_micros()).sum();
    let w = a.waste;
    assert_eq!(
        total_busy,
        w.total_computation.as_micros(),
        "per-thread busy must sum to total computation"
    );

    let chans = r.channel_stats();
    assert_eq!(chans.len(), 1);
    let ch = chans.values().next().unwrap();
    // every alloc went into this one channel
    let allocs = alloc_times(&r).len() as u64;
    assert_eq!(ch.items, allocs);
    // and the channel's mean occupancy equals the global observed mean
    let global = a.footprint.observed_summary().mean;
    assert!(
        (ch.mean_bytes - global).abs() < 1e-6 * (1.0 + global),
        "single-channel mean {} vs global {global}",
        ch.mean_bytes
    );
}

/// Compression-operator ablation (§3.3.2, Figures 3/4): one producer fans
/// out to 10/40/160 ms consumers. `min` sustains the fastest consumer,
/// `max` the slowest, and each step min → kth(1) → mean → max throttles the
/// producer at least as hard as the one before.
#[test]
fn compress_operators_order_production_on_a_fanout() {
    let produced = |op: CompressOp| {
        let mut b = SimBuilder::new();
        let n = b.node(8);
        let c = b.channel("c", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(2)));
        b.output(src, c, 10_000).unwrap();
        for (i, ms) in [10u64, 40, 160].into_iter().enumerate() {
            let t = b.task(
                format!("sink{i}"),
                n,
                TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(ms))),
            );
            b.input(t, c, InputPolicy::DriverLatest).unwrap();
        }
        let mut aru = AruConfig::aru_min();
        aru.compress = op;
        let mut cfg = SimConfig::new(aru);
        cfg.cost = CostModel::ideal();
        cfg.duration = Micros::from_secs(30);
        alloc_times(&Sim::run(b, cfg).unwrap()).len()
    };
    let counts = [
        ("min", produced(CompressOp::Min)),
        ("kth(1)", produced(CompressOp::kth_smallest(1))),
        ("mean", produced(CompressOp::mean())),
        ("max", produced(CompressOp::Max)),
    ];
    for pair in counts.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "{} ({}) should produce <= {} ({})",
            pair[1].0,
            pair[1].1,
            pair[0].0,
            pair[0].1
        );
    }
    // The ends of the ordering are far apart, so it is not vacuous.
    assert!(counts[3].1 * 4 < counts[0].1, "max vs min: {counts:?}");
}

/// Summary-STP filter ablation — the paper's named future work (§3.3.2:
/// "such noise can be smoothed out by applying filters"). A σ = 0.5
/// consumer feeds jittery summary-STPs back; an EWMA and a windowed median
/// must both cut the producer's production-period jitter (σ of
/// inter-allocation gaps, mean over three seeds) below the identity filter.
#[test]
fn stp_filters_cut_production_jitter_under_a_noisy_consumer() {
    let jitter = |filter: FilterSpec| {
        let mut over_seeds = OnlineStats::new();
        for seed in [1u64, 2, 3] {
            let mut b = SimBuilder::new();
            let n = b.node(8);
            let c = b.channel("c", n);
            let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(2)));
            let snk = b.task(
                "snk",
                n,
                TaskSpec::sink(ServiceModel::new(Micros::from_millis(40), 0.5)),
            );
            b.output(src, c, 10_000).unwrap();
            b.input(snk, c, InputPolicy::DriverLatest).unwrap();
            let mut cfg = SimConfig::new(AruConfig::aru_min().with_filter(filter));
            cfg.cost = CostModel::ideal();
            cfg.duration = Micros::from_secs(60);
            cfg.seed = seed;
            let times = alloc_times(&Sim::run(b, cfg).unwrap());
            let mut gaps = OnlineStats::new();
            for w in times.windows(2) {
                gaps.push((w[1] - w[0]) as f64);
            }
            over_seeds.push(gaps.std_dev());
        }
        over_seeds.mean()
    };
    let identity = jitter(FilterSpec::Identity);
    for (name, f) in [
        ("ewma(0.2)", FilterSpec::Ewma(0.2)),
        ("median(5)", FilterSpec::Median(5)),
    ] {
        let j = jitter(f);
        assert!(
            j < identity,
            "{name} jitter {j:.0} us should beat identity {identity:.0} us"
        );
    }
}
