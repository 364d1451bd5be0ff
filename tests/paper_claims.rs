//! Executable index of the paper's named claims: every test quotes a claim
//! from the paper and checks the corresponding behaviour of this
//! implementation. (Table/figure-level reproduction lives in the
//! `experiments` crate; these are the *prose* claims.)

use desim::{CostModel, InputPolicy, ServiceModel, Sim, SimBuilder, SimConfig, TaskSpec};
use stampede_aru::prelude::*;
use tracker::{SimTrackerParams, TrackerConfigId};

/// §4: "the summary-STP values that are piggy backed with each item are
/// only 8 bytes long".
#[test]
fn claim_piggybacked_summary_is_8_bytes() {
    assert_eq!(std::mem::size_of::<Stp>(), 8);
}

/// Abstract (headline): "ARU reduces the application's memory footprint by
/// two-thirds compared to our previously published results, while also
/// improving latency and throughput."
#[test]
fn claim_two_thirds_footprint_reduction_with_better_latency() {
    let run = |aru: AruConfig| {
        let params = SimTrackerParams::new(aru, TrackerConfigId::OneNode)
            .with_duration(Micros::from_secs(40));
        tracker::app_sim::run_sim(&params).analyze()
    };
    let base = run(AruConfig::disabled());
    let max = run(AruConfig::aru_max());
    let fp_base = base.footprint.observed_summary().mean;
    let fp_max = max.footprint.observed_summary().mean;
    assert!(
        fp_max < fp_base / 3.0,
        "ARU-max footprint {fp_max:.0} should be ≤ 1/3 of baseline {fp_base:.0}"
    );
    assert!(
        max.perf.latency.mean < base.perf.latency.mean,
        "latency must improve"
    );
    assert!(
        max.perf.throughput_fps > base.perf.throughput_fps,
        "throughput must improve (config 1)"
    );
}

/// §3.3.2: "The worst case propagation time for a summary-STP value to
/// reach the producer from the last consumer in the pipeline is equal to
/// the time it takes for an item to be processed and be emitted by the
/// application (i.e. latency)." — after feedback becomes available, the
/// source locks on within a small number of pipeline latencies.
#[test]
fn claim_reaction_time_is_about_one_latency() {
    // 3-stage chain: src(1ms) -> a(10ms) -> b(30ms sink). Latency ≈ 41ms.
    let mut b = SimBuilder::new();
    let n = b.node(8);
    let c1 = b.channel("c1", n);
    let c2 = b.channel("c2", n);
    let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(1)));
    let mid = b.task(
        "mid",
        n,
        TaskSpec::new(ServiceModel::fixed(Micros::from_millis(10))),
    );
    let snk = b.task(
        "snk",
        n,
        TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(30))),
    );
    b.output(src, c1, 100).unwrap();
    b.input(mid, c1, InputPolicy::DriverLatest).unwrap();
    b.output(mid, c2, 100).unwrap();
    b.input(snk, c2, InputPolicy::DriverLatest).unwrap();
    let mut cfg = SimConfig::new(AruConfig::aru_min());
    cfg.cost = CostModel::ideal();
    cfg.duration = Micros::from_secs(5);
    let r = Sim::run(b, cfg).unwrap();
    // Count source productions in the first 4 latencies (~165 ms) vs a
    // later 165 ms steady window: the early flood must be confined to the
    // startup window.
    let allocs: Vec<u64> = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            aru_metrics::TraceEvent::Alloc { t, buffer, .. }
                if buffer.0 == 1 /* c1 */ =>
            {
                Some(t.as_micros())
            }
            _ => None,
        })
        .collect();
    let early = allocs.iter().filter(|&&t| t < 165_000).count();
    let steady = allocs
        .iter()
        .filter(|&&t| (1_000_000..1_165_000).contains(&t))
        .count();
    // steady: ~165ms / 30ms ≈ 5-6 items; early contains the pre-feedback
    // flood but must already be throttled after the first latency.
    assert!(steady <= 8, "steady window overproduces: {steady}");
    assert!(
        early < 60,
        "startup flood must end after ~one latency (got {early} items in 4 latencies)"
    );
}

/// §2/§6: "the ARU mechanism does not eliminate the need to deal with
/// garbage created during execution, although it reduces the magnitude of
/// the problem" — ARU still leaves items for the GC to reclaim, and it
/// helps under *every* GC policy (orthogonality).
#[test]
fn claim_aru_is_orthogonal_to_gc() {
    let run = |aru: AruConfig, gc: GcMode| {
        let mut b = SimBuilder::new();
        let n = b.node(8);
        let c = b.channel("c", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(2)));
        let snk = b.task(
            "snk",
            n,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(20))),
        );
        b.output(src, c, 1000).unwrap();
        b.input(snk, c, InputPolicy::DriverLatest).unwrap();
        let mut cfg = SimConfig::new(aru);
        cfg.gc = gc;
        cfg.cost = CostModel::ideal();
        cfg.duration = Micros::from_secs(10);
        Sim::run(b, cfg).unwrap().analyze()
    };
    for gc in [GcMode::None, GcMode::Ref, GcMode::Dgc] {
        let base = run(AruConfig::disabled(), gc);
        let aru = run(AruConfig::aru_min(), gc);
        assert!(
            aru.footprint.observed_summary().mean < base.footprint.observed_summary().mean,
            "{gc}: ARU must reduce footprint under every GC policy"
        );
    }
    // …and under ARU there are STILL frees happening (GC remains needed):
    let params = SimTrackerParams::new(AruConfig::aru_min(), TrackerConfigId::OneNode)
        .with_duration(Micros::from_secs(10));
    let r = tracker::app_sim::run_sim(&params);
    let frees = r
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, aru_metrics::TraceEvent::Free { .. }))
        .count();
    assert!(frees > 0, "GC still reclaims items under ARU");
}

/// §3.3.2: "The min operator is the default operator as it does not affect
/// throughput and is safe to use in all data-dependency cases."
#[test]
fn claim_min_operator_preserves_throughput() {
    let run = |aru: AruConfig| {
        let mut b = SimBuilder::new();
        let n = b.node(8);
        let c = b.channel("c", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(2)));
        // two independent sinks at different rates — min must sustain both
        let fast = b.task(
            "fast",
            n,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(15))),
        );
        let slow = b.task(
            "slow",
            n,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(60))),
        );
        b.output(src, c, 100).unwrap();
        b.input(fast, c, InputPolicy::DriverLatest).unwrap();
        b.input(slow, c, InputPolicy::DriverLatest).unwrap();
        let mut cfg = SimConfig::new(aru);
        cfg.cost = CostModel::ideal();
        cfg.duration = Micros::from_secs(10);
        Sim::run(b, cfg).unwrap().outputs()
    };
    let base = run(AruConfig::disabled());
    let min = run(AruConfig::aru_min());
    assert!(
        min as f64 > base as f64 * 0.93,
        "ARU-min outputs {min} must not lose to baseline {base}"
    );
}

/// §5.2: "being over aggressive [ARU-max] saves more wasted resources and
/// improves latency but at the expense of throughput."
#[test]
fn claim_max_trades_throughput_for_resources() {
    let run = |aru: AruConfig| {
        let params = SimTrackerParams::new(aru, TrackerConfigId::FiveNodes)
            .with_duration(Micros::from_secs(40));
        let r = tracker::app_sim::run_sim(&params);
        let a = r.analyze();
        (
            a.perf.throughput_fps,
            a.perf.latency.mean,
            a.waste.pct_memory_wasted(),
        )
    };
    let (fps_min, lat_min, waste_min) = run(AruConfig::aru_min());
    let (fps_max, lat_max, waste_max) = run(AruConfig::aru_max());
    assert!(waste_max < waste_min, "max saves more resources");
    assert!(lat_max < lat_min, "max improves latency");
    assert!(fps_max < fps_min, "…at the expense of throughput");
}

/// §1/§3.2: "dynamic adjustment of data production rate is a better
/// approach than dropping data, since it is less wasteful of computational
/// resources" — with ARU the share of computation spent on dropped data
/// collapses while output is preserved.
#[test]
fn claim_adjusting_beats_dropping() {
    let run = |aru: AruConfig| {
        let params = SimTrackerParams::new(aru, TrackerConfigId::OneNode)
            .with_duration(Micros::from_secs(40));
        let r = tracker::app_sim::run_sim(&params);
        let a = r.analyze();
        (a.waste.pct_computation_wasted(), r.outputs())
    };
    let (waste_base, out_base) = run(AruConfig::disabled());
    let (waste_aru, out_aru) = run(AruConfig::aru_min());
    assert!(
        waste_aru < waste_base / 3.0,
        "comp waste {waste_aru:.1}% !< a third of {waste_base:.1}%"
    );
    assert!(
        out_aru >= out_base,
        "outputs preserved: {out_aru} vs {out_base}"
    );
}

/// §3.3.2: the paper paces *source threads only* and lets the adjustment
/// cascade through blocking; the `AllThreads` extension paces every thread
/// to its own summary-STP. Both must beat the unpaced baseline's waste, and
/// sources-only must already capture most of the saving (within 3× + 5
/// points of all-threads).
#[test]
fn claim_pacing_sources_only_captures_the_saving() {
    let waste = |aru: AruConfig| {
        let params = SimTrackerParams::new(aru, TrackerConfigId::OneNode)
            .with_duration(Micros::from_secs(60));
        tracker::app_sim::run_sim(&params)
            .analyze()
            .waste
            .pct_memory_wasted()
    };
    let baseline = waste(AruConfig::disabled());
    let sources = waste(AruConfig::aru_min().with_pacing(PacingPolicy::SourcesOnly));
    let all = waste(AruConfig::aru_min().with_pacing(PacingPolicy::AllThreads));
    assert!(
        sources < baseline && all < baseline,
        "sources-only {sources:.1}% and all-threads {all:.1}% must beat baseline {baseline:.1}%"
    );
    assert!(
        sources < all * 3.0 + 5.0,
        "sources-only {sources:.1}% should be near all-threads {all:.1}%"
    );
}
