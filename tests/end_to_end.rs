//! Cross-crate integration: the same ARU mechanism, driven through the
//! threaded runtime and the simulator, must tell the same story.

use stampede_aru::prelude::*;
use std::time::Duration;
use tracker::{SimTrackerParams, TrackerConfigId};

/// The headline claim, on both runtimes: ARU slashes waste without hurting
/// throughput.
#[test]
fn both_runtimes_agree_on_the_headline() {
    // Threaded runtime (real time, real threads).
    let threaded = |aru: AruConfig| {
        let mut b = RuntimeBuilder::new(aru, GcMode::Dgc);
        let ch = b.channel::<Vec<u8>>("c");
        let src = b.thread("src");
        let snk = b.thread("snk");
        let out = b.connect_out(src, &ch).unwrap();
        let mut inp = b.connect_in(&ch, snk).unwrap();
        let mut ts = Timestamp::ZERO;
        b.spawn(src, move |ctx| {
            std::thread::sleep(Duration::from_millis(2));
            out.put(ctx, ts, vec![0u8; 10_000])?;
            ts = ts.next();
            Ok(Step::Continue)
        });
        b.spawn(snk, move |ctx| {
            let item = inp.get_latest(ctx)?;
            std::thread::sleep(Duration::from_millis(20));
            ctx.emit_output(item.ts);
            Ok(Step::Continue)
        });
        let report = b
            .build()
            .unwrap()
            .run_for(Micros::from_millis(600))
            .unwrap();
        let a = report.analyze();
        (a.waste.pct_memory_wasted(), report.outputs())
    };

    // Simulator (virtual time).
    let simulated = |aru: AruConfig| {
        use desim::{CostModel, InputPolicy, ServiceModel, Sim, SimBuilder, SimConfig, TaskSpec};
        let mut b = SimBuilder::new();
        let n = b.node(8);
        let c = b.channel("c", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros::from_millis(2)));
        let snk = b.task(
            "snk",
            n,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(20))),
        );
        b.output(src, c, 10_000).unwrap();
        b.input(snk, c, InputPolicy::DriverLatest).unwrap();
        let mut cfg = SimConfig::new(aru);
        cfg.cost = CostModel::ideal();
        cfg.duration = Micros::from_millis(600);
        let r = Sim::run(b, cfg).unwrap();
        let a = r.analyze();
        (a.waste.pct_memory_wasted(), r.outputs())
    };

    let (tw_base, to_base) = threaded(AruConfig::disabled());
    let (tw_aru, to_aru) = threaded(AruConfig::aru_min());
    let (sw_base, so_base) = simulated(AruConfig::disabled());
    let (sw_aru, so_aru) = simulated(AruConfig::aru_min());

    // Same qualitative story on both substrates.
    assert!(tw_base > tw_aru, "threaded: {tw_base:.1}% !> {tw_aru:.1}%");
    assert!(sw_base > sw_aru, "sim: {sw_base:.1}% !> {sw_aru:.1}%");
    assert!(tw_base > 40.0 && sw_base > 40.0, "baselines waste heavily");
    // ARU must not collapse throughput (allow generous scheduling slack).
    assert!(
        to_aru * 3 > to_base,
        "threaded outputs {to_aru} vs {to_base}"
    );
    assert!(so_aru * 3 > so_base, "sim outputs {so_aru} vs {so_base}");
}

/// GC safety, observed through behaviour: on a get-latest pipeline, the GC
/// mode must not change *which* items the sink consumes — memory management
/// must be invisible to the application (simulator: bit-deterministic).
#[test]
fn gc_mode_does_not_change_observable_outputs() {
    use desim::{CostModel, InputPolicy, ServiceModel, Sim, SimBuilder, SimConfig, TaskSpec};
    let run = |gc: GcMode| {
        let mut b = SimBuilder::new();
        let n = b.node(4);
        let c1 = b.channel("c1", n);
        let c2 = b.channel("c2", n);
        let src = b.source("src", n, ServiceModel::new(Micros::from_millis(3), 0.1));
        let mid = b.task(
            "mid",
            n,
            TaskSpec::new(ServiceModel::new(Micros::from_millis(11), 0.1)),
        );
        let snk = b.task(
            "snk",
            n,
            TaskSpec::sink(ServiceModel::new(Micros::from_millis(23), 0.1)),
        );
        b.output(src, c1, 1000).unwrap();
        b.input(mid, c1, InputPolicy::DriverLatest).unwrap();
        b.output(mid, c2, 100).unwrap();
        b.input(snk, c2, InputPolicy::DriverLatest).unwrap();
        let mut cfg = SimConfig::new(AruConfig::aru_min());
        cfg.gc = gc;
        cfg.cost = CostModel::ideal();
        cfg.duration = Micros::from_secs(5);
        cfg.seed = 99;
        let r = Sim::run(b, cfg).unwrap();
        // observable behaviour: the exact sink-output timestamp sequence
        r.trace
            .events()
            .iter()
            .filter_map(|e| match e {
                aru_metrics::TraceEvent::SinkOutput { ts, t, .. } => Some((*t, *ts)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let none = run(GcMode::None);
    let r = run(GcMode::Ref);
    let dgc = run(GcMode::Dgc);
    assert!(!none.is_empty());
    assert_eq!(none, r, "REF GC changed observable outputs");
    assert_eq!(none, dgc, "DGC changed observable outputs");
}

/// The full simulated tracker is bit-deterministic per seed, across both
/// cluster configurations.
#[test]
fn tracker_sim_is_deterministic() {
    for config in [TrackerConfigId::OneNode, TrackerConfigId::FiveNodes] {
        let run = || {
            let params = SimTrackerParams::new(AruConfig::aru_max(), config)
                .with_duration(Micros::from_secs(20))
                .with_seed(7);
            let r = tracker::app_sim::run_sim(&params);
            (
                r.trace.len(),
                r.outputs(),
                r.analyze().footprint.observed_summary().mean.to_bits(),
            )
        };
        assert_eq!(run(), run(), "config {config:?} not deterministic");
    }
}

/// The facade prelude exposes everything an application needs.
#[test]
fn prelude_is_sufficient_for_an_application() {
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Ref);
    let q = b.queue::<Vec<u8>>("q");
    let a = b.thread("a");
    let z = b.thread("z");
    let mut out = b.connect_queue_out(a, &q).unwrap();
    let mut inp = b.connect_queue_in(&q, z).unwrap();
    let mut ts = Timestamp::ZERO;
    b.spawn(a, move |ctx| {
        out.put(ctx, ts, vec![1, 2, 3])?;
        ts = ts.next();
        if ts.raw() > 20 {
            Ok(Step::Stop)
        } else {
            Ok(Step::Continue)
        }
    });
    b.spawn(z, move |ctx| {
        let item = inp.get(ctx)?;
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    let report = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(100))
        .unwrap();
    assert!(report.outputs() >= 20);
}
