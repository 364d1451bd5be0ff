//! Differential suite: the calendar-queue engine against the BinaryHeap
//! oracle (the PR 7/8 mutex-vs-lockfree pattern applied to the simulator).
//!
//! A calendar queue that mis-orders even one pair of same-timestamp events
//! changes which task wakes first, which item a get-latest returns, and
//! from there the entire downstream trace — so the strongest possible
//! check is also the cheapest to state: run the *same seeded scenario*
//! under both engines and require the reports to be byte-identical
//! (Debug-formatted trace event stream, output counts, skip counts,
//! dispatch counts, bit-exact footprint).

use aru_core::AruConfig;
use desim::{
    CostModel, EventQueue, EventQueueKind, FaultPlan, InputPolicy, NetModel, ServiceModel, Sim,
    SimBuilder, SimConfig, SimReport, SpeedDist, TaskSpec,
};
use proptest::prelude::*;
use vtime::{Micros, SimTime};

/// One scenario's knobs, drawn by proptest or pinned by the unit tests.
#[derive(Debug, Clone)]
struct Scenario {
    pipelines: usize,
    nodes: usize,
    aru: bool,
    noise: f64,
    seed: u64,
    fifo: bool,
    join: bool,
    crashes: usize,
    dist: SpeedDist,
    diurnal: bool,
    secs: u64,
}

fn build(sc: &Scenario) -> (SimBuilder, SimConfig) {
    let mut b = SimBuilder::new();
    let horizon = Micros::from_secs(sc.secs);
    let nodes = b.heterogeneous_nodes(sc.nodes, 4, &sc.dist, sc.seed);
    let mut faults = FaultPlan::none();
    for p in 0..sc.pipelines {
        let n_src = nodes[p % nodes.len()];
        let n_snk = nodes[(p + 1) % nodes.len()];
        let mut src_spec = TaskSpec::new(ServiceModel::new(
            Micros::from_millis(4 + (p as u64 % 3)),
            sc.noise,
        ));
        if sc.diurnal {
            src_spec = src_spec.with_diurnal_load(Micros::from_secs(1), 2.5, 8, horizon);
        }
        let src = b.task(format!("src{p}"), n_src, src_spec);
        // Channel on the consumer's node: every put crosses the link, so
        // in-flight ItemArrive events stress the queue's time ordering.
        let c = b.channel(format!("c{p}"), n_snk);
        b.output(src, c, 50_000).unwrap();
        let sink_policy = if sc.fifo {
            InputPolicy::FifoNext
        } else {
            InputPolicy::DriverLatest
        };
        if sc.join {
            let c2 = b.channel(format!("j{p}"), n_snk);
            b.output(src, c2, 8_000).unwrap();
            let snk = b.task(
                format!("snk{p}"),
                n_snk,
                TaskSpec::sink(ServiceModel::new(Micros::from_millis(17), sc.noise)),
            );
            b.input(snk, c, sink_policy).unwrap();
            b.input(snk, c2, InputPolicy::JoinLatestAtOrBefore).unwrap();
        } else {
            let snk = b.task(
                format!("snk{p}"),
                n_snk,
                TaskSpec::sink(ServiceModel::new(Micros::from_millis(13), sc.noise)),
            );
            b.input(snk, c, sink_policy).unwrap();
        }
        if sc.crashes > 0 {
            faults = faults.seeded_crashes(
                format!("snk{p}"),
                sc.crashes,
                Micros::from_millis(200),
                horizon,
                sc.seed ^ p as u64,
            );
        }
    }
    if sc.crashes > 0 {
        faults = faults.link_spike(Micros::from_millis(300), Micros::from_millis(900), 6.0);
    }
    let mut cfg = SimConfig::new(if sc.aru {
        AruConfig::aru_min()
    } else {
        AruConfig::disabled()
    });
    cfg.cost = CostModel::default();
    cfg.net = NetModel::default();
    cfg.duration = horizon;
    cfg.seed = sc.seed;
    cfg.faults = faults;
    (b, cfg)
}

fn run_with(sc: &Scenario, kind: EventQueueKind) -> SimReport {
    let (b, mut cfg) = build(sc);
    cfg.queue = kind;
    Sim::run(b, cfg).unwrap()
}

/// Byte-identical comparison of everything the engines observably produce.
/// (`Trace` stamps a wall-clock epoch at creation for export alignment;
/// the event stream itself — compared here — is purely virtual-time.)
fn assert_reports_identical(sc: &Scenario) {
    let heap = run_with(sc, EventQueueKind::BinaryHeap);
    let cal = run_with(sc, EventQueueKind::Calendar);
    assert_eq!(
        heap.events_dispatched, cal.events_dispatched,
        "dispatch counts diverged for {sc:?}"
    );
    assert_eq!(heap.peak_pending, cal.peak_pending, "peak pending diverged");
    assert_eq!(heap.skipped_iterations, cal.skipped_iterations);
    assert_eq!(heap.outputs(), cal.outputs());
    let ha = format!("{:?}", heap.trace.events());
    let ca = format!("{:?}", cal.trace.events());
    assert!(
        ha == ca,
        "trace event streams diverged for {sc:?} (heap {} bytes, calendar {} bytes)",
        ha.len(),
        ca.len()
    );
    let fh = heap.analyze().footprint.observed_summary();
    let fc = cal.analyze().footprint.observed_summary();
    assert_eq!(
        fh.mean.to_bits(),
        fc.mean.to_bits(),
        "footprint not bit-exact"
    );
}

#[test]
fn tracker_like_pipeline_reports_are_byte_identical() {
    assert_reports_identical(&Scenario {
        pipelines: 3,
        nodes: 3,
        aru: true,
        noise: 0.2,
        seed: 0xA205,
        fifo: false,
        join: true,
        crashes: 2,
        dist: SpeedDist::Classes(vec![(0.5, 1.0), (0.3, 1.6), (0.2, 0.7)]),
        diurnal: true,
        secs: 4,
    });
}

/// Many identical tasks all wake at `t = 0`, and — with fixed equal
/// service times on one homogeneous node — keep colliding on the same
/// timestamps forever after. Only the `(time, seq)` tie-break keeps the
/// two engines in lockstep.
#[test]
fn same_timestamp_storm_ties_break_identically() {
    assert_reports_identical(&Scenario {
        pipelines: 8,
        nodes: 1,
        aru: false,
        noise: 0.0,
        seed: 7,
        fifo: false,
        join: false,
        crashes: 0,
        dist: SpeedDist::Homogeneous,
        diurnal: false,
        secs: 2,
    });
}

#[test]
fn fifo_backpressure_reports_are_byte_identical() {
    assert_reports_identical(&Scenario {
        pipelines: 2,
        nodes: 2,
        aru: true,
        noise: 0.1,
        seed: 99,
        fifo: true,
        join: false,
        crashes: 1,
        dist: SpeedDist::Uniform { min: 0.6, max: 1.8 },
        diurnal: false,
        secs: 3,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    // Seeded-scenario sweep: random topology sizes, policies, noise,
    // heterogeneity, load shape, and fault schedules — every draw must
    // produce byte-identical reports across both engines.
    #[test]
    fn seeded_scenarios_produce_byte_identical_reports(
        pipelines in 1usize..5,
        nodes in 1usize..4,
        aru in any::<bool>(),
        noise_i in 0usize..3,
        seed in 0u64..1_000_000,
        fifo in any::<bool>(),
        join in any::<bool>(),
        crashes in 0usize..3,
        hetero in any::<bool>(),
        diurnal in any::<bool>(),
    ) {
        let dist = if hetero {
            SpeedDist::Uniform { min: 0.5, max: 2.0 }
        } else {
            SpeedDist::Homogeneous
        };
        let noise = [0.0, 0.15, 0.3][noise_i];
        assert_reports_identical(&Scenario {
            pipelines, nodes, aru, noise, seed, fifo, join, crashes,
            dist, diurnal,
            secs: 1,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    // Queue-level differential: arbitrary push/pop interleavings (times in
    // a mix of near and far ranges to cross bucket years and resizes) pop
    // in exactly the heap's order.
    #[test]
    fn queue_pop_order_matches_heap(
        ops in prop::collection::vec((any::<bool>(), 0u64..50_000u64), 1..400),
    ) {
        let mut cal = EventQueue::new(EventQueueKind::Calendar);
        let mut heap = EventQueue::new(EventQueueKind::BinaryHeap);
        let mut seq = 0u64;
        let mut floor = 0u64; // engine invariant: never schedule in the past
        for (push, dt) in ops {
            if push || cal.is_empty() {
                seq += 1;
                let t = SimTime(floor + dt);
                cal.push(t, seq, ());
                heap.push(t, seq, ());
            } else {
                let a = cal.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                if let Some((t, _, ())) = a {
                    floor = t.0;
                }
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
