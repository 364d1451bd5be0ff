//! Fault-injection tests: crashes, restarts, stalls, feedback-drop windows
//! and link spikes, all deterministic under a fixed seed.

use aru_core::{AruConfig, RetryPolicy};
use aru_metrics::TraceEvent;
use desim::builder::SimBuildError;
use desim::{
    CostModel, Fault, FaultPlan, InputPolicy, NetModel, ServiceModel, Sim, SimBuilder, SimConfig,
    SimReport, TaskSpec,
};
use proptest::prelude::*;
use vtime::{Micros, SimTime};

/// src(2ms) -> c -> snk(20ms), ARU-min: the canonical paced pipeline.
fn paced_pipeline(cfg_mut: impl FnOnce(&mut SimConfig)) -> SimReport {
    try_paced_pipeline(cfg_mut).unwrap()
}

fn try_paced_pipeline(cfg_mut: impl FnOnce(&mut SimConfig)) -> Result<SimReport, SimBuildError> {
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
    let mut cfg = SimConfig::new(AruConfig::aru_min());
    cfg.cost = CostModel::ideal();
    cfg.duration = Micros::from_secs(20);
    cfg_mut(&mut cfg);
    Sim::run(b, cfg)
}

fn alloc_times(r: &SimReport) -> Vec<u64> {
    r.trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Alloc { t, .. } => Some(t.as_micros()),
            _ => None,
        })
        .collect()
}

#[test]
fn crashes_are_counted_and_recovered() {
    let plan = FaultPlan::none()
        .crash("snk", Micros::from_secs(5))
        .crash("snk", Micros::from_secs(10));
    let r = paced_pipeline(|cfg| {
        cfg.faults = plan;
        cfg.retry = RetryPolicy::constant(5, Micros::from_millis(50));
    });
    let f = r.analyze().faults;
    assert_eq!(f.crashes, 2, "{f}");
    assert_eq!(f.restarts, 2, "{f}");
    // The pipeline keeps producing after both recoveries.
    let last = *alloc_times(&r).last().unwrap();
    assert!(
        last > 15_000_000,
        "production resumed after restarts: {last}"
    );
}

#[test]
fn fault_runs_are_deterministic() {
    let run = || {
        paced_pipeline(|cfg| {
            cfg.faults = FaultPlan::none()
                .seeded_crashes("snk", 3, Micros::from_secs(2), Micros::from_secs(18), 42)
                .stall("snk", Micros::from_secs(1), Micros::from_millis(200));
            cfg.retry = RetryPolicy::exponential(5, Micros::from_millis(10), Micros::from_secs(1))
                .with_seed(7)
                .with_jitter(0.2);
        })
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.trace.events().len(),
        b.trace.events().len(),
        "identical event counts"
    );
    assert_eq!(
        a.analyze().faults,
        b.analyze().faults,
        "identical fault reports"
    );
    assert_eq!(
        alloc_times(&a),
        alloc_times(&b),
        "identical alloc schedules"
    );
}

#[test]
fn exhausted_retry_budget_kills_the_task_forever() {
    let r = paced_pipeline(|cfg| {
        cfg.faults = FaultPlan::none().crash("snk", Micros::from_secs(5));
        cfg.retry = RetryPolicy::none();
    });
    let f = r.analyze().faults;
    assert_eq!(f.crashes, 1, "{f}");
    assert_eq!(f.restarts, 0, "no restart budget: {f}");
    // No sink outputs after the crash instant.
    let last_out = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SinkOutput { t, .. } => Some(t.as_micros()),
            _ => None,
        })
        .max()
        .unwrap();
    assert!(
        last_out <= 5_000_000,
        "sink died at 5s, last output {last_out}"
    );
}

#[test]
fn stall_delays_without_crashing() {
    let baseline = paced_pipeline(|_| {});
    let stalled = paced_pipeline(|cfg| {
        cfg.faults = FaultPlan::none().stall("snk", Micros::from_secs(5), Micros::from_secs(2));
    });
    let f = stalled.analyze().faults;
    assert_eq!(f.crashes, 0, "a stall is not a crash: {f}");
    let outs = |r: &SimReport| r.outputs();
    assert!(
        outs(&stalled) < outs(&baseline),
        "2s stall costs throughput: {} !< {}",
        outs(&stalled),
        outs(&baseline)
    );
}

#[test]
fn link_spike_slows_remote_pipeline() {
    // Two nodes with a real link: src on n0, sink on n1 consuming remotely.
    let run = |faults: FaultPlan| {
        let mut b = SimBuilder::new();
        let n0 = b.node(8);
        let n1 = b.node(8);
        let c = b.channel("c", n0);
        let src = b.source("src", n0, ServiceModel::fixed(Micros::from_millis(5)));
        let snk = b.task(
            "snk",
            n1,
            TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(5))),
        );
        b.output(src, c, 1_000_000).unwrap();
        b.input(snk, c, InputPolicy::DriverLatest).unwrap();
        let mut cfg = SimConfig::new(AruConfig::disabled());
        cfg.cost = CostModel::ideal();
        cfg.net = NetModel::default();
        cfg.duration = Micros::from_secs(10);
        cfg.faults = faults;
        Sim::run(b, cfg).unwrap()
    };
    let clean = run(FaultPlan::none());
    let spiked = run(FaultPlan::none().link_spike(Micros::ZERO, Micros::from_secs(10), 20.0));
    assert!(
        spiked.outputs() < clean.outputs(),
        "20x slower link costs throughput: {} !< {}",
        spiked.outputs(),
        clean.outputs()
    );
}

/// The acceptance property for feedback loss: when every summary to the
/// source is dropped past the staleness horizon, the source falls back to
/// un-paced production (its own service period) instead of freezing on the
/// last pacing target.
#[test]
fn dropped_summaries_decay_to_unpaced_production() {
    let drop_from = 8_000_000u64;
    let drop_until = 16_000_000u64;
    let r = paced_pipeline(|cfg| {
        cfg.aru = AruConfig::aru_min().with_staleness(Micros::from_millis(500));
        cfg.faults = FaultPlan::none().drop_summaries("src", Micros(drop_from), Micros(drop_until));
    });
    let f = r.analyze().faults;
    assert!(f.summaries_dropped > 0, "drop window saw traffic: {f}");
    assert!(f.stale_iterations > 0, "source noticed the staleness: {f}");

    let allocs = alloc_times(&r);
    // Paced steady state before the window: ~20ms per item.
    let before: usize = allocs
        .iter()
        .filter(|&&t| (4_000_000..drop_from).contains(&t))
        .count();
    // Deep inside the window (after the 500ms horizon has expired): the
    // source should approach its own 2ms period — far faster than paced.
    let during: usize = allocs
        .iter()
        .filter(|&&t| (10_000_000..drop_until).contains(&t))
        .count();
    let before_rate = before as f64 / 4.0; // items per second
    let during_rate = during as f64 / 6.0;
    assert!(
        during_rate > before_rate * 3.0,
        "stale source reverts toward unpaced: before {before_rate}/s, during {during_rate}/s"
    );
    // And it re-paces once feedback returns.
    let after: usize = allocs.iter().filter(|&&t| t >= 17_000_000).count();
    let after_rate = after as f64 / 3.0;
    assert!(
        after_rate < during_rate / 2.0,
        "pacing resumes when feedback returns: during {during_rate}/s, after {after_rate}/s"
    );
}

/// A DGC pass period of zero would reschedule the pass at the same instant
/// forever: the run must be refused, not started. (Any other GC mode never
/// schedules a pass, so the value is not looked at.)
#[test]
fn zero_dgc_interval_is_rejected_under_dgc_only() {
    let run = |gc| {
        try_paced_pipeline(|cfg| {
            cfg.gc = gc;
            cfg.dgc_interval = Micros::ZERO;
            cfg.duration = Micros::from_millis(50);
        })
    };
    let err = run(aru_gc::GcMode::Dgc).map(|r| r.outputs()).unwrap_err();
    assert_eq!(err, SimBuildError::ZeroDgcInterval);
    assert!(err.to_string().contains("dgc_interval"), "{err}");
    assert!(run(aru_gc::GcMode::Ref).unwrap().outputs() > 0);
}

/// Tasks of the run the random plans are resolved against: "a" is carried
/// by two tasks, and no task is called "ghost".
const TASKS: [&str; 4] = ["a", "b", "a", "c"];
const NAMES: [&str; 4] = ["a", "b", "c", "ghost"];

/// Raw material of one fault: kind, name, window start, window length
/// (0 = empty window), spike factor in quarters.
type RawFault = (u8, usize, u64, u64, u8);

fn plan_of(raw: &[RawFault]) -> FaultPlan {
    raw.iter().fold(
        FaultPlan::none(),
        |p, &(kind, name, from, len, quarters)| {
            let (name, from, until) = (NAMES[name], Micros(from), Micros(from + len));
            match kind {
                0 => p.crash(name, from),
                1 => p.stall(name, from, Micros(len)),
                2 => p.drop_summaries(name, from, until),
                _ => p.link_spike(from, until, f64::from(quarters) / 4.0),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The plan the engine indexes (`FaultPlan::resolve`) against the plan
    /// as written (`drops_summaries_for` / `link_factor`, which scan it):
    /// same answer for every task at every instant, bit for bit for the
    /// link factor (overlapping spikes multiply in plan order). A drop
    /// window reaches every task carrying its name; a crash or stall
    /// resolves to the first; a name no task carries resolves to nothing.
    #[test]
    fn resolved_plan_answers_like_the_scanning_plan(
        raw in prop::collection::vec((0u8..4, 0usize..4, 0u64..1000, 0u64..400, 1u8..40), 0..24),
        times in prop::collection::vec(0u64..1500, 1..40),
    ) {
        let plan = plan_of(&raw);
        let resolved = plan.resolve(TASKS);
        for &t in &times {
            let now = SimTime(t);
            for (i, name) in TASKS.iter().enumerate() {
                prop_assert_eq!(
                    resolved.drops_summaries_for(i, now),
                    plan.drops_summaries_for(name, now),
                    "task {} ({}) at {}", i, name, t
                );
            }
            prop_assert!(!resolved.drops_summaries_for(TASKS.len(), now));
            prop_assert_eq!(
                resolved.link_factor(now).to_bits(),
                plan.link_factor(now).to_bits(),
                "link factor at {}", t
            );
        }
        for (i, f) in plan.faults.iter().enumerate() {
            let want = match f {
                Fault::Crash { task, .. }
                | Fault::Stall { task, .. }
                | Fault::DropSummaries { task, .. } => TASKS.iter().position(|n| n == task),
                Fault::LinkSpike { .. } => None,
            };
            prop_assert_eq!(resolved.target(i), want, "fault {}: {:?}", i, f);
        }
        prop_assert_eq!(resolved.target(plan.faults.len()), None);
    }
}
