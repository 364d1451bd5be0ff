//! Chaos acceptance tests: crash the Motion-Mask stage (change detection)
//! mid-run and verify the ARU-min feedback loop re-converges, under every
//! control law.
//!
//! The paper's mechanism has no persistent state outside the channels, so a
//! crashed-and-restarted task should pull the whole loop back to the same
//! operating point: the digitizer's paced production period after recovery
//! must match its pre-fault steady state within 10%.

use aru_core::{AruConfig, ControllerConfig, RetryPolicy};
use aru_metrics::TraceEvent;
use desim::FaultPlan;
use tracker::app_sim::{run_sim, SimTrackerParams, TrackerConfigId};
use vtime::Micros;

/// Every control law (DESIGN.md §13), for the law × scenario matrix below.
fn all_laws() -> Vec<ControllerConfig> {
    vec![
        ControllerConfig::Direct,
        ControllerConfig::Pid,
        ControllerConfig::Hysteresis,
    ]
}

/// Mean gap between consecutive iteration-ends of `task` inside `[lo, hi)`
/// microseconds — the task's observed production period in that window.
fn mean_period(r: &desim::SimReport, task: &str, lo: u64, hi: u64) -> f64 {
    let node = tracker::graph::node(&r.topo, task);
    let ends: Vec<u64> = r
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::IterEnd { t, iter, .. } if iter.node == node => Some(t.as_micros()),
            _ => None,
        })
        .filter(|&t| (lo..hi).contains(&t))
        .collect();
    assert!(
        ends.len() > 2,
        "{task} produced in [{lo},{hi}): {}",
        ends.len()
    );
    (ends[ends.len() - 1] - ends[0]) as f64 / (ends.len() - 1) as f64
}

/// Law × crash matrix: whatever shapes the pacing target — Direct (the
/// paper's ARU-min), PID tracking, hysteresis dead-band — the loop must
/// pull the digitizer back to within 10% of its pre-fault operating point
/// after the change-detection stage crashes and restarts, and the crash must
/// not freeze the pipeline.
#[test]
fn every_law_reconverges_after_change_detection_crash() {
    for law in all_laws() {
        let label = law.label();
        let crash_at = Micros::from_secs(60);
        let cfg = AruConfig::aru_min().with_control(law);
        let params = SimTrackerParams::new(cfg, TrackerConfigId::OneNode)
            .with_duration(Micros::from_secs(120))
            .with_seed(2005)
            .with_faults(FaultPlan::none().crash("change-detection", crash_at))
            .with_retry(RetryPolicy::constant(3, Micros::from_millis(500)));
        let r = run_sim(&params);

        let faults = r.analyze().faults;
        assert_eq!(faults.crashes, 1, "[{label}] {faults}");
        assert_eq!(faults.restarts, 1, "[{label}] {faults}");

        // Digitizer pacing period: pre-fault steady state [30s, 60s) vs the
        // last 30 s of the run, well after the 500 ms restart backoff.
        let before = mean_period(&r, "digitizer", 30_000_000, 60_000_000);
        let after = mean_period(&r, "digitizer", 90_000_000, 120_000_000);
        let drift = (after - before).abs() / before;
        assert!(
            drift < 0.10,
            "[{label}] source pacing re-converged: before {before:.0}us, \
             after {after:.0}us ({:.1}% drift)",
            drift * 100.0
        );
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
            last_out > 110_000_000,
            "[{label}] pipeline alive to the end: {last_out}"
        );
        // The law actually ran: decisions were recorded for the digitizer.
        let decisions = r
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::PaceDecision { .. }))
            .count();
        assert!(decisions > 0, "[{label}] pacing decisions recorded");
    }
}

/// Law × staleness matrix: when the feedback path dies for good, every law
/// must decay to un-paced — the guardrail shapes the pacing target, it must
/// never pin the source to a stale one. The digitizer's period after the
/// staleness horizon expires must fall back toward its natural (busy-bound)
/// rate, well below the paced steady state.
#[test]
fn every_law_falls_back_to_unpaced_on_staleness() {
    for law in all_laws() {
        let label = law.label();
        let cfg = AruConfig::aru_min()
            .with_control(law)
            .with_staleness(Micros::from_secs(2));
        // Feedback to the digitizer dies at t=30s and never recovers.
        let params = SimTrackerParams::new(cfg, TrackerConfigId::OneNode)
            .with_duration(Micros::from_secs(60))
            .with_seed(2005)
            .with_faults(FaultPlan::none().drop_summaries(
                "digitizer",
                Micros::from_secs(30),
                Micros::from_secs(60),
            ));
        let r = run_sim(&params);

        let paced = mean_period(&r, "digitizer", 15_000_000, 30_000_000);
        let revved = mean_period(&r, "digitizer", 45_000_000, 60_000_000);
        assert!(
            revved < paced * 0.5,
            "[{label}] stale feedback released the pacer: paced {paced:.0}us, \
             after staleness {revved:.0}us"
        );
        let stale = r
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::StaleSummary { .. }))
            .count();
        assert!(stale > 0, "[{label}] staleness was detected");
    }
}

/// The same crash with no restart budget starves the pipeline: the GUI's
/// driver channel (C6, fed through change detection) dries up, so this is
/// the control run proving the supervisor — not luck — keeps it alive above.
#[test]
fn without_retries_the_pipeline_starves() {
    let params = SimTrackerParams::new(AruConfig::aru_min(), TrackerConfigId::OneNode)
        .with_duration(Micros::from_secs(60))
        .with_seed(2005)
        .with_faults(FaultPlan::none().crash("change-detection", Micros::from_secs(20)))
        .with_retry(RetryPolicy::none());
    let r = run_sim(&params);
    let faults = r.analyze().faults;
    assert_eq!(faults.crashes, 1, "{faults}");
    assert_eq!(faults.restarts, 0, "{faults}");
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
    // Residual in-flight items drain shortly after the crash; nothing new
    // reaches the sink for the rest of the run.
    assert!(
        last_out < 40_000_000,
        "dead change-detection starves the sink: last output at {last_out}"
    );
}
