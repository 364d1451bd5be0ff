//! Closed-loop behaviour of the ARU feedback controller.
//!
//! The paper's §3.3.2 raises the control-theoretic questions — reaction
//! time ("the worst case propagation time … is equal to the latency"),
//! noise-induced oscillation, and the stabilizing effect of filters — but
//! answers them only qualitatively. The test support below is a minimal
//! pure closed-loop simulation (a producer paced by the summary-STP of one
//! consumer) with settle-time/overshoot/ripple readings, so those claims
//! are pinned without spinning up a runtime. (Settle and overshoot of real
//! runs are computed in `aru_metrics::stability`.)

use aru_core::{AruConfig, AruController, FilterSpec, NodeKind, Stp};
use vtime::{Micros, SimTime};

/// Parameters of the closed feedback loop.
#[derive(Debug, Clone)]
struct LoopParams {
    /// Producer's own compute time per item.
    producer_work: Micros,
    /// Consumer period over time: `consumer_period(iteration)` — step
    /// functions model load changes, noise models OS variance.
    consumer_periods: Vec<Micros>,
    /// ARU configuration under test (filters, compression).
    config: AruConfig,
}

/// The trace of one closed-loop simulation.
#[derive(Debug, Clone)]
struct LoopTrace {
    /// The producer's achieved inter-production period per iteration.
    periods: Vec<Micros>,
}

/// Simulate the loop: each round the consumer reports its period as a
/// summary-STP, the producer folds it in, finishes an iteration, and the
/// pacer determines the next release. One round ≈ one consumer iteration
/// (the paper's one-hop-per-operation propagation collapses to unit delay
/// in this two-node loop).
fn simulate_loop(params: &LoopParams) -> LoopTrace {
    let mut producer = AruController::new(NodeKind::Thread, 1, true, &params.config);
    let mut consumer_chan = AruController::new(NodeKind::Channel, 1, false, &params.config);
    let mut now = SimTime::ZERO;
    let mut last_production: Option<SimTime> = None;
    let mut periods = Vec::with_capacity(params.consumer_periods.len());

    for &consumer_period in &params.consumer_periods {
        // Consumer deposits its summary into the channel (get piggyback)…
        let summary = consumer_chan
            .receive_feedback(0, Stp(consumer_period))
            .unwrap_or(Stp(consumer_period));
        // …which the producer receives on its next put.
        producer.receive_feedback(0, summary);
        // Producer iteration: work, then periodicity_sync + pacing sleep.
        producer.iteration_begin(now);
        now = now + params.producer_work;
        let outcome = producer.iteration_end(now);
        if let Some(prev) = last_production {
            periods.push(now.since(prev));
        }
        last_production = Some(now);
        now = now + outcome.sleep;
    }
    LoopTrace { periods }
}

impl LoopTrace {
    /// Iterations until the achieved period stays within `tol` (relative)
    /// of `target` for the rest of the trace. `None` if it never settles.
    fn settle_iteration(&self, target: Micros, tol: f64) -> Option<usize> {
        let t = target.as_micros() as f64;
        let within = |p: Micros| ((p.as_micros() as f64) - t).abs() <= tol * t;
        let mut candidate = None;
        for (i, &p) in self.periods.iter().enumerate() {
            if within(p) {
                candidate.get_or_insert(i);
            } else {
                candidate = None;
            }
        }
        candidate
    }

    /// Maximum achieved period as a fraction of the target (overshoot > 1
    /// means the producer transiently ran slower than asked).
    fn overshoot(&self, target: Micros, from: usize) -> f64 {
        let t = target.as_micros() as f64;
        self.periods
            .iter()
            .skip(from)
            .map(|p| p.as_micros() as f64 / t)
            .fold(0.0, f64::max)
    }

    /// Standard deviation of the achieved period over the tail (steady
    /// state) — the production-rate ripple the paper attributes to
    /// summary-STP noise.
    fn ripple(&self, from: usize) -> f64 {
        let tail: Vec<f64> = self
            .periods
            .iter()
            .skip(from)
            .map(|p| p.as_micros() as f64)
            .collect();
        if tail.is_empty() {
            return 0.0;
        }
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        (tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / tail.len() as f64).sqrt()
    }
}

fn constant(ms: u64, n: usize) -> Vec<Micros> {
    vec![Micros::from_millis(ms); n]
}

#[test]
fn loop_settles_to_constant_consumer_in_one_round() {
    let params = LoopParams {
        producer_work: Micros::from_millis(1),
        consumer_periods: constant(50, 30),
        config: AruConfig::aru_min(),
    };
    let trace = simulate_loop(&params);
    let settle = trace
        .settle_iteration(Micros::from_millis(50), 0.02)
        .expect("must settle");
    assert!(settle <= 2, "settled at iteration {settle}");
    assert!(trace.overshoot(Micros::from_millis(50), settle) <= 1.02);
}

#[test]
fn loop_tracks_step_change() {
    // consumer slows 20 ms → 80 ms at iteration 20
    let mut periods = constant(20, 20);
    periods.extend(constant(80, 20));
    let params = LoopParams {
        producer_work: Micros::from_millis(1),
        consumer_periods: periods,
        config: AruConfig::aru_min(),
    };
    let trace = simulate_loop(&params);
    // Before the step: ~20 ms; after: ~80 ms within a couple rounds.
    assert!(trace.periods[10].as_micros().abs_diff(20_000) < 1000);
    let tail = &trace.periods[23..];
    for p in tail {
        assert!(
            p.as_micros().abs_diff(80_000) < 2000,
            "tail period {p} not tracking 80ms"
        );
    }
}

#[test]
fn noisy_consumer_creates_ripple_filters_reduce_it() {
    // alternate 30/70 ms — worst-case oscillating feedback
    let noisy: Vec<Micros> = (0..60)
        .map(|i| Micros::from_millis(if i % 2 == 0 { 30 } else { 70 }))
        .collect();
    let ripple_of = |filter: FilterSpec| {
        let params = LoopParams {
            producer_work: Micros::from_millis(1),
            consumer_periods: noisy.clone(),
            config: AruConfig::aru_min().with_filter(filter),
        };
        simulate_loop(&params).ripple(10)
    };
    let raw = ripple_of(FilterSpec::Identity);
    let ewma = ripple_of(FilterSpec::Ewma(0.2));
    assert!(raw > 0.0, "oscillating input must create ripple");
    assert!(
        ewma < raw / 2.0,
        "EWMA ripple {ewma:.0} should be well below identity {raw:.0}"
    );
}

#[test]
fn producer_never_runs_faster_than_its_own_work() {
    let params = LoopParams {
        producer_work: Micros::from_millis(40),
        consumer_periods: constant(10, 20), // consumer faster than producer
        config: AruConfig::aru_min(),
    };
    let trace = simulate_loop(&params);
    for p in &trace.periods {
        assert!(p.as_micros() >= 40_000, "period {p} below compute time");
    }
}

#[test]
fn disabled_config_runs_at_compute_speed() {
    let params = LoopParams {
        producer_work: Micros::from_millis(5),
        consumer_periods: constant(100, 10),
        config: AruConfig::disabled(),
    };
    let trace = simulate_loop(&params);
    for p in &trace.periods {
        assert_eq!(p.as_micros(), 5_000, "unthrottled period");
    }
}
