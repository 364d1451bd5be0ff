//! `Direct` byte-equivalence: with the default control law, the controller's
//! pacing decisions are identical — summary for summary, sleep for sleep —
//! to the pre-law pipeline that wrote the filtered summary-STP straight into
//! the pacer.
//!
//! The oracle below is a literal replica of that pre-law data path
//! (backward vector → compress → thread summary → filter → pacer, plus the
//! staleness decay guardrail). Both sides are driven in lockstep through
//! long scripted pseudo-random schedules of feedback and iterations; every
//! iteration must produce the same `(summary, sleep, stale)` triple.

use aru_core::{
    summary_for_thread, AruConfig, AruController, BackwardStpVec, CompressOp, Filter, FilterSpec,
    NodeKind, Pacer, Stp, StpMeter,
};
use vtime::{Micros, SimTime};

/// The pre-law controller data path for a paced source thread.
struct Oracle {
    backward: BackwardStpVec,
    compress: CompressOp,
    filter: Filter,
    meter: StpMeter,
    pacer: Pacer,
    cached: Option<Stp>,
    staleness: Option<Micros>,
    last_feedback: Option<SimTime>,
}

impl Oracle {
    fn new(cfg: &AruConfig, n_outputs: usize) -> Self {
        Oracle {
            backward: BackwardStpVec::new(n_outputs),
            compress: cfg.compress.clone(),
            filter: Filter::new(cfg.filter),
            meter: StpMeter::new(),
            pacer: Pacer::new(),
            cached: None,
            staleness: cfg.staleness,
            last_feedback: None,
        }
    }

    fn recompute(&mut self) {
        let compressed = self.backward.compressed(&self.compress);
        let raw = summary_for_thread(compressed, self.meter.current());
        self.cached = raw.map(|s| self.filter.apply(s));
        self.pacer.set_target(self.cached);
    }

    fn receive_feedback_at(&mut self, out_index: usize, stp: Stp, now: SimTime) {
        self.backward.update(out_index, stp);
        self.recompute();
        self.last_feedback = Some(now);
    }

    fn feedback_is_stale(&self, now: SimTime) -> bool {
        match (self.staleness, self.last_feedback) {
            (Some(horizon), Some(last)) => now.since(last) > horizon,
            _ => false,
        }
    }

    /// Replica of the pre-law `iteration_end`, returning (summary, sleep,
    /// stale).
    fn iteration(&mut self, t0: SimTime, t1: SimTime) -> (Option<Stp>, Micros, bool) {
        self.meter.iteration_begin(t0);
        let current = self.meter.iteration_end(t1);
        self.recompute();
        let mut stale = false;
        if self.feedback_is_stale(t1) {
            stale = true;
            // Pre-law staleness decay, verbatim.
            if let ((Some(horizon), Some(last)), Some(summary)) =
                ((self.staleness, self.last_feedback), self.cached)
            {
                let over = t1.since(last).saturating_sub(horizon);
                let w = if horizon.is_zero() {
                    1.0
                } else {
                    (over.as_micros() as f64 / horizon.as_micros() as f64).min(1.0)
                };
                let s = summary.as_micros() as f64;
                let own = current.as_micros() as f64;
                let decayed = Stp::from_micros((s + (own - s) * w).round() as u64);
                self.cached = Some(decayed);
                self.pacer
                    .set_target(if w >= 1.0 { None } else { Some(decayed) });
            }
        }
        (self.cached, self.pacer.sleep_until_release(t1), stale)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Drive controller and oracle through the same schedule and compare every
/// pacing decision.
fn run_lockstep(cfg: AruConfig, seed: u64, iters: usize) {
    const OUTPUTS: usize = 3;
    let mut c = AruController::new(NodeKind::Thread, OUTPUTS, true, &cfg);
    let mut o = Oracle::new(&cfg, OUTPUTS);
    let mut rng = seed;
    let mut now = SimTime(0);
    for i in 0..iters {
        // A burst of 0–3 feedback deliveries between iterations; every few
        // hundred iterations a long silent gap exercises the staleness path.
        let gap = if splitmix64(&mut rng).is_multiple_of(211) {
            Micros(50_000 + splitmix64(&mut rng) % 100_000)
        } else {
            Micros(splitmix64(&mut rng) % 500)
        };
        now = now + gap;
        for _ in 0..(splitmix64(&mut rng) % 4) {
            let slot = (splitmix64(&mut rng) as usize) % OUTPUTS;
            let stp = Stp::from_micros(100 + splitmix64(&mut rng) % 20_000);
            c.receive_feedback_at(slot, stp, now);
            o.receive_feedback_at(slot, stp, now);
        }
        let t0 = now;
        let busy = Micros(50 + splitmix64(&mut rng) % 2_000);
        now = now + busy;
        let out = c.iteration_end_pair(t0, now);
        let want = o.iteration(t0, now);
        assert_eq!(
            (out.summary, out.sleep, out.stale),
            want,
            "decision diverged at iteration {i} (seed {seed})"
        );
        assert!(!out.clamped, "direct never clamps");
        // The thread then sleeps what it was told to.
        now = now + out.sleep;
    }
}

trait IterPair {
    fn iteration_end_pair(&mut self, t0: SimTime, t1: SimTime) -> aru_core::IterationOutcome;
}

impl IterPair for AruController {
    fn iteration_end_pair(&mut self, t0: SimTime, t1: SimTime) -> aru_core::IterationOutcome {
        self.iteration_begin(t0);
        self.iteration_end(t1)
    }
}

#[test]
fn direct_matches_pre_law_pipeline() {
    for seed in [1, 2005, 0xdead_beef] {
        run_lockstep(AruConfig::aru_min(), seed, 2_000);
    }
}

#[test]
fn direct_matches_pre_law_pipeline_with_staleness() {
    for seed in [7, 2005] {
        let cfg = AruConfig::aru_min().with_staleness(Micros(5_000));
        run_lockstep(cfg, seed, 2_000);
    }
}

#[test]
fn direct_matches_pre_law_pipeline_with_filter_and_max() {
    for seed in [11, 42] {
        let cfg = AruConfig::aru_max().with_filter(FilterSpec::Ewma(0.3));
        run_lockstep(cfg, seed, 2_000);
        let cfg = AruConfig::aru_min().with_filter(FilterSpec::Median(5));
        run_lockstep(cfg, seed, 2_000);
    }
}
