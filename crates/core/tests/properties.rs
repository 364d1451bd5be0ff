//! Property-based tests for the ARU core algorithms.

use aru_core::{
    summary_for_thread, AruConfig, AruController, BackwardStpVec, CompressOp, Filter, FilterSpec,
    NodeKind, Pacer, Stp, StpMeter,
};
use proptest::prelude::*;
use vtime::{Micros, SimTime};

fn stp_vec() -> impl Strategy<Value = Vec<Stp>> {
    prop::collection::vec((1u64..10_000_000).prop_map(Stp::from_micros), 1..16)
}

proptest! {
    /// min-compress is a lower bound, max-compress an upper bound, and both
    /// select an element of the input.
    #[test]
    fn compress_min_max_bounds(v in stp_vec()) {
        let lo = CompressOp::Min.compress(&v).unwrap();
        let hi = CompressOp::Max.compress(&v).unwrap();
        prop_assert!(lo <= hi);
        prop_assert!(v.contains(&lo));
        prop_assert!(v.contains(&hi));
        for &x in &v {
            prop_assert!(lo <= x && x <= hi);
        }
    }

    /// mean-compress lies between min and max.
    #[test]
    fn compress_mean_between(v in stp_vec()) {
        let lo = CompressOp::Min.compress(&v).unwrap();
        let hi = CompressOp::Max.compress(&v).unwrap();
        let mean = CompressOp::mean().compress(&v).unwrap();
        prop_assert!(lo <= mean && mean <= hi);
    }

    /// kth_smallest is monotone in k and spans [min, max].
    #[test]
    fn compress_kth_monotone(v in stp_vec()) {
        let n = v.len();
        let mut prev = CompressOp::kth_smallest(0).compress(&v).unwrap();
        prop_assert_eq!(prev, CompressOp::Min.compress(&v).unwrap());
        for k in 1..n + 2 {
            let cur = CompressOp::kth_smallest(k).compress(&v).unwrap();
            prop_assert!(cur >= prev);
            prev = cur;
        }
        prop_assert_eq!(prev, CompressOp::Max.compress(&v).unwrap());
    }

    /// Thread summary dominates both of its inputs and equals one of them.
    #[test]
    fn thread_summary_is_max(c in 0u64..10_000_000, s in 0u64..10_000_000) {
        let c = Stp::from_micros(c);
        let s = Stp::from_micros(s);
        let out = summary_for_thread(Some(c), Some(s)).unwrap();
        prop_assert!(out >= c && out >= s);
        prop_assert!(out == c || out == s);
    }

    /// The backward vector compressed with Min equals the running minimum of
    /// the *latest* value per slot, regardless of update order.
    #[test]
    fn backward_vec_latest_semantics(
        updates in prop::collection::vec((0usize..6, 1u64..1_000_000), 1..64)
    ) {
        let mut bv = BackwardStpVec::new(6);
        let mut latest: [Option<u64>; 6] = [None; 6];
        for &(slot, val) in &updates {
            bv.update(slot, Stp::from_micros(val));
            latest[slot] = Some(val);
        }
        let want_min = latest.iter().flatten().min().copied().map(Stp::from_micros);
        let want_max = latest.iter().flatten().max().copied().map(Stp::from_micros);
        prop_assert_eq!(bv.compressed(&CompressOp::Min), want_min);
        prop_assert_eq!(bv.compressed(&CompressOp::Max), want_max);
    }

    /// STP meter invariant: busy + blocked == wall for every iteration
    /// pattern, and total counters accumulate consistently.
    #[test]
    fn stp_meter_partitions_time(
        segments in prop::collection::vec((1u64..1000, 0u64..1000), 1..20)
    ) {
        let mut m = StpMeter::new();
        let mut now = 0u64;
        let mut want_busy = 0u64;
        let mut want_blocked = 0u64;
        for &(busy, blocked) in &segments {
            m.iteration_begin(SimTime(now));
            now += busy / 2;
            if blocked > 0 {
                m.block_begin(SimTime(now));
                now += blocked;
                m.block_end(SimTime(now));
            }
            now += busy - busy / 2;
            let stp = m.iteration_end(SimTime(now));
            prop_assert_eq!(stp.as_micros(), busy);
            want_busy += busy;
            want_blocked += blocked;
        }
        prop_assert_eq!(m.total_busy(), Micros(want_busy));
        prop_assert_eq!(m.total_blocked(), Micros(want_blocked));
        prop_assert_eq!(m.iterations(), segments.len() as u64);
    }

    /// Pacing safety: a paced loop never produces faster than the target
    /// (inter-completion gaps >= target when work <= target), and never
    /// sleeps more than one period.
    #[test]
    fn pacer_respects_target(
        target in 100u64..10_000,
        works in prop::collection::vec(1u64..100_000, 2..50)
    ) {
        let mut p = Pacer::new();
        p.set_target(Some(Stp::from_micros(target)));
        let mut now = SimTime(0);
        let mut completions = Vec::new();
        for &w in &works {
            let sleep = p.sleep_until_release(now);
            prop_assert!(sleep.as_micros() <= target, "sleep {sleep} > period");
            now = now + sleep + Micros(w);
            completions.push(now.as_micros());
        }
        for pair in completions.windows(2) {
            let gap = pair[1] - pair[0];
            let work = gap; // completion gap includes work; only check the floor
            let _ = work;
            prop_assert!(gap >= target.min(gap), "vacuous floor");
        }
        // Strong form: when every work item is faster than the target, gaps
        // must be at least the target.
        if works.iter().all(|&w| w <= target) {
            for pair in completions.windows(2) {
                prop_assert!(pair[1] - pair[0] >= target);
            }
        }
    }

    /// EWMA output is always within [min, max] of the inputs seen so far.
    #[test]
    fn ewma_bounded_by_input_range(
        alpha in 0.01f64..1.0,
        xs in prop::collection::vec(1u64..1_000_000, 1..50)
    ) {
        let mut f = Filter::new(FilterSpec::Ewma(alpha));
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for &x in &xs {
            lo = lo.min(x);
            hi = hi.max(x);
            let y = f.apply(Stp::from_micros(x)).as_micros();
            prop_assert!(y >= lo.saturating_sub(1) && y <= hi + 1,
                "ewma {y} outside [{lo}, {hi}]");
        }
    }

    /// Median filter output is an element of its current window.
    #[test]
    fn median_returns_window_element(
        w in 1usize..8,
        xs in prop::collection::vec(1u64..1_000_000, 1..50)
    ) {
        let mut f = Filter::new(FilterSpec::Median(w));
        for (i, &x) in xs.iter().enumerate() {
            let y = f.apply(Stp::from_micros(x)).as_micros();
            let start = i.saturating_sub(w - 1);
            prop_assert!(xs[start..=i].contains(&y));
        }
    }

    /// A disabled controller never sleeps nor emits summaries under any
    /// feedback sequence.
    #[test]
    fn disabled_controller_never_acts(
        feedback in prop::collection::vec((0usize..3, 1u64..1_000_000), 0..32)
    ) {
        let mut c = AruController::new(NodeKind::Thread, 3, true, &AruConfig::disabled());
        let mut now = 0u64;
        for &(slot, val) in &feedback {
            prop_assert_eq!(c.receive_feedback(slot, Stp::from_micros(val)), None);
            c.iteration_begin(SimTime(now));
            now += 50;
            let out = c.iteration_end(SimTime(now));
            prop_assert_eq!(out.summary, None);
            prop_assert_eq!(out.sleep, Micros::ZERO);
        }
    }

    /// An enabled thread controller's summary always dominates its own
    /// current-STP (ARU never asks a producer to run faster than anyone).
    #[test]
    fn summary_dominates_current(
        feedback in prop::collection::vec((0usize..3, 1u64..1_000_000), 1..32),
        busy in 1u64..100_000
    ) {
        let mut c = AruController::new(NodeKind::Thread, 3, false, &AruConfig::aru_min());
        let mut now = 0u64;
        for &(slot, val) in &feedback {
            c.receive_feedback(slot, Stp::from_micros(val));
            c.iteration_begin(SimTime(now));
            now += busy;
            let out = c.iteration_end(SimTime(now));
            let summary = out.summary.expect("enabled thread with feedback");
            prop_assert!(summary >= out.current_stp);
        }
    }
}

// ---------------------------------------------------------------------------
// Control-law invariants (DESIGN.md §13)
// ---------------------------------------------------------------------------

use aru_core::law::{BAND, KI, KP, MAX_PERIOD_US, STEP};
use aru_core::{ControllerConfig, Law};

/// Up to 64 raw targets below `max` µs.
fn raw_seq(max: u64) -> impl Strategy<Value = Vec<Stp>> {
    prop::collection::vec((0..max).prop_map(Stp::from_micros), 1..64)
}

/// Drive a law with a constant raw target until `pending` clears.
fn settle(law: &mut Law, raw: Stp, max_iters: usize) -> Option<Stp> {
    let mut d = law.decide(raw);
    for _ in 0..max_iters {
        if !law.pending() {
            return Some(d.target);
        }
        d = law.decide(raw);
    }
    None
}

/// The PID gains lie inside the box the law proptests once sampled
/// (kp ∈ [0.1, 1.2), ki ∈ [0.01, 0.4)), where the Jury conditions of the
/// error/integral system `z² − (2 − kp − ki)·z + (1 − kp)` hold: ki > 0,
/// 0 < kp < 2 and 2·kp + ki < 4.
#[test]
fn pid_gains_lie_inside_the_jury_box() {
    let (kp, ki) = (KP, KI);
    assert!((0.1..1.2).contains(&kp) && (0.01..0.4).contains(&ki));
    assert!(ki > 0.0 && (0.0..2.0).contains(&kp) && 2.0 * kp + ki < 4.0);
}

proptest! {
    /// Hysteresis, under any raw-target sequence, produces a valid period:
    /// a plain u64 (never NaN/negative by construction) that never exceeds
    /// the largest value the law has ever been shown — the law is
    /// non-overshooting by design. (PID may transiently overshoot; its
    /// guarantee is the hard range, checked below.)
    #[test]
    fn hysteresis_always_produces_valid_periods(seq in raw_seq(50_000_000)) {
        let mut law = Law::new(ControllerConfig::Hysteresis);
        let hi = seq.iter().map(|s| s.as_micros()).max().unwrap_or(0);
        for &raw in &seq {
            let d = law.decide(raw);
            // +1 covers the minimum-progress nudge from a ≈ 0 targets.
            prop_assert!(
                d.target.as_micros() <= hi + 1,
                "target {} above any input {hi}",
                d.target
            );
        }
    }

    /// Hysteresis slew clamps are always respected: a single decision never
    /// moves the applied period by more than `STEP` of itself (±1 µs of
    /// rounding/minimum-progress slack).
    #[test]
    fn hysteresis_respects_slew_clamps(seq in raw_seq(50_000_000)) {
        let mut law = Law::new(ControllerConfig::Hysteresis);
        let mut applied = law.decide(seq[0]).target.as_micros() as f64;
        for &raw in &seq[1..] {
            let next = law.decide(raw).target.as_micros() as f64;
            let max_step = applied * STEP + 1.5;
            prop_assert!(
                (next - applied).abs() <= max_step,
                "hysteresis step {applied} -> {next} breaks the slew clamp"
            );
            applied = next;
        }
    }

    /// Hysteresis is idempotent on repeated identical inputs once settled:
    /// the dead-band absorbs the constant signal and the target freezes
    /// within `BAND` of it.
    #[test]
    fn hysteresis_dead_band_idempotent(
        first in 1u64..10_000_000,
        second in 1u64..10_000_000,
    ) {
        let mut law = Law::new(ControllerConfig::Hysteresis);
        law.decide(Stp::from_micros(first));
        let settled = settle(&mut law, Stp::from_micros(second), 10_000)
            .expect("hysteresis settles on a constant signal");
        let gap = (settled.as_micros() as f64 - second as f64).abs();
        prop_assert!(gap <= BAND * second as f64 + 0.5, "settled {settled} outside the band");
        for _ in 0..16 {
            let d = law.decide(Stp::from_micros(second));
            prop_assert_eq!(d.target, settled, "settled target drifted");
            prop_assert!(!law.pending());
        }
    }

    /// PID output always honours its hard range `[0, MAX_PERIOD_US]`, on
    /// raw targets that reach well past the ceiling.
    #[test]
    fn pid_respects_range_clamps(seq in raw_seq(4 * MAX_PERIOD_US as u64)) {
        let ceiling = Stp::from_micros(MAX_PERIOD_US as u64);
        let mut law = Law::new(ControllerConfig::Pid);
        law.decide(seq[0]); // anchor is the oracle and may sit outside range
        for &raw in &seq[1..] {
            let t = law.decide(raw).target;
            prop_assert!(t <= ceiling, "pid target {t} above the ceiling");
        }
    }

    /// Anti-windup: hold a raw target far above the ceiling for `hold`
    /// decisions, so the output saturates there while the error stays
    /// large, then bring the raw target back inside the range. The integral
    /// clamp caps what the saturated phase can store, so the recovery is
    /// the same trajectory whatever the hold length (without the clamp the
    /// integral grows ∝ hold and a longer hold pins the output at the
    /// ceiling for longer), and the law still settles on Direct's fixed
    /// point.
    #[test]
    fn pid_antiwindup_makes_recovery_independent_of_hold(
        anchor in 0.05f64..0.95,
        back in 0.05f64..0.95,
        hold in 3usize..128,
    ) {
        let at = |frac: f64| Stp::from_micros((MAX_PERIOD_US * frac) as u64);
        let ceiling = at(1.0);
        let high = at(100.0);
        let recovery = |hold: usize| {
            let mut law = Law::new(ControllerConfig::Pid);
            law.decide(at(anchor));
            for _ in 0..hold {
                let t = law.decide(high).target;
                assert!(t <= ceiling, "ceiling respected: {t}");
            }
            let path: Vec<Stp> = (0..64).map(|_| law.decide(at(back)).target).collect();
            (path, settle(&mut law, at(back), 5_000))
        };
        let (short, _) = recovery(2);
        let (long, settled) = recovery(hold);
        prop_assert_eq!(&long, &short, "recovery depends on the hold length");
        prop_assert_eq!(settled, Some(at(back)), "pid fixed point after windup");
    }

    /// PID converges to Direct's fixed point — the raw target itself — on a
    /// constant signal, from any starting point.
    #[test]
    fn pid_converges_to_direct_fixed_point(
        start in 1u64..100_000,
        target in 1u64..100_000,
    ) {
        let mut pid = Law::new(ControllerConfig::Pid);
        pid.decide(Stp::from_micros(start));
        let fixed = settle(&mut pid, Stp::from_micros(target), 5_000);
        prop_assert_eq!(fixed, Some(Stp::from_micros(target)), "pid fixed point");
    }
}

fn retry_strategy() -> impl Strategy<Value = aru_core::RetryPolicy> {
    use aru_core::RetryPolicy;
    (
        any::<bool>(),
        1u32..12,
        1u64..1_000_000,
        1u64..10_000_000,
        0.0f64..1.0,
        any::<u64>(),
    )
        .prop_map(|(exp, max_restarts, base, cap, jitter, seed)| {
            let p = if exp {
                RetryPolicy::exponential(max_restarts, Micros(base), Micros(base.max(cap)))
            } else {
                RetryPolicy::constant(max_restarts, Micros(base))
            };
            p.with_jitter(jitter).with_seed(seed)
        })
}

proptest! {
    /// The backoff schedule is a pure function of (policy, seed): the same
    /// policy replayed yields the same delays, a different seed perturbs a
    /// jittered schedule's hash stream deterministically too.
    #[test]
    fn retry_schedule_is_deterministic_per_seed(p in retry_strategy()) {
        prop_assert_eq!(p.schedule(), p.schedule());
        for attempt in 1..=p.max_restarts {
            prop_assert_eq!(p.delay(attempt), p.delay(attempt));
        }
    }

    /// Exponential backoff is monotone non-decreasing even with jitter (the
    /// doc-comment argument: raw delays double, worst jitter ratio ≥ ½) and
    /// every jittered delay respects the cap.
    #[test]
    fn exponential_backoff_is_monotone_and_capped(
        max_restarts in 2u32..16,
        base in 1u64..100_000,
        cap_mult in 1u64..1000,
        jitter in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        use aru_core::RetryPolicy;
        let cap = Micros(base.saturating_mul(cap_mult));
        let p = RetryPolicy::exponential(max_restarts, Micros(base), cap)
            .with_jitter(jitter)
            .with_seed(seed);
        let sched = p.schedule();
        prop_assert_eq!(sched.len(), max_restarts as usize);
        for w in sched.windows(2) {
            prop_assert!(w[1] >= w[0], "schedule not monotone: {sched:?}");
        }
        for &d in &sched {
            prop_assert!(d <= cap, "delay {d} above cap {cap}");
            prop_assert!(d >= Micros(base).min(cap), "delay {d} below base");
        }
    }
}

// ---------------------------------------------------------------------------
// Hook repair rules: any hook order, unbalanced ones included
// ---------------------------------------------------------------------------

/// Model of the four rules by which the iteration hooks repair a degenerate
/// sequence (a task restarted mid-block must not be panicked by its hooks):
/// `iteration_begin` drops an open blocking window; a nested `block_begin`
/// keeps the earliest window; `block_end` with no open window is ignored;
/// `iteration_end` closes an open window at `now`, and a missing begin
/// counts as `now`.
#[derive(Debug, Default)]
struct HookModel {
    iter_start: Option<u64>,
    block_start: Option<u64>,
    blocked: u64,
    iterations: u64,
    total_busy: u64,
    total_blocked: u64,
}

impl HookModel {
    fn iteration_begin(&mut self, now: u64) {
        self.block_start = None;
        self.iter_start = Some(now);
        self.blocked = 0;
    }

    fn block_begin(&mut self, now: u64) {
        self.block_start.get_or_insert(now);
    }

    fn block_end(&mut self, now: u64) {
        if let Some(start) = self.block_start.take() {
            self.blocked += now - start;
        }
    }

    /// Returns the iteration's current-STP.
    fn iteration_end(&mut self, now: u64) -> u64 {
        self.block_end(now);
        let start = self.iter_start.take().unwrap_or(now);
        let busy = (now - start).saturating_sub(self.blocked);
        self.iterations += 1;
        self.total_busy += busy;
        self.total_blocked += self.blocked;
        self.blocked = 0;
        busy
    }
}

proptest! {
    /// Arbitrary sequences of the four iteration hooks at nondecreasing
    /// times, driven through a controller: every current-STP, the blocked
    /// flag after every hook and the meter's final totals match the model.
    #[test]
    fn hooks_repair_any_order_like_the_model(
        ops in prop::collection::vec((0u8..4, 0u64..1_000), 0..64)
    ) {
        let mut c = AruController::new(NodeKind::Thread, 1, true, &AruConfig::aru_min());
        let mut m = HookModel::default();
        let mut now = 0u64;
        for &(op, dt) in &ops {
            now += dt;
            let t = SimTime(now);
            match op {
                0 => {
                    c.iteration_begin(t);
                    m.iteration_begin(now);
                }
                1 => {
                    c.block_begin(t);
                    m.block_begin(now);
                }
                2 => {
                    c.block_end(t);
                    m.block_end(now);
                }
                _ => {
                    let got = c.iteration_end(t).current_stp;
                    prop_assert_eq!(got, Stp::from_micros(m.iteration_end(now)), "{:?}", ops);
                }
            }
            prop_assert_eq!(c.is_blocked(), m.block_start.is_some(), "{:?}", ops);
        }
        prop_assert_eq!(c.meter().iterations(), m.iterations);
        prop_assert_eq!(c.meter().total_busy(), Micros(m.total_busy));
        prop_assert_eq!(c.meter().total_blocked(), Micros(m.total_blocked));
    }
}
