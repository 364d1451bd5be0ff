//! Pacing control laws — guardrails between the propagated summary-STP and
//! the pacer.
//!
//! The paper paces sources *directly* to the summary-STP: the backward
//! vector is compressed, filtered, and written straight into the pacer's
//! target. That is a proportional controller with gain 1 and no guardrails —
//! fine for the tracker's smooth load, but the moment feedback turns bursty
//! or adversarial (a crashed stage, the volatile-link scenario) the pacing target
//! oscillates as fast as the noise does.
//!
//! A [`Law`] sits between the *raw* target (what the paper would pace to —
//! the oracle) and the *applied* target (what the pacer gets). Three laws
//! are provided, selected by [`ControllerConfig`]; DESIGN.md §13 records
//! why these three:
//!
//! * `Direct` — the paper's behaviour, applied ≡ raw. The oracle the others
//!   are measured against; byte-equivalent to the pre-law pipeline.
//! * `Pid` — discrete PI on the period error ([`KP`], [`KI`]) with integral
//!   windup clamping (±5 s) and a hard output range `[0, MAX_PERIOD_US]`.
//! * `Hysteresis` — a dead-band around the raw target ([`BAND`]: small moves
//!   are ignored entirely) plus a slew clamp ([`STEP`]: large moves are
//!   rate-limited): kills oscillation at the cost of tracking lag.
//!
//! Invocation is **event-driven** (Feedback Scheduling, PAPERS.md): the
//! controller calls [`Law::decide`] only when the raw target *changes*,
//! plus — while [`Law::pending`] reports an unfinished approach — once per
//! iteration until the law settles. A converged pipeline therefore pays
//! nothing per iteration, and every law reaches `Direct`'s fixed point on a
//! constant signal.

use crate::stp::Stp;

// PID gains sit well inside the closed loop's Jury-stability box (see
// `tests/properties.rs`) and are deliberately soft: with a noisy oracle the
// applied target wiggles at roughly KP × the noise amplitude, and the
// tracker's service noise is ±12% — so KP = 0.3 keeps the steady-state
// wiggle inside the 10% convergence band of the stability analyses while
// still closing most of a genuine operating-point shift within a few
// decisions.
/// PID proportional gain on the period error `raw − applied`.
pub const KP: f64 = 0.3;
/// PID integral gain.
pub const KI: f64 = 0.03;
/// PID anti-windup clamp on the accumulated integral (µs): ±5 s.
const INTEGRAL_LIMIT_US: f64 = 5_000_000.0;
/// Ceiling of PID's applied period (µs): one hour. The floor is 0.
pub const MAX_PERIOD_US: f64 = 3_600_000_000.0;

// Hysteresis is calibrated against the tracker's congestion scenarios: the
// volatile-link chaos swings the raw summary ±25–30%, so the dead-band
// swallows everything but the extremes, and a leak moves the target only
// 2.5% — two consecutive leak steps (~5%) still sit below the 6% amplitude
// the stability analyses count as a reversal. Noise leakage can cause slow
// drift, never a sustained oscillation swing; a genuine operating-point
// shift persists outside the band and walks the target over at 2.5% per
// decision.
/// Hysteresis dead-band half-width as a fraction of the raw target: raw
/// values within `BAND × raw` of the applied period are ignored entirely.
pub const BAND: f64 = 0.25;
/// Hysteresis max relative move of the applied period per decision, up or
/// down.
pub const STEP: f64 = 0.025;

/// Which control law a controller runs between summary-STP and pacer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControllerConfig {
    /// The paper's behaviour (and this crate's default): pace straight to
    /// the raw summary-STP.
    #[default]
    Direct,
    /// PI guardrail with anti-windup and a hard output range.
    Pid,
    /// Dead-band + slew-rate guardrail.
    Hysteresis,
}

impl ControllerConfig {
    /// Stable label for telemetry and experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ControllerConfig::Direct => "direct",
            ControllerConfig::Pid => "pid",
            ControllerConfig::Hysteresis => "hysteresis",
        }
    }
}

/// One pacing decision: the period to apply and whether it differs from the
/// raw (oracle) target that drove it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LawDecision {
    /// The period the pacer should target.
    pub target: Stp,
    /// True when the law clamped/held: `target != raw`.
    pub clamped: bool,
}

/// A control law's state: maps the stream of raw summary-STP targets to the
/// stream of applied pacing targets. See the module docs.
#[derive(Debug, Clone)]
pub struct Law {
    kind: ControllerConfig,
    /// The applied period (µs); `None` until the first decision anchors it
    /// at the oracle. Never set under `Direct`.
    applied: Option<f64>,
    /// PID's accumulated error, clamped to ±`INTEGRAL_LIMIT_US`.
    integral: f64,
    /// The law has not yet settled on the last raw target.
    pending: bool,
}

impl Law {
    #[must_use]
    pub fn new(kind: ControllerConfig) -> Self {
        Law {
            kind,
            applied: None,
            integral: 0.0,
            pending: false,
        }
    }

    /// Fold one raw target into the law's state and return the applied
    /// decision. Total: never panics, and the returned period is a plain
    /// `u64` microsecond count.
    pub fn decide(&mut self, raw: Stp) -> LawDecision {
        let oracle = LawDecision {
            target: raw,
            clamped: false,
        };
        if self.kind == ControllerConfig::Direct {
            return oracle;
        }
        let r = raw.as_micros() as f64;
        let Some(a) = self.applied else {
            // Anchor at the oracle; the law regulates subsequent changes.
            self.applied = Some(r);
            return oracle;
        };
        let band = BAND * r.max(1.0);
        let next = if self.kind == ControllerConfig::Pid {
            let e = r - a;
            self.integral = (self.integral + e).clamp(-INTEGRAL_LIMIT_US, INTEGRAL_LIMIT_US);
            (a + KP * e + KI * self.integral).clamp(0.0, MAX_PERIOD_US)
        } else if (r - a).abs() <= band {
            // Inside the dead-band: hold.
            a
        } else if r > a {
            // Slew-limited step up; `a + 1` guarantees progress from a ≈ 0.
            (a * (1.0 + STEP)).max(a + 1.0).min(r)
        } else {
            // Slew-limited step down; small periods jump straight to raw.
            (a * (1.0 - STEP)).min(a - 1.0).max(r)
        };
        self.applied = Some(next);
        let target = Stp::from_micros(next.round() as u64);
        self.pending = match self.kind {
            ControllerConfig::Hysteresis => (r - next).abs() > band,
            _ => target != raw,
        };
        LawDecision {
            target,
            clamped: target != raw,
        }
    }

    /// True while the law has not yet settled on the last raw target and
    /// wants another [`Law::decide`] call even if the raw value is
    /// unchanged (the "approach in progress" half of event-driven firing).
    #[must_use]
    pub fn pending(&self) -> bool {
        self.pending
    }

    /// Drop all internal state (staleness expiry, task restart).
    pub fn reset(&mut self) {
        *self = Law::new(self.kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Stp {
        Stp::from_micros(v)
    }

    /// Drive `law` with a constant raw target until it settles (bounded).
    fn settle(law: &mut Law, raw: Stp, max_iters: usize) -> LawDecision {
        let mut d = law.decide(raw);
        for _ in 0..max_iters {
            if !law.pending() {
                return d;
            }
            d = law.decide(raw);
        }
        panic!("{law:?} did not settle on {raw} within {max_iters} decisions");
    }

    #[test]
    fn direct_is_identity_and_never_pending() {
        let mut law = Law::new(ControllerConfig::Direct);
        for v in [0, 1, 999, 1_000_000] {
            let d = law.decide(us(v));
            assert_eq!(d.target, us(v));
            assert!(!d.clamped);
            assert!(!law.pending());
        }
    }

    #[test]
    fn pid_converges_to_direct_fixed_point() {
        let mut law = Law::new(ControllerConfig::Pid);
        law.decide(us(300_000));
        let d = settle(&mut law, us(100_000), 500);
        assert_eq!(d.target, us(100_000));
        // And holds there: no residual integral kick.
        let d2 = settle(&mut law, us(100_000), 500);
        assert_eq!(d2.target, us(100_000));
    }

    #[test]
    fn pid_output_respects_range_clamps() {
        let ceiling = us(MAX_PERIOD_US as u64);
        let mut law = Law::new(ControllerConfig::Pid);
        law.decide(ceiling);
        for _ in 0..50 {
            let d = law.decide(us(u64::MAX));
            assert!(d.target <= ceiling, "ceiling respected: {}", d.target);
        }
        assert_eq!(law.decide(us(u64::MAX)).target, ceiling, "saturates");
    }

    #[test]
    fn hysteresis_dead_band_holds() {
        let mut law = Law::new(ControllerConfig::Hysteresis);
        law.decide(us(100_000));
        // 20% move: inside the 25% dead-band — held, reported clamped.
        let d = law.decide(us(120_000));
        assert_eq!(d.target, us(100_000));
        assert!(d.clamped);
        assert!(!law.pending());
        let d2 = law.decide(us(85_000));
        assert_eq!(d2.target, us(100_000));
        assert!(d2.clamped);
    }

    #[test]
    fn hysteresis_slew_limits_large_moves() {
        let mut law = Law::new(ControllerConfig::Hysteresis);
        law.decide(us(100_000));
        // +50% move: stepped at 2.5% per decision.
        let d = law.decide(us(150_000));
        assert_eq!(d.target, us(102_500));
        assert!(law.pending());
        let settled = settle(&mut law, us(150_000), 50);
        // Settles once inside the dead-band of the raw target.
        let gap = (settled.target.as_micros() as f64 - 150_000.0).abs();
        assert!(gap <= 37_500.0, "settled within band: {}", settled.target);
        assert!(!law.pending());
    }

    #[test]
    fn hysteresis_is_idempotent_once_settled() {
        let mut law = Law::new(ControllerConfig::Hysteresis);
        law.decide(us(200_000));
        let settled = settle(&mut law, us(260_000), 50);
        for _ in 0..10 {
            let d = law.decide(us(260_000));
            assert_eq!(d.target, settled.target, "settled target must not drift");
        }
    }

    #[test]
    fn reset_forgets_state() {
        for kind in [ControllerConfig::Pid, ControllerConfig::Hysteresis] {
            let mut law = Law::new(kind);
            law.decide(us(100_000));
            law.decide(us(900_000));
            assert!(law.pending(), "{kind:?}");
            law.reset();
            assert!(!law.pending());
            let d = law.decide(us(42));
            assert_eq!(d.target, us(42), "post-reset anchor is the oracle");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ControllerConfig::Direct.label(), "direct");
        assert_eq!(ControllerConfig::Pid.label(), "pid");
        assert_eq!(ControllerConfig::Hysteresis.label(), "hysteresis");
    }
}
