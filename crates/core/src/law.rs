//! Pluggable pacing control laws — guardrails between the propagated
//! summary-STP and the pacer.
//!
//! The paper paces sources *directly* to the summary-STP: the backward
//! vector is compressed, filtered, and written straight into the pacer's
//! target. That is a proportional controller with gain 1 and no guardrails —
//! fine for the tracker's smooth load, but the moment feedback turns bursty
//! or adversarial (PR-1 chaos, the volatile-link scenario) the pacing target
//! oscillates as fast as the noise does.
//!
//! A [`ControlLaw`] sits between the *raw* target (what the paper would
//! pace to — the oracle) and the *applied* target (what the pacer gets).
//! Three laws are provided; DESIGN.md §13 records why these three:
//!
//! * [`DirectLaw`] — the paper's behaviour, applied ≡ raw. The oracle the
//!   others are measured against; byte-equivalent to the pre-law pipeline.
//! * [`PidLaw`] — classic discrete PID on the period error with integral
//!   windup clamping and a hard output range.
//! * [`HysteresisLaw`] — a dead-band around the raw target (small moves are
//!   ignored entirely) plus max step-up/step-down clamps (large moves are
//!   rate-limited): kills oscillation at the cost of tracking lag.
//!
//! Invocation is **event-driven** (Feedback Scheduling, PAPERS.md): the
//! controller calls [`ControlLaw::decide`] only when the raw target
//! *changes*, plus — while [`ControlLaw::pending`] reports an unfinished
//! approach — once per iteration until the law settles. A converged
//! pipeline therefore pays nothing per iteration, and every law reaches
//! `Direct`'s fixed point on a constant signal.

use crate::error::AruError;
use crate::stp::Stp;
use std::fmt::Debug;
use vtime::Micros;

/// One pacing decision: the period to apply and whether it differs from the
/// raw (oracle) target that drove it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LawDecision {
    /// The period the pacer should target.
    pub target: Stp,
    /// True when the law clamped/held: `target != raw`.
    pub clamped: bool,
}

/// A pacing control law: maps the stream of raw summary-STP targets to the
/// stream of applied pacing targets.
pub trait ControlLaw: Debug + Send {
    /// Fold one raw target into the law's state and return the applied
    /// decision. Total: never panics, and the returned period is a plain
    /// `u64` microsecond count by construction (no NaN/negative).
    fn decide(&mut self, raw: Stp) -> LawDecision;

    /// True while the law has not yet settled on the last raw target and
    /// wants another [`ControlLaw::decide`] call even if the raw value is
    /// unchanged (the "approach in progress" half of event-driven firing).
    fn pending(&self) -> bool {
        false
    }

    /// Drop all internal state (staleness expiry, task restart).
    fn reset(&mut self);
}

// ---------------------------------------------------------------------------
// Direct
// ---------------------------------------------------------------------------

/// The paper's law: applied ≡ raw, one decision per raw-target change.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectLaw;

impl ControlLaw for DirectLaw {
    fn decide(&mut self, raw: Stp) -> LawDecision {
        LawDecision { target: raw, clamped: false }
    }

    fn reset(&mut self) {}
}

// ---------------------------------------------------------------------------
// PID
// ---------------------------------------------------------------------------

/// Parameters for [`PidLaw`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidParams {
    /// Proportional gain on the error signal.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Anti-windup clamp on the accumulated integral term (µs).
    pub integral_limit: Micros,
    /// Hard floor on the applied period.
    pub min_period: Micros,
    /// Hard ceiling on the applied period.
    pub max_period: Micros,
}

impl Default for PidParams {
    fn default() -> Self {
        // Gains sit well inside the closed loop's Jury-stability box
        // (see `tests/properties.rs`) and are deliberately soft: with a
        // noisy oracle the applied target wiggles at roughly kp × the
        // noise amplitude, and the tracker's service noise is ±12% — so
        // kp = 0.3 keeps the steady-state wiggle inside the 10%
        // convergence band of the stability analyses while still closing
        // most of a genuine operating-point shift within a few decisions.
        PidParams {
            kp: 0.3,
            ki: 0.03,
            kd: 0.0,
            integral_limit: Micros::from_secs(5),
            min_period: Micros::ZERO,
            max_period: Micros::from_secs(3600),
        }
    }
}

impl PidParams {
    /// Typed validation for parameters read from configs.
    pub fn validate(&self) -> Result<(), AruError> {
        for (what, v) in [("pid.kp", self.kp), ("pid.ki", self.ki), ("pid.kd", self.kd)] {
            if !v.is_finite() || v < 0.0 {
                return Err(AruError::InvalidParam { what, why: "must be finite and >= 0" });
            }
        }
        if self.kp == 0.0 && self.ki == 0.0 {
            return Err(AruError::InvalidParam {
                what: "pid.kp/ki",
                why: "at least one of kp, ki must be > 0",
            });
        }
        if self.min_period > self.max_period {
            return Err(AruError::InvalidParam {
                what: "pid.min_period",
                why: "must be <= max_period",
            });
        }
        Ok(())
    }

    #[must_use]
    fn sanitized(self) -> Self {
        let d = PidParams::default();
        let gain = |v: f64, fallback: f64| if v.is_finite() && v >= 0.0 { v } else { fallback };
        let mut p = PidParams {
            kp: gain(self.kp, d.kp),
            ki: gain(self.ki, d.ki),
            kd: gain(self.kd, d.kd),
            integral_limit: self.integral_limit,
            min_period: self.min_period,
            max_period: self.max_period,
        };
        if p.kp == 0.0 && p.ki == 0.0 {
            p.kp = d.kp;
        }
        if p.min_period > p.max_period {
            p.max_period = p.min_period;
        }
        p
    }
}

/// Discrete PID on the period gap `raw − applied`, with integral windup
/// clamping and a hard output range. See the module docs.
#[derive(Debug, Clone)]
pub struct PidLaw {
    params: PidParams,
    applied: Option<f64>,
    integral: f64,
    prev_err: f64,
    pending: bool,
}

impl PidLaw {
    #[must_use]
    pub fn new(params: PidParams) -> Self {
        PidLaw {
            params: params.sanitized(),
            applied: None,
            integral: 0.0,
            prev_err: 0.0,
            pending: false,
        }
    }
}

impl ControlLaw for PidLaw {
    fn decide(&mut self, raw: Stp) -> LawDecision {
        let r = raw.as_micros() as f64;
        let Some(a) = self.applied else {
            // Anchor at the oracle; the loop regulates subsequent changes.
            self.applied = Some(r);
            self.integral = 0.0;
            self.prev_err = 0.0;
            self.pending = false;
            return LawDecision { target: raw, clamped: false };
        };
        let e = r - a;
        let lim = self.params.integral_limit.as_micros() as f64;
        self.integral = (self.integral + e).clamp(-lim, lim);
        let d = e - self.prev_err;
        self.prev_err = e;
        let mut next =
            a + self.params.kp * e + self.params.ki * self.integral + self.params.kd * d;
        if !next.is_finite() {
            next = r;
        }
        let lo = self.params.min_period.as_micros() as f64;
        let hi = self.params.max_period.as_micros() as f64;
        next = next.clamp(lo, hi);
        self.applied = Some(next);
        let target = Stp::from_micros(next.round().max(0.0) as u64);
        self.pending = target != raw;
        LawDecision { target, clamped: target != raw }
    }

    fn pending(&self) -> bool {
        self.pending
    }

    fn reset(&mut self) {
        self.applied = None;
        self.integral = 0.0;
        self.prev_err = 0.0;
        self.pending = false;
    }
}

// ---------------------------------------------------------------------------
// Hysteresis band
// ---------------------------------------------------------------------------

/// Parameters for [`HysteresisLaw`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisParams {
    /// Dead-band half-width as a fraction of the raw target: raw values
    /// within `band × raw` of the applied period are ignored entirely.
    pub band: f64,
    /// Max relative increase of the applied period per decision.
    pub max_step_up: f64,
    /// Max relative decrease of the applied period per decision.
    pub max_step_down: f64,
}

impl Default for HysteresisParams {
    fn default() -> Self {
        // Calibrated against the tracker's congestion scenarios: the
        // volatile-link chaos swings the raw summary ±25–30%, so the
        // dead-band swallows everything but the extremes, and a leak moves
        // the target only 2.5% — two consecutive leak steps (~5%) still sit
        // below the 6% amplitude the stability analyses count as a
        // reversal. Noise leakage can cause slow drift, never a sustained
        // oscillation swing; a genuine operating-point shift persists
        // outside the band and walks the target over at 2.5% per decision.
        HysteresisParams { band: 0.25, max_step_up: 0.025, max_step_down: 0.025 }
    }
}

impl HysteresisParams {
    /// Typed validation for parameters read from configs.
    pub fn validate(&self) -> Result<(), AruError> {
        if !self.band.is_finite() || self.band < 0.0 {
            return Err(AruError::InvalidParam {
                what: "hysteresis.band",
                why: "must be finite and >= 0",
            });
        }
        if !self.max_step_up.is_finite() || self.max_step_up <= 0.0 {
            return Err(AruError::InvalidParam {
                what: "hysteresis.max_step_up",
                why: "must be finite and > 0",
            });
        }
        if !self.max_step_down.is_finite()
            || self.max_step_down <= 0.0
            || self.max_step_down >= 1.0
        {
            return Err(AruError::InvalidParam {
                what: "hysteresis.max_step_down",
                why: "must be finite and in (0, 1)",
            });
        }
        Ok(())
    }

    #[must_use]
    fn sanitized(self) -> Self {
        let d = HysteresisParams::default();
        HysteresisParams {
            band: if self.band.is_finite() && self.band >= 0.0 { self.band } else { d.band },
            max_step_up: if self.max_step_up.is_finite() && self.max_step_up > 0.0 {
                self.max_step_up
            } else {
                d.max_step_up
            },
            max_step_down: if self.max_step_down.is_finite()
                && self.max_step_down > 0.0
                && self.max_step_down < 1.0
            {
                self.max_step_down
            } else {
                d.max_step_down
            },
        }
    }
}

/// Dead-band + slew-rate guardrail. See the module docs.
#[derive(Debug, Clone)]
pub struct HysteresisLaw {
    params: HysteresisParams,
    applied: Option<f64>,
    pending: bool,
}

impl HysteresisLaw {
    #[must_use]
    pub fn new(params: HysteresisParams) -> Self {
        HysteresisLaw { params: params.sanitized(), applied: None, pending: false }
    }
}

impl ControlLaw for HysteresisLaw {
    fn decide(&mut self, raw: Stp) -> LawDecision {
        let r = raw.as_micros() as f64;
        let Some(a) = self.applied else {
            self.applied = Some(r);
            self.pending = false;
            return LawDecision { target: raw, clamped: false };
        };
        let band = self.params.band * r.max(1.0);
        if (r - a).abs() <= band {
            // Inside the dead-band: hold. Idempotent under repeated
            // identical inputs by construction.
            self.pending = false;
            let target = Stp::from_micros(a.round() as u64);
            return LawDecision { target, clamped: target != raw };
        }
        let next = if r > a {
            // Slew-limited step up; `a + 1` guarantees progress from a ≈ 0.
            (a * (1.0 + self.params.max_step_up)).max(a + 1.0).min(r)
        } else {
            // Slew-limited step down; small periods jump straight to raw.
            (a * (1.0 - self.params.max_step_down)).min(a - 1.0).max(r)
        };
        self.applied = Some(next);
        self.pending = (r - next).abs() > band;
        let target = Stp::from_micros(next.round() as u64);
        LawDecision { target, clamped: target != raw }
    }

    fn pending(&self) -> bool {
        self.pending
    }

    fn reset(&mut self) {
        self.applied = None;
        self.pending = false;
    }
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

/// Which control law a controller runs between summary-STP and pacer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ControllerConfig {
    /// The paper's behaviour (and this crate's default): pace straight to
    /// the raw summary-STP.
    #[default]
    Direct,
    /// PID guardrail.
    Pid(PidParams),
    /// Dead-band + slew-rate guardrail.
    Hysteresis(HysteresisParams),
}

impl ControllerConfig {
    /// Stable label for telemetry and experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ControllerConfig::Direct => "direct",
            ControllerConfig::Pid(_) => "pid",
            ControllerConfig::Hysteresis(_) => "hysteresis",
        }
    }

    /// Typed validation of the selected law's parameters.
    pub fn validate(&self) -> Result<(), AruError> {
        match self {
            ControllerConfig::Direct => Ok(()),
            ControllerConfig::Pid(p) => p.validate(),
            ControllerConfig::Hysteresis(p) => p.validate(),
        }
    }

    /// Build the law instance. Out-of-domain parameters are clamped to safe
    /// values (use [`ControllerConfig::validate`] to detect them) so a bad
    /// config degrades instead of panicking a supervised task.
    #[must_use]
    pub fn build(&self) -> Box<dyn ControlLaw> {
        match self {
            ControllerConfig::Direct => Box::new(DirectLaw),
            ControllerConfig::Pid(p) => Box::new(PidLaw::new(*p)),
            ControllerConfig::Hysteresis(p) => Box::new(HysteresisLaw::new(*p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Stp {
        Stp::from_micros(v)
    }

    /// Drive `law` with a constant raw target until it settles (bounded).
    fn settle(law: &mut dyn ControlLaw, raw: Stp, max_iters: usize) -> LawDecision {
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
        let mut law = DirectLaw;
        for v in [0, 1, 999, 1_000_000] {
            let d = law.decide(us(v));
            assert_eq!(d.target, us(v));
            assert!(!d.clamped);
            assert!(!law.pending());
        }
    }

    #[test]
    fn pid_converges_to_direct_fixed_point() {
        let mut law = PidLaw::new(PidParams::default());
        law.decide(us(300_000));
        let d = settle(&mut law, us(100_000), 500);
        assert_eq!(d.target, us(100_000));
        // And holds there: no residual integral kick.
        let d2 = settle(&mut law, us(100_000), 500);
        assert_eq!(d2.target, us(100_000));
    }

    #[test]
    fn pid_output_respects_range_clamps() {
        let params = PidParams {
            min_period: Micros(50),
            max_period: Micros(1000),
            ..PidParams::default()
        };
        let mut law = PidLaw::new(params);
        law.decide(us(500));
        for _ in 0..50 {
            let d = law.decide(us(1_000_000));
            assert!(d.target.as_micros() <= 1000, "ceiling respected: {}", d.target);
        }
        law.reset();
        law.decide(us(500));
        for _ in 0..50 {
            let d = law.decide(us(0));
            assert!(d.target.as_micros() >= 50, "floor respected: {}", d.target);
        }
    }

    #[test]
    fn hysteresis_dead_band_holds() {
        let mut law = HysteresisLaw::new(HysteresisParams::default());
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
        let mut law = HysteresisLaw::new(HysteresisParams::default());
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
        let mut law = HysteresisLaw::new(HysteresisParams::default());
        law.decide(us(200_000));
        let settled = settle(&mut law, us(260_000), 50);
        for _ in 0..10 {
            let d = law.decide(us(260_000));
            assert_eq!(d.target, settled.target, "settled target must not drift");
        }
    }

    #[test]
    fn reset_forgets_state() {
        let mut law = HysteresisLaw::new(HysteresisParams::default());
        law.decide(us(100_000));
        law.decide(us(900_000));
        assert!(law.pending());
        law.reset();
        assert!(!law.pending());
        let d = law.decide(us(42));
        assert_eq!(d.target, us(42), "post-reset anchor is the oracle");
    }

    #[test]
    fn degenerate_params_are_sanitized_not_fatal() {
        let laws: [Box<dyn ControlLaw>; 2] = [
            Box::new(PidLaw::new(PidParams {
                kp: f64::NAN,
                ki: -1.0,
                kd: f64::INFINITY,
                ..PidParams::default()
            })),
            Box::new(HysteresisLaw::new(HysteresisParams {
                band: -0.5,
                max_step_up: 0.0,
                max_step_down: 7.0,
            })),
        ];
        for mut law in laws {
            law.decide(us(100_000));
            for _ in 0..100 {
                let d = law.decide(us(1_000));
                assert!(d.target.as_micros() <= 100_000, "{law:?}: {}", d.target);
            }
        }
    }

    #[test]
    fn validate_reports_typed_errors() {
        assert!(ControllerConfig::Direct.validate().is_ok());
        assert!(ControllerConfig::Pid(PidParams::default()).validate().is_ok());
        let bad = ControllerConfig::Pid(PidParams { kp: -1.0, ..PidParams::default() });
        assert!(matches!(
            bad.validate(),
            Err(AruError::InvalidParam { what: "pid.kp", .. })
        ));
        let bad = ControllerConfig::Hysteresis(HysteresisParams {
            band: f64::NAN,
            ..HysteresisParams::default()
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ControllerConfig::Direct.label(), "direct");
        assert_eq!(ControllerConfig::Pid(PidParams::default()).label(), "pid");
        assert_eq!(
            ControllerConfig::Hysteresis(HysteresisParams::default()).label(),
            "hysteresis"
        );
    }
}
