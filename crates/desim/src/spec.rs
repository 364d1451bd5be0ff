//! Task behaviour specifications.
//!
//! Instead of arbitrary closures (which a deterministic event simulator
//! cannot timeslice), simulated tasks are described declaratively: where
//! they run, which channels they read with which policy, what they produce,
//! and a service-time model. This vocabulary is sufficient for the paper's
//! tracker and for the bench workloads, and keeps every run replayable.

use serde::{Deserialize, Serialize};
use vtime::Micros;

/// Service-time model for one task: `base · lognormal(σ)`, plus the cost
/// model's per-byte output charge applied by the engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Median compute time per iteration.
    pub base: Micros,
    /// Log-normal σ of the multiplicative noise (0 = deterministic).
    pub noise_sigma: f64,
}

impl ServiceModel {
    #[must_use]
    pub fn new(base: Micros, noise_sigma: f64) -> Self {
        ServiceModel { base, noise_sigma }
    }

    /// Deterministic service time.
    #[must_use]
    pub fn fixed(base: Micros) -> Self {
        ServiceModel {
            base,
            noise_sigma: 0.0,
        }
    }
}

/// Declarative description of one simulated task (see the builder for how
/// inputs/outputs are attached).
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Median iteration compute time and noise.
    pub service: ServiceModel,
    /// Emit a `SinkOutput` trace event per completed iteration (pipeline
    /// end — the GUI task).
    pub is_sink_reporter: bool,
    /// Busy-time cost of a DGC-eliminated (skipped) iteration.
    pub skip_overhead: Micros,
    /// Optional load profile: `(from, service)` steps, each replacing the
    /// service model from its start time onward (must be time-sorted).
    /// Models dynamic phenomena — e.g. the scene getting busier — so the
    /// feedback loop's *adaptation* (§1: "affected by dynamic phenomena
    /// such as current load") is testable under the virtual clock.
    pub load_steps: Vec<(vtime::SimTime, ServiceModel)>,
}

impl TaskSpec {
    #[must_use]
    pub fn new(service: ServiceModel) -> Self {
        TaskSpec {
            service,
            is_sink_reporter: false,
            skip_overhead: Micros(50),
            load_steps: Vec::new(),
        }
    }

    #[must_use]
    pub fn sink(service: ServiceModel) -> Self {
        TaskSpec {
            service,
            is_sink_reporter: true,
            skip_overhead: Micros(50),
            load_steps: Vec::new(),
        }
    }

    /// Add a load step: from `at` onward the task's service model becomes
    /// `service`.
    #[must_use]
    pub fn with_load_step(mut self, at: vtime::SimTime, service: ServiceModel) -> Self {
        debug_assert!(
            self.load_steps.last().is_none_or(|&(t, _)| t <= at),
            "load steps must be time-sorted"
        );
        self.load_steps.push((at, service));
        self
    }

    /// Generate a diurnal load profile: the service time swells smoothly
    /// from the base to `peak_factor × base` and back once per `period`,
    /// discretized into `steps_per_period` piecewise-constant load steps
    /// until `horizon`. Models the day/night cycle of a long-running
    /// deployment (the scale sweeps compress "days" into simulated
    /// seconds) so the feedback loop's re-convergence is exercised at
    /// every point of the swing.
    #[must_use]
    pub fn with_diurnal_load(
        mut self,
        period: Micros,
        peak_factor: f64,
        steps_per_period: usize,
        horizon: Micros,
    ) -> Self {
        assert!(period.0 > 0, "diurnal period must be positive");
        assert!(steps_per_period >= 2, "need at least 2 steps per period");
        assert!(peak_factor >= 1.0, "peak factor is relative to the base");
        let base = self.service;
        let step_len = (period.0 / steps_per_period as u64).max(1);
        let mut t = 0u64;
        while t < horizon.0 {
            let phase = (t % period.0) as f64 / period.0 as f64;
            // Raised cosine: 0 at the period boundary, 1 mid-period.
            let lift = 0.5 - 0.5 * (std::f64::consts::TAU * phase).cos();
            let factor = 1.0 + (peak_factor - 1.0) * lift;
            let svc = ServiceModel {
                base: base.base.mul_f64(factor).max(Micros(1)),
                noise_sigma: base.noise_sigma,
            };
            self = self.with_load_step(vtime::SimTime(t), svc);
            t += step_len;
        }
        self
    }

    /// Generate a bursty (square-wave) load profile: for the first
    /// `duty` fraction of every `period` the service time is
    /// `burst_factor × base`, then drops back, until `horizon`. The abrupt
    /// edges — unlike the diurnal ramp — force the pacing law to react to
    /// step changes, the paper's §1 "dynamic phenomena" in their harshest
    /// form.
    #[must_use]
    pub fn with_bursty_load(
        mut self,
        period: Micros,
        duty: f64,
        burst_factor: f64,
        horizon: Micros,
    ) -> Self {
        assert!(period.0 > 0, "burst period must be positive");
        assert!((0.0..=1.0).contains(&duty), "duty cycle must be in [0, 1]");
        assert!(burst_factor >= 1.0, "burst factor is relative to the base");
        let base = self.service;
        let burst = ServiceModel {
            base: base.base.mul_f64(burst_factor).max(Micros(1)),
            noise_sigma: base.noise_sigma,
        };
        let burst_len = (period.0 as f64 * duty) as u64;
        let mut t = 0u64;
        while t < horizon.0 {
            if burst_len > 0 {
                self = self.with_load_step(vtime::SimTime(t), burst);
            }
            if burst_len < period.0 {
                self = self.with_load_step(vtime::SimTime(t + burst_len), base);
            }
            t += period.0;
        }
        self
    }

    /// The service model in effect at time `now`.
    #[must_use]
    pub fn service_at(&self, now: vtime::SimTime) -> ServiceModel {
        self.load_steps
            .iter()
            .rev()
            .find(|&&(t, _)| t <= now)
            .map(|&(_, s)| s)
            .unwrap_or(self.service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_model_construction() {
        let s = ServiceModel::fixed(Micros(100));
        assert_eq!(s.base, Micros(100));
        assert_eq!(s.noise_sigma, 0.0);
        let n = ServiceModel::new(Micros(200), 0.1);
        assert_eq!(n.noise_sigma, 0.1);
    }

    #[test]
    fn sink_flag() {
        assert!(!TaskSpec::new(ServiceModel::fixed(Micros(1))).is_sink_reporter);
        assert!(TaskSpec::sink(ServiceModel::fixed(Micros(1))).is_sink_reporter);
    }

    #[test]
    fn diurnal_load_peaks_mid_period_and_repeats() {
        use vtime::SimTime;
        let period = Micros::from_secs(10);
        let spec = TaskSpec::new(ServiceModel::fixed(Micros(1000))).with_diurnal_load(
            period,
            3.0,
            20,
            Micros::from_secs(30),
        );
        // Period boundary: back at the base.
        assert_eq!(spec.service_at(SimTime(0)).base, Micros(1000));
        // Mid-period: at (or within one discretization step of) the peak.
        let mid = spec.service_at(SimTime(period.0 / 2)).base;
        assert!(
            mid.0 > 2900 && mid.0 <= 3000,
            "mid-period service {mid:?} should be ~3× base"
        );
        // Second period repeats the first.
        assert_eq!(
            spec.service_at(SimTime(period.0 + period.0 / 2)).base,
            mid,
            "profile must be periodic"
        );
        // Quarter-period sits strictly between base and peak.
        let quarter = spec.service_at(SimTime(period.0 / 4)).base;
        assert!(quarter > Micros(1000) && quarter < mid);
    }

    #[test]
    fn bursty_load_toggles_between_base_and_burst() {
        use vtime::SimTime;
        let period = Micros::from_secs(1);
        let spec = TaskSpec::new(ServiceModel::fixed(Micros(500))).with_bursty_load(
            period,
            0.25,
            4.0,
            Micros::from_secs(3),
        );
        // First quarter of each period bursts; the rest is the base.
        assert_eq!(spec.service_at(SimTime(0)).base, Micros(2000));
        assert_eq!(spec.service_at(SimTime(100_000)).base, Micros(2000));
        assert_eq!(spec.service_at(SimTime(250_000)).base, Micros(500));
        assert_eq!(spec.service_at(SimTime(999_999)).base, Micros(500));
        assert_eq!(spec.service_at(SimTime(1_000_000)).base, Micros(2000));
        assert_eq!(spec.service_at(SimTime(1_300_000)).base, Micros(500));
    }

    #[test]
    fn load_steps_switch_service_over_time() {
        use vtime::SimTime;
        let spec = TaskSpec::new(ServiceModel::fixed(Micros(100)))
            .with_load_step(SimTime(1000), ServiceModel::fixed(Micros(300)))
            .with_load_step(SimTime(2000), ServiceModel::fixed(Micros(50)));
        assert_eq!(spec.service_at(SimTime(0)).base, Micros(100));
        assert_eq!(spec.service_at(SimTime(999)).base, Micros(100));
        assert_eq!(spec.service_at(SimTime(1000)).base, Micros(300));
        assert_eq!(spec.service_at(SimTime(1999)).base, Micros(300));
        assert_eq!(spec.service_at(SimTime(5000)).base, Micros(50));
    }
}
