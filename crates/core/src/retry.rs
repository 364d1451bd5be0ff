//! Supervised-restart policy: how many times a failed task may be
//! restarted, and how long to wait before each restart.
//!
//! Lives in `aru-core` (rather than the threaded runtime) for the same
//! reason the controller does: both runtimes — the threaded `stampede`
//! runtime's supervisor and `desim`'s fault injector — restart crashed
//! tasks under the *same* policy, so crash-recovery experiments in the
//! simulator predict the real runtime's behaviour.
//!
//! The schedule is fully deterministic: jitter is derived from
//! (`seed`, attempt number) with a SplitMix64 hash, mirroring the
//! seeded-noise guarantee in `desim`'s noise source. Jitter is
//! *multiplicative* in `[1, 1 + jitter]` with `jitter ≤ 1`, which keeps an
//! exponential schedule monotonically non-decreasing: consecutive raw
//! delays differ by 2×, and the worst jitter ratio is `1/(1 + jitter) ≥ ½`.

use vtime::Micros;

/// Delay progression between restart attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backoff {
    /// The same delay before every restart.
    Constant(Micros),
    /// `base · 2^(attempt-1)`, saturating, capped at `max`.
    Exponential { base: Micros, max: Micros },
}

/// Restart policy for a supervised task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How many restarts are allowed before the supervisor escalates
    /// (0 = fail fast: first crash shuts the runtime down).
    pub max_restarts: u32,
    /// Delay progression.
    pub backoff: Backoff,
    /// Multiplicative jitter amplitude in `[0, 1]`: each delay is scaled
    /// by a deterministic factor in `[1, 1 + jitter]`. Values above 1 are
    /// clamped so exponential schedules stay monotone.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// No restarts: the first failure escalates immediately.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_restarts: 0,
            backoff: Backoff::Constant(Micros::ZERO),
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Up to `max_restarts` restarts with the same `delay` each time.
    #[must_use]
    pub fn constant(max_restarts: u32, delay: Micros) -> Self {
        RetryPolicy {
            max_restarts,
            backoff: Backoff::Constant(delay),
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Up to `max_restarts` restarts with delays `base, 2·base, 4·base, …`
    /// capped at `max`.
    #[must_use]
    pub fn exponential(max_restarts: u32, base: Micros, max: Micros) -> Self {
        RetryPolicy {
            max_restarts,
            backoff: Backoff::Exponential { base, max },
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Set the jitter amplitude (clamped into `[0, 1]`; NaN becomes 0).
    #[must_use]
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = if jitter.is_nan() {
            0.0
        } else {
            jitter.clamp(0.0, 1.0)
        };
        self
    }

    /// Set the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Is a restart allowed for failure number `attempt` (1-indexed: the
    /// first crash is attempt 1)?
    #[must_use]
    pub fn allows(&self, attempt: u32) -> bool {
        attempt <= self.max_restarts
    }

    /// Delay before restart `attempt` (1-indexed). Deterministic for a
    /// fixed (`seed`, `attempt`).
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Micros {
        let attempt = attempt.max(1);
        let raw = match self.backoff {
            Backoff::Constant(d) => d,
            Backoff::Exponential { base, .. } => {
                let shift = u32::min(attempt - 1, 63);
                Micros(base.0.saturating_mul(1u64 << shift))
            }
        };
        let jittered = if self.jitter > 0.0 {
            // [1, 1 + jitter] from a SplitMix64 hash of (seed, attempt).
            let u = splitmix64(self.seed ^ (u64::from(attempt) << 32)) >> 11;
            let unit = u as f64 * (1.0 / (1u64 << 53) as f64);
            raw.mul_f64(1.0 + self.jitter * unit)
        } else {
            raw
        };
        // Cap AFTER jitter so the cap also bounds jittered delays — and so
        // a capped exponential schedule stays monotone at the plateau.
        match self.backoff {
            Backoff::Constant(_) => jittered,
            Backoff::Exponential { max, .. } => Micros(jittered.0.min(max.0)),
        }
    }

    /// The full delay schedule, one entry per allowed restart.
    #[must_use]
    pub fn schedule(&self) -> Vec<Micros> {
        (1..=self.max_restarts).map(|a| self.delay(a)).collect()
    }
}

impl Default for RetryPolicy {
    /// Three restarts, 10 ms/20 ms/40 ms exponential backoff capped at 1 s,
    /// 10% jitter — a forgiving default for transient faults.
    fn default() -> Self {
        RetryPolicy::exponential(3, Micros::from_millis(10), Micros::from_secs(1)).with_jitter(0.1)
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_allows() {
        let p = RetryPolicy::none();
        assert!(!p.allows(1));
        assert!(p.schedule().is_empty());
    }

    #[test]
    fn constant_delay_is_flat() {
        let p = RetryPolicy::constant(3, Micros(500));
        assert!(p.allows(3));
        assert!(!p.allows(4));
        assert_eq!(p.schedule(), vec![Micros(500); 3]);
    }

    #[test]
    fn exponential_doubles_and_caps() {
        let p = RetryPolicy::exponential(5, Micros(100), Micros(500));
        assert_eq!(
            p.schedule(),
            vec![
                Micros(100),
                Micros(200),
                Micros(400),
                Micros(500),
                Micros(500)
            ]
        );
    }

    #[test]
    fn exponential_saturates_instead_of_overflowing() {
        let p = RetryPolicy::exponential(200, Micros(u64::MAX / 2), Micros(u64::MAX));
        assert_eq!(p.delay(100), Micros(u64::MAX));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::constant(8, Micros(1000))
            .with_jitter(0.5)
            .with_seed(42);
        let a = p.schedule();
        let b = p.schedule();
        assert_eq!(a, b, "same seed, same schedule");
        for d in &a {
            assert!(d.0 >= 1000 && d.0 <= 1500, "jittered delay {d} out of band");
        }
        let c = p.with_seed(43).schedule();
        assert_ne!(a, c, "different seed should perturb the schedule");
    }

    #[test]
    fn jitter_amplitude_is_clamped() {
        let p = RetryPolicy::constant(1, Micros(100)).with_jitter(7.5);
        assert!(p.jitter <= 1.0);
        let q = RetryPolicy::constant(1, Micros(100)).with_jitter(f64::NAN);
        assert_eq!(q.jitter, 0.0);
    }

    #[test]
    fn jittered_exponential_is_monotone() {
        for seed in 0..50 {
            let p = RetryPolicy::exponential(20, Micros(50), Micros::from_secs(2))
                .with_jitter(1.0)
                .with_seed(seed);
            let s = p.schedule();
            for w in s.windows(2) {
                assert!(w[1] >= w[0], "seed {seed}: {} then {}", w[0], w[1]);
            }
        }
    }
}
