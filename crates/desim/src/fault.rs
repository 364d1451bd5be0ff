//! Deterministic fault injection for the simulator.
//!
//! A [`FaultPlan`] is a schedule of faults at virtual times, fixed before
//! the run starts: task crashes (recovered by the simulated supervisor
//! under the run's [`aru_core::RetryPolicy`]), transient compute stalls,
//! summary-feedback drop windows, and interconnect latency spikes. Because
//! the plan is data — not callbacks — two runs with the same builder,
//! config and plan replay the same fault sequence exactly, which is what
//! makes crash-recovery experiments reproducible and lets the chaos tests
//! assert on post-fault behaviour.
//!
//! Times are offsets from the start of the run ([`SimTime::ZERO`]).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use vtime::{Micros, SimTime};

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Kill the named task at `at`: its in-flight iteration is discarded
    /// (items it consumed are still released so GC is not pinned) and the
    /// supervisor restarts it after the retry policy's backoff — or never,
    /// once the restart budget is exhausted.
    Crash { task: String, at: Micros },
    /// Add `extra` to the named task's next compute starting at `at` — a
    /// transient hiccup (page fault storm, GC pause) rather than a death.
    Stall {
        task: String,
        at: Micros,
        extra: Micros,
    },
    /// Drop every summary-STP feedback message delivered *to* the named
    /// task during `[from, until)`; with a staleness horizon configured the
    /// task's controller decays toward un-paced instead of freezing on the
    /// last value.
    DropSummaries {
        task: String,
        from: Micros,
        until: Micros,
    },
    /// Multiply interconnect transfer times by `factor` during
    /// `[from, until)` (congestion / retransmission storm).
    LinkSpike {
        from: Micros,
        until: Micros,
        factor: f64,
    },
}

impl Fault {
    /// When this fault first takes effect.
    #[must_use]
    pub fn starts_at(&self) -> Micros {
        match *self {
            Fault::Crash { at, .. } | Fault::Stall { at, .. } => at,
            Fault::DropSummaries { from, .. } | Fault::LinkSpike { from, .. } => from,
        }
    }
}

/// A deterministic schedule of faults for one simulated run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (no faults — the default).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Schedule a crash of `task` at `at`.
    #[must_use]
    pub fn crash(mut self, task: impl Into<String>, at: Micros) -> Self {
        self.faults.push(Fault::Crash {
            task: task.into(),
            at,
        });
        self
    }

    /// Schedule a transient stall of `extra` on `task`'s next compute at
    /// `at`.
    #[must_use]
    pub fn stall(mut self, task: impl Into<String>, at: Micros, extra: Micros) -> Self {
        self.faults.push(Fault::Stall {
            task: task.into(),
            at,
            extra,
        });
        self
    }

    /// Drop summary feedback to `task` during `[from, until)`.
    #[must_use]
    pub fn drop_summaries(mut self, task: impl Into<String>, from: Micros, until: Micros) -> Self {
        self.faults.push(Fault::DropSummaries {
            task: task.into(),
            from,
            until,
        });
        self
    }

    /// Multiply link transfer times by `factor` during `[from, until)`.
    #[must_use]
    pub fn link_spike(mut self, from: Micros, until: Micros, factor: f64) -> Self {
        self.faults.push(Fault::LinkSpike {
            from,
            until,
            factor,
        });
        self
    }

    /// Scatter `n` crashes of `task` across `[from, until)` at
    /// seed-determined times: the same seed always yields the same crash
    /// schedule (mirrors the seeded-noise guarantee of the service models).
    #[must_use]
    pub fn seeded_crashes(
        mut self,
        task: impl Into<String>,
        n: usize,
        from: Micros,
        until: Micros,
        seed: u64,
    ) -> Self {
        let task = task.into();
        let span = until.0.saturating_sub(from.0);
        for i in 0..n {
            let at = if span == 0 {
                from
            } else {
                Micros(from.0 + splitmix64(seed ^ ((i as u64) << 17)) % span)
            };
            self.faults.push(Fault::Crash {
                task: task.clone(),
                at,
            });
        }
        self
    }

    /// A volatile link: a square wave of [`Fault::LinkSpike`] windows over
    /// `[from, until)` — each `period` opens with `factor`× transfer times
    /// for its first half and recovers for the second. This is the chaos
    /// scenario the stability experiment paces against: the oracle
    /// summary-STP oscillates with the link, and a control law must either
    /// follow it (Direct), smooth it (Hysteresis), or approach it gradually
    /// (PID). See DESIGN.md §13.
    #[must_use]
    pub fn volatile_link(
        mut self,
        from: Micros,
        until: Micros,
        period: Micros,
        factor: f64,
    ) -> Self {
        let period = Micros(period.0.max(2));
        let mut t = from;
        while t < until {
            let spike_end = Micros((t.0 + period.0 / 2).min(until.0));
            self.faults.push(Fault::LinkSpike {
                from: t,
                until: spike_end,
                factor,
            });
            t = Micros(t.0 + period.0);
        }
        self
    }

    /// Repeating summary-drop bursts: drop feedback to `task` for `burst`
    /// out of every `burst + gap` over `[from, until)`. Pairs with
    /// [`FaultPlan::volatile_link`] to also starve the controller of the
    /// (oscillating) signal it is trying to track.
    #[must_use]
    pub fn summary_drop_bursts(
        mut self,
        task: impl Into<String>,
        from: Micros,
        until: Micros,
        burst: Micros,
        gap: Micros,
    ) -> Self {
        let task = task.into();
        let stride = Micros((burst.0 + gap.0).max(1));
        let mut t = from;
        while t < until {
            let drop_end = Micros((t.0 + burst.0).min(until.0));
            self.faults.push(Fault::DropSummaries {
                task: task.clone(),
                from: t,
                until: drop_end,
            });
            t = Micros(t.0 + stride.0);
        }
        self
    }

    /// Is a summary-drop window active for `task` at `now`?
    #[must_use]
    pub fn drops_summaries_for(&self, task: &str, now: SimTime) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::DropSummaries {
                task: t,
                from,
                until,
            } => t == task && in_window(now, at(*from), at(*until)),
            _ => false,
        })
    }

    /// Combined link-latency multiplier at `now` (1.0 when no spike is
    /// active; overlapping spikes compound).
    #[must_use]
    pub fn link_factor(&self, now: SimTime) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::LinkSpike {
                    from,
                    until,
                    factor,
                } if in_window(now, at(*from), at(*until)) => Some(*factor),
                _ => None,
            })
            .product()
    }

    /// Resolve the plan against a run's tasks (`task_names[i]` is task
    /// `i`'s name), once, so the engine's event handlers index instead of
    /// comparing names against every fault.
    #[must_use]
    pub fn resolve<'a>(&self, task_names: impl IntoIterator<Item = &'a str>) -> ResolvedFaults {
        let mut res = ResolvedFaults::default();
        if self.faults.is_empty() {
            return res;
        }
        let names: Vec<&str> = task_names.into_iter().collect();
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, name) in names.iter().enumerate() {
            by_name.entry(name).or_default().push(i);
        }
        for f in &self.faults {
            let named: &[usize] = match f {
                Fault::Crash { task, .. }
                | Fault::Stall { task, .. }
                | Fault::DropSummaries { task, .. } => {
                    by_name.get(task.as_str()).map_or(&[], Vec::as_slice)
                }
                Fault::LinkSpike { .. } => &[],
            };
            res.targets.push(named.first().copied());
            match *f {
                Fault::DropSummaries { from, until, .. } => {
                    if res.drop_windows.is_empty() {
                        res.drop_windows = vec![Vec::new(); names.len()];
                    }
                    for &t in named {
                        res.drop_windows[t].push((at(from), at(until)));
                    }
                }
                Fault::LinkSpike {
                    from,
                    until,
                    factor,
                } => res.link_spikes.push((at(from), at(until), factor)),
                Fault::Crash { .. } | Fault::Stall { .. } => {}
            }
        }
        res
    }
}

/// A [`FaultPlan`] resolved against one run's tasks: what
/// [`FaultPlan::drops_summaries_for`] and [`FaultPlan::link_factor`] answer
/// by scanning the plan, answered by task index. Same windows, same
/// answers (`tests/faults.rs` holds the two together).
#[derive(Debug, Clone, Default)]
pub struct ResolvedFaults {
    /// Per plan entry: the first task carrying the name it gives (`None`
    /// for a link spike, or a name no task carries).
    targets: Vec<Option<usize>>,
    /// Per task: the `[from, until)` summary-drop windows naming it. Empty
    /// when the plan drops nothing.
    drop_windows: Vec<Vec<(SimTime, SimTime)>>,
    /// `[from, until)` and factor of every link spike, in plan order (the
    /// order overlapping factors are multiplied in).
    link_spikes: Vec<(SimTime, SimTime, f64)>,
}

impl ResolvedFaults {
    /// The task plan entry `fault` names — what a crash or stall hits. A
    /// name shared by several tasks means the first of them.
    #[must_use]
    pub fn target(&self, fault: usize) -> Option<usize> {
        self.targets.get(fault).copied().flatten()
    }

    /// Is a summary-drop window active for task `task` at `now`? A window
    /// applies to every task carrying its name.
    #[must_use]
    pub fn drops_summaries_for(&self, task: usize, now: SimTime) -> bool {
        self.drop_windows
            .get(task)
            .is_some_and(|w| w.iter().any(|&(from, until)| in_window(now, from, until)))
    }

    /// Combined link-latency multiplier at `now` (1.0 when no spike is
    /// active; overlapping spikes compound).
    #[must_use]
    pub fn link_factor(&self, now: SimTime) -> f64 {
        self.link_spikes
            .iter()
            .filter(|&&(from, until, _)| in_window(now, from, until))
            .map(|&(_, _, factor)| factor)
            .product()
    }
}

/// A plan offset as an instant of the run.
fn at(offset: Micros) -> SimTime {
    SimTime::ZERO + offset
}

/// Windows are half-open: `[from, until)`.
fn in_window(now: SimTime, from: SimTime, until: SimTime) -> bool {
    now >= from && now < until
}

pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let p = FaultPlan::none().drop_summaries("t", Micros(100), Micros(200));
        assert!(!p.drops_summaries_for("t", SimTime(99)));
        assert!(p.drops_summaries_for("t", SimTime(100)));
        assert!(p.drops_summaries_for("t", SimTime(199)));
        assert!(!p.drops_summaries_for("t", SimTime(200)));
        assert!(!p.drops_summaries_for("other", SimTime(150)));
    }

    #[test]
    fn link_factor_compounds_overlapping_spikes() {
        let p = FaultPlan::none()
            .link_spike(Micros(0), Micros(100), 2.0)
            .link_spike(Micros(50), Micros(100), 3.0);
        assert_eq!(p.link_factor(SimTime(10)), 2.0);
        assert_eq!(p.link_factor(SimTime(60)), 6.0);
        assert_eq!(p.link_factor(SimTime(100)), 1.0);
    }

    #[test]
    fn volatile_link_is_a_square_wave() {
        // 1 s period over 3 s: spikes at [0,0.5s), [1,1.5s), [2,2.5s).
        let p =
            FaultPlan::none().volatile_link(Micros(0), Micros(3_000_000), Micros(1_000_000), 4.0);
        assert_eq!(p.faults.len(), 3);
        assert_eq!(p.link_factor(SimTime(250_000)), 4.0);
        assert_eq!(p.link_factor(SimTime(750_000)), 1.0);
        assert_eq!(p.link_factor(SimTime(1_250_000)), 4.0);
        assert_eq!(p.link_factor(SimTime(2_750_000)), 1.0);
    }

    #[test]
    fn summary_drop_bursts_alternate_drop_and_gap() {
        // 100 ms drop, 400 ms gap, over 1 s: bursts at [0,100ms), [500,600ms).
        let p = FaultPlan::none().summary_drop_bursts(
            "t",
            Micros(0),
            Micros(1_000_000),
            Micros(100_000),
            Micros(400_000),
        );
        assert_eq!(p.faults.len(), 2);
        assert!(p.drops_summaries_for("t", SimTime(50_000)));
        assert!(!p.drops_summaries_for("t", SimTime(200_000)));
        assert!(p.drops_summaries_for("t", SimTime(550_000)));
        assert!(!p.drops_summaries_for("t", SimTime(700_000)));
    }

    #[test]
    fn seeded_crashes_are_deterministic_and_in_range() {
        let a = FaultPlan::none().seeded_crashes("t", 8, Micros(1000), Micros(5000), 7);
        let b = FaultPlan::none().seeded_crashes("t", 8, Micros(1000), Micros(5000), 7);
        assert_eq!(a, b, "same seed, same schedule");
        for f in &a.faults {
            let at = f.starts_at();
            assert!(
                at >= Micros(1000) && at < Micros(5000),
                "{at} out of window"
            );
        }
        let c = FaultPlan::none().seeded_crashes("t", 8, Micros(1000), Micros(5000), 8);
        assert_ne!(a, c, "different seed perturbs the schedule");
    }
}
