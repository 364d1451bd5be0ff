//! The per-node ARU state machine.
//!
//! [`AruController`] packages the backward-STP vector, compression operator,
//! smoothing filter, STP meter and pacer into the exact hook set the two
//! runtimes need:
//!
//! * a **buffer** (channel/queue) node calls [`AruController::receive_feedback`]
//!   when a consumer piggybacks its summary-STP on a `get`, and reads
//!   [`AruController::summary`] to hand back to producers on `put`;
//! * a **thread** node calls `receive_feedback` when a `put` returns the
//!   downstream buffer's summary-STP, drives the iteration hooks
//!   ([`AruController::iteration_begin`] … [`AruController::iteration_end`])
//!   from its task loop, and sleeps the returned pacing residual.
//!
//! With `enabled = false` every hook degenerates to the baseline (No-ARU)
//! behaviour: no feedback is stored, no summary is emitted, no sleep is
//! requested — but current-STP is still measured so the measurement
//! infrastructure can report total/wasted computation identically across
//! modes.

use crate::backward::BackwardStpVec;
use crate::compress::CompressOp;
use crate::filter::{Filter, FilterSpec};
use crate::graph::NodeKind;
use crate::law::{ControllerConfig, Law};
use crate::pacing::Pacer;
use crate::stp::{Stp, StpMeter};
use crate::summary::summary_for_thread;
use vtime::{Micros, SimTime};

/// Which threads pace their production period to the summary-STP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PacingPolicy {
    /// The paper's mechanism: only source threads sleep; everything else
    /// adapts through the cascading blocking effect (§3.3.2).
    #[default]
    SourcesOnly,
    /// Ablation extension: every thread paces to its own summary-STP.
    AllThreads,
}

/// Per-application ARU configuration.
#[derive(Debug, Clone)]
pub struct AruConfig {
    /// Master switch. `false` reproduces the baseline system.
    pub enabled: bool,
    /// Backward-vector compression operator (paper default: min).
    pub compress: CompressOp,
    /// Outgoing summary-STP smoothing.
    pub filter: FilterSpec,
    /// Which threads sleep (when `enabled`).
    pub pacing: PacingPolicy,
    /// Staleness horizon for downstream feedback. When the newest
    /// summary-STP a thread holds is older than this, the thread stops
    /// trusting it: over one further horizon span the pacing target decays
    /// linearly from the frozen summary toward the thread's own
    /// current-STP, after which the thread runs effectively un-paced
    /// (No-ARU) until feedback resumes. `None` (the default) trusts
    /// feedback forever — the paper's behaviour.
    pub staleness: Option<Micros>,
    /// Control law between the raw summary-STP and the pacer (see
    /// [`crate::law`]). The default, [`ControllerConfig::Direct`], paces
    /// straight to the summary — the paper's behaviour.
    pub control: ControllerConfig,
}

impl AruConfig {
    /// The paper's "No ARU" baseline.
    #[must_use]
    pub fn disabled() -> Self {
        AruConfig {
            enabled: false,
            ..AruConfig::aru_min()
        }
    }

    /// "ARU-min": conservative default operator.
    #[must_use]
    pub fn aru_min() -> Self {
        AruConfig {
            enabled: true,
            compress: CompressOp::Min,
            filter: FilterSpec::Identity,
            pacing: PacingPolicy::SourcesOnly,
            staleness: None,
            control: ControllerConfig::Direct,
        }
    }

    /// "ARU-max": aggressive dependency-encoded operator.
    #[must_use]
    pub fn aru_max() -> Self {
        AruConfig {
            enabled: true,
            compress: CompressOp::Max,
            filter: FilterSpec::Identity,
            pacing: PacingPolicy::SourcesOnly,
            staleness: None,
            control: ControllerConfig::Direct,
        }
    }

    #[must_use]
    pub fn with_filter(mut self, filter: FilterSpec) -> Self {
        self.filter = filter;
        self
    }

    #[must_use]
    pub fn with_pacing(mut self, pacing: PacingPolicy) -> Self {
        self.pacing = pacing;
        self
    }

    /// Set the feedback staleness horizon (see [`AruConfig::staleness`]).
    #[must_use]
    pub fn with_staleness(mut self, horizon: Micros) -> Self {
        self.staleness = Some(horizon);
        self
    }

    /// Select the pacing control law (see [`crate::law`]).
    #[must_use]
    pub fn with_control(mut self, control: ControllerConfig) -> Self {
        self.control = control;
        self
    }
}

impl Default for AruConfig {
    fn default() -> Self {
        AruConfig::aru_min()
    }
}

/// Result of finishing a thread iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationOutcome {
    /// The iteration's current-STP (busy time, blocking excluded).
    pub current_stp: Stp,
    /// The node's new summary-STP (what gets piggybacked upstream).
    pub summary: Option<Stp>,
    /// How long the thread should sleep before its next iteration.
    pub sleep: Micros,
    /// Was the pacing policy applied this iteration? True whenever the
    /// policy selects this thread (even if the residual sleep came out
    /// zero); false when pacing was skipped — ARU disabled, or the policy
    /// excludes the thread. Separates "paced to zero" from "not paced".
    pub paced: bool,
    /// True when the pacing target was decayed because downstream feedback
    /// is older than the configured staleness horizon.
    pub stale: bool,
    /// True when the control law fired (took a decision) since the last
    /// iteration end — on a raw-target change or a pending approach step.
    pub law_fired: bool,
    /// The raw (oracle) pacing target the law last saw: the filtered
    /// summary-STP the paper would pace to. `None` while un-paced or after
    /// staleness expiry.
    pub raw_target: Option<Stp>,
    /// The applied pacing target — the law's (possibly clamped) decision,
    /// or the staleness-decayed value when the guardrail overrode the law.
    pub pace_target: Option<Stp>,
    /// True when the law's last decision differed from the raw target.
    pub clamped: bool,
}

/// Per-node ARU state machine. See the module docs for the driving contract.
#[derive(Debug)]
pub struct AruController {
    kind: NodeKind,
    enabled: bool,
    is_source: bool,
    pacing: PacingPolicy,
    compress: CompressOp,
    filter: Filter,
    backward: BackwardStpVec,
    meter: StpMeter,
    pacer: Pacer,
    cached_summary: Option<Stp>,
    staleness: Option<Micros>,
    /// Control law between the raw summary and the pacer (threads only;
    /// buffers never pace). Fired event-style — see [`crate::law`].
    law: Law,
    /// Last raw target handed to the law (`None` = law has no target).
    law_raw: Option<Stp>,
    /// Last applied decision the law produced.
    law_target: Option<Stp>,
    /// The law fired since the last `iteration_end` read the flag.
    law_fired: bool,
    /// The law's last decision differed from the raw target.
    law_clamped: bool,
    /// When downstream feedback last arrived through
    /// [`AruController::receive_feedback_at`]; `None` until the first
    /// timestamped delivery (untimestamped feedback never goes stale).
    last_feedback: Option<SimTime>,
}

impl AruController {
    /// Create the controller for a node with `n_outputs` output connections.
    /// `is_source` marks threads with no upstream inputs (candidates for
    /// `SourcesOnly` pacing); it is ignored for buffers.
    #[must_use]
    pub fn new(kind: NodeKind, n_outputs: usize, is_source: bool, config: &AruConfig) -> Self {
        AruController {
            kind,
            enabled: config.enabled,
            is_source,
            pacing: config.pacing,
            compress: config.compress.clone(),
            filter: Filter::new(config.filter),
            backward: BackwardStpVec::new(n_outputs),
            meter: StpMeter::new(),
            pacer: Pacer::new(),
            cached_summary: None,
            staleness: config.staleness,
            law: Law::new(config.control),
            law_raw: None,
            law_target: None,
            law_fired: false,
            law_clamped: false,
            last_feedback: None,
        }
    }

    #[must_use]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Latest summary-STP to piggyback upstream; `None` until the node knows
    /// anything (or forever, when ARU is disabled).
    #[must_use]
    pub fn summary(&self) -> Option<Stp> {
        self.cached_summary
    }

    /// Pre-size the backward vector to `n` output slots (used when the
    /// final out-degree becomes known after controller construction).
    pub fn ensure_outputs(&mut self, n: usize) {
        if n > 0 {
            self.backward.ensure_slot(n - 1);
        }
    }

    /// Feedback arrived from downstream on output connection `out_index`
    /// (from a consumer `get` for buffers, from a `put` return for threads).
    /// Returns the refreshed summary.
    ///
    /// Untimestamped variant: the feedback is treated as eternally fresh.
    /// Runtimes that enforce a staleness horizon must use
    /// [`AruController::receive_feedback_at`] instead.
    pub fn receive_feedback(&mut self, out_index: usize, stp: Stp) -> Option<Stp> {
        if !self.enabled {
            return None;
        }
        self.backward.update(out_index, stp);
        self.recompute();
        self.cached_summary
    }

    /// Timestamped [`AruController::receive_feedback`]: also records `now`
    /// as the feedback's arrival time so [`AruController::iteration_end`]
    /// can age it against the staleness horizon.
    pub fn receive_feedback_at(&mut self, out_index: usize, stp: Stp, now: SimTime) -> Option<Stp> {
        let out = self.receive_feedback(out_index, stp);
        if self.enabled {
            self.last_feedback = Some(now);
        }
        out
    }

    /// Is the newest downstream feedback older than the staleness horizon
    /// at `now`? Always false when no horizon is configured or no
    /// timestamped feedback has arrived yet.
    fn feedback_is_stale(&self, now: SimTime) -> bool {
        match (self.staleness, self.last_feedback) {
            (Some(horizon), Some(last)) => now.since(last) > horizon,
            _ => false,
        }
    }

    fn recompute(&mut self) {
        let compressed = self.backward.compressed(&self.compress);
        let raw = match self.kind {
            NodeKind::Thread => summary_for_thread(compressed, self.meter.current()),
            // Buffers do not execute: they forward the compressed value.
            NodeKind::Channel | NodeKind::Queue => compressed,
        };
        self.cached_summary = raw.map(|s| self.filter.apply(s));
        if self.kind.is_thread() {
            self.retarget(false);
        }
    }

    /// Event-driven law invocation: fire [`Law::decide`] when the raw
    /// pacing target changed, or — with `fire_pending`, once per iteration —
    /// while the law is still approaching an earlier target. A converged
    /// pipeline fires nothing; under `Direct` the applied target is always
    /// the raw summary, byte-identical to the pre-law pipeline.
    fn retarget(&mut self, fire_pending: bool) {
        let Some(raw) = self.cached_summary else {
            // Lost all knowledge: forget the law's trajectory so the next
            // feedback anchors fresh instead of approaching from a ghost.
            if self.law_raw.take().is_some() {
                self.law.reset();
                self.law_target = None;
            }
            self.pacer.set_target(None);
            return;
        };
        if self.law_raw != Some(raw) || (fire_pending && self.law.pending()) {
            let d = self.law.decide(raw);
            self.law_raw = Some(raw);
            self.law_target = Some(d.target);
            self.law_clamped = d.clamped;
            self.law_fired = true;
        }
        self.pacer.set_target(self.law_target);
    }

    // ---- thread-loop hooks -------------------------------------------------

    /// Start of a task-loop iteration. Like the other hooks it never
    /// panics: a degenerate hook sequence (e.g. a blocking window left open
    /// by an interrupted op) is repaired by the meter (see [`StpMeter`]).
    pub fn iteration_begin(&mut self, now: SimTime) {
        debug_assert!(self.kind.is_thread(), "iteration hooks are thread-only");
        self.meter.iteration_begin(now);
    }

    /// The thread starts blocking on upstream data.
    pub fn block_begin(&mut self, now: SimTime) {
        self.meter.block_begin(now);
    }

    /// Upstream data arrived.
    pub fn block_end(&mut self, now: SimTime) {
        self.meter.block_end(now);
    }

    #[must_use]
    pub fn is_blocked(&self) -> bool {
        self.meter.is_blocked()
    }

    /// End of a task-loop iteration — the paper's `periodicity_sync()` call.
    /// Computes current-STP, refreshes the summary, and returns the pacing
    /// sleep according to the configured policy.
    ///
    /// When a staleness horizon is configured and the newest downstream
    /// feedback is older than it, the summary (and hence the pacing target)
    /// decays linearly from the frozen value toward the thread's own
    /// current-STP over one further horizon span; past `2·horizon` the
    /// thread is fully un-paced. Lost feedback therefore degrades to No-ARU
    /// production instead of pacing off a wedged value forever.
    pub fn iteration_end(&mut self, now: SimTime) -> IterationOutcome {
        debug_assert!(self.kind.is_thread(), "iteration hooks are thread-only");
        let current = self.meter.iteration_end(now);
        if self.enabled {
            self.recompute();
        }
        let mut stale = false;
        if self.enabled && self.feedback_is_stale(now) {
            stale = true;
            self.decay_stale_summary(now, current);
        } else if self.enabled && !self.law_fired {
            // No decision since the last iteration (the raw target is
            // constant): give a mid-approach law its per-iteration step.
            self.retarget(true);
        }
        let paced = self.should_pace();
        let sleep = if paced {
            self.pacer.sleep_until_release(now)
        } else {
            Micros::ZERO
        };
        IterationOutcome {
            current_stp: current,
            summary: self.cached_summary,
            sleep,
            paced,
            stale,
            law_fired: std::mem::take(&mut self.law_fired),
            raw_target: self.law_raw,
            pace_target: self.pacer.target(),
            clamped: self.law_clamped,
        }
    }

    /// Blend the frozen summary toward `current` according to how far past
    /// the horizon the feedback has aged. Writes the decayed value into the
    /// cached summary (so upstream piggybacks see it too) and retargets the
    /// pacer; the backward vector keeps the raw values, so the blend is
    /// recomputed — not compounded — every iteration.
    fn decay_stale_summary(&mut self, now: SimTime, current: Stp) {
        let (Some(horizon), Some(last)) = (self.staleness, self.last_feedback) else {
            return;
        };
        let Some(summary) = self.cached_summary else {
            return;
        };
        let over = now.since(last).saturating_sub(horizon);
        let w = if horizon.is_zero() {
            1.0
        } else {
            (over.as_micros() as f64 / horizon.as_micros() as f64).min(1.0)
        };
        let s = summary.as_micros() as f64;
        let own = current.as_micros() as f64;
        let decayed = Stp::from_micros((s + (own - s) * w).round() as u64);
        self.cached_summary = Some(decayed);
        if self.kind.is_thread() {
            // The staleness guardrail overrides the control law: the decayed
            // target goes straight to the pacer, and the law forgets its
            // trajectory so revival on fresh feedback anchors cleanly at the
            // oracle instead of approaching from a ghost of the frozen value.
            self.law.reset();
            self.law_raw = None;
            self.law_target = None;
            // Fully aged out: clear the target so the thread is un-paced,
            // exactly as if ARU had never heard from downstream.
            self.pacer
                .set_target(if w >= 1.0 { None } else { Some(decayed) });
        }
    }

    fn should_pace(&self) -> bool {
        self.enabled
            && match self.pacing {
                PacingPolicy::SourcesOnly => self.is_source,
                PacingPolicy::AllThreads => true,
            }
    }

    /// Access the meter's cumulative counters (total busy/blocked time).
    #[must_use]
    pub fn meter(&self) -> &StpMeter {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Stp {
        Stp::from_micros(v)
    }

    #[test]
    fn disabled_controller_is_inert() {
        let mut c = AruController::new(NodeKind::Thread, 1, true, &AruConfig::disabled());
        assert_eq!(c.receive_feedback(0, us(500)), None);
        c.iteration_begin(SimTime(0));
        let out = c.iteration_end(SimTime(100));
        assert_eq!(out.current_stp, us(100));
        assert_eq!(out.summary, None);
        assert_eq!(out.sleep, Micros::ZERO);
    }

    #[test]
    fn buffer_forwards_compressed_min() {
        let mut c = AruController::new(NodeKind::Channel, 2, false, &AruConfig::aru_min());
        assert_eq!(c.receive_feedback(0, us(300)), Some(us(300)));
        assert_eq!(c.receive_feedback(1, us(150)), Some(us(150)));
        // min keeps the fastest consumer even when the slow one updates
        assert_eq!(c.receive_feedback(0, us(900)), Some(us(150)));
    }

    #[test]
    fn buffer_forwards_compressed_max() {
        let mut c = AruController::new(NodeKind::Channel, 2, false, &AruConfig::aru_max());
        c.receive_feedback(0, us(300));
        assert_eq!(c.receive_feedback(1, us(150)), Some(us(300)));
    }

    #[test]
    fn thread_summary_includes_own_period() {
        let mut c = AruController::new(NodeKind::Thread, 1, false, &AruConfig::aru_min());
        c.iteration_begin(SimTime(0));
        let out = c.iteration_end(SimTime(400));
        // No downstream feedback yet: summary = own current-STP.
        assert_eq!(out.summary, Some(us(400)));
        // Downstream reports faster consumer: max(own, feedback).
        assert_eq!(c.receive_feedback(0, us(100)), Some(us(400)));
        // Downstream reports slower consumer.
        assert_eq!(c.receive_feedback(0, us(900)), Some(us(900)));
    }

    #[test]
    fn source_thread_paces_to_feedback() {
        let mut c = AruController::new(NodeKind::Thread, 1, true, &AruConfig::aru_min());
        c.iteration_begin(SimTime(0));
        let o1 = c.iteration_end(SimTime(100)); // own period 100
        assert_eq!(o1.sleep, Micros::ZERO, "first iteration anchors only");
        c.receive_feedback(0, us(1000)); // downstream is 10x slower
        c.iteration_begin(SimTime(100));
        let o2 = c.iteration_end(SimTime(200));
        assert_eq!(o2.summary, Some(us(1000)));
        assert!(
            o2.sleep > Micros(700),
            "source must sleep most of the period, got {}",
            o2.sleep
        );
        assert!(o2.paced, "policy selected this source");
    }

    #[test]
    fn non_source_thread_does_not_pace_under_sources_only() {
        let mut c = AruController::new(NodeKind::Thread, 1, false, &AruConfig::aru_min());
        c.receive_feedback(0, us(1000));
        c.iteration_begin(SimTime(0));
        let out = c.iteration_end(SimTime(10));
        assert_eq!(out.sleep, Micros::ZERO);
        assert!(!out.paced, "interior thread is skipped under SourcesOnly");
    }

    #[test]
    fn all_threads_policy_paces_interior_threads() {
        let cfg = AruConfig::aru_min().with_pacing(PacingPolicy::AllThreads);
        let mut c = AruController::new(NodeKind::Thread, 1, false, &cfg);
        c.receive_feedback(0, us(1000));
        c.iteration_begin(SimTime(0));
        c.iteration_end(SimTime(10)); // anchor
        c.iteration_begin(SimTime(10));
        let out = c.iteration_end(SimTime(20));
        assert!(out.sleep > Micros::ZERO);
    }

    #[test]
    fn filter_is_applied_to_outgoing_summary() {
        let cfg = AruConfig::aru_min().with_filter(FilterSpec::Median(3));
        let mut c = AruController::new(NodeKind::Channel, 1, false, &cfg);
        c.receive_feedback(0, us(100));
        c.receive_feedback(0, us(100));
        // One outlier is filtered away by the median.
        assert_eq!(c.receive_feedback(0, us(99_999)), Some(us(100)));
    }

    #[test]
    fn out_of_domain_filter_params_pass_summaries_through() {
        // Alpha outside (0, 1] or NaN smooths as Ewma(1.0); a zero-length
        // median window as Median(1). Both are the identity.
        for spec in [
            FilterSpec::Ewma(0.0),
            FilterSpec::Ewma(f64::NAN),
            FilterSpec::Ewma(1.5),
            FilterSpec::Median(0),
        ] {
            let cfg = AruConfig::aru_min().with_filter(spec);
            let mut c = AruController::new(NodeKind::Channel, 1, false, &cfg);
            for v in [100, 99_999, 7, 100, 3_000] {
                assert_eq!(c.receive_feedback(0, us(v)), Some(us(v)), "{spec:?}");
            }
        }
    }

    #[test]
    fn blocking_excluded_from_current_stp() {
        let mut c = AruController::new(NodeKind::Thread, 1, false, &AruConfig::aru_min());
        c.iteration_begin(SimTime(0));
        c.block_begin(SimTime(10));
        assert!(c.is_blocked());
        c.block_end(SimTime(60));
        assert!(!c.is_blocked());
        let out = c.iteration_end(SimTime(100));
        assert_eq!(out.current_stp, us(50));
    }

    #[test]
    fn untimestamped_feedback_never_goes_stale() {
        let cfg = AruConfig::aru_min().with_staleness(Micros(10));
        let mut c = AruController::new(NodeKind::Thread, 1, true, &cfg);
        c.receive_feedback(0, us(10_000));
        c.iteration_begin(SimTime(1_000_000));
        let out = c.iteration_end(SimTime(1_000_100));
        assert!(!out.stale);
        assert_eq!(out.summary, Some(us(10_000)));
    }

    #[test]
    fn stale_decay_is_linear_between_horizons() {
        let cfg = AruConfig::aru_min().with_staleness(Micros(1000));
        let mut c = AruController::new(NodeKind::Thread, 1, true, &cfg);
        c.receive_feedback_at(0, us(10_000), SimTime(0));
        assert!(!c.feedback_is_stale(SimTime(1000)));
        assert!(c.feedback_is_stale(SimTime(1001)));
        // Age 1500 = horizon + 500 → halfway through the decay span:
        // 10_000 + (100 − 10_000)·0.5 = 5050.
        c.iteration_begin(SimTime(1400));
        let out = c.iteration_end(SimTime(1500));
        assert!(out.stale);
        assert_eq!(out.current_stp, us(100));
        assert_eq!(out.summary, Some(us(5050)));
        assert_eq!(c.summary(), Some(us(5050)));
    }

    #[test]
    fn stale_feedback_fully_decays_to_unpaced_and_revives() {
        let cfg = AruConfig::aru_min().with_staleness(Micros(1000));
        let mut c = AruController::new(NodeKind::Thread, 1, true, &cfg);
        c.receive_feedback_at(0, us(10_000), SimTime(0));
        // Fresh: the source paces to the 10 ms summary.
        c.iteration_begin(SimTime(0));
        c.iteration_end(SimTime(100)); // anchor
        c.iteration_begin(SimTime(100));
        let paced = c.iteration_end(SimTime(200));
        assert!(!paced.stale);
        assert!(
            paced.sleep > Micros(7000),
            "expected a long pace, got {}",
            paced.sleep
        );
        // Past 2·horizon: summary collapses to own current-STP, no pacing.
        c.iteration_begin(SimTime(50_000));
        let out = c.iteration_end(SimTime(50_100));
        assert!(out.stale);
        assert_eq!(out.summary, Some(us(100)));
        c.iteration_begin(SimTime(50_100));
        let out2 = c.iteration_end(SimTime(50_200));
        assert_eq!(out2.sleep, Micros::ZERO, "stale source must run un-paced");
        // Fresh feedback revives pacing immediately.
        c.receive_feedback_at(0, us(10_000), SimTime(50_200));
        c.iteration_begin(SimTime(50_200));
        let revived = c.iteration_end(SimTime(50_300));
        assert!(!revived.stale);
        assert_eq!(revived.summary, Some(us(10_000)));
    }

    #[test]
    fn law_fires_on_change_not_every_iteration() {
        // Direct law, constant feedback: the law fires once for the first
        // summary and once when the thread's own STP first enters the max —
        // after that the raw target is constant and nothing fires.
        let mut c = AruController::new(NodeKind::Thread, 1, true, &AruConfig::aru_min());
        c.receive_feedback(0, us(10_000));
        c.iteration_begin(SimTime(0));
        let o1 = c.iteration_end(SimTime(100));
        assert!(o1.law_fired, "first target is a change event");
        assert_eq!(o1.raw_target, Some(us(10_000)));
        assert_eq!(o1.pace_target, Some(us(10_000)));
        assert!(!o1.clamped, "direct never clamps");
        c.iteration_begin(SimTime(100));
        let o2 = c.iteration_end(SimTime(200));
        assert!(!o2.law_fired, "constant raw target: no event, no decision");
        assert_eq!(o2.pace_target, Some(us(10_000)));
    }

    #[test]
    fn pending_law_fires_on_the_iteration_tick_until_settled() {
        let cfg = AruConfig::aru_min().with_control(ControllerConfig::Hysteresis);
        let mut c = AruController::new(NodeKind::Thread, 1, true, &cfg);
        c.receive_feedback(0, us(100_000));
        c.iteration_begin(SimTime(0));
        let o1 = c.iteration_end(SimTime(100));
        assert_eq!(o1.pace_target, Some(us(100_000)), "anchored at the oracle");
        // The raw target doubles; the applied target slews 2.5 % per
        // decision instead of jumping.
        c.receive_feedback(0, us(200_000));
        c.iteration_begin(SimTime(100));
        let o2 = c.iteration_end(SimTime(200));
        assert_eq!(o2.raw_target, Some(us(200_000)));
        assert_eq!(o2.pace_target, Some(us(102_500)));
        assert!(o2.clamped);
        assert!(o2.law_fired);
        // Constant raw target, pending approach: one decision per iteration
        // tick until the applied target is inside the dead-band, then none.
        let mut ticks = 0;
        let settled = loop {
            let t = 200 + ticks * 100;
            c.iteration_begin(SimTime(t));
            let o = c.iteration_end(SimTime(t + 100));
            if !o.law_fired {
                break o.pace_target.unwrap();
            }
            ticks += 1;
            assert!(ticks < 50, "approach never settled");
        };
        assert_eq!(ticks, 16, "1.025^17 is the first step past 1.5");
        assert!(settled >= us(150_000), "inside the 25 % band: {settled}");
    }

    #[test]
    fn staleness_overrides_law_and_revival_anchors_fresh() {
        let cfg = AruConfig::aru_min()
            .with_staleness(Micros(1000))
            .with_control(ControllerConfig::Hysteresis);
        let mut c = AruController::new(NodeKind::Thread, 1, true, &cfg);
        c.receive_feedback_at(0, us(10_000), SimTime(0));
        c.iteration_begin(SimTime(0));
        c.iteration_end(SimTime(100));
        // Past 2·horizon: the guardrail un-paces regardless of the law.
        c.iteration_begin(SimTime(50_000));
        let out = c.iteration_end(SimTime(50_100));
        assert!(out.stale);
        c.iteration_begin(SimTime(50_100));
        let out2 = c.iteration_end(SimTime(50_200));
        assert_eq!(out2.sleep, Micros::ZERO, "stale source runs un-paced");
        // Fresh feedback: the law anchors at the new oracle immediately —
        // no slew-limited walk from the pre-staleness value.
        c.receive_feedback_at(0, us(40_000), SimTime(50_200));
        c.iteration_begin(SimTime(50_200));
        let revived = c.iteration_end(SimTime(50_300));
        assert!(!revived.stale);
        assert_eq!(revived.pace_target, Some(us(40_000)));
        assert!(!revived.clamped);
    }

    #[test]
    fn degenerate_hook_sequences_do_not_panic() {
        let mut c = AruController::new(NodeKind::Thread, 1, true, &AruConfig::aru_min());
        // iteration_end with no begin: zero-length iteration, no panic.
        let out = c.iteration_end(SimTime(100));
        assert_eq!(out.current_stp, us(0));
        // Unbalanced block hooks inside an iteration: repaired, no panic.
        c.iteration_begin(SimTime(100));
        c.block_end(SimTime(110)); // unbalanced end → ignored
        c.block_begin(SimTime(120));
        c.block_begin(SimTime(130)); // nested begin → first window kept
        let out = c.iteration_end(SimTime(200)); // open window closed here
        assert_eq!(out.current_stp, us(20), "blocked [120,200) excluded");
        // begin while a window is open (shutdown mid-wait): repaired.
        c.iteration_begin(SimTime(200));
        c.block_begin(SimTime(210));
        c.iteration_begin(SimTime(300));
        let out = c.iteration_end(SimTime(350));
        assert_eq!(out.current_stp, us(50));
    }

    #[test]
    fn meter_counters_accumulate() {
        let mut c = AruController::new(NodeKind::Thread, 0, true, &AruConfig::aru_min());
        c.iteration_begin(SimTime(0));
        c.iteration_end(SimTime(70));
        c.iteration_begin(SimTime(70));
        c.block_begin(SimTime(80));
        c.block_end(SimTime(100));
        c.iteration_end(SimTime(150));
        assert_eq!(c.meter().iterations(), 2);
        assert_eq!(c.meter().total_busy(), Micros(70 + 60));
        assert_eq!(c.meter().total_blocked(), Micros(20));
    }
}
