//! Task threads: the canonical Stampede loop plus ARU hooks.
//!
//! Every application task runs:
//!
//! ```text
//! loop {
//!     iteration_begin                  // clock read
//!     body(ctx)                        // gets (may block) → compute → puts
//!     release consumed inputs          // the channels' GC marks advance
//!     DGC pass, if due                 // one task at a time, never waits
//!     periodicity_sync                 // current-STP, summary-STP, pacing
//!     sleep(pacing residual)           // sources only, by default
//! }
//! ```
//!
//! The runtime owns the loop; the application supplies only the body, which
//! is exactly the programming model the paper describes ("each thread is
//! required to call \[periodicity_sync\] at the end of every thread iteration
//! loop" — here the runtime calls it for you).

use crate::error::{Step, TaskResult};
use crate::runtime::DgcPass;
use crate::shutdown::Shutdown;
use crate::tele::TaskTele;
use aru_core::{AruConfig, AruController, NodeId, NodeKind, Stp};
use aru_metrics::{IterKey, SharedTrace};
use std::sync::Arc;
use vtime::{Clock, Micros, SimTime, Timestamp};

/// Per-task context handed to the body on every iteration.
///
/// It carries the thread's ARU controller (STP meter, backward vector,
/// pacer), the trace recorder, the shutdown signal and, in a DGC run, the
/// cross-graph pass it shares with the other tasks.
pub struct TaskCtx {
    node: NodeId,
    name: String,
    seq: u64,
    controller: AruController,
    /// Retained so [`TaskCtx::recover`] can rebuild the controller after a
    /// crash (controller state from a half-finished iteration is garbage).
    config: AruConfig,
    n_outputs: usize,
    is_source: bool,
    /// Deadline applied to every blocking channel/queue operation this task
    /// issues; `None` means block forever (classic Stampede semantics).
    op_timeout: Option<Micros>,
    clock: Arc<dyn Clock>,
    trace: SharedTrace,
    shutdown: Shutdown,
    /// `None` outside `GcMode::Dgc`: nothing is skipped, no pass runs.
    dgc: Option<Arc<DgcPass>>,
    /// Deferred channel releases, flushed when the iteration ends
    /// (consume-on-iteration-end semantics).
    releases: Vec<Box<dyn FnOnce() + Send>>,
    /// Thread-private live telemetry: STP gauges, iteration/pacing
    /// counters, sampled op latency, journaled feedback hops (DESIGN.md §12).
    tele: TaskTele,
}

impl TaskCtx {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: NodeId,
        name: String,
        n_outputs: usize,
        is_source: bool,
        config: &AruConfig,
        clock: Arc<dyn Clock>,
        trace: SharedTrace,
        shutdown: Shutdown,
        dgc: Option<Arc<DgcPass>>,
    ) -> Self {
        let tele = TaskTele::new(trace.telemetry(), &name, config.control.label());
        TaskCtx {
            node,
            name,
            seq: 0,
            controller: AruController::new(NodeKind::Thread, n_outputs, is_source, config),
            config: config.clone(),
            n_outputs,
            is_source,
            op_timeout: None,
            clock,
            trace,
            shutdown,
            dgc,
            releases: Vec::new(),
            tele,
        }
    }

    /// This task's node id in the task graph.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Task name (diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Identity of the current iteration (for trace lineage).
    #[must_use]
    pub fn iter_key(&self) -> IterKey {
        IterKey::new(self.node, self.seq)
    }

    /// DGC computation elimination (paper §4): is virtual time `ts` already
    /// dead in every buffer this thread feeds? If so, processing an input
    /// with that timestamp is provably wasted and the body should skip it.
    #[must_use]
    pub fn should_skip(&self, ts: Timestamp) -> bool {
        self.dgc
            .as_ref()
            .is_some_and(|d| ts < d.result.read().thread_skip_before(self.node))
    }

    /// Record that this (sink) task emitted a pipeline output for frame
    /// `ts` — e.g. the GUI displayed a tracking result.
    pub fn emit_output(&mut self, ts: Timestamp) {
        let now = self.clock.now();
        self.trace.sink_output(now, self.iter_key(), ts);
    }

    /// The thread's current summary-STP (piggybacked on gets).
    #[must_use]
    pub fn summary(&self) -> Option<Stp> {
        self.controller.summary()
    }

    // ---- hooks used by channel/queue endpoints ------------------------------

    pub(crate) fn block_begin(&mut self, now: SimTime) {
        self.controller.block_begin(now);
    }

    pub(crate) fn block_end(&mut self, now: SimTime) {
        self.controller.block_end(now);
    }

    pub(crate) fn receive_feedback(&mut self, out_index: usize, stp: Stp) {
        let now = self.clock.now();
        self.controller.receive_feedback_at(out_index, stp, now);
    }

    /// [`TaskCtx::receive_feedback`] that also journals a `Fold` hop
    /// naming the buffer the summary came back from.
    pub(crate) fn receive_feedback_from(&mut self, out_index: usize, stp: Stp, from: NodeId) {
        let now = self.clock.now();
        self.tele.on_fold(now, self.node, from, stp.period());
        self.controller.receive_feedback_at(out_index, stp, now);
    }

    /// Feedback fold with a caller-provided time: the fan-out path folds N
    /// channels' summaries at one shared clock read instead of N reads.
    /// Records the `Fold` hop like [`TaskCtx::receive_feedback_from`].
    pub(crate) fn receive_feedback_from_at(
        &mut self,
        out_index: usize,
        stp: Stp,
        now: SimTime,
        from: NodeId,
    ) {
        self.tele.on_fold(now, self.node, from, stp.period());
        self.controller.receive_feedback_at(out_index, stp, now);
    }

    /// Latency sample gate for endpoint ops (1 in N; see `tele`).
    pub(crate) fn op_sample(&mut self) -> Option<std::time::Instant> {
        self.tele.op_sample()
    }

    pub(crate) fn record_put_ns(&mut self, t0: std::time::Instant) {
        self.tele.record_put_ns(t0);
    }

    pub(crate) fn record_get_ns(&mut self, t0: std::time::Instant) {
        self.tele.record_get_ns(t0);
    }

    /// Op timeout applied by blocking buffer operations.
    pub(crate) fn op_timeout(&self) -> Option<Micros> {
        self.op_timeout
    }

    pub(crate) fn set_op_timeout(&mut self, timeout: Option<Micros>) {
        self.op_timeout = timeout;
    }

    /// Register a channel release to run when the current iteration ends.
    pub(crate) fn defer_release(&mut self, release: Box<dyn FnOnce() + Send>) {
        self.releases.push(release);
    }

    // ---- loop driver --------------------------------------------------------

    /// Run the task loop to completion. Returns the number of iterations.
    ///
    /// Borrows `self` and the body so the supervisor can call it again with
    /// the same context after a crash (see [`TaskCtx::recover`]); iteration
    /// seqs therefore stay unique across restarts.
    pub(crate) fn run(&mut self, body: &mut (dyn FnMut(&mut TaskCtx) -> TaskResult + Send)) -> u64 {
        loop {
            if self.shutdown.is_set() {
                break;
            }
            let t0 = self.clock.now();
            self.controller.iteration_begin(t0);
            let step = body(self);
            debug_assert!(
                !self.controller.is_blocked(),
                "task body returned while blocked"
            );
            // The iteration is over: release every item it consumed so the
            // channels' GC marks advance.
            for release in self.releases.drain(..) {
                release();
            }
            let t1 = self.clock.now();
            if let Some(dgc) = &self.dgc {
                dgc.run_if_due(t1);
            }
            let outcome = self.controller.iteration_end(t1);
            self.tele
                .on_iteration(t1, self.node, &outcome, self.controller.meter());
            let key = self.iter_key();
            self.trace.iter_end(t1, key, outcome.current_stp.period());
            if outcome.stale {
                self.trace.stale_summary(t1, key);
            }
            if outcome.law_fired {
                if let (Some(raw), Some(target)) = (outcome.raw_target, outcome.pace_target) {
                    self.trace.pace_decision(
                        t1,
                        self.node,
                        raw.period(),
                        target.period(),
                        outcome.clamped,
                    );
                }
            }
            self.seq += 1;
            match step {
                Ok(Step::Continue) => {
                    if !outcome.sleep.is_zero() && self.shutdown.sleep(outcome.sleep) {
                        break;
                    }
                }
                Ok(Step::Stop) | Err(_) => break,
            }
        }
        self.seq
    }

    /// Reset after a crash, before the supervisor re-enters [`TaskCtx::run`].
    ///
    /// The controller is rebuilt from the stored config — STP meter state
    /// from the half-finished iteration (e.g. an unmatched `block_begin`) is
    /// unusable, and summary feedback will re-arrive on the next get/put.
    /// Deferred releases from the crashed iteration are still executed so the
    /// consumed items don't pin channel GC forever. The iteration seq is
    /// advanced past the crashed iteration so its `IterKey` is never reused.
    pub(crate) fn recover(&mut self) {
        for release in self.releases.drain(..) {
            release();
        }
        self.controller = AruController::new(
            NodeKind::Thread,
            self.n_outputs,
            self.is_source,
            &self.config,
        );
        self.tele.on_recover();
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StampedeError;
    use vtime::{ManualClock, Micros};

    fn ctx(clock: ManualClock) -> TaskCtx {
        TaskCtx::new(
            NodeId(0),
            "t".into(),
            1,
            true,
            &AruConfig::aru_min(),
            Arc::new(clock),
            SharedTrace::new(),
            Shutdown::new(),
            None,
        )
    }

    #[test]
    fn loop_stops_on_stop() {
        let clock = ManualClock::new();
        let mut c = ctx(clock);
        let mut count = 0;
        let iters = c.run(&mut move |_: &mut TaskCtx| {
            count += 1;
            if count >= 3 {
                Ok(Step::Stop)
            } else {
                Ok(Step::Continue)
            }
        });
        assert_eq!(iters, 3);
    }

    #[test]
    fn loop_stops_on_error() {
        let clock = ManualClock::new();
        let mut c = ctx(clock);
        let iters = c.run(&mut |_: &mut TaskCtx| Err(StampedeError::Closed));
        assert_eq!(iters, 1);
    }

    #[test]
    fn loop_stops_on_shutdown() {
        let clock = ManualClock::new();
        let shutdown = Shutdown::new();
        let mut c = TaskCtx::new(
            NodeId(0),
            "t".into(),
            0,
            true,
            &AruConfig::aru_min(),
            Arc::new(clock),
            SharedTrace::new(),
            shutdown.clone(),
            None,
        );
        shutdown.set();
        let iters = c.run(&mut |_: &mut TaskCtx| Ok(Step::Continue));
        assert_eq!(iters, 0);
    }

    #[test]
    fn iterations_are_traced() {
        let clock = ManualClock::new();
        let trace = SharedTrace::new();
        let mut c = TaskCtx::new(
            NodeId(7),
            "t".into(),
            0,
            true,
            &AruConfig::aru_min(),
            Arc::new(clock.clone()),
            trace.clone(),
            Shutdown::new(),
            None,
        );
        let mut n = 0;
        c.run(&mut move |ctx: &mut TaskCtx| {
            let _ = ctx.now(); // touch
            n += 1;
            if n >= 2 {
                Ok(Step::Stop)
            } else {
                Ok(Step::Continue)
            }
        });
        let snap = trace.snapshot();
        let iter_ends = snap
            .events()
            .iter()
            .filter(|e| matches!(e, aru_metrics::TraceEvent::IterEnd { .. }))
            .count();
        assert_eq!(iter_ends, 2);
    }

    #[test]
    fn emit_output_traces_sink_event() {
        let clock = ManualClock::new();
        clock.set(SimTime(50));
        let trace = SharedTrace::new();
        let mut c = TaskCtx::new(
            NodeId(1),
            "gui".into(),
            0,
            false,
            &AruConfig::aru_min(),
            Arc::new(clock),
            trace.clone(),
            Shutdown::new(),
            None,
        );
        c.emit_output(Timestamp(4));
        let snap = trace.snapshot();
        assert!(matches!(
            snap.events()[0],
            aru_metrics::TraceEvent::SinkOutput {
                ts: Timestamp(4),
                ..
            }
        ));
    }

    #[test]
    fn pacing_sleep_is_interruptible() {
        // Source paced to a huge period must still stop promptly.
        let shutdown = Shutdown::new();
        let mut c = TaskCtx::new(
            NodeId(0),
            "src".into(),
            1,
            true,
            &AruConfig::aru_min(),
            Arc::new(vtime::WallClock::new()),
            SharedTrace::new(),
            shutdown.clone(),
            None,
        );
        c.receive_feedback(0, Stp(Micros::from_secs(3600)));
        let s2 = shutdown.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            s2.set();
        });
        let t0 = std::time::Instant::now();
        c.run(&mut |_: &mut TaskCtx| Ok(Step::Continue));
        assert!(t0.elapsed() < std::time::Duration::from_secs(10));
        h.join().unwrap();
    }

    #[test]
    fn recover_resets_controller_and_skips_crashed_seq() {
        let clock = ManualClock::new();
        let mut c = ctx(clock);
        // Simulate a crash mid-iteration: blocked, feedback received,
        // releases pending.
        let released = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let r2 = Arc::clone(&released);
        c.block_begin(SimTime(0));
        c.receive_feedback(0, Stp(Micros(500)));
        c.defer_release(Box::new(move || {
            r2.store(true, std::sync::atomic::Ordering::SeqCst);
        }));
        let crashed_key = c.iter_key();
        c.recover();
        assert!(
            released.load(std::sync::atomic::Ordering::SeqCst),
            "pending releases must run so GC marks advance"
        );
        assert_ne!(c.iter_key(), crashed_key, "crashed IterKey never reused");
        assert_eq!(c.summary(), None, "controller state rebuilt from scratch");
        // The rebuilt loop runs normally.
        let mut n = 0;
        let iters = c.run(&mut move |_: &mut TaskCtx| {
            n += 1;
            if n >= 2 {
                Ok(Step::Stop)
            } else {
                Ok(Step::Continue)
            }
        });
        assert!(iters >= 2);
    }
}
