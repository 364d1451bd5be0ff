//! Task threads: the canonical Stampede loop plus ARU hooks.
//!
//! Every application task runs:
//!
//! ```text
//! loop {
//!     iteration_begin                  // the last iteration's end read
//!     body(ctx)                        // gets (may block) → compute → puts
//!     release consumed inputs          // the channels' GC marks advance
//!     iteration end                    // clock read
//!     DGC pass, if due                 // one task at a time, never waits
//!     periodicity_sync                 // current-STP, summary-STP, pacing
//!     sleep(pacing residual)           // sources only, by default
//! }
//! ```
//!
//! Time and records go through the context. It keeps its last clock read,
//! and every stamp that a read taken for another transition can serve
//! reuses it: an iteration begins at the previous one's end read (a pacing
//! sleep or a DGC pass in between forces a fresh read), a get that did not
//! block is stamped with the last read, a get that blocked at its wake-up
//! read. Puts, sink outputs, block begin/end and iteration ends are fresh
//! reads. A stamp recorded in a buffer is raised to that buffer's last
//! record (`TaskCtx::stamp_after`), so every trace writer is in time order
//! (DESIGN.md §9 lists every stamp). The task's own
//! trace records go to a buffered [`LocalTrace`] and its telemetry counters
//! to plain deltas, drained to the registry before it blocks or sleeps,
//! every 64 iterations (`tele::TASK_DRAIN`) and when the loop exits.
//!
//! Every blocking buffer op parks through `TaskCtx::park_op`: the op's
//! deadline, its blocked time and its timeout record belong to the task,
//! whichever buffer it waits on; the buffer supplies only its probe and
//! its wait.
//!
//! The runtime owns the loop; the application supplies only the body, which
//! is exactly the programming model the paper describes ("each thread is
//! required to call \[periodicity_sync\] at the end of every thread iteration
//! loop" — here the runtime calls it for you).

use crate::error::{StampedeError, Step, TaskResult};
use crate::runtime::DgcPass;
use crate::shutdown::Shutdown;
use crate::tele::TaskTele;
use aru_core::{AruConfig, AruController, NodeId, NodeKind, Stp};
use aru_metrics::journal::TaskGates;
use aru_metrics::{IterKey, JournalShard, LocalTrace, SharedTrace};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vtime::{Clock, Micros, SimTime, Timestamp};

/// A buffer whose consumer marks advance when the consuming iteration ends;
/// implemented by [`Channel`](crate::Channel).
pub(crate) trait ChannelRelease: Send + Sync {
    /// Release connection `out_index`'s hold through `ts`.
    fn release(&self, out_index: usize, ts: Timestamp);
}

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
    /// The task's last clock read, which reused stamps take.
    last: SimTime,
    /// The task's own records (iteration ends, sink outputs, stale
    /// summaries, pace decisions, op timeouts, and the supervisor's crash
    /// and restart records), buffered.
    records: LocalTrace,
    shutdown: Shutdown,
    /// `None` outside `GcMode::Dgc`: nothing is skipped, no pass runs.
    dgc: Option<Arc<DgcPass>>,
    /// Deferred channel releases `(channel, out_index, ts)`, run when the
    /// iteration ends (consume-on-iteration-end semantics).
    releases: Vec<(Arc<dyn ChannelRelease>, usize, Timestamp)>,
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
        trace: &SharedTrace,
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
            last: SimTime::ZERO,
            records: trace.local(),
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

    /// Current time: a fresh read, which the task's own stamps do not
    /// reuse.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// A fresh clock read, kept as the task's last read.
    pub(crate) fn read_clock(&mut self) -> SimTime {
        self.last = self.clock.now();
        self.last
    }

    /// The task's last clock read, or a later stamp it already handed out.
    pub(crate) fn last_read(&self) -> SimTime {
        self.last
    }

    /// The stamp of a record this task makes in a buffer whose writer last
    /// recorded at `after`: the task's last read raised to `after`, so the
    /// writer never goes back in time, kept as the last read so the task's
    /// later reused stamps are no earlier.
    pub(crate) fn stamp_after(&mut self, after: SimTime) -> SimTime {
        self.last = self.last.max(after);
        self.last
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
        let now = self.read_clock();
        let key = self.iter_key();
        self.records.sink_output(now, key, ts);
    }

    /// The thread's current summary-STP (piggybacked on gets).
    #[must_use]
    pub fn summary(&self) -> Option<Stp> {
        self.controller.summary()
    }

    // ---- hooks used by channel/queue endpoints ------------------------------

    /// The one wait path of every blocking buffer op.
    ///
    /// `probe` runs on entry and again after every wakeup, on the buffer's
    /// wait state `st` (its held state lock, or the lock-free queue's
    /// epoch and, on a put, the item not yet pushed): `Some` completes the op, `None` parks through `park`, which
    /// waits until woken or until the deadline it is handed and returns
    /// `true` only when that deadline had already passed. The probe's
    /// `woke` is `None` until the op has parked, and afterwards the read
    /// taken on the latest wake-up, which stamps what the probe records.
    ///
    /// On the first park the task reads the clock, begins its blocked time
    /// and sets the op's deadline from its op timeout. The blocked time
    /// ends at the last read the op took, so everything from the first park
    /// on is excluded from the task's current-STP. An op whose deadline
    /// passed fails with `Timeout`, and the task records `OpTimeout` at that
    /// same read: the op did not park again after it.
    ///
    /// Inlined: the lock-free put's ring-has-room path runs only the probe,
    /// and an out-of-line call cost it ~20 ns on a ~45 ns put.
    #[inline]
    pub(crate) fn park_op<S, R>(
        &mut self,
        st: &mut S,
        mut probe: impl FnMut(&mut S, &mut TaskCtx, Option<SimTime>) -> Option<Result<R, StampedeError>>,
        mut park: impl FnMut(&mut S, Option<Instant>) -> bool,
    ) -> Result<R, StampedeError> {
        let mut woke = None;
        let mut deadline = None;
        let res = loop {
            if let Some(done) = probe(st, self, woke) {
                break done;
            }
            if woke.is_none() {
                let now = self.read_clock();
                self.block_begin(now);
                deadline = self.op_timeout.map(|d| Instant::now() + Duration::from(d));
            }
            if park(st, deadline) {
                woke = Some(self.last);
                self.records.op_timeout(self.last, self.node);
                break Err(StampedeError::Timeout);
            }
            woke = Some(self.read_clock());
        };
        if let Some(now) = woke {
            self.block_end(now);
        }
        res
    }

    /// The task is about to park: `now` is a fresh read. Its telemetry
    /// deltas drain here, where the task waits anyway.
    fn block_begin(&mut self, now: SimTime) {
        self.controller.block_begin(now);
        self.tele.drain(self.controller.meter());
    }

    fn block_end(&mut self, now: SimTime) {
        self.controller.block_end(now);
    }

    pub(crate) fn receive_feedback(&mut self, out_index: usize, stp: Stp) {
        let now = self.read_clock();
        self.controller.receive_feedback_at(out_index, stp, now);
    }

    /// Fold a summary a put returned from buffer `from`, at the put's
    /// stamp `now` (the fan-out folds N channels' summaries at its one
    /// read), and journal the `Fold` hop.
    pub(crate) fn receive_feedback_from(
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

    pub(crate) fn set_op_timeout(&mut self, timeout: Option<Micros>) {
        self.op_timeout = timeout;
    }

    /// Record a crash of the task's body at a fresh read: traced in the
    /// task's records, journaled in the supervisor's `shard`.
    pub(crate) fn record_crash(&mut self, shard: &JournalShard, attempt: u32) {
        let now = self.read_clock();
        TaskGates::on_crash(&mut self.records, shard, now, self.node, attempt);
    }

    /// Record the restart that follows a crash, like
    /// [`TaskCtx::record_crash`].
    pub(crate) fn record_restart(&mut self, shard: &JournalShard, attempt: u32, backoff: Micros) {
        let now = self.read_clock();
        TaskGates::on_restart(&mut self.records, shard, now, self.node, attempt, backoff);
    }

    /// Register a channel release to run when the current iteration ends.
    pub(crate) fn defer_release(
        &mut self,
        channel: Arc<dyn ChannelRelease>,
        out_index: usize,
        ts: Timestamp,
    ) {
        self.releases.push((channel, out_index, ts));
    }

    /// Run every deferred release.
    fn run_releases(&mut self) {
        for (channel, out_index, ts) in self.releases.drain(..) {
            channel.release(out_index, ts);
        }
    }

    // ---- loop driver --------------------------------------------------------

    /// Run the task loop to completion. Returns the number of iterations.
    ///
    /// Borrows `self` and the body so the supervisor can call it again with
    /// the same context after a crash (see [`TaskCtx::recover`]); iteration
    /// seqs therefore stay unique across restarts.
    pub(crate) fn run(&mut self, body: &mut (dyn FnMut(&mut TaskCtx) -> TaskResult + Send)) -> u64 {
        // The first iteration, and one after a pacing sleep or a DGC pass,
        // begins at a fresh read; any other at the previous end read.
        let mut fresh = true;
        loop {
            if self.shutdown.is_set() {
                break;
            }
            let t0 = if fresh { self.read_clock() } else { self.last };
            self.controller.iteration_begin(t0);
            let step = body(self);
            debug_assert!(
                !self.controller.is_blocked(),
                "task body returned while blocked"
            );
            // The iteration is over: release every item it consumed so the
            // channels' GC marks advance.
            self.run_releases();
            let t1 = self.read_clock();
            fresh = self.dgc.as_ref().is_some_and(|dgc| dgc.run_if_due(t1));
            let outcome = self.controller.iteration_end(t1);
            let key = self.iter_key();
            let meter = self.controller.meter();
            self.tele
                .on_iteration(&mut self.records, t1, key, &outcome, meter);
            self.seq += 1;
            match step {
                Ok(Step::Continue) if !outcome.sleep.is_zero() => {
                    self.tele.drain(self.controller.meter());
                    if self.shutdown.sleep(outcome.sleep) {
                        break;
                    }
                    fresh = true;
                }
                Ok(Step::Continue) => {}
                Ok(Step::Stop) | Err(_) => break,
            }
        }
        self.records.flush();
        self.tele.drain(self.controller.meter());
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
        self.run_releases();
        self.tele.drain(self.controller.meter());
        self.tele.on_recover();
        self.controller = AruController::new(
            NodeKind::Thread,
            self.n_outputs,
            self.is_source,
            &self.config,
        );
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
            &SharedTrace::new(),
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
            &SharedTrace::new(),
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
            &trace,
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
            &trace,
            Shutdown::new(),
            None,
        );
        c.emit_output(Timestamp(4));
        drop(c); // a dropped context flushes its records
        let snap = trace.snapshot();
        assert!(matches!(
            snap.events()[0],
            aru_metrics::TraceEvent::SinkOutput {
                ts: Timestamp(4),
                ..
            }
        ));
    }

    /// Counters drain in batches (every `TASK_DRAIN` iterations, before a
    /// block, at loop exit), so after the loop exits the registry holds
    /// exactly the run's totals.
    #[test]
    fn telemetry_totals_are_exact_after_the_loop_exits() {
        let clock = ManualClock::new();
        let trace = SharedTrace::new();
        let mut c = TaskCtx::new(
            NodeId(3),
            "t".into(),
            0,
            false,
            &AruConfig::aru_min(),
            Arc::new(clock.clone()),
            &trace,
            Shutdown::new(),
            None,
        );
        let mut n = 0u64;
        let iters = c.run(&mut |ctx: &mut TaskCtx| {
            n += 1;
            clock.advance(Micros(1 + n % 5));
            if n.is_multiple_of(7) {
                let t = ctx.read_clock();
                ctx.block_begin(t);
                let t = clock.advance(Micros(3));
                ctx.block_end(t);
            }
            Ok(if n == 2 * crate::tele::TASK_DRAIN + 9 {
                Step::Stop
            } else {
                Step::Continue
            })
        });
        let snap = trace.telemetry().registry.snapshot();
        let labels: &[(&str, &str)] = &[("thread", "t")];
        let meter = c.controller.meter();
        assert_eq!(snap.counter("aru_iterations_total", labels), iters);
        assert_eq!(
            snap.counter("aru_busy_us_total", labels),
            meter.total_busy().as_micros()
        );
        assert_eq!(
            snap.counter("aru_blocked_us_total", labels),
            meter.total_blocked().as_micros()
        );
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
            &SharedTrace::new(),
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
        struct Flag(std::sync::atomic::AtomicBool);
        impl ChannelRelease for Flag {
            fn release(&self, _: usize, _: Timestamp) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let released = Arc::new(Flag(std::sync::atomic::AtomicBool::new(false)));
        c.block_begin(SimTime(0));
        c.receive_feedback(0, Stp(Micros(500)));
        c.defer_release(
            Arc::clone(&released) as Arc<dyn ChannelRelease>,
            0,
            Timestamp(0),
        );
        let crashed_key = c.iter_key();
        c.recover();
        assert!(
            released.0.load(std::sync::atomic::Ordering::SeqCst),
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
