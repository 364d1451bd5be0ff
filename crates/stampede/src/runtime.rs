//! The running pipeline: thread spawning, the cross-graph DGC pass that
//! the task threads run between iterations, shutdown, and run reports.

use crate::channel::BufferAdmin;
use crate::error::TaskResult;
use crate::shutdown::Shutdown;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, RwLock};
use crate::task::TaskCtx;
use aru_core::{AruConfig, NodeId, RetryPolicy, Topology};
use aru_gc::{ConsumerMarks, DgcEngine, DgcResult, Postmortem};
use aru_metrics::export::fault_report_jsonl;
use aru_metrics::trace::wall_clock_unix_us;
use aru_metrics::{
    ExportSink, FaultReport, JournalKind, SharedTrace, Telemetry, Trace, TraceEvent,
};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use vtime::{Clock, Micros, SimTime};

type Body = Box<dyn FnMut(&mut TaskCtx) -> TaskResult + Send>;

/// Least time between two cross-graph DGC passes. desim's default is
/// 10 ms (`SimConfig::dgc_interval`); each value is what its substrate's
/// figures and footprints were recorded with (DESIGN.md §3).
const DGC_INTERVAL: Micros = Micros(2_000);

/// The cross-graph DGC pass (paper §4) of a `GcMode::Dgc` run. It has no
/// thread: a task runs a due pass at the end of an iteration, after its
/// releases, when it holds no buffer lock ([`TaskCtx::run`]).
pub(crate) struct DgcPass {
    engine: DgcEngine,
    buffers: Vec<Arc<dyn BufferAdmin>>,
    /// `NodeId` → index into `buffers` and the scratch marks.
    slot: Vec<usize>,
    /// Clock reading (µs) at or after which the next pass may run.
    next_due: AtomicU64,
    /// Each buffer's marks, copied in place, and the sweep's output. The
    /// task that holds this lock is the one running the pass.
    scratch: Mutex<(Vec<ConsumerMarks>, DgcResult)>,
    /// The last pass's bounds, which every task's `should_skip` reads.
    pub(crate) result: RwLock<DgcResult>,
}

impl DgcPass {
    /// A pass over `topo`'s `buffers`, due at the first iteration end.
    pub(crate) fn new(topo: &Topology, buffers: Vec<Arc<dyn BufferAdmin>>) -> Self {
        let mut slot = vec![usize::MAX; topo.node_count()];
        for (i, b) in buffers.iter().enumerate() {
            slot[b.node().0 as usize] = i;
        }
        DgcPass {
            engine: DgcEngine::new(topo),
            scratch: Mutex::default(),
            buffers,
            slot,
            next_due: AtomicU64::new(0),
            result: RwLock::default(),
        }
    }

    /// Run the pass if it is due at `now` and no other task is running it.
    /// Never waits: a task that loses the claim goes on. Returns whether
    /// this call swept.
    pub(crate) fn run_if_due(&self, now: SimTime) -> bool {
        let due = || now.0 >= self.next_due.load(Ordering::Relaxed);
        // Re-checked once claimed: another task may have swept in between.
        let claim = if due() { self.scratch.try_lock() } else { None };
        let Some(mut scratch) = claim.filter(|_| due()) else {
            return false;
        };
        self.next_due
            .store(now.0 + DGC_INTERVAL.0, Ordering::Relaxed);
        let (marks, res) = &mut *scratch;
        marks.resize(self.buffers.len(), ConsumerMarks::default());
        for (b, m) in self.buffers.iter().zip(marks.iter_mut()) {
            b.copy_marks(m);
        }
        self.engine
            .compute_into(|n| marks.get(self.slot[n.0 as usize]), res);
        for b in &self.buffers {
            b.apply_dead_before(res.buffer_dead_before(b.node()));
        }
        // Publish; the previous result becomes the next pass's output.
        std::mem::swap(res, &mut *self.result.write());
        true
    }
}

/// Render a panic payload (the `Box<dyn Any>` from `catch_unwind`/`join`)
/// as best we can: panics raised via `panic!("…")` carry a `String` or
/// `&'static str`.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One exporter tick: drain every buffer's telemetry accumulators into the
/// shared registry, snapshot it coherently, and write the snapshot through
/// the sink. IO errors are swallowed — a full disk must not take down the
/// pipeline being observed.
fn export_tick(
    admins: &[Arc<dyn BufferAdmin>],
    telemetry: &Telemetry,
    sink: &ExportSink,
    epoch: u64,
    now: SimTime,
) {
    for a in admins {
        a.publish_telemetry(now);
    }
    let snap = telemetry.registry.snapshot();
    let _ = sink.write_snapshot(&snap, epoch, wall_clock_unix_us());
}

/// A frozen, ready-to-run pipeline (produced by
/// [`RuntimeBuilder::build`](crate::builder::RuntimeBuilder::build)).
pub struct Runtime {
    pub(crate) topo: Topology,
    pub(crate) config: AruConfig,
    /// The cross-graph pass the tasks share; `Some` only under `GcMode::Dgc`.
    pub(crate) dgc: Option<Arc<DgcPass>>,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) trace: SharedTrace,
    pub(crate) admins: Vec<Arc<dyn BufferAdmin>>,
    pub(crate) tasks: Vec<(NodeId, String)>,
    pub(crate) bodies: HashMap<NodeId, Body>,
    pub(crate) retry: RetryPolicy,
    pub(crate) op_timeout: Option<Micros>,
    pub(crate) export: Option<(ExportSink, Micros)>,
    pub(crate) journal_path: Option<PathBuf>,
}

impl Runtime {
    /// The frozen task graph.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The pipeline's live-telemetry bundle (shared with every buffer and
    /// task context).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        self.trace.telemetry()
    }

    /// Start every task thread (plus the exporter when one is configured)
    /// and return a handle for stopping the run.
    #[must_use]
    pub fn start(mut self) -> Running {
        let shutdown = Shutdown::new();

        let mut handles = Vec::with_capacity(self.tasks.len());
        for (node, name) in &self.tasks {
            let mut body = self.bodies.remove(node).expect("validated at build");
            let mut ctx = TaskCtx::new(
                *node,
                name.clone(),
                self.topo.out_degree(*node),
                self.topo.in_degree(*node) == 0,
                &self.config,
                Arc::clone(&self.clock),
                self.trace.clone(),
                shutdown.clone(),
                self.dgc.clone(),
            );
            ctx.set_op_timeout(self.op_timeout);
            let node = *node;
            let policy = self.retry;
            let clock = Arc::clone(&self.clock);
            let trace = self.trace.clone();
            let sd = shutdown.clone();
            let admins: Vec<Arc<dyn BufferAdmin>> = self.admins.clone();
            let journal = self.trace.telemetry().journal.clone();
            let crash_path = self
                .journal_path
                .as_ref()
                .map(|p| p.with_extension("crash.jsonl"));
            let epoch = self.trace.epoch_unix_us();
            // Supervisor loop: a panicking body is caught, the context is
            // recovered and the loop re-entered under the retry policy;
            // when the restart budget is exhausted the supervisor escalates
            // to a clean runtime-wide shutdown (buffers closed so peers
            // unblock and drain).
            let handle = std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || {
                    // Per-task journal shard: the supervisor is this
                    // thread's only writer, honoring the shard's
                    // single-writer contract.
                    let jshard = journal.shard();
                    let mut attempt: u32 = 0;
                    loop {
                        match catch_unwind(AssertUnwindSafe(|| ctx.run(&mut *body))) {
                            Ok(iters) => return Ok(iters),
                            Err(payload) => {
                                attempt += 1;
                                let msg = panic_message(payload.as_ref());
                                trace.task_crash(clock.now(), node, attempt);
                                jshard.record(clock.now(), node, JournalKind::Crash { attempt });
                                if sd.is_set() {
                                    return Err(msg);
                                }
                                if policy.allows(attempt) {
                                    let backoff = policy.delay(attempt);
                                    ctx.recover();
                                    trace.task_restart(clock.now(), node, attempt, backoff);
                                    jshard.record(
                                        clock.now(),
                                        node,
                                        JournalKind::Restart { attempt, backoff },
                                    );
                                    if sd.sleep(backoff) {
                                        return Err(msg);
                                    }
                                } else {
                                    jshard.record(
                                        clock.now(),
                                        node,
                                        JournalKind::Escalate { attempt },
                                    );
                                    // Black-box crash dump: cut the journal
                                    // snapshot *now*, before shutdown tears
                                    // the pipeline down — the postmortem
                                    // artifact survives even if the clean
                                    // stop path never runs. Atomic write
                                    // (tmp + rename); IO errors swallowed
                                    // like the exporter's.
                                    if let Some(p) = &crash_path {
                                        let _ = journal.write_snapshot_file(p, "threaded", epoch);
                                    }
                                    sd.set();
                                    for a in &admins {
                                        a.close();
                                    }
                                    return Err(msg);
                                }
                            }
                        }
                    }
                })
                .expect("spawn task thread");
            handles.push(handle);
        }

        let export_handle = self.export.take().map(|(sink, interval)| {
            let admins: Vec<Arc<dyn BufferAdmin>> = self.admins.clone();
            let telemetry = self.trace.telemetry().clone();
            let trace = self.trace.clone();
            let epoch = self.trace.epoch_unix_us();
            let sd = shutdown.clone();
            let clock = Arc::clone(&self.clock);
            std::thread::Builder::new()
                .name("telemetry-exporter".into())
                .spawn(move || {
                    // Supervised like the task threads, with a fixed
                    // budget: a panicking tick must never take the
                    // observed pipeline down, but an exporter that panics
                    // on every tick is abandoned rather than hot-looped.
                    // Fixed-cadence deadlines (`next_tick += interval`)
                    // keep the export schedule drift-free when a tick is
                    // slow, and `sleep_until` wakes on shutdown so the
                    // final flush below never waits out a poll interval.
                    let mut failures: u32 = 0;
                    let mut next_tick = std::time::Instant::now();
                    while !sd.is_set() && failures < 3 {
                        if catch_unwind(AssertUnwindSafe(|| {
                            export_tick(&admins, &telemetry, &sink, epoch, clock.now());
                        }))
                        .is_err()
                        {
                            failures += 1;
                        }
                        next_tick += Duration::from(interval);
                        if sd.sleep_until(next_tick) {
                            break;
                        }
                    }
                    // Final flush on the way out — runs on clean stop AND
                    // on supervisor escalation, so a crashed run still
                    // leaves its last snapshot behind. A run that recorded
                    // faults additionally appends the fault report as a
                    // JSONL line next to the snapshots. The buffers' trace
                    // writers are flushed first: op timeouts are recorded
                    // inside channels and queues, and would otherwise still
                    // be buffered when the report is computed.
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        export_tick(&admins, &telemetry, &sink, epoch, clock.now());
                        for a in &admins {
                            a.flush_trace();
                        }
                        let faults = FaultReport::compute(&trace.snapshot());
                        if faults.any() {
                            let line = fault_report_jsonl(&faults, epoch, wall_clock_unix_us());
                            let _ = sink.append_jsonl(&line);
                        }
                    }));
                })
                .expect("spawn telemetry exporter")
        });

        Running {
            topo: self.topo,
            clock: self.clock,
            trace: self.trace,
            admins: self.admins,
            shutdown,
            handles,
            export_handle,
            journal_path: self.journal_path,
        }
    }

    /// Convenience: start, run for `duration` of wall time, stop, report.
    pub fn run_for(self, duration: Micros) -> Result<RunReport, BoxedJoinError> {
        let running = self.start();
        std::thread::sleep(duration.into());
        running.stop()
    }
}

/// A task failed permanently: the supervisor exhausted its restart budget
/// (or the thread died outside the supervised loop). Carries the failing
/// task's name and the panic payload, rendered to a string.
#[derive(Debug)]
pub struct BoxedJoinError {
    /// Name of the task (thread) that failed.
    pub task: String,
    /// The panic message that killed it.
    pub payload: String,
}

impl std::fmt::Display for BoxedJoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task '{}' failed permanently: {}",
            self.task, self.payload
        )
    }
}

impl std::error::Error for BoxedJoinError {}

/// A started pipeline.
pub struct Running {
    topo: Topology,
    clock: Arc<dyn Clock>,
    trace: SharedTrace,
    admins: Vec<Arc<dyn BufferAdmin>>,
    shutdown: Shutdown,
    handles: Vec<JoinHandle<Result<u64, String>>>,
    export_handle: Option<JoinHandle<()>>,
    journal_path: Option<PathBuf>,
}

impl Running {
    /// Request shutdown, close every buffer (waking blocked getters), join
    /// all threads, and produce the run report.
    ///
    /// Returns [`BoxedJoinError`] — task name plus the preserved panic
    /// payload — when any supervised task failed permanently during the
    /// run.
    pub fn stop(self) -> Result<RunReport, BoxedJoinError> {
        self.shutdown.set();
        for a in &self.admins {
            a.close();
        }
        for h in self.handles {
            let name = h.thread().name().unwrap_or("<task>").to_string();
            match h.join() {
                Ok(Ok(_iters)) => {}
                Ok(Err(payload)) => {
                    return Err(BoxedJoinError {
                        task: name,
                        payload,
                    })
                }
                // The supervisor itself panicked (shouldn't happen): the
                // join error is the raw payload.
                Err(p) => {
                    return Err(BoxedJoinError {
                        task: name,
                        payload: panic_message(p.as_ref()),
                    })
                }
            }
        }
        if let Some(h) = self.export_handle {
            h.join().map_err(|p| BoxedJoinError {
                task: "telemetry-exporter".into(),
                payload: panic_message(p.as_ref()),
            })?;
        }
        let t_end = self.clock.now();
        // Task threads are joined; publish each buffer's pending trace
        // events and telemetry accumulators before the snapshot (the
        // latter so registry reads after `stop` see final totals even
        // when no exporter was configured).
        for a in &self.admins {
            a.flush_trace();
            a.publish_telemetry(t_end);
        }
        // Clean-stop flight-recorder snapshot (after the flush/publish
        // loop, so the journal holds the final occupancy records). IO
        // errors are swallowed — persistence must not fail the stop.
        if let Some(p) = &self.journal_path {
            let _ = self.trace.telemetry().journal.write_snapshot_file(
                p,
                "threaded",
                self.trace.epoch_unix_us(),
            );
        }
        Ok(RunReport {
            trace: self.trace.snapshot(),
            topo: self.topo,
            t_end,
        })
    }

    /// The live-telemetry bundle — read gauges and the journal while the
    /// run is in flight (the watch mode does exactly this).
    #[must_use]
    pub fn telemetry(&self) -> &aru_metrics::Telemetry {
        self.trace.telemetry()
    }

    /// Is the pipeline still running (i.e. shutdown not yet requested)?
    #[must_use]
    pub fn is_running(&self) -> bool {
        !self.shutdown.is_set()
    }

    /// Bytes currently held across all buffers — a live view of the
    /// application memory footprint.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.admins.iter().map(|a| a.live_bytes()).sum()
    }
}

/// Everything recorded during one run, plus the postmortem analyses.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub trace: Trace,
    pub topo: Topology,
    pub t_end: SimTime,
}

impl RunReport {
    /// Number of sink outputs (frames that made it through the pipeline).
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::SinkOutput { .. }))
            .count()
    }

    /// Per-channel occupancy statistics.
    #[must_use]
    pub fn channel_stats(&self) -> std::collections::BTreeMap<NodeId, aru_metrics::ChannelStats> {
        aru_metrics::channel_stats(&self.trace, self.t_end)
    }

    /// Run the full postmortem suite.
    #[must_use]
    pub fn analyze(&self) -> RunAnalysis {
        Postmortem::analyze(&self.trace, self.t_end)
    }
}

/// Bundled postmortem results for one run.
pub type RunAnalysis = Postmortem;

#[cfg(test)]
mod tests {
    use super::RunReport;
    use crate::builder::RuntimeBuilder;
    use crate::error::{StampedeError, Step};
    use aru_core::{AruConfig, RetryPolicy};
    use aru_gc::GcMode;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use vtime::Micros;

    /// Spin until `pred` holds (bounded); panics on timeout.
    fn wait_until(pred: impl Fn() -> bool, what: &str) {
        let t0 = Instant::now();
        while !pred() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn supervisor_restarts_panicking_task() {
        let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::None)
            .with_retry_policy(RetryPolicy::constant(3, Micros::from_millis(1)));
        let t = b.thread("flaky");
        let n = Arc::new(AtomicU32::new(0));
        let n2 = Arc::clone(&n);
        b.spawn(t, move |_| {
            let i = n2.fetch_add(1, Ordering::SeqCst);
            if i == 1 {
                panic!("injected crash");
            }
            if i >= 5 {
                return Ok(Step::Stop);
            }
            std::thread::sleep(Duration::from_millis(1));
            Ok(Step::Continue)
        });
        let running = b.build().unwrap().start();
        wait_until(|| n.load(Ordering::SeqCst) > 5, "task to finish");
        let report = running.stop().expect("recovered run completes cleanly");
        let faults = report.analyze().faults;
        assert_eq!(faults.crashes, 1);
        assert_eq!(faults.restarts, 1);
        assert!(
            n.load(Ordering::SeqCst) > 5,
            "task kept running after restart"
        );
    }

    #[test]
    fn exhausted_retries_escalate_and_preserve_payload() {
        let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::None)
            .with_retry_policy(RetryPolicy::none());
        let bomb = b.thread("bomb");
        let sink = b.thread("sink");
        let ch = b.channel::<Vec<u8>>("c");
        b.connect_out(bomb, &ch).unwrap();
        let mut input = b.connect_in(&ch, sink).unwrap();
        let sink_entered = Arc::new(AtomicBool::new(false));
        let sink_unblocked = Arc::new(AtomicBool::new(false));
        // The bomb waits for the sink to be blocked on the empty channel
        // before panicking, so the test exercises escalation *unblocking* a
        // peer (not just stopping it before it starts).
        let se = Arc::clone(&sink_entered);
        b.spawn(bomb, move |_| {
            while !se.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(10));
            panic!("kaboom");
        });
        let se = Arc::clone(&sink_entered);
        let su = Arc::clone(&sink_unblocked);
        b.spawn(sink, move |ctx| {
            se.store(true, Ordering::SeqCst);
            // Blocks forever on the empty channel until escalation closes it.
            match input.get_latest(ctx) {
                Err(StampedeError::Closed) => {
                    su.store(true, Ordering::SeqCst);
                    Ok(Step::Stop)
                }
                other => {
                    let _ = other?;
                    Ok(Step::Continue)
                }
            }
        });
        let running = b.build().unwrap().start();
        wait_until(
            || !running.is_running(),
            "escalation to shut the runtime down",
        );
        wait_until(
            || sink_unblocked.load(Ordering::SeqCst),
            "escalation to close buffers and unblock the sink",
        );
        let err = running.stop().expect_err("permanent failure is reported");
        assert_eq!(err.task, "bomb");
        assert!(
            err.payload.contains("kaboom"),
            "panic payload preserved, got: {}",
            err.payload
        );
    }

    #[test]
    fn recovered_crash_is_journaled_and_snapshot_on_clean_stop() {
        let dir = std::env::temp_dir().join(format!("aru-journal-recover-{}", std::process::id()));
        let path = dir.join("run.journal.jsonl");
        let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::None)
            .with_retry_policy(RetryPolicy::constant(3, Micros::from_millis(1)))
            .with_journal(&path);
        let t = b.thread("flaky");
        let n = Arc::new(AtomicU32::new(0));
        let n2 = Arc::clone(&n);
        b.spawn(t, move |_| {
            let i = n2.fetch_add(1, Ordering::SeqCst);
            if i == 1 {
                panic!("injected crash");
            }
            if i >= 5 {
                return Ok(Step::Stop);
            }
            std::thread::sleep(Duration::from_millis(1));
            Ok(Step::Continue)
        });
        let running = b.build().unwrap().start();
        wait_until(|| n.load(Ordering::SeqCst) > 5, "task to finish");
        running.stop().expect("recovered run completes cleanly");
        // Clean stop cut the snapshot; the crash → restart sequence must be
        // on record, with the restart at or after the crash.
        let j = aru_metrics::load_journal(&path).expect("clean-stop journal loads");
        assert_eq!(j.source, "threaded");
        assert_eq!(j.skipped, 0);
        let recs = &j.snapshot.records;
        let crash = recs
            .iter()
            .position(|r| matches!(r.kind, aru_metrics::JournalKind::Crash { attempt: 1 }))
            .expect("crash journaled");
        let restart = recs
            .iter()
            .position(|r| matches!(r.kind, aru_metrics::JournalKind::Restart { attempt: 1, .. }))
            .expect("restart journaled");
        assert!(recs[restart].t >= recs[crash].t, "restart after crash");
        assert!(
            !path.with_extension("crash.jsonl").exists(),
            "no crash dump for a recovered run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn escalation_writes_loadable_crash_dump() {
        let dir = std::env::temp_dir().join(format!("aru-journal-escalate-{}", std::process::id()));
        let path = dir.join("run.journal.jsonl");
        let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::None)
            .with_retry_policy(RetryPolicy::none())
            .with_journal(&path);
        let bomb = b.thread("bomb");
        b.spawn(bomb, move |_| {
            std::thread::sleep(Duration::from_millis(5));
            panic!("kaboom");
        });
        let running = b.build().unwrap().start();
        wait_until(
            || !running.is_running(),
            "escalation to shut the runtime down",
        );
        running.stop().expect_err("permanent failure is reported");
        // The escalating supervisor dumped the journal *before* requesting
        // shutdown — the evidence survives even though the run died.
        let dump = path.with_extension("crash.jsonl");
        let j = aru_metrics::load_journal(&dump).expect("crash dump loads");
        assert_eq!(j.source, "threaded");
        assert!(
            j.snapshot
                .records
                .iter()
                .any(|r| matches!(r.kind, aru_metrics::JournalKind::Crash { .. })),
            "crash on record"
        );
        assert!(
            j.snapshot
                .records
                .iter()
                .any(|r| matches!(r.kind, aru_metrics::JournalKind::Escalate { .. })),
            "escalation on record"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Run a sink whose `get_latest` on a never-fed channel times out once
    /// (5 ms op deadline), then stops; `with` adds to the builder.
    fn run_sink_that_times_out_once(
        with: impl FnOnce(RuntimeBuilder) -> RuntimeBuilder,
    ) -> RunReport {
        let mut b = with(
            RuntimeBuilder::new(AruConfig::aru_min(), GcMode::None)
                .with_op_timeout(Micros::from_millis(5)),
        );
        let sink = b.thread("sink");
        let ch = b.channel::<Vec<u8>>("never-fed");
        let mut input = b.connect_in(&ch, sink).unwrap();
        let saw_timeout = Arc::new(AtomicBool::new(false));
        let st = Arc::clone(&saw_timeout);
        b.spawn(sink, move |ctx| match input.get_latest(ctx) {
            Err(StampedeError::Timeout) => {
                st.store(true, Ordering::SeqCst);
                Ok(Step::Stop)
            }
            other => {
                let _ = other?;
                Ok(Step::Continue)
            }
        });
        let running = b.build().unwrap().start();
        wait_until(|| saw_timeout.load(Ordering::SeqCst), "op timeout");
        running.stop().expect("timeout is not a crash")
    }

    #[test]
    fn blocked_get_times_out_when_configured() {
        let faults = run_sink_that_times_out_once(|b| b).analyze().faults;
        assert_eq!(faults.timeouts, 1);
        assert!(faults.any());
    }

    /// The exporter's final `fault_report` line sees op timeouts that are
    /// still buffered in the channel's trace writer when it runs.
    #[test]
    fn exporter_fault_report_counts_buffered_timeouts() {
        let dir = std::env::temp_dir().join(format!("aru-export-timeout-{}", std::process::id()));
        let jsonl = dir.join("telemetry.jsonl");
        std::fs::remove_dir_all(&dir).ok();
        let files = aru_metrics::ExportSink {
            prometheus_path: None,
            jsonl_path: Some(jsonl.clone()),
        };
        run_sink_that_times_out_once(|b| b.with_export(files, Micros::from_millis(10)));
        let text = std::fs::read_to_string(&jsonl).expect("exporter wrote JSONL");
        let line = text
            .lines()
            .find(|l| l.contains("\"kind\":\"fault_report\""))
            .expect("fault_report line written");
        assert!(line.contains("\"timeouts\":1"), "{line}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
