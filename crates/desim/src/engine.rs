//! The discrete-event engine.
//!
//! Single-threaded, deterministic: events (a calendar [`EventQueue`] by
//! default, and the DGC pass on a timer beside it) run in `(time, seq)`
//! order; all randomness comes from per-task seeded generators. Tasks move
//! through `Idle → Gathering → Computing → Idle`, with the exact ARU hooks
//! the threaded runtime uses (iteration and block windows, feedback on
//! every get/put, pacing sleep for sources).

use crate::builder::{ChanId, SimBuildError, SimBuilder, TaskDecl, TaskId};
use crate::cost::CostModel;
use crate::equeue::{EventQueue, EventQueueKind};
use crate::fault::{Fault, FaultPlan, ResolvedFaults};
use crate::net::NetModel;
use crate::noise::Noise;
use crate::report::SimReport;
use crate::schannel::{SimChannel, SimItem};
use aru_core::{AruConfig, AruController, NodeId, NodeKind, RetryPolicy, Topology};
use aru_gc::{Acquire, BufferCore, DgcEngine, DgcResult, GcMode};
use aru_metrics::journal::{FaultClass, TaskGates};
use aru_metrics::{
    Counter, Histogram, IterKey, JournalKind, JournalShard, Telemetry, Trace, TraceEvent, TraceSink,
};
use vtime::{Micros, SimTime, Timestamp};

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// ARU mode (disabled / min / max / custom).
    pub aru: AruConfig,
    /// GC policy for all buffers.
    pub gc: GcMode,
    /// Node execution-cost model.
    pub cost: CostModel,
    /// Interconnect model: puts into a channel on another node delay the
    /// item's visibility by the transfer time, and gets from a remote
    /// channel charge the fetch to the consuming iteration.
    pub net: NetModel,
    /// Virtual run length.
    pub duration: Micros,
    /// DGC cross-graph pass period.
    pub dgc_interval: Micros,
    /// Root RNG seed (per-task noise seeds derive from it).
    pub seed: u64,
    /// Scheduled fault injection (crashes, stalls, summary drops, link
    /// spikes). Empty by default.
    pub faults: FaultPlan,
    /// Supervised-restart policy applied to injected crashes.
    pub retry: RetryPolicy,
    /// Priority structure backing the event loop. [`EventQueueKind::Calendar`]
    /// by default; the binary heap stays compiled as the differential
    /// oracle (the equivalence suite pins byte-identical reports).
    pub queue: EventQueueKind,
}

impl SimConfig {
    /// A sensible default: ARU-min, DGC, default cost/net, 10 s runs.
    #[must_use]
    pub fn new(aru: AruConfig) -> Self {
        SimConfig {
            aru,
            gc: GcMode::Dgc,
            cost: CostModel::default(),
            net: NetModel::local(),
            duration: Micros::from_secs(10),
            dgc_interval: Micros::from_millis(10),
            seed: 0xA2_05,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            queue: EventQueueKind::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Idle,
    Gathering {
        step: usize,
        driver_ts: Option<Timestamp>,
    },
    Computing {
        skipped: bool,
        driver_ts: Option<Timestamp>,
    },
    /// Killed by fault injection; waiting for the supervisor's restart (or
    /// dead forever once the retry budget is exhausted).
    Crashed,
}

struct TaskState {
    decl: TaskDecl,
    controller: AruController,
    noise: Noise,
    phase: Phase,
    seq: u64,
    blocked: bool,
    next_src_ts: Timestamp,
    skips: u64,
    /// Per-input freshness floor: the next timestamp this task would accept
    /// from that input (local to the task — channel marks only advance when
    /// the consuming iteration *completes*, because the task still holds
    /// the item while processing it, exactly like Stampede's
    /// consume-on-iteration-end semantics).
    input_floors: Vec<Timestamp>,
    /// Consumed items to release (advance channel marks) at iteration end.
    pending_releases: Vec<(usize, usize, Timestamp)>,
    /// Network fetch time accumulated by this iteration's remote gets —
    /// consuming an item from a channel on another node pulls the payload
    /// across the link (Stampede's remote get), charged to the iteration.
    pending_fetch: Micros,
    /// Incarnation counter: bumped on every injected crash so in-flight
    /// events addressed to the previous incarnation are discarded.
    generation: u64,
    /// Crashes of this task so far (the retry policy's attempt counter).
    attempts: u32,
    /// Restart budget exhausted: never scheduled again.
    dead: bool,
    /// Injected transient stall, consumed by the next compute.
    pending_stall: Micros,
    /// When the current crash happened (sim time) — taken by the restart
    /// handler to measure crash→restart recovery latency.
    crashed_at: Option<SimTime>,
    /// The recording rule of the task's iteration and Fold records — the
    /// threaded runtime's, so sim and live traces and journals are directly
    /// comparable.
    gates: TaskGates,
}

/// Fault-injection telemetry: how many faults took effect (by kind), how
/// many supervised restarts ran, and the crash→restart recovery latency.
/// The sim is single-threaded, so these are ordinary registry handles; the
/// bundle is published on [`SimReport::telemetry`] so chaos experiments
/// flush it through the same exporter serializers as live runs.
struct SimTele {
    bundle: Telemetry,
    faults_crash: Counter,
    faults_stall: Counter,
    faults_drop_summaries: Counter,
    faults_link_spike: Counter,
    restarts: Counter,
    recovery_latency_us: Histogram,
    /// Flight-recorder journal shard: the sim is single-threaded, so one
    /// shard serves every record site (same schema as the threaded runtime
    /// — DESIGN.md §16 — making sim and live journals directly comparable).
    journal: JournalShard,
}

impl SimTele {
    fn new() -> Self {
        let bundle = Telemetry::new();
        let reg = &bundle.registry;
        let fault = |kind: &str| reg.counter("aru_faults_injected_total", &[("kind", kind)]);
        SimTele {
            faults_crash: fault("crash"),
            faults_stall: fault("stall"),
            faults_drop_summaries: fault("drop_summaries"),
            faults_link_spike: fault("link_spike"),
            restarts: reg.counter("aru_restarts_total", &[]),
            recovery_latency_us: reg.histogram("aru_recovery_latency_us", &[]),
            journal: bundle.journal.shard(),
            bundle,
        }
    }
}

impl TaskState {
    fn iter_key(&self) -> IterKey {
        IterKey::new(self.decl.graph_node, self.seq)
    }

    fn is_source(&self) -> bool {
        self.decl.inputs.is_empty()
    }
}

#[derive(Debug, Clone)]
enum EvKind {
    /// Wake a task incarnation (stale generations are discarded).
    Wake(TaskId, u64),
    /// A task incarnation finished computing (stale generations are
    /// discarded — the compute died with the crash).
    ComputeDone(TaskId, u64),
    ItemArrive {
        chan: ChanId,
        ts: Timestamp,
        item: SimItem,
    },
    /// A scheduled fault from the plan fires (index into the plan).
    Fault(usize),
    /// The supervisor restarts a crashed task after its backoff.
    Restart(TaskId),
}

/// The simulator.
///
/// ```
/// use aru_core::AruConfig;
/// use desim::{CostModel, InputPolicy, ServiceModel, Sim, SimBuilder, SimConfig, TaskSpec};
/// use vtime::Micros;
///
/// let mut b = SimBuilder::new();
/// let node = b.node(8);
/// let ch = b.channel("frames", node);
/// let cam = b.source("camera", node, ServiceModel::fixed(Micros::from_millis(5)));
/// let gui = b.task("gui", node, TaskSpec::sink(ServiceModel::fixed(Micros::from_millis(40))));
/// b.output(cam, ch, 100_000).unwrap();
/// b.input(gui, ch, InputPolicy::DriverLatest).unwrap();
///
/// let mut cfg = SimConfig::new(AruConfig::aru_min());
/// cfg.cost = CostModel::ideal();
/// cfg.duration = Micros::from_secs(4);
/// let report = Sim::run(b, cfg).unwrap();
/// assert!(report.outputs() > 80); // ~4s / 40ms
/// assert!(report.analyze().waste.pct_memory_wasted() < 10.0);
/// ```
pub struct Sim {
    topo: Topology,
    config: SimConfig,
    tasks: Vec<TaskState>,
    chans: Vec<SimChannel>,
    node_cores: Vec<u32>,
    node_speed: Vec<f64>,
    node_busy: Vec<usize>,
    node_live: Vec<u64>,
    events: EventQueue<EvKind>,
    ev_seq: u64,
    events_dispatched: u64,
    peak_pending: usize,
    /// Sink outputs recorded (`SimReport::outputs`).
    outputs: usize,
    dgc_engine: DgcEngine,
    /// The latest pass's bounds; each pass refills it in place.
    dgc_result: DgcResult,
    /// When the next DGC pass runs, `(time, seq)`: ordered against the
    /// queued events exactly as if it were one, but never pushed.
    dgc_next: Option<(SimTime, u64)>,
    /// A consumer mark advanced since the last pass (else it changes nothing).
    marks_moved: bool,
    /// Graph node → index into `chans` (`None` for a thread), so the DGC
    /// pass reads each channel's marks where they live.
    chan_of_node: Vec<Option<usize>>,
    /// `config.faults`, resolved against `tasks` once at start.
    faults: ResolvedFaults,
    trace: Trace,
    tele: SimTele,
    now: SimTime,
    /// When `Some`, every queue push/pop is recorded for replay.
    cap: Option<Vec<QueueOp>>,
}

/// One event-queue operation from a captured run, for queue replay
/// (`benchmark/`'s `desim.equeue.*` metrics): the exact push/pop
/// interleaving the engine performed, with payloads elided. DGC passes are
/// not in it: they run from a timer beside the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOp {
    /// `schedule()` pushed an event at this `(time, seq)`.
    Push(SimTime, u64),
    /// The run loop popped the queue minimum.
    Pop,
}

impl Sim {
    /// Build and run a simulation to completion; returns the trace report.
    pub fn run(builder: SimBuilder, config: SimConfig) -> Result<SimReport, SimBuildError> {
        Sim::run_impl(builder, config, false).map(|(r, _)| r)
    }

    /// [`Sim::run`], also returning the event-queue op sequence the run
    /// performed. The captured schedule lets the bench measure queue
    /// throughput on the *real* workload (clustered times, same-timestamp
    /// storms) rather than a synthetic distribution.
    pub fn run_with_queue_capture(
        builder: SimBuilder,
        config: SimConfig,
    ) -> Result<(SimReport, Vec<QueueOp>), SimBuildError> {
        Sim::run_impl(builder, config, true)
    }

    fn run_impl(
        builder: SimBuilder,
        config: SimConfig,
        capture: bool,
    ) -> Result<(SimReport, Vec<QueueOp>), SimBuildError> {
        builder.validate()?;
        if config.gc == GcMode::Dgc && config.dgc_interval == Micros::ZERO {
            return Err(SimBuildError::ZeroDgcInterval);
        }
        let SimBuilder {
            topo,
            nodes,
            chans,
            tasks,
        } = builder;

        let sim_chans: Vec<SimChannel> = chans
            .into_iter()
            .map(|c| {
                let mut core = BufferCore::new(config.gc, &config.aru);
                core.configure(topo.out_degree(c.graph_node), |_| {});
                SimChannel {
                    name: c.name,
                    graph_node: c.graph_node,
                    cluster_node: c.cluster_node,
                    core,
                    waiters: Vec::new(),
                }
            })
            .collect();

        let sim_tasks: Vec<TaskState> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, decl)| {
                let is_source = decl.inputs.is_empty();
                let controller = AruController::new(
                    NodeKind::Thread,
                    decl.outputs.len(),
                    is_source,
                    &config.aru,
                );
                let n_inputs = decl.inputs.len();
                TaskState {
                    controller,
                    noise: Noise::seeded(
                        config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64,
                    ),
                    decl,
                    phase: Phase::Idle,
                    seq: 0,
                    blocked: false,
                    next_src_ts: Timestamp::ZERO,
                    skips: 0,
                    input_floors: vec![Timestamp::ZERO; n_inputs],
                    pending_releases: Vec::new(),
                    pending_fetch: Micros::ZERO,
                    generation: 0,
                    attempts: 0,
                    dead: false,
                    pending_stall: Micros::ZERO,
                    crashed_at: None,
                    gates: TaskGates::new(config.aru.control.label()),
                }
            })
            .collect();

        let dgc_engine = DgcEngine::new(&topo);
        let mut chan_of_node = vec![None; topo.node_count()];
        for (cid, c) in sim_chans.iter().enumerate() {
            chan_of_node[c.graph_node.0 as usize] = Some(cid);
        }
        let faults = config
            .faults
            .resolve(sim_tasks.iter().map(|t| t.decl.name.as_str()));
        let mut sim = Sim {
            node_cores: nodes.iter().map(|n| n.cores).collect(),
            node_speed: nodes.iter().map(|n| n.speed).collect(),
            node_busy: vec![0; nodes.len()],
            node_live: vec![0; nodes.len()],
            tasks: sim_tasks,
            chans: sim_chans,
            events: EventQueue::new(config.queue),
            ev_seq: 0,
            events_dispatched: 0,
            peak_pending: 0,
            outputs: 0,
            dgc_engine,
            dgc_result: DgcResult::default(),
            dgc_next: None,
            marks_moved: true,
            chan_of_node,
            faults,
            trace: Trace::new(),
            tele: SimTele::new(),
            now: SimTime::ZERO,
            cap: capture.then(Vec::new),
            topo,
            config,
        };

        for i in 0..sim.tasks.len() {
            sim.schedule(SimTime::ZERO, EvKind::Wake(TaskId(i), 0));
        }
        if sim.config.gc == GcMode::Dgc {
            let first = SimTime::ZERO + sim.config.dgc_interval;
            sim.schedule_dgc(first);
        }
        // Point faults (crashes, stalls) fire as events; window faults
        // (summary drops, link spikes) are consulted at their use sites.
        let fault_events: Vec<(SimTime, usize)> = sim
            .config
            .faults
            .faults
            .iter()
            .enumerate()
            .filter(|(_, f)| matches!(f, Fault::Crash { .. } | Fault::Stall { .. }))
            .map(|(i, f)| (SimTime::ZERO + f.starts_at(), i))
            .collect();
        for (at, i) in fault_events {
            sim.schedule(at, EvKind::Fault(i));
        }
        // Window faults never fire as events, so they are counted (and
        // journaled, stamped at window start) here; point faults are
        // counted when their event actually takes effect.
        for (i, f) in sim.config.faults.faults.iter().enumerate() {
            let t0 = SimTime::ZERO + f.starts_at();
            match f {
                Fault::DropSummaries { .. } => {
                    sim.tele.faults_drop_summaries.inc();
                    if let Some(ti) = sim.faults.target(i) {
                        sim.tele.journal.record(
                            t0,
                            sim.tasks[ti].decl.graph_node,
                            JournalKind::Fault {
                                class: FaultClass::DropSummaries,
                            },
                        );
                    }
                }
                Fault::LinkSpike { .. } => {
                    sim.tele.faults_link_spike.inc();
                    // A link spike is global, not tied to a task node.
                    sim.tele.journal.record(
                        t0,
                        NodeId(u32::MAX),
                        JournalKind::Fault {
                            class: FaultClass::LinkSpike,
                        },
                    );
                }
                Fault::Crash { .. } | Fault::Stall { .. } => {}
            }
        }

        let horizon = SimTime::ZERO + sim.config.duration;
        loop {
            let next = sim.events.pop();
            if let (Some(c), Some(_)) = (sim.cap.as_mut(), &next) {
                c.push(QueueOp::Pop);
            }
            // Passes due before the popped event run first (a pass pushes
            // nothing, so it stays next); an empty queue leaves the rest.
            while let Some((dt, ds)) = sim.dgc_next {
                if dt > horizon || next.as_ref().is_some_and(|&(t, s, _)| (t, s) < (dt, ds)) {
                    break;
                }
                sim.now = dt;
                sim.events_dispatched += 1;
                sim.handle_dgc_pass();
            }
            let Some((time, _seq, kind)) = next.filter(|e| e.0 <= horizon) else {
                break;
            };
            sim.now = time;
            sim.events_dispatched += 1;
            sim.dispatch(kind);
        }

        let ops = sim.cap.take().unwrap_or_default();
        Ok((
            SimReport {
                skipped_iterations: sim.tasks.iter().map(|t| t.skips).sum(),
                trace: sim.trace,
                topo: sim.topo,
                t_end: horizon,
                telemetry: sim.tele.bundle,
                events_dispatched: sim.events_dispatched,
                peak_pending: sim.peak_pending,
                outputs: sim.outputs,
            },
            ops,
        ))
    }

    fn schedule(&mut self, time: SimTime, kind: EvKind) {
        self.ev_seq += 1;
        if let Some(c) = self.cap.as_mut() {
            c.push(QueueOp::Push(time, self.ev_seq));
        }
        self.events.push(time, self.ev_seq, kind);
        let pending = self.events.len() + usize::from(self.dgc_next.is_some());
        self.peak_pending = self.peak_pending.max(pending);
    }

    /// Set the DGC pass timer, taking its seq where `schedule` would. It is
    /// pending too; a pass only restores the count from before the last pop.
    fn schedule_dgc(&mut self, time: SimTime) {
        self.ev_seq += 1;
        self.dgc_next = Some((time, self.ev_seq));
        self.peak_pending = self.peak_pending.max(self.events.len() + 1);
    }

    fn dispatch(&mut self, kind: EvKind) {
        match kind {
            EvKind::Wake(t, gen) => self.handle_wake(t, gen),
            EvKind::ComputeDone(t, gen) => self.handle_compute_done(t, gen),
            EvKind::ItemArrive { chan, ts, item } => self.deliver(chan, ts, item),
            EvKind::Fault(i) => self.handle_fault(i),
            EvKind::Restart(t) => self.handle_restart(t),
        }
    }

    // ---- task lifecycle -----------------------------------------------------

    fn handle_wake(&mut self, t: TaskId, gen: u64) {
        if gen != self.tasks[t.0].generation {
            return; // wake addressed to a crashed incarnation
        }
        match self.tasks[t.0].phase {
            Phase::Idle => {
                let now = self.now;
                self.tasks[t.0].controller.iteration_begin(now);
                self.tasks[t.0].phase = Phase::Gathering {
                    step: 0,
                    driver_ts: None,
                };
                self.gather(t);
            }
            Phase::Gathering { .. } => self.gather(t),
            Phase::Computing { .. } => { /* spurious wake; ignore */ }
            Phase::Crashed => { /* woken by a channel while down; ignore */ }
        }
    }

    fn gather(&mut self, t: TaskId) {
        let now = self.now;
        if self.tasks[t.0].blocked {
            self.tasks[t.0].blocked = false;
            self.tasks[t.0].controller.block_end(now);
        }
        loop {
            let (step, driver_ts) = match self.tasks[t.0].phase {
                Phase::Gathering { step, driver_ts } => (step, driver_ts),
                _ => return,
            };
            if step >= self.tasks[t.0].decl.inputs.len() {
                self.start_compute(t, driver_ts);
                return;
            }
            let input = self.tasks[t.0].decl.inputs[step];
            let cid = input.chan.0;
            let floor = self.tasks[t.0].input_floors[step];
            match self.chans[cid].core.lookup(input.policy, floor, driver_ts) {
                Acquire::Got(ts, &item) => {
                    self.consume(t, step, cid, input.chan_out_index, ts, item);
                    self.tasks[t.0].phase = Phase::Gathering {
                        step: step + 1,
                        driver_ts: input.policy.is_driver().then_some(ts).or(driver_ts),
                    };
                }
                Acquire::Skip => {
                    self.tasks[t.0].phase = Phase::Gathering {
                        step: step + 1,
                        driver_ts,
                    };
                }
                Acquire::Block => {
                    self.chans[cid].waiters.push(t);
                    self.tasks[t.0].blocked = true;
                    self.tasks[t.0].controller.block_begin(now);
                    return;
                }
                Acquire::Abandon => {
                    // Join target can no longer arrive: abandon this
                    // iteration (cheap skip — the driver item was consumed
                    // but nothing will be produced from it).
                    self.begin_skip(t, driver_ts);
                    return;
                }
            }
        }
    }

    /// Retrieve an item: record the get, piggyback the consumer's
    /// summary-STP (paper §3.3.2), advance the task's local freshness
    /// floor — but only *release* the item for GC when the consuming
    /// iteration completes (the task still holds it while processing).
    fn consume(
        &mut self,
        t: TaskId,
        step: usize,
        cid: usize,
        idx: usize,
        ts: Timestamp,
        item: SimItem,
    ) {
        let now = self.now;
        let summary = self.tasks[t.0].controller.summary();
        let key = self.tasks[t.0].iter_key();
        if let Some(s) = summary {
            self.chans[cid].core.deposit(idx, s);
        }
        self.trace.get(now, item.id, key);
        let remote = self.chans[cid].cluster_node != self.tasks[t.0].decl.cluster_node;
        let fetch = if remote {
            self.net_transfer(item.bytes)
        } else {
            Micros::ZERO
        };
        let task = &mut self.tasks[t.0];
        task.pending_fetch += fetch;
        if ts.next() > task.input_floors[step] {
            task.input_floors[step] = ts.next();
        }
        task.pending_releases.push((cid, idx, ts));
    }

    fn begin_skip(&mut self, t: TaskId, driver_ts: Option<Timestamp>) {
        let now = self.now;
        let overhead = self.tasks[t.0].decl.spec.skip_overhead;
        self.tasks[t.0].pending_fetch = Micros::ZERO;
        self.tasks[t.0].skips += 1;
        self.tasks[t.0].phase = Phase::Computing {
            skipped: true,
            driver_ts,
        };
        let node = self.tasks[t.0].decl.cluster_node.0;
        self.node_busy[node] += 1;
        let gen = self.tasks[t.0].generation;
        self.schedule(now + overhead, EvKind::ComputeDone(t, gen));
    }

    fn start_compute(&mut self, t: TaskId, driver_ts: Option<Timestamp>) {
        let now = self.now;
        // DGC computation elimination: everything this task would produce
        // for `driver_ts` is provably dead downstream.
        if self.config.gc.eliminates_computation() {
            if let Some(ts) = driver_ts {
                let skip_before = self
                    .dgc_result
                    .thread_skip_before(self.tasks[t.0].decl.graph_node);
                if ts < skip_before {
                    self.begin_skip(t, driver_ts);
                    return;
                }
            }
        }
        let node = self.tasks[t.0].decl.cluster_node.0;
        let busy_others = self.node_busy[node];
        let cores = self.node_cores[node];
        let live = self.node_live[node];
        let speed = self.node_speed[node];
        let task = &mut self.tasks[t.0];
        let model = task.decl.spec.service_at(now);
        let mut service = task.noise.jitter(model.base, model.noise_sigma);
        // Heterogeneous clusters: a node's relative CPU speed divides the
        // sampled service time (speed 2.0 halves it, 0.5 doubles it),
        // floored at 1 µs so a fast node can never produce a zero-length
        // source iteration (which would live-lock the virtual clock).
        if speed != 1.0 {
            service = service.mul_f64(1.0 / speed).max(Micros(1));
        }
        let out_bytes: u64 = task.decl.outputs.iter().map(|o| o.bytes).sum();
        let fetch = std::mem::take(&mut task.pending_fetch);
        let stall = std::mem::take(&mut task.pending_stall);
        let d = self
            .config
            .cost
            .effective_duration(service, out_bytes, busy_others, cores, live)
            + fetch
            + stall;
        task.phase = Phase::Computing {
            skipped: false,
            driver_ts,
        };
        let gen = task.generation;
        self.node_busy[node] += 1;
        self.schedule(now + d, EvKind::ComputeDone(t, gen));
    }

    fn handle_compute_done(&mut self, t: TaskId, gen: u64) {
        if gen != self.tasks[t.0].generation {
            return; // the compute died with the crashed incarnation
        }
        let now = self.now;
        let node = self.tasks[t.0].decl.cluster_node.0;
        self.node_busy[node] -= 1;
        let (skipped, driver_ts) = match self.tasks[t.0].phase {
            Phase::Computing { skipped, driver_ts } => (skipped, driver_ts),
            _ => unreachable!("compute_done in non-computing phase"),
        };
        let key = self.tasks[t.0].iter_key();

        // Release the items this iteration consumed: the channel marks
        // advance and REF/DGC may now reclaim them.
        self.release_consumed(t.0);

        if !skipped {
            let out_ts = if self.tasks[t.0].is_source() {
                let ts = self.tasks[t.0].next_src_ts;
                self.tasks[t.0].next_src_ts = ts.next();
                ts
            } else {
                driver_ts.unwrap_or(Timestamp::ZERO)
            };
            let task_node = self.tasks[t.0].decl.cluster_node;
            let task_graph_node = self.tasks[t.0].decl.graph_node;
            let drop_fb = self.faults.drops_summaries_for(t.0, now);
            for oi in 0..self.tasks[t.0].decl.outputs.len() {
                let o = self.tasks[t.0].decl.outputs[oi];
                // The item is allocated the moment the producer materializes
                // it; a remote put only delays its *visibility* in the
                // channel by the transfer time (it occupies memory while in
                // flight, and latency is measured from production — the
                // paper measures a frame's trip from the digitizer).
                let graph_node = self.chans[o.chan.0].graph_node;
                let id = self.trace.alloc(now, graph_node, out_ts, o.bytes, key);
                let item = SimItem { id, bytes: o.bytes };
                let remote = self.chans[o.chan.0].cluster_node != task_node;
                if remote {
                    let delay = self.net_transfer(o.bytes);
                    self.schedule(
                        now + delay,
                        EvKind::ItemArrive {
                            chan: o.chan,
                            ts: out_ts,
                            item,
                        },
                    );
                } else {
                    self.deliver(o.chan, out_ts, item);
                }
                // Backward feedback: the channel's summary returns to the
                // producer with the put — unless an injected fault window is
                // eating the feedback path (the producer's view then decays
                // under the staleness horizon instead of freezing).
                if let Some(s) = self.chans[o.chan.0].core.summary() {
                    if drop_fb {
                        let node = task_graph_node;
                        self.trace
                            .record(TraceEvent::SummaryDropped { t: now, node });
                        self.tele
                            .journal
                            .record(now, task_graph_node, JournalKind::SummaryDropped);
                    } else {
                        self.tasks[t.0].gates.on_fold(
                            &self.tele.journal,
                            now,
                            task_graph_node,
                            graph_node,
                            s.period(),
                        );
                        self.tasks[t.0]
                            .controller
                            .receive_feedback_at(o.thread_out_index, s, now);
                    }
                }
            }
            if self.tasks[t.0].decl.spec.is_sink_reporter {
                let report_ts = driver_ts.unwrap_or(out_ts);
                self.trace.sink_output(now, key, report_ts);
                self.outputs += 1;
            }
        }

        let outcome = self.tasks[t.0].controller.iteration_end(now);
        let gates = &mut self.tasks[t.0].gates;
        gates.on_iteration(&mut self.trace, &self.tele.journal, now, key, &outcome);
        self.tasks[t.0].seq += 1;
        self.tasks[t.0].phase = Phase::Idle;
        let gen = self.tasks[t.0].generation;
        self.schedule(now + outcome.sleep, EvKind::Wake(t, gen));
    }

    // ---- fault injection ----------------------------------------------------

    /// Interconnect transfer time with any active link-spike fault applied.
    fn net_transfer(&self, bytes: u64) -> Micros {
        let base = self.config.net.transfer(bytes);
        let factor = self.faults.link_factor(self.now);
        if factor == 1.0 {
            base
        } else {
            base.mul_f64(factor)
        }
    }

    /// Advance the channel marks past everything task `ti`'s iteration
    /// consumed, so REF/DGC may reclaim it.
    fn release_consumed(&mut self, ti: usize) {
        self.marks_moved |= !self.tasks[ti].pending_releases.is_empty();
        for i in 0..self.tasks[ti].pending_releases.len() {
            let (cid, idx, ts) = self.tasks[ti].pending_releases[i];
            self.reclaim(cid, |core, freed| core.release(idx, ts, freed));
        }
        self.tasks[ti].pending_releases.clear();
    }

    fn handle_fault(&mut self, idx: usize) {
        // A fault naming no task of this run does nothing.
        let Some(ti) = self.faults.target(idx) else {
            return;
        };
        match self.config.faults.faults[idx] {
            Fault::Crash { .. } => {
                if self.tasks[ti].dead || matches!(self.tasks[ti].phase, Phase::Crashed) {
                    return;
                }
                let now = self.now;
                let node = self.tasks[ti].decl.cluster_node.0;
                let graph = self.tasks[ti].decl.graph_node;
                // A mid-compute crash frees the core it occupied.
                if matches!(self.tasks[ti].phase, Phase::Computing { .. }) {
                    self.node_busy[node] -= 1;
                }
                // Release items the dying iteration had consumed so the
                // crash cannot pin channel GC forever.
                self.release_consumed(ti);
                let t = &mut self.tasks[ti];
                t.attempts += 1;
                let attempt = t.attempts;
                t.generation += 1; // invalidate in-flight Wake/ComputeDone
                t.phase = Phase::Crashed;
                t.blocked = false;
                t.pending_fetch = Micros::ZERO;
                t.seq += 1; // the crashed iteration's key is never reused
                t.crashed_at = Some(now);
                self.tele.faults_crash.inc();
                self.tele.journal.record(
                    now,
                    graph,
                    JournalKind::Fault {
                        class: FaultClass::Crash,
                    },
                );
                TaskGates::on_crash(&mut self.trace, &self.tele.journal, now, graph, attempt);
                if self.config.retry.allows(attempt) {
                    let backoff = self.config.retry.delay(attempt);
                    self.schedule(now + backoff, EvKind::Restart(TaskId(ti)));
                } else {
                    self.tasks[ti].dead = true;
                    // The sim's escalation: no restart budget left, the
                    // task never runs again.
                    self.tele
                        .journal
                        .record(now, graph, JournalKind::Escalate { attempt });
                }
            }
            Fault::Stall { extra, .. } => {
                self.tasks[ti].pending_stall += extra;
                self.tele.faults_stall.inc();
                self.tele.journal.record(
                    self.now,
                    self.tasks[ti].decl.graph_node,
                    JournalKind::Fault {
                        class: FaultClass::Stall,
                    },
                );
            }
            Fault::DropSummaries { .. } | Fault::LinkSpike { .. } => {
                // Window faults are consulted at their use sites.
            }
        }
    }

    /// The simulated supervisor brings a crashed task back: fresh controller
    /// (summary state did not survive the crash), fresh incarnation, and an
    /// immediate wake. Source timestamps continue from where they left off —
    /// the channel contents survived; only the task's thread died.
    fn handle_restart(&mut self, t: TaskId) {
        if self.tasks[t.0].dead || !matches!(self.tasks[t.0].phase, Phase::Crashed) {
            return;
        }
        let now = self.now;
        let n_out = self.tasks[t.0].decl.outputs.len();
        let is_source = self.tasks[t.0].is_source();
        let attempt = self.tasks[t.0].attempts;
        let backoff = self.config.retry.delay(attempt);
        self.tasks[t.0].controller =
            AruController::new(NodeKind::Thread, n_out, is_source, &self.config.aru);
        self.tasks[t.0].phase = Phase::Idle;
        let graph = self.tasks[t.0].decl.graph_node;
        self.tele.restarts.inc();
        if let Some(crashed) = self.tasks[t.0].crashed_at.take() {
            self.tele
                .recovery_latency_us
                .record(now.since(crashed).as_micros());
        }
        let (trace, journal) = (&mut self.trace, &self.tele.journal);
        TaskGates::on_restart(trace, journal, now, graph, attempt, backoff);
        let gen = self.tasks[t.0].generation;
        self.schedule(now, EvKind::Wake(t, gen));
    }

    // ---- channel operations --------------------------------------------------

    fn deliver(&mut self, chan: ChanId, ts: Timestamp, item: SimItem) {
        let now = self.now;
        let cid = chan.0;
        // Count the bytes before the core can hand the item back as dead.
        self.node_live[self.chans[cid].cluster_node.0] += item.bytes;
        self.reclaim(cid, |core, freed| core.insert(ts, item, freed));
        for i in 0..self.chans[cid].waiters.len() {
            let w = self.chans[cid].waiters[i];
            let gen = self.tasks[w.0].generation;
            self.schedule(now, EvKind::Wake(w, gen));
        }
        self.chans[cid].waiters.clear();
    }

    /// Run `op` on channel `cid`'s core; every item it frees leaves its
    /// node's live memory and is traced as freed.
    fn reclaim<R>(
        &mut self,
        cid: usize,
        op: impl FnOnce(&mut BufferCore<SimItem>, &mut dyn FnMut(SimItem)) -> R,
    ) -> R {
        let now = self.now;
        let chan = &mut self.chans[cid];
        let live = &mut self.node_live[chan.cluster_node.0];
        let trace = &mut self.trace;
        op(&mut chan.core, &mut |item| {
            *live -= item.bytes;
            trace.free(now, item.id);
        })
    }

    fn handle_dgc_pass(&mut self) {
        let (chans, chan_of_node) = (&self.chans, &self.chan_of_node);
        let marks = |n: NodeId| chan_of_node[n.0 as usize].map(|cid| chans[cid].core.marks());
        if std::mem::take(&mut self.marks_moved) {
            self.dgc_engine.compute_into(marks, &mut self.dgc_result);
            for cid in 0..self.chans.len() {
                let bound = self
                    .dgc_result
                    .buffer_dead_before(self.chans[cid].graph_node);
                self.reclaim(cid, |core, freed| core.raise_dgc(bound, freed));
            }
        } else if cfg!(debug_assertions) {
            // The sweep is a pure function of the marks: same marks, same bounds.
            let mut fresh = DgcResult::default();
            self.dgc_engine.compute_into(marks, &mut fresh);
            assert_eq!(fresh, self.dgc_result, "DGC bounds moved with no mark");
        }
        self.dgc_next = None;
        let next = self.now + self.config.dgc_interval;
        if next <= SimTime::ZERO + self.config.duration {
            self.schedule_dgc(next);
        }
    }
}
