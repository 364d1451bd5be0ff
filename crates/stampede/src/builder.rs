//! Pipeline construction.
//!
//! Mirrors Stampede's setup phase: create threads and channels/queues with
//! system-wide names, declare the connections between them (which is how the
//! runtime learns the task graph — ARU assumption 2), attach task bodies,
//! then freeze into a runnable [`crate::runtime::Runtime`].

use crate::backend::{QueueBackend, QueueInput, QueueOutput};
use crate::channel::{BufferAdmin, Channel, Input, Output};
use crate::error::TaskResult;
use crate::lfqueue::{LfQueue, LfQueueInput, LfQueueOutput};
use crate::queue::{MutexQueueInput, MutexQueueOutput, Queue};
use crate::runtime::{DgcPass, Runtime};
use crate::task::TaskCtx;
use aru_core::graph::TopologyError;
use aru_core::{AruConfig, NodeId, RetryPolicy, Topology};
use aru_gc::GcMode;
use aru_metrics::{ExportSink, SharedTrace};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;
use vtime::{Clock, Micros, WallClock};

use crate::item::ItemData;

/// Typed handle to a declared channel.
pub struct ChannelRef<T> {
    pub(crate) node: NodeId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for ChannelRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ChannelRef<T> {}

/// Typed handle to a declared queue.
pub struct QueueRef<T> {
    pub(crate) node: NodeId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for QueueRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for QueueRef<T> {}

/// Handle to a declared task thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadRef(pub(crate) NodeId);

impl ThreadRef {
    /// The thread's node id in the task graph.
    #[must_use]
    pub fn node(self) -> NodeId {
        self.0
    }
}

/// Errors produced while building a pipeline.
#[derive(Debug)]
pub enum BuildError {
    /// Invalid connection (non-bipartite / unknown node / cycle).
    Topology(TopologyError),
    /// A declared thread has no body attached.
    MissingBody(String),
    /// `spawn` was called twice for the same thread.
    DuplicateBody(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Topology(e) => write!(f, "topology error: {e}"),
            BuildError::MissingBody(n) => write!(f, "thread '{n}' has no body"),
            BuildError::DuplicateBody(n) => write!(f, "thread '{n}' spawned twice"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<TopologyError> for BuildError {
    fn from(e: TopologyError) -> Self {
        BuildError::Topology(e)
    }
}

type Body = Box<dyn FnMut(&mut TaskCtx) -> TaskResult + Send>;

/// Builder for a threaded pipeline.
pub struct RuntimeBuilder {
    topo: Topology,
    config: AruConfig,
    gc_mode: GcMode,
    clock: Arc<dyn Clock>,
    trace: SharedTrace,
    buffers: HashMap<NodeId, Arc<dyn Any + Send + Sync>>,
    admins: Vec<Arc<dyn BufferAdmin>>,
    /// Default backend for queues declared via [`RuntimeBuilder::queue`].
    queue_backend: QueueBackend,
    /// Which backend each declared queue node actually got (so the
    /// connect calls construct the matching endpoint).
    queue_backends: HashMap<NodeId, QueueBackend>,
    bodies: HashMap<NodeId, Body>,
    retry: RetryPolicy,
    op_timeout: Option<Micros>,
    export: Option<(ExportSink, Micros)>,
    journal_path: Option<std::path::PathBuf>,
}

impl RuntimeBuilder {
    /// Start building a pipeline with the given ARU configuration and GC
    /// mode (applied uniformly, as in the paper's experiments).
    #[must_use]
    pub fn new(config: AruConfig, gc_mode: GcMode) -> Self {
        RuntimeBuilder {
            topo: Topology::new(),
            config,
            gc_mode,
            clock: Arc::new(WallClock::new()),
            trace: SharedTrace::new(),
            buffers: HashMap::new(),
            admins: Vec::new(),
            queue_backend: QueueBackend::default(),
            queue_backends: HashMap::new(),
            bodies: HashMap::new(),
            retry: RetryPolicy::none(),
            op_timeout: None,
            export: None,
            journal_path: None,
        }
    }

    /// Override the clock (tests inject a [`vtime::ManualClock`]).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Supervised-restart policy applied to every task thread: a panicking
    /// body is caught and restarted up to the policy's budget, then the
    /// runtime escalates to a clean shutdown. The default is
    /// [`RetryPolicy::none`] — first crash stops the pipeline.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Deadline applied to every blocking channel/queue operation: a get or
    /// lock-free-ring put that blocks longer than `timeout` fails with
    /// [`crate::error::StampedeError::Timeout`] instead of waiting forever
    /// (e.g. on a producer that crashed and is backing off before restart).
    #[must_use]
    pub fn with_op_timeout(mut self, timeout: Micros) -> Self {
        self.op_timeout = Some(timeout);
        self
    }

    /// Enable the periodic telemetry exporter: every `interval` of wall
    /// time a supervised runtime thread drains each buffer's telemetry
    /// accumulators into the shared metrics registry, snapshots it, and
    /// writes the snapshot through `sink` (Prometheus text rewritten
    /// atomically, JSONL appended). A final snapshot is flushed on
    /// shutdown — including the escalation path, so a crashed run still
    /// leaves telemetry (plus a `fault_report` JSONL line) behind.
    #[must_use]
    pub fn with_export(mut self, sink: ExportSink, interval: Micros) -> Self {
        self.export = Some((sink, interval));
        self
    }

    /// Persist the flight-recorder journal (DESIGN.md §16) to `path` as
    /// JSONL: a snapshot is cut on clean stop, and a crash dump is written
    /// to the `<path>.crash.jsonl` sibling when a supervisor exhausts its
    /// restart budget and escalates. Both writes are atomic (tmp + rename).
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// The live-telemetry bundle (metrics registry + flight-recorder journal)
    /// every buffer and task context of this pipeline reports into. Clone
    /// it before `build()` to watch gauges live or snapshot after the run.
    #[must_use]
    pub fn telemetry(&self) -> &aru_metrics::Telemetry {
        self.trace.telemetry()
    }

    /// Declare a channel. Channels are unbounded, as in Stampede: ARU, not
    /// a full channel, paces producers.
    pub fn channel<T: ItemData>(&mut self, name: impl Into<String>) -> ChannelRef<T> {
        let name = name.into();
        let node = self.topo.add_channel(name.clone());
        let ch = Arc::new(Channel::<T>::new(
            node,
            name,
            &self.config,
            self.gc_mode,
            Arc::clone(&self.clock),
            self.trace.clone(),
        ));
        self.admins.push(Arc::clone(&ch) as Arc<dyn BufferAdmin>);
        self.buffers.insert(node, ch as Arc<dyn Any + Send + Sync>);
        ChannelRef {
            node,
            _marker: PhantomData,
        }
    }

    /// Default backend for queues declared after this call (per-queue
    /// override: [`RuntimeBuilder::queue_with_backend`]). The mutex
    /// backend is the default; `QueueBackend::lock_free()` routes the
    /// graph's FIFO edges over the bounded MPMC ring.
    #[must_use]
    pub fn with_queue_backend(mut self, backend: QueueBackend) -> Self {
        self.queue_backend = backend;
        self
    }

    /// Declare a queue on the builder's current default backend.
    pub fn queue<T: ItemData>(&mut self, name: impl Into<String>) -> QueueRef<T> {
        self.queue_with_backend(name, self.queue_backend)
    }

    /// Declare a queue on an explicit backend (mixed-backend graphs are
    /// fine — each queue node records its own choice).
    pub fn queue_with_backend<T: ItemData>(
        &mut self,
        name: impl Into<String>,
        backend: QueueBackend,
    ) -> QueueRef<T> {
        let name = name.into();
        let node = self.topo.add_queue(name.clone());
        match backend {
            QueueBackend::Mutex => {
                let q = Arc::new(Queue::<T>::new(
                    node,
                    name,
                    &self.config,
                    Arc::clone(&self.clock),
                    self.trace.clone(),
                ));
                self.admins.push(Arc::clone(&q) as Arc<dyn BufferAdmin>);
                self.buffers.insert(node, q as Arc<dyn Any + Send + Sync>);
            }
            QueueBackend::LockFree { capacity } => {
                assert!(capacity > 0, "lock-free queue capacity must be positive");
                let q = Arc::new(LfQueue::<T>::new(
                    node,
                    name,
                    &self.config,
                    capacity,
                    self.trace.clone(),
                ));
                self.admins.push(Arc::clone(&q) as Arc<dyn BufferAdmin>);
                self.buffers.insert(node, q as Arc<dyn Any + Send + Sync>);
            }
        }
        self.queue_backends.insert(node, backend);
        QueueRef {
            node,
            _marker: PhantomData,
        }
    }

    /// Declare a task thread.
    pub fn thread(&mut self, name: impl Into<String>) -> ThreadRef {
        ThreadRef(self.topo.add_thread(name))
    }

    fn channel_arc<T: ItemData>(&self, r: &ChannelRef<T>) -> Arc<Channel<T>> {
        Arc::clone(self.buffers.get(&r.node).expect("channel registered"))
            .downcast::<Channel<T>>()
            .expect("channel type")
    }

    fn queue_arc<T: ItemData>(&self, r: &QueueRef<T>) -> Arc<Queue<T>> {
        Arc::clone(self.buffers.get(&r.node).expect("queue registered"))
            .downcast::<Queue<T>>()
            .expect("queue type")
    }

    fn lfqueue_arc<T: ItemData>(&self, r: &QueueRef<T>) -> Arc<LfQueue<T>> {
        Arc::clone(self.buffers.get(&r.node).expect("queue registered"))
            .downcast::<LfQueue<T>>()
            .expect("queue type")
    }

    fn queue_backend_of<T>(&self, r: &QueueRef<T>) -> QueueBackend {
        *self
            .queue_backends
            .get(&r.node)
            .expect("queue backend recorded at declaration")
    }

    /// Connect a thread's output to a channel; returns the producer
    /// endpoint to capture in the thread body.
    pub fn connect_out<T: ItemData>(
        &mut self,
        th: ThreadRef,
        ch: &ChannelRef<T>,
    ) -> Result<Output<T>, BuildError> {
        let edge = self.topo.connect(th.0, ch.node)?;
        let out_index = self.topo.edge(edge).out_index;
        Ok(Output {
            ch: self.channel_arc(ch),
            thread_out_index: out_index,
        })
    }

    /// Connect a channel to a consuming thread; returns the consumer
    /// endpoint to capture in the thread body.
    pub fn connect_in<T: ItemData>(
        &mut self,
        ch: &ChannelRef<T>,
        th: ThreadRef,
    ) -> Result<Input<T>, BuildError> {
        let edge = self.topo.connect(ch.node, th.0)?;
        let out_index = self.topo.edge(edge).out_index;
        Ok(Input {
            ch: self.channel_arc(ch),
            chan_out_index: out_index,
            floor: vtime::Timestamp::ZERO,
        })
    }

    /// Connect a thread's output to a queue; the endpoint matches the
    /// backend the queue was declared on.
    pub fn connect_queue_out<T: ItemData>(
        &mut self,
        th: ThreadRef,
        q: &QueueRef<T>,
    ) -> Result<QueueOutput<T>, BuildError> {
        let edge = self.topo.connect(th.0, q.node)?;
        let out_index = self.topo.edge(edge).out_index;
        Ok(match self.queue_backend_of(q) {
            QueueBackend::Mutex => QueueOutput::from_mutex(MutexQueueOutput {
                q: self.queue_arc(q),
                thread_out_index: out_index,
            }),
            QueueBackend::LockFree { .. } => {
                QueueOutput::from_lock_free(LfQueueOutput::new(self.lfqueue_arc(q), out_index))
            }
        })
    }

    /// Connect a queue to a consuming thread.
    pub fn connect_queue_in<T: ItemData>(
        &mut self,
        q: &QueueRef<T>,
        th: ThreadRef,
    ) -> Result<QueueInput<T>, BuildError> {
        let edge = self.topo.connect(q.node, th.0)?;
        let out_index = self.topo.edge(edge).out_index;
        Ok(match self.queue_backend_of(q) {
            QueueBackend::Mutex => QueueInput::from_mutex(MutexQueueInput {
                q: self.queue_arc(q),
                chan_out_index: out_index,
            }),
            QueueBackend::LockFree { .. } => {
                QueueInput::from_lock_free(LfQueueInput::new(self.lfqueue_arc(q), out_index))
            }
        })
    }

    /// Attach the task body for a thread.
    pub fn spawn<F>(&mut self, th: ThreadRef, body: F)
    where
        F: FnMut(&mut TaskCtx) -> TaskResult + Send + 'static,
    {
        let prev = self.bodies.insert(th.0, Box::new(body));
        assert!(
            prev.is_none(),
            "thread {} spawned twice",
            self.topo.name(th.0)
        );
    }

    /// The task graph built so far (for rendering / inspection).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Freeze the pipeline into a runnable [`Runtime`].
    pub fn build(mut self) -> Result<Runtime, BuildError> {
        self.topo.validate()?;
        // Every declared thread needs a body.
        for n in self.topo.node_ids() {
            if self.topo.kind(n).is_thread() && !self.bodies.contains_key(&n) {
                return Err(BuildError::MissingBody(self.topo.name(n).to_string()));
            }
        }
        // Pre-size buffer consumer bookkeeping to the final out-degrees.
        for admin in &self.admins {
            admin.configure_consumers(self.topo.out_degree(admin.node()));
        }
        let bodies = std::mem::take(&mut self.bodies);
        let tasks = self
            .topo
            .node_ids()
            .filter(|&n| self.topo.kind(n).is_thread())
            .map(|n| (n, self.topo.name(n).to_string()))
            .collect();
        let dgc = (self.gc_mode == GcMode::Dgc)
            .then(|| Arc::new(DgcPass::new(&self.topo, self.admins.clone())));
        Ok(Runtime {
            topo: self.topo,
            config: self.config,
            dgc,
            clock: self.clock,
            trace: self.trace,
            admins: self.admins,
            tasks,
            bodies,
            retry: self.retry,
            op_timeout: self.op_timeout,
            export: self.export,
            journal_path: self.journal_path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Step;

    #[test]
    fn build_rejects_missing_body() {
        let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
        let _ch = b.channel::<Vec<u8>>("c");
        let _t = b.thread("lonely");
        let err = match b.build() {
            Err(e) => e,
            Ok(_) => panic!("build must fail"),
        };
        assert!(matches!(err, BuildError::MissingBody(n) if n == "lonely"));
    }

    #[test]
    fn build_rejects_bad_connection() {
        let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
        let t1 = b.thread("a");
        let t2 = b.thread("b");
        // thread->thread is impossible through the typed API; simulate the
        // topology error by connecting a channel to a channel via refs.
        let c1 = b.channel::<Vec<u8>>("c1");
        let _c2 = b.channel::<Vec<u8>>("c2");
        let r = b.connect_in(&c1, t1);
        assert!(r.is_ok());
        let r2 = b.connect_out(t2, &c1);
        assert!(r2.is_ok());
        // duplicate spawn panics
        b.spawn(t1, |_| Ok(Step::Stop));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.spawn(t1, |_| Ok(Step::Stop));
        }));
        assert!(res.is_err());
    }

    #[test]
    fn topology_is_exposed() {
        let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
        let t = b.thread("src");
        let c = b.channel::<Vec<u8>>("ch");
        b.connect_out(t, &c).unwrap();
        assert_eq!(b.topology().node_count(), 2);
        assert_eq!(b.topology().edge_count(), 1);
    }
}
