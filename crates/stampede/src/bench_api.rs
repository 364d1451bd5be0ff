//! Construction helpers for benchmarks and integration tests.
//!
//! Public construction of channels, queues, and task contexts normally
//! goes through [`crate::builder::RuntimeBuilder`], which wires a whole
//! task graph. The `benchmark/` micro pass and the equivalence tests
//! need *bare* components — one channel, one context, no runtime — so this
//! module re-exposes the crate-private constructors. It is `#[doc(hidden)]`
//! and carries no stability promise; application code must keep using the
//! builder.

use crate::channel::{BufferAdmin, Channel, Output};
use crate::item::ItemData;
use crate::lfqueue::{LfQueue, LfQueueInput, LfQueueOutput};
use crate::queue::{MutexQueueInput, MutexQueueOutput, Queue};
use crate::shutdown::Shutdown;
use crate::task::TaskCtx;
use aru_core::{AruConfig, NodeId, Stp};
use aru_gc::GcMode;
use aru_metrics::SharedTrace;
use std::sync::Arc;
use vtime::{Clock, Micros};

/// A standalone channel with `consumers` consumer slots configured.
///
/// Channels are unbounded: `capacity` stays in the signature only so the
/// benchmark's existing call keeps compiling, and must be `None`.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn channel<T: ItemData>(
    node: NodeId,
    name: &str,
    config: &AruConfig,
    gc_mode: GcMode,
    capacity: Option<usize>,
    clock: Arc<dyn Clock>,
    trace: SharedTrace,
    consumers: usize,
) -> Arc<Channel<T>> {
    assert!(capacity.is_none(), "channels are unbounded");
    let ch = Arc::new(Channel::new(
        node,
        name.to_string(),
        config,
        gc_mode,
        clock,
        trace,
    ));
    ch.configure_consumers(consumers);
    ch
}

/// A standalone queue with `consumers` consumer slots configured.
#[must_use]
pub fn queue<T: ItemData>(
    node: NodeId,
    name: &str,
    config: &AruConfig,
    clock: Arc<dyn Clock>,
    trace: SharedTrace,
    consumers: usize,
) -> Arc<Queue<T>> {
    let q = Arc::new(Queue::new(node, name.to_string(), config, clock, trace));
    q.configure_consumers(consumers);
    q
}

/// A standalone lock-free queue with `consumers` consumer slots
/// configured (DESIGN.md §14; capacity rounds up to a power of two).
#[must_use]
pub fn lfqueue<T: ItemData>(
    node: NodeId,
    name: &str,
    config: &AruConfig,
    capacity: usize,
    trace: SharedTrace,
    consumers: usize,
) -> Arc<LfQueue<T>> {
    let q = Arc::new(LfQueue::new(
        node,
        name.to_string(),
        config,
        capacity,
        trace,
    ));
    BufferAdmin::configure_consumers(&*q, consumers);
    q
}

/// A standalone task context (its own shutdown flag; it runs no DGC pass
/// and skips nothing).
#[must_use]
pub fn task_ctx(
    node: NodeId,
    name: &str,
    n_outputs: usize,
    is_source: bool,
    config: &AruConfig,
    clock: Arc<dyn Clock>,
    trace: SharedTrace,
) -> TaskCtx {
    TaskCtx::new(
        node,
        name.to_string(),
        n_outputs,
        is_source,
        config,
        clock,
        &trace,
        Shutdown::new(),
        None,
    )
}

/// Producer endpoint for slot `thread_out_index` of the producing thread's
/// backward vector.
#[must_use]
pub fn output<T: ItemData>(ch: &Arc<Channel<T>>, thread_out_index: usize) -> Output<T> {
    Output {
        ch: Arc::clone(ch),
        thread_out_index,
    }
}

/// Producer endpoint for a mutex queue (the oracle side of the
/// differential suites; graph code gets the backend-agnostic
/// `backend::QueueOutput` from the builder instead).
#[must_use]
pub fn queue_output<T: ItemData>(
    q: &Arc<Queue<T>>,
    thread_out_index: usize,
) -> MutexQueueOutput<T> {
    MutexQueueOutput {
        q: Arc::clone(q),
        thread_out_index,
    }
}

/// Consumer endpoint for a mutex queue.
#[must_use]
pub fn queue_input<T: ItemData>(q: &Arc<Queue<T>>, chan_out_index: usize) -> MutexQueueInput<T> {
    MutexQueueInput {
        q: Arc::clone(q),
        chan_out_index,
    }
}

/// Producer endpoint for a lock-free queue.
#[must_use]
pub fn lfqueue_output<T: ItemData>(
    q: &Arc<LfQueue<T>>,
    thread_out_index: usize,
) -> LfQueueOutput<T> {
    LfQueueOutput::new(Arc::clone(q), thread_out_index)
}

/// Consumer endpoint for a lock-free queue.
#[must_use]
pub fn lfqueue_input<T: ItemData>(q: &Arc<LfQueue<T>>, chan_out_index: usize) -> LfQueueInput<T> {
    LfQueueInput::new(Arc::clone(q), chan_out_index)
}

/// Seed the context's summary-STP so subsequent gets exercise the feedback
/// deposit path (a fresh context has nothing to piggyback).
pub fn warm_summary(ctx: &mut TaskCtx, stp: Stp) {
    ctx.receive_feedback(0, stp);
}

/// Give the context a per-op timeout, as the supervised runtime does —
/// blocking ops then compute a wall-clock deadline on entry.
pub fn set_op_timeout(ctx: &mut TaskCtx, timeout: Micros) {
    ctx.set_op_timeout(Some(timeout));
}

/// Publish a channel's buffered trace events (tests snapshot after this).
pub fn flush_channel_trace<T: ItemData>(ch: &Channel<T>) {
    BufferAdmin::flush_trace(ch);
}
