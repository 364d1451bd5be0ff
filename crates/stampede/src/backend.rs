//! Backend-selectable queue endpoints (DESIGN.md §14).
//!
//! [`crate::RuntimeBuilder`] can construct a task graph's FIFO edges over
//! either queue implementation:
//!
//! * [`QueueBackend::Mutex`] — the mutex+condvar [`Queue`]:
//!   unbounded, full per-item lineage tracing, DGC purge; its occupancy
//!   and summary are read under its state lock. The default, and the
//!   semantic oracle the differential suites compare against.
//! * [`QueueBackend::LockFree`] — the bounded
//!   [`LfQueue`](crate::LfQueue) MPMC ring with epoch parking: the
//!   7 ns/op put path, change-gated summary folds read through a seqlock
//!   cell, per-endpoint telemetry shards. Accepted divergences (no
//!   per-item trace events, no DGC purge, capacity backpressure) are
//!   documented in DESIGN.md §14 and pinned by
//!   `tests/lockfree_equivalence.rs`.
//!
//! The [`QueueOutput`]/[`QueueInput`] endpoints below are what
//! `connect_queue_out`/`connect_queue_in` hand to task bodies — one type
//! regardless of backend, so the same task code runs on both and the
//! backend parity suite (`tests/backend_parity.rs`) can drive identical
//! schedules through each. They carry put/get and `node` only; the
//! differential tests reach the mutex queue behind an output through
//! [`QueueOutput::mutex_queue`].

use crate::error::StampedeError;
use crate::item::{ItemData, StampedItem};
use crate::lfqueue::{LfQueueInput, LfQueueOutput};
use crate::queue::{MutexQueueInput, MutexQueueOutput, Queue};
use crate::task::TaskCtx;
use std::sync::Arc;
use vtime::Timestamp;

/// Default ring capacity for [`QueueBackend::lock_free`]: deep enough
/// that ARU pacing (not ring backpressure) governs steady state, small
/// enough that a runaway producer is bounded.
pub const DEFAULT_LF_CAPACITY: usize = 1024;

/// Which queue implementation [`crate::RuntimeBuilder`] constructs for a
/// declared queue node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Mutex + condvar [`Queue`]: unbounded, per-item
    /// lineage tracing, DGC purge. The default and the semantic oracle.
    #[default]
    Mutex,
    /// Lock-free [`LfQueue`](crate::LfQueue): bounded MPMC ring + epoch
    /// parking. Puts block at `capacity` (backpressure); no per-item
    /// trace events; DGC purge is a no-op (accepted divergences,
    /// DESIGN.md §14).
    LockFree {
        /// Ring capacity (rounded up to a power of two by the ring).
        capacity: usize,
    },
}

impl QueueBackend {
    /// The lock-free backend with [`DEFAULT_LF_CAPACITY`].
    #[must_use]
    pub fn lock_free() -> Self {
        QueueBackend::LockFree {
            capacity: DEFAULT_LF_CAPACITY,
        }
    }

    #[must_use]
    pub fn is_lock_free(&self) -> bool {
        matches!(self, QueueBackend::LockFree { .. })
    }
}

pub(crate) enum OutInner<T: ItemData> {
    Mutex(MutexQueueOutput<T>),
    LockFree(LfQueueOutput<T>),
}

/// Backend-agnostic producer endpoint for a queue, handed out by
/// [`crate::RuntimeBuilder::connect_queue_out`]. Same task-body code
/// works over the mutex and the lock-free backend.
pub struct QueueOutput<T: ItemData> {
    inner: OutInner<T>,
}

impl<T: ItemData> QueueOutput<T> {
    pub(crate) fn from_mutex(out: MutexQueueOutput<T>) -> Self {
        QueueOutput {
            inner: OutInner::Mutex(out),
        }
    }

    pub(crate) fn from_lock_free(out: LfQueueOutput<T>) -> Self {
        QueueOutput {
            inner: OutInner::LockFree(out),
        }
    }

    /// Enqueue an item, folding the queue's summary-STP back into the
    /// producing thread.
    pub fn put(&mut self, ctx: &mut TaskCtx, ts: Timestamp, value: T) -> Result<(), StampedeError> {
        match &mut self.inner {
            OutInner::Mutex(o) => o.put(ctx, ts, value),
            OutInner::LockFree(o) => o.put(ctx, ts, value),
        }
    }

    #[must_use]
    pub fn node(&self) -> aru_core::NodeId {
        match &self.inner {
            OutInner::Mutex(o) => o.queue().node(),
            OutInner::LockFree(o) => o.queue().node(),
        }
    }

    /// The underlying mutex queue, when this endpoint runs on the mutex
    /// backend (differential tests probe it).
    #[must_use]
    pub fn mutex_queue(&self) -> Option<Arc<Queue<T>>> {
        match &self.inner {
            OutInner::Mutex(o) => Some(o.queue_arc()),
            OutInner::LockFree(_) => None,
        }
    }
}

pub(crate) enum InInner<T: ItemData> {
    Mutex(MutexQueueInput<T>),
    LockFree(LfQueueInput<T>),
}

/// Backend-agnostic consumer endpoint for a queue, handed out by
/// [`crate::RuntimeBuilder::connect_queue_in`]. Gets return
/// [`StampedItem`] on both backends: the mutex queue stores `Arc<T>`
/// payloads; the lock-free ring stores payloads inline and wraps them on
/// the way out (same one-allocation-per-item budget, paid at get instead
/// of put).
pub struct QueueInput<T: ItemData> {
    inner: InInner<T>,
}

impl<T: ItemData> QueueInput<T> {
    pub(crate) fn from_mutex(inp: MutexQueueInput<T>) -> Self {
        QueueInput {
            inner: InInner::Mutex(inp),
        }
    }

    pub(crate) fn from_lock_free(inp: LfQueueInput<T>) -> Self {
        QueueInput {
            inner: InInner::LockFree(inp),
        }
    }

    /// Blocking FIFO get (destructive: each item reaches one consumer).
    pub fn get(&mut self, ctx: &mut TaskCtx) -> Result<StampedItem<T>, StampedeError> {
        match &mut self.inner {
            InInner::Mutex(i) => i.get(ctx),
            InInner::LockFree(i) => {
                let item = i.get(ctx)?;
                Ok(StampedItem {
                    ts: item.ts,
                    value: Arc::new(item.value),
                })
            }
        }
    }

    /// Non-blocking FIFO get.
    pub fn try_get(&mut self, ctx: &mut TaskCtx) -> Result<Option<StampedItem<T>>, StampedeError> {
        match &mut self.inner {
            InInner::Mutex(i) => i.try_get(ctx),
            InInner::LockFree(i) => Ok(i.try_get(ctx)?.map(|item| StampedItem {
                ts: item.ts,
                value: Arc::new(item.value),
            })),
        }
    }

    #[must_use]
    pub fn node(&self) -> aru_core::NodeId {
        match &self.inner {
            InInner::Mutex(i) => i.queue().node(),
            InInner::LockFree(i) => i.queue().node(),
        }
    }
}
