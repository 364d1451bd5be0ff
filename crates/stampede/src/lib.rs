//! A Stampede-like threaded runtime for pipelined streaming applications,
//! with the paper's ARU feedback mechanism built in.
//!
//! This crate reimplements the subset of the Stampede cluster programming
//! system (Nikhil, Ramachandran et al.) that the ARU paper's mechanism and
//! evaluation rely on:
//!
//! * **timestamped channels** ([`channel::Channel`]) — system-named buffers
//!   of `(virtual timestamp, item)` pairs with *non-destructive*,
//!   out-of-order, get-latest access and per-consumer consumption state;
//! * **timestamped queues** ([`queue::Queue`]) — FIFO buffers with
//!   destructive gets;
//! * **task threads** ([`task`]) — each application task runs the canonical
//!   Stampede loop (get inputs → compute → put outputs →
//!   `periodicity_sync()`), driven by a user closure;
//! * **ARU feedback** — summary-STP values are piggybacked on every
//!   `put`/`get` exactly as in §3.3.2: a consumer hands its summary to the
//!   channel on `get`; the channel hands its compressed summary back to the
//!   producer as the return value of `put`; source threads pace themselves;
//! * **garbage collection** ([`runtime`]'s GC driver) — inline REF-floor
//!   purging on every operation plus a periodic Dead-Timestamp GC pass that
//!   propagates guarantees across the whole task graph and feeds the
//!   computation-elimination hook [`task::TaskCtx::should_skip`];
//! * **measurement** — every allocation, free, get, iteration and sink
//!   output is recorded into an [`aru_metrics::Trace`] for the paper's
//!   postmortem analyses.
//!
//! Every task runs in one process, which is the paper's configuration 1.
//! Configuration 2 (five cluster nodes over Gigabit Ethernet) is reproduced
//! by the simulator, `desim`, whose `NetModel` is the one model of the link.
//!
//! # Quick example
//!
//! ```
//! use stampede::prelude::*;
//! use vtime::{Micros, Timestamp};
//!
//! let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
//! let ch = b.channel::<Vec<u8>>("frames");
//! let src = b.thread("producer");
//! let snk = b.thread("consumer");
//! let out = b.connect_out(src, &ch).unwrap();
//! let mut inp = b.connect_in(&ch, snk).unwrap();
//!
//! let mut ts = Timestamp::ZERO;
//! b.spawn(src, move |ctx| {
//!     out.put(ctx, ts, vec![0u8; 64])?;
//!     ts = ts.next();
//!     Ok(Step::Continue)
//! });
//! b.spawn(snk, move |ctx| {
//!     let item = inp.get_latest(ctx)?;
//!     ctx.emit_output(item.ts);
//!     Ok(Step::Continue)
//! });
//!
//! let report = b.build().unwrap().run_for(Micros::from_millis(30)).unwrap();
//! assert!(report.outputs() > 0);
//! ```

pub mod backend;
#[doc(hidden)]
pub mod bench_api;
pub mod builder;
pub mod channel;
pub mod error;
pub mod fanout;
pub mod item;
pub mod lfqueue;
pub mod queue;
mod ring;
pub mod runtime;
mod seqlock;
pub mod shutdown;
pub mod sync;
pub mod task;
mod tele;

#[cfg(all(loom, test))]
mod loom_tests;

pub use backend::{QueueBackend, QueueInput, QueueOutput};
pub use builder::{BuildError, ChannelRef, QueueRef, RuntimeBuilder, ThreadRef};
pub use channel::{Channel, Input, Output};
pub use error::{StampedeError, Step, TaskResult};
pub use fanout::FanOut;
pub use item::{ItemData, Record, StampedItem};
pub use lfqueue::{LfItem, LfQueue, LfQueueInput, LfQueueOutput};
pub use queue::{MutexQueueInput, MutexQueueOutput, Queue};
pub use runtime::{BoxedJoinError, RunAnalysis, RunReport, Running, Runtime};
pub use task::TaskCtx;

/// Common imports for application code.
pub mod prelude {
    pub use crate::backend::{QueueBackend, QueueInput, QueueOutput};
    pub use crate::builder::{ChannelRef, QueueRef, RuntimeBuilder, ThreadRef};
    pub use crate::channel::{Input, Output};
    pub use crate::error::{StampedeError, Step, TaskResult};
    pub use crate::fanout::FanOut;
    pub use crate::item::{ItemData, Record, StampedItem};
    pub use crate::lfqueue::{LfItem, LfQueueInput, LfQueueOutput};
    pub use crate::runtime::{RunAnalysis, RunReport, Runtime};
    pub use crate::task::TaskCtx;
    pub use aru_core::{AruConfig, CompressOp, PacingPolicy, RetryPolicy};
    pub use aru_gc::GcMode;
}
