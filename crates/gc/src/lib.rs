//! Garbage collection for timestamped streaming buffers.
//!
//! The ARU paper layers its mechanism on Stampede's timestamp-based garbage
//! collectors and compares against an ideal bound:
//!
//! * **REF / transparent GC** ([`refcount`]) — an item is reclaimable once
//!   every consumer connection has moved past its timestamp (consumed it or
//!   skipped over it). This is the baseline "timestamp visibility" collector
//!   of the earlier Stampede work.
//! * **Dead-timestamp GC (DGC)** ([`dgc`]) — the paper's §4 collector:
//!   nodes propagate guarantees about locally-dead timestamps to their
//!   neighbours, which both reclaims items earlier and lets threads *skip
//!   computations* whose outputs are provably dead downstream.
//! * **Ideal GC (IGC)** ([`igc`]) — the unrealizable postmortem bound: a
//!   collector with future knowledge that never materializes wasted items at
//!   all and frees useful ones at their last use.
//!
//! Everything is expressed as pure functions over consumption marks and the
//! task-graph [`Topology`](aru_core::graph::Topology), so the threaded
//! runtime and the simulator drive identical logic. [`BufferCore`]
//! ([`buffer`]) is the one channel built on them that both substrates wrap.

pub mod buffer;
pub mod dgc;
pub mod igc;
pub mod marks;
pub mod policy;
pub mod postmortem;
pub mod refcount;

pub use buffer::{Acquire, BufferCore, Footprint, InputPolicy};
pub use dgc::{DgcEngine, DgcResult};
pub use igc::IdealGc;
pub use marks::ConsumerMarks;
pub use policy::GcMode;
pub use postmortem::Postmortem;
pub use refcount::ref_dead_before;
