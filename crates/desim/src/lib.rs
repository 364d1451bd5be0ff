//! Deterministic discrete-event cluster simulator for pipelined streaming
//! applications with ARU feedback control.
//!
//! The paper's evaluation ran the color-based people tracker for ~200
//! seconds on a 2005 cluster (8-way P-III Xeon SMPs over Gigabit Ethernet),
//! in a 1-node and a 5-node configuration. That testbed no longer exists;
//! this simulator is the substitution (see DESIGN.md §2): it reproduces the
//! *regime* — service-time ratios, queueing, OS-scheduling noise, network
//! transfer delays, CPU contention and memory pressure — under a virtual
//! clock, deterministically (seeded), at millisecond wall cost per simulated
//! run.
//!
//! The simulator shares all of the actual mechanism code with the threaded
//! runtime: the same [`aru_core::AruController`] state machine, the same
//! [`aru_gc`] REF/DGC decision logic, the same [`aru_metrics`] trace and
//! postmortem analyses. Only the scheduling/timing layer differs.
//!
//! # Model summary
//!
//! * **Tasks** are state machines: gather inputs (blocking excluded from
//!   STP, exactly as in §3.3.1) → compute (sampled service time × node
//!   slowdown) → produce outputs → `periodicity_sync` → pacing sleep.
//! * **Channels** have Stampede semantics — the threaded runtime's own
//!   [`aru_gc::BufferCore`]: ts-indexed, non-destructive, get-latest with
//!   per-consumer marks, REF-floor purging plus periodic cross-graph DGC
//!   passes with computation elimination.
//! * **Cluster nodes** have a core count, a CPU-contention coefficient and
//!   a memory-pressure coefficient ([`cost::CostModel`]); channels are
//!   placed on their producer's node (as in the paper's configuration 2).
//! * **Links** add `latency + bytes/bandwidth` before a remotely-put item
//!   becomes visible ([`net::NetModel`]).
//! * **Noise**: multiplicative log-normal service-time noise with a seeded
//!   RNG ([`noise`]) models the OS-scheduling variance the paper blames for
//!   summary-STP jitter.

pub mod builder;
pub mod cost;
pub mod engine;
pub mod equeue;
pub mod fault;
pub mod net;
pub mod noise;
pub mod report;
pub mod schannel;
pub mod spec;

pub use aru_gc::InputPolicy;
pub use builder::{ChanId, SimBuilder, SimNodeId, SpeedDist, TaskId};
pub use cost::CostModel;
pub use engine::{QueueOp, Sim, SimConfig};
pub use equeue::{EventQueue, EventQueueKind};
pub use fault::{Fault, FaultPlan, ResolvedFaults};
pub use net::NetModel;
pub use noise::Noise;
pub use report::{SimAnalysis, SimReport};
pub use schannel::SimItem;
pub use spec::{ServiceModel, TaskSpec};
