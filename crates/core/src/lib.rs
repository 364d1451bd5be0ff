//! # Adaptive Resource Utilization (ARU) — the paper's core contribution
//!
//! This crate implements, as pure and runtime-agnostic algorithms, the
//! feedback-control mechanism of *"Adaptive Resource Utilization via Feedback
//! Control for Streaming Applications"* (Mandviwala, Harel, Ramachandran,
//! Knobe; IPDPS/IPPS 2005):
//!
//! * **STP measurement** ([`stp::StpMeter`]): the *Sustainable Thread Period*
//!   is the wall time of one task-loop iteration *excluding* time spent
//!   blocked on upstream data (paper §3.3.1, Figure 2). The meter's hooks
//!   are total: an unbalanced sequence (a task restarted mid-block) is
//!   repaired, never a panic or an error.
//! * **Backward propagation** ([`backward::BackwardStpVec`]): every node
//!   (thread, channel or queue) keeps a vector of the most recent
//!   summary-STP received from each downstream (output) connection
//!   (§3.3.2, Figure 3).
//! * **Compression** ([`compress::CompressOp`]): the backward vector is
//!   compressed with `min` (default, safe — sustain the *fastest* consumer)
//!   or `max` (aggressive — requires knowledge that all consumers feed one
//!   downstream stage, Figure 4), or a user-defined operator.
//! * **Summary-STP** ([`summary`]): threads combine the compressed value with
//!   their own current-STP via `max`; channels/queues forward the compressed
//!   value unchanged.
//! * **Pacing** ([`pacing::Pacer`]): source threads stretch their production
//!   period to the propagated summary-STP by sleeping the residual.
//! * **Filters** ([`filter::Filter`]): one state machine that smooths noisy
//!   summary-STP streams (identity, EWMA, windowed median) — named as the
//!   natural extension / future work in §3.3.2 and §6, implemented here and
//!   evaluated by `stp_filters_cut_production_jitter_under_a_noisy_consumer`
//!   in `desim/tests/extensions.rs`.
//! * **Control laws** ([`law`]): guardrails between the propagated
//!   summary-STP and the pacer — `Direct` (the paper's law and the
//!   default), PI with anti-windup, and a hysteresis dead-band —
//!   invoked event-style on summary-STP changes rather than every
//!   iteration (DESIGN.md §13).
//! * **Controller** ([`controller::AruController`]): the per-node state
//!   machine both runtimes (threaded `stampede` and discrete-event `desim`)
//!   drive from their `put`/`get` hooks.
//! * **Retry policy** ([`retry::RetryPolicy`]): deterministic restart
//!   schedules (constant/exponential backoff with seeded jitter) shared by
//!   the threaded runtime's task supervisor and the simulator's fault
//!   injector, so crash-recovery behaviour matches across runtimes.
//!
//! Everything here is deterministic and side-effect free, which is what makes
//! the same mechanism testable with `proptest` and reusable across the two
//! runtimes.

pub mod backward;
pub mod compress;
pub mod controller;
pub mod filter;
pub mod graph;
pub mod law;
pub mod pacing;
pub mod retry;
pub mod stp;
pub mod summary;

pub use backward::BackwardStpVec;
pub use compress::CompressOp;
pub use controller::{AruConfig, AruController, IterationOutcome, PacingPolicy};
pub use filter::{Filter, FilterSpec};
pub use graph::{ConnId, NodeId, NodeKind, Topology};
pub use law::{ControllerConfig, Law, LawDecision};
pub use pacing::Pacer;
pub use retry::{Backoff, RetryPolicy};
pub use stp::{Stp, StpMeter};
pub use summary::summary_for_thread;
