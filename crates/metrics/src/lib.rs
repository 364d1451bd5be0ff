//! Measurement infrastructure for the ARU reproduction.
//!
//! The paper (§4): *"We have an elaborate measurement infrastructure for
//! recording these statistics in the Stampede runtime. Each interaction of an
//! item with the operating system (e.g. allocation, deallocation, etc.) is
//! recorded. Items that do not make it to the end of the pipeline are marked
//! to differentiate between wasted and successful memory and computations. A
//! postmortem analysis program uses these statistics to derive the metrics of
//! interest."*
//!
//! This crate is that infrastructure:
//!
//! * [`event`] / [`trace`] — the in-memory event trace both runtimes emit
//!   (item allocation/free, gets, thread iterations, sink outputs);
//! * [`lineage`] — exact postmortem lineage: which items/iterations fed data
//!   that reached a pipeline sink ("successful") vs. everything else
//!   ("wasted");
//! * [`waste`] — %-wasted-memory (byte·time integral) and
//!   %-wasted-computation (busy-time sum) exactly as defined in §4;
//! * [`footprint`] — memory-footprint time series and the time-weighted
//!   `MUμ`/`MUσ` summary, plus the Ideal-GC (IGC) lower-bound series
//!   computed from the same trace;
//! * [`perf`] — latency, throughput and jitter of the pipeline output;
//! * [`fault`] — fault accounting: crashes, supervisor restarts, timed-out
//!   ops, dropped summaries and stale-summary intervals, overall and per
//!   node;
//! * [`mod@stability`] — control-law stability accounting (convergence time,
//!   oscillation count per window, peak overshoot) over the
//!   [`event::TraceEvent::PaceDecision`] series;
//! * [`report`] — table/CSV rendering for the experiment harness.
//!
//! Live telemetry (DESIGN.md §12) rides alongside the postmortem trace:
//!
//! * [`registry`] — lock-free sharded counters/gauges, [`hist`] —
//!   log-bucketed mergeable histograms, [`journal`] — the flight
//!   recorder of control-plane events, [`export`] — Prometheus-text/JSONL
//!   serialization. The bundle ([`Telemetry`]) is carried by
//!   [`SharedTrace`], so every runtime component that can trace can also
//!   meter.

pub mod channel_stats;
mod dense;
pub mod event;
pub mod export;
pub mod fault;
pub mod footprint;
pub mod hist;
pub mod journal;
pub mod json;
pub mod lineage;
#[cfg(all(loom, test))]
mod loom_tests;
pub mod perf;
pub mod registry;
pub mod report;
pub mod spans;
pub mod stability;
pub mod sync;
pub mod thread_stats;
pub mod trace;
pub mod waste;

pub use channel_stats::{channel_stats, ChannelStats};
pub use event::{ItemId, IterKey, TraceEvent};
pub use export::ExportSink;
pub use fault::{FaultReport, NodeFaults};
pub use footprint::{FootprintReport, IGC_LABEL};
pub use hist::{Hist, HistSnapshot};
pub use journal::{
    load_journal, FaultClass, HopLeg, Journal, JournalKind, JournalRecord, JournalShard,
    JournalSnapshot, LoadedJournal,
};
pub use lineage::{ItemRecord, IterRecord, Lineage};
pub use perf::PerfReport;
pub use registry::{Counter, Gauge, Histogram, Registry, RegistrySnapshot, Series, Telemetry};
pub use spans::{FeedbackHop, HopKind, SpanRecorder, SpanShard, SpanSnapshot};
pub use stability::{stability, StabilityReport, StabilitySpec};
pub use thread_stats::{thread_stats, ThreadStats};
pub use trace::{LocalTrace, SharedTrace, Trace, TraceSink};
pub use waste::WasteReport;
