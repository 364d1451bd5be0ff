//! Trace event model.
//!
//! Every interaction of an item with the runtime is recorded as one
//! [`TraceEvent`]. The postmortem analyses ([`crate::lineage`],
//! [`crate::footprint`], [`crate::waste`], [`crate::perf`]) are pure
//! functions of the resulting event sequence, which is what lets the
//! threaded runtime and the discrete-event simulator share them.

use aru_core::graph::NodeId;
use serde::{Deserialize, Serialize};
use vtime::{Micros, SimTime, Timestamp};

/// Unique identity of one allocated item (one `put` into one buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ItemId(pub u64);

/// Identity of one thread-loop iteration: `(thread node, iteration seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IterKey {
    pub node: NodeId,
    pub seq: u64,
}

impl IterKey {
    #[must_use]
    pub fn new(node: NodeId, seq: u64) -> Self {
        IterKey { node, seq }
    }
}

/// One recorded runtime event.
///
/// `Copy`: every variant is a handful of plain integers, moved by value
/// through the recorders and the snapshot merge. The threaded recorder
/// ([`crate::trace::SharedTrace`]) stores events encoded (~7 bytes each)
/// and decodes them into this form once, at the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An item was allocated into a buffer (a `put`).
    Alloc {
        t: SimTime,
        item: ItemId,
        /// Buffer node the item lives in.
        buffer: NodeId,
        /// Virtual timestamp of the item.
        ts: Timestamp,
        /// Payload size in bytes (the paper's footprint unit).
        bytes: u64,
        /// The producing thread iteration (lineage edge producer→item).
        producer: IterKey,
    },
    /// An item was reclaimed (by whichever GC policy is active).
    Free { t: SimTime, item: ItemId },
    /// A consumer retrieved an item (lineage edge item→consumer iteration).
    Get {
        t: SimTime,
        item: ItemId,
        consumer: IterKey,
    },
    /// A thread-loop iteration completed, having spent `busy` time computing
    /// (blocking excluded — this is the same quantity as the current-STP).
    IterEnd {
        t: SimTime,
        iter: IterKey,
        busy: Micros,
    },
    /// A sink thread emitted a pipeline output for virtual time `ts`
    /// (e.g. the GUI displayed the tracking result for frame `ts`).
    SinkOutput {
        t: SimTime,
        iter: IterKey,
        ts: Timestamp,
    },
    /// A supervised task crashed — a panic in the threaded runtime, or an
    /// injected crash in the simulator. `attempt` counts failures of this
    /// task so far (1 = first crash).
    TaskCrash {
        t: SimTime,
        node: NodeId,
        attempt: u32,
    },
    /// The supervisor restarted a crashed task after waiting `backoff`.
    TaskRestart {
        t: SimTime,
        node: NodeId,
        attempt: u32,
        backoff: Micros,
    },
    /// A blocking channel/queue operation gave up after the op timeout.
    OpTimeout { t: SimTime, node: NodeId },
    /// A thread finished an iteration with its downstream summary-STP older
    /// than the staleness horizon (the controller decayed the pacing target).
    StaleSummary { t: SimTime, iter: IterKey },
    /// A summary-STP feedback message was dropped (fault injection).
    SummaryDropped { t: SimTime, node: NodeId },
    /// A pacing control law fired: it saw raw (oracle) target `raw` and
    /// applied `target` (DESIGN.md §13). `clamped` marks a decision that
    /// differs from the raw target. Recorded at iteration granularity, only
    /// on iterations where the law actually took a decision — the stability
    /// analyses ([`crate::stability()`]) are pure functions of this series.
    PaceDecision {
        t: SimTime,
        node: NodeId,
        raw: Micros,
        target: Micros,
        clamped: bool,
    },
}

impl TraceEvent {
    /// Event time.
    #[must_use]
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::Alloc { t, .. }
            | TraceEvent::Free { t, .. }
            | TraceEvent::Get { t, .. }
            | TraceEvent::IterEnd { t, .. }
            | TraceEvent::SinkOutput { t, .. }
            | TraceEvent::TaskCrash { t, .. }
            | TraceEvent::TaskRestart { t, .. }
            | TraceEvent::OpTimeout { t, .. }
            | TraceEvent::StaleSummary { t, .. }
            | TraceEvent::SummaryDropped { t, .. }
            | TraceEvent::PaceDecision { t, .. } => t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_time_extraction() {
        let e = TraceEvent::Free {
            t: SimTime(42),
            item: ItemId(1),
        };
        assert_eq!(e.time(), SimTime(42));
        let e = TraceEvent::SinkOutput {
            t: SimTime(7),
            iter: IterKey::new(NodeId(1), 3),
            ts: Timestamp(9),
        };
        assert_eq!(e.time(), SimTime(7));
    }

    #[test]
    fn iter_key_equality() {
        assert_eq!(IterKey::new(NodeId(1), 2), IterKey::new(NodeId(1), 2));
        assert_ne!(IterKey::new(NodeId(1), 2), IterKey::new(NodeId(1), 3));
        assert_ne!(IterKey::new(NodeId(1), 2), IterKey::new(NodeId(2), 2));
    }
}
