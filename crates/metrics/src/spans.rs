//! Feedback-loop span ring: bounded per-writer rings of summary-STP hops.
//!
//! No runtime writes here any more — the journal's `Hop`/`Pace` records
//! are the one record of a hop, and [`crate::journal::attribute_pace`] is
//! the one causal-chain walk. What is left is the recorder the benchmark's
//! micro pass times (`metrics.spans.record_ns`); it goes with ROADMAP
//! item 1a.
//!
//! # Hops
//!
//! A summary value travels consumer → channel → producer → controller:
//!
//! 1. [`HopKind::Deposit`] — a consumer's `get` deposits its compressed
//!    summary at the channel (`node` = channel, `peer` = consumer thread).
//! 2. [`HopKind::Return`] — a producer's `put` receives the channel's
//!    cached summary (`node` = channel, `peer` = producer thread).
//! 3. [`HopKind::Fold`] — the producer folds that value into its
//!    controller's backward vector (`node` = producer thread, `peer` =
//!    channel).
//! 4. [`HopKind::Pace`] — the producer's `iteration_end` pacing decision
//!    uses the folded summary (`node` = `peer` = thread; `extra` carries
//!    the sleep it chose).
//!
//! # Ring semantics
//!
//! Each writer owns a [`SpanShard`]: the journal's ring (at most
//! [`crate::journal::JOURNAL_CAP`] hops) behind an uncontended mutex.
//! When the ring is full the **oldest hop is overwritten** and a drop
//! counter bumps; memory is bounded no matter how long the run.
//! [`SpanRecorder::snapshot`] merges all rings into one time-ordered hop
//! list. The ring lives in `journal.rs`, so deleting this file deletes
//! only the span types.

use crate::journal::{Rings, SharedRing};
use aru_core::graph::NodeId;
use std::sync::Arc;
use vtime::{Micros, SimTime};

/// Which leg of the backward propagation a hop records (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopKind {
    Deposit,
    Return,
    Fold,
    Pace,
}

/// One observed hop of a summary-STP value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeedbackHop {
    pub t: SimTime,
    pub kind: HopKind,
    /// Where the hop was observed: the channel node for `Deposit`/`Return`,
    /// the thread node for `Fold`/`Pace`.
    pub node: NodeId,
    /// The other party: the depositing consumer (`Deposit`), the receiving
    /// producer (`Return`), the source channel (`Fold`), the thread itself
    /// (`Pace`).
    pub peer: NodeId,
    /// The summary-STP period the hop carries — the chain key: a value
    /// propagates unchanged, so equal `value` links hops of one span.
    pub value: Micros,
    /// `Pace` only: the sleep the pacing decision chose. Zero otherwise.
    pub extra: Micros,
}

/// A writer-private span ring. The mutex exists for the snapshotting
/// reader; the owning writer is the only other holder, so hot-path locking
/// is uncontended (and only happens when a summary value changed at all).
#[derive(Debug)]
pub struct SpanShard {
    ring: SharedRing<FeedbackHop>,
}

impl SpanShard {
    pub fn record(&self, hop: FeedbackHop) {
        self.ring.lock().push(hop);
    }
}

/// Shared handle to the span recorder (cheap to clone; all clones see the
/// same shards).
#[derive(Clone, Debug, Default)]
pub struct SpanRecorder {
    rings: Arc<Rings<FeedbackHop>>,
}

impl SpanRecorder {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new writer-private ring.
    #[must_use]
    pub fn shard(&self) -> SpanShard {
        SpanShard {
            ring: self.rings.open(),
        }
    }

    /// Merge all rings into one time-ordered hop list. Non-destructive.
    #[must_use]
    pub fn snapshot(&self) -> SpanSnapshot {
        let (hops, dropped) = self.rings.collect(|h| h.t);
        SpanSnapshot { hops, dropped }
    }
}

/// All recorded hops, time-ordered, plus how many were overwritten.
#[derive(Clone, Debug, Default)]
pub struct SpanSnapshot {
    pub hops: Vec<FeedbackHop>,
    pub dropped: u64,
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn hop(t: u64, kind: HopKind, node: u32, peer: u32, value: u64) -> FeedbackHop {
        FeedbackHop {
            t: SimTime(t),
            kind,
            node: NodeId(node),
            peer: NodeId(peer),
            value: Micros(value),
            extra: Micros(0),
        }
    }

    #[test]
    fn snapshot_merges_shards_by_time() {
        let rec = SpanRecorder::new();
        let a = rec.shard();
        let b = rec.shard();
        a.record(hop(10, HopKind::Deposit, 1, 2, 5));
        b.record(hop(5, HopKind::Pace, 3, 3, 5));
        let snap = rec.snapshot();
        assert_eq!(snap.hops[0].t, SimTime(5));
        assert_eq!(snap.hops[1].t, SimTime(10));
    }
}
