//! The paper's channel semantics, written once: [`BufferCore`] decides what
//! a get returns, when an item is dead and what a purge frees. It has no
//! clock, lock or trace; `stampede::Channel` and `desim::SimChannel` wrap
//! it. Every op that frees items hands each to a callback, in store order.
//! The dead bound moves only in [`BufferCore::configure`],
//! [`BufferCore::release`] and [`BufferCore::raise_dgc`], which purge at
//! once, so an insert's dead-on-arrival check is one compare against the
//! purge watermark.

use crate::{ref_dead_before, ConsumerMarks, GcMode};
use aru_core::{AruConfig, AruController, NodeKind, Stp};
use serde::{Deserialize, Serialize};
use vtime::{Timestamp, TsStore};

/// How a task reads one of its input channels each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InputPolicy {
    /// The iteration driver: block until an item *newer* than everything
    /// this connection has consumed exists, then take the newest (Stampede
    /// get-latest — skipping stale items).
    DriverLatest,
    /// The iteration driver with **queue semantics**: consume every
    /// timestamp in order, blocking until the next one arrives, never
    /// skipping. This models total-consumption pipelines (classic bounded-
    /// queue backpressure systems) for comparison against ARU's
    /// skip-and-pace model; without ARU the buffer grows without bound when
    /// the producer outruns this consumer.
    FifoNext,
    /// Join at exactly the driver's timestamp (e.g. target detection pairs
    /// the motion mask with the video frame of the same frame number).
    /// Blocks if the timestamp has not arrived yet; if it can no longer
    /// arrive (newer items exist but not this one), the iteration is
    /// abandoned (counts as a skip).
    JoinExact,
    /// Take the newest item at or before the driver's timestamp (e.g. the
    /// freshest color-histogram model no newer than the frame being
    /// analyzed); falls back to the newest available; blocks only while the
    /// channel is empty.
    JoinLatestAtOrBefore,
    /// Take the newest available item if any, without blocking and without
    /// a freshness requirement (e.g. the GUI's second location stream).
    LatestOpt,
}

impl InputPolicy {
    /// Is this the (single) driving input?
    #[must_use]
    pub fn is_driver(self) -> bool {
        matches!(self, InputPolicy::DriverLatest | InputPolicy::FifoNext)
    }
}

/// What one [`BufferCore::lookup`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Acquire<'a, V> {
    /// The item the policy asks for, at this timestamp.
    Got(Timestamp, &'a V),
    /// Nothing now, and the policy does not wait ([`InputPolicy::LatestOpt`]).
    Skip,
    /// Nothing yet: wait for the next insert.
    Block,
    /// The join target can never arrive: a newer item exists, it does not.
    Abandon,
}

/// The bytes an item holds, for the buffer's live-byte count.
pub trait Footprint {
    fn bytes(&self) -> u64;
}

/// One channel's items, consumer marks, ARU controller and GC state.
#[derive(Debug)]
pub struct BufferCore<V> {
    store: TsStore<V>,
    marks: ConsumerMarks,
    aru: AruController,
    gc: GcMode,
    /// Highest dead-before bound received from the cross-graph DGC pass.
    dgc_dead_before: Timestamp,
    /// Everything below this is already reclaimed.
    purged_before: Timestamp,
    live_bytes: u64,
}

impl<V: Footprint> BufferCore<V> {
    /// An empty buffer; [`BufferCore::configure`] sets its consumers.
    #[must_use]
    pub fn new(gc: GcMode, config: &AruConfig) -> Self {
        BufferCore {
            store: TsStore::new(),
            marks: ConsumerMarks::new(0),
            aru: AruController::new(NodeKind::Channel, 0, false, config),
            gc,
            dgc_dead_before: Timestamp::ZERO,
            purged_before: Timestamp::ZERO,
            live_bytes: 0,
        }
    }

    /// Size the consumer bookkeeping to the out-degree `n`. With no
    /// consumers everything is dead: held items are freed now.
    pub fn configure(&mut self, n: usize, freed: impl FnMut(V)) -> usize {
        self.marks = ConsumerMarks::new(n);
        self.aru.ensure_outputs(n);
        self.purged_before = Timestamp::ZERO;
        self.purge(freed)
    }

    /// Insert `value` at `ts`, freeing the item it displaces. Below the
    /// watermark it is dead on arrival: freed, never stored.
    pub fn insert(&mut self, ts: Timestamp, value: V, mut freed: impl FnMut(V)) {
        if ts < self.purged_before {
            freed(value);
            return;
        }
        self.live_bytes += value.bytes();
        if let Some(old) = self.store.insert(ts, value) {
            self.live_bytes -= old.bytes();
            freed(old);
        }
    }

    /// The item `policy` reads, for a connection whose next acceptable
    /// timestamp is `floor`; the joins read at `driver_ts`.
    #[must_use]
    pub fn lookup(
        &self,
        policy: InputPolicy,
        floor: Timestamp,
        driver_ts: Option<Timestamp>,
    ) -> Acquire<'_, V> {
        let driver = || driver_ts.expect("driver gathers before joins");
        let found = match policy {
            // The newest item with ts >= floor is the newest overall.
            InputPolicy::DriverLatest | InputPolicy::LatestOpt => {
                self.store.latest().filter(|&(ts, _)| ts >= floor)
            }
            InputPolicy::FifoNext => self.store.get(floor).map(|v| (floor, v)),
            InputPolicy::JoinExact => self.store.get(driver()).map(|v| (driver(), v)),
            InputPolicy::JoinLatestAtOrBefore => self
                .store
                .latest_at_or_before(driver())
                .or_else(|| self.store.latest()),
        };
        match found {
            Some((ts, v)) => Acquire::Got(ts, v),
            None if policy == InputPolicy::LatestOpt => Acquire::Skip,
            None if policy == InputPolicy::JoinExact
                && self.store.latest().is_some_and(|(ts, _)| ts > driver()) =>
            {
                Acquire::Abandon
            }
            None => Acquire::Block,
        }
    }

    /// Consumer `idx` is done with everything up to `ts`; purge.
    pub fn release(&mut self, idx: usize, ts: Timestamp, freed: impl FnMut(V)) -> usize {
        self.marks.advance(idx, ts);
        self.purge(freed)
    }

    /// Raise the DGC dead-before bound (monotone) and purge.
    pub fn raise_dgc(&mut self, bound: Timestamp, freed: impl FnMut(V)) -> usize {
        if bound <= self.dgc_dead_before {
            return 0;
        }
        self.dgc_dead_before = bound;
        self.purge(freed)
    }

    /// Everything below this is dead.
    #[must_use]
    pub fn dead_before(&self) -> Timestamp {
        match self.gc {
            GcMode::None => Timestamp::ZERO,
            GcMode::Ref => ref_dead_before(&self.marks),
            GcMode::Dgc => ref_dead_before(&self.marks).max(self.dgc_dead_before),
        }
    }

    fn purge(&mut self, mut freed: impl FnMut(V)) -> usize {
        let bound = self.dead_before();
        if bound <= self.purged_before {
            return 0;
        }
        self.purged_before = bound;
        let (live, mut n) = (&mut self.live_bytes, 0);
        self.store.purge_before(bound, |v| {
            *live -= v.bytes();
            n += 1;
            freed(v);
        });
        n
    }

    /// Remove everything (channel close).
    pub fn drain(&mut self, freed: impl FnMut(V)) {
        self.store.drain(freed);
        self.live_bytes = 0;
    }

    /// Consumer `idx` piggybacks its summary-STP on a get.
    pub fn deposit(&mut self, idx: usize, summary: Stp) {
        self.aru.receive_feedback(idx, summary);
    }

    /// The summary-STP a put hands back (cached; recomputed on deposit).
    #[must_use]
    pub fn summary(&self) -> Option<Stp> {
        self.aru.summary()
    }

    #[must_use]
    pub fn store(&self) -> &TsStore<V> {
        &self.store
    }

    #[must_use]
    pub fn marks(&self) -> &ConsumerMarks {
        &self.marks
    }

    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_detection() {
        assert!(InputPolicy::DriverLatest.is_driver());
        assert!(InputPolicy::FifoNext.is_driver());
        assert!(!InputPolicy::JoinExact.is_driver());
        assert!(!InputPolicy::JoinLatestAtOrBefore.is_driver());
        assert!(!InputPolicy::LatestOpt.is_driver());
    }
}
