//! Simulated channel state (single-threaded; the engine serializes access).

use crate::builder::{SimNodeId, TaskId};
use aru_core::{AruController, NodeId};
use aru_gc::ConsumerMarks;
use aru_metrics::ItemId;
use vtime::{Timestamp, TsStore};

/// One stored item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimItem {
    pub id: ItemId,
    pub bytes: u64,
}

/// Channel state mirroring `stampede::Channel` semantics under the virtual
/// clock, over the same ring+spill [`TsStore`] — the per-item map is on
/// the simulated hot path too.
pub struct SimChannel {
    pub name: String,
    /// Task-graph identity (for DGC and the trace).
    pub graph_node: NodeId,
    /// Placement (for memory accounting and network transfers).
    pub cluster_node: SimNodeId,
    pub store: TsStore<SimItem>,
    pub marks: ConsumerMarks,
    pub aru: AruController,
    pub dgc_dead_before: Timestamp,
    pub live_bytes: u64,
    /// Tasks blocked waiting for data here.
    pub waiters: Vec<TaskId>,
}

impl SimChannel {
    /// Insert an item; returns the replaced item if `ts` already existed.
    pub fn insert(&mut self, ts: Timestamp, item: SimItem) -> Option<SimItem> {
        let old = self.store.insert(ts, item);
        if let Some(o) = old {
            self.live_bytes -= o.bytes;
        }
        self.live_bytes += item.bytes;
        old
    }

    /// Newest item with `ts >= floor` — necessarily the newest overall.
    #[must_use]
    pub fn latest_at_or_above(&self, floor: Timestamp) -> Option<(Timestamp, SimItem)> {
        self.latest().filter(|&(ts, _)| ts >= floor)
    }

    /// Newest item overall.
    #[must_use]
    pub fn latest(&self) -> Option<(Timestamp, SimItem)> {
        self.store.latest().map(|(ts, &item)| (ts, item))
    }

    /// Exact lookup.
    #[must_use]
    pub fn exact(&self, ts: Timestamp) -> Option<SimItem> {
        self.store.get(ts).copied()
    }

    /// Newest item with `ts <= bound`.
    #[must_use]
    pub fn latest_at_or_before(&self, bound: Timestamp) -> Option<(Timestamp, SimItem)> {
        self.store
            .latest_at_or_before(bound)
            .map(|(ts, &item)| (ts, item))
    }

    /// Remove every item below `bound`, handing each to `freed` in store
    /// order (the order the trace records the frees in).
    pub fn purge_below(&mut self, bound: Timestamp, mut freed: impl FnMut(SimItem)) {
        let live = &mut self.live_bytes;
        self.store.purge_before(bound, |item| {
            *live -= item.bytes;
            freed(item);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aru_core::{AruConfig, NodeKind};

    fn chan() -> SimChannel {
        SimChannel {
            name: "c".into(),
            graph_node: NodeId(0),
            cluster_node: SimNodeId(0),
            store: TsStore::new(),
            marks: ConsumerMarks::new(1),
            aru: AruController::new(NodeKind::Channel, 1, false, &AruConfig::aru_min()),
            dgc_dead_before: Timestamp::ZERO,
            live_bytes: 0,
            waiters: Vec::new(),
        }
    }

    fn item(id: u64, bytes: u64) -> SimItem {
        SimItem {
            id: ItemId(id),
            bytes,
        }
    }

    #[test]
    fn insert_and_lookups() {
        let mut c = chan();
        c.insert(Timestamp(1), item(0, 10));
        c.insert(Timestamp(5), item(1, 20));
        c.insert(Timestamp(3), item(2, 30));
        assert_eq!(c.live_bytes, 60);
        assert_eq!(c.latest().unwrap().0, Timestamp(5));
        assert_eq!(c.latest_at_or_above(Timestamp(4)).unwrap().0, Timestamp(5));
        assert_eq!(c.latest_at_or_above(Timestamp(6)), None);
        assert_eq!(c.latest_at_or_before(Timestamp(4)).unwrap().0, Timestamp(3));
        assert_eq!(c.exact(Timestamp(3)).unwrap().id, ItemId(2));
        assert_eq!(c.exact(Timestamp(4)), None);
    }

    #[test]
    fn replace_frees_old_bytes() {
        let mut c = chan();
        c.insert(Timestamp(1), item(0, 10));
        let old = c.insert(Timestamp(1), item(1, 25));
        assert_eq!(old.unwrap().id, ItemId(0));
        assert_eq!(c.live_bytes, 25);
    }

    #[test]
    fn purge_below_removes_and_accounts() {
        let mut c = chan();
        for i in 0..5u64 {
            c.insert(Timestamp(i), item(i, 10));
        }
        let mut dead = Vec::new();
        c.purge_below(Timestamp(3), |item| dead.push(item.id));
        assert_eq!(dead, [ItemId(0), ItemId(1), ItemId(2)]);
        assert_eq!(c.live_bytes, 20);
        assert_eq!(c.store.len(), 2);
        assert!(c.exact(Timestamp(2)).is_none());
        assert!(c.exact(Timestamp(3)).is_some());
    }

    #[test]
    fn spilled_out_of_order_items_stay_queryable() {
        let mut c = chan();
        c.insert(Timestamp(100), item(0, 10));
        c.insert(Timestamp(2), item(1, 10)); // below base: spills
        assert_eq!(c.live_bytes, 20);
        assert_eq!(c.exact(Timestamp(2)).unwrap().id, ItemId(1));
        assert_eq!(c.latest().unwrap().0, Timestamp(100));
        assert_eq!(c.latest_at_or_before(Timestamp(50)).unwrap().0, Timestamp(2));
        let mut dead = 0;
        c.purge_below(Timestamp(101), |_| dead += 1);
        assert_eq!(dead, 2);
        assert_eq!(c.live_bytes, 0);
    }
}
