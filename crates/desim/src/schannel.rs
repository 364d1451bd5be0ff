//! Simulated channel state (single-threaded; the engine serializes access).

use crate::builder::{SimNodeId, TaskId};
use aru_core::NodeId;
use aru_gc::{BufferCore, Footprint};
use aru_metrics::ItemId;

/// One stored item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimItem {
    pub id: ItemId,
    pub bytes: u64,
}

impl Footprint for SimItem {
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// A channel under the virtual clock: the [`BufferCore`] `stampede::Channel`
/// wraps too, plus the tasks waiting on it and where it lives.
pub struct SimChannel {
    pub name: String,
    /// Task-graph identity (for DGC and the trace).
    pub graph_node: NodeId,
    /// Placement (for memory accounting and network transfers).
    pub cluster_node: SimNodeId,
    pub core: BufferCore<SimItem>,
    /// Tasks blocked waiting for data here.
    pub waiters: Vec<TaskId>,
}
