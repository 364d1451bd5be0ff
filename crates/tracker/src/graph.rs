//! The tracker task graph (paper Figure 5): 6 threads, 9 channels.
//!
//! ```text
//!                 ┌─ C1 ─→ ChangeDetection ─ C4 ─→ TargetDet1 ─ C6 ─→ GUI
//!                 │                        └ C5 ─→ TargetDet2 ─ C9 ─↗
//!   Digitizer ────┼─ C2 ─→ Histogram ────── C7 ─→ TargetDet1
//!                 │                        └ C8 ─→ TargetDet2
//!                 └─ C3 ─→ (video frames) ─────→ TargetDet1 & TargetDet2
//! ```
//!
//! * C1/C2/C3 carry 738 kB video frames (to change detection, histogram
//!   and target detection respectively);
//! * C4/C5 carry 246 kB motion masks (one channel per detection thread);
//! * C7/C8 carry 981 kB histogram models (one per detection thread);
//! * C6/C9 carry 68 B location records into the GUI.
//!
//! Each Target-Detection thread *drives* on its motion-mask channel (get
//! latest), joins the video frame at the same timestamp (get exact), and
//! takes the freshest histogram model at or before it.
//!
//! [`STAGES`] and [`CHANNELS`] are the only place the graph is written
//! down: names, edges and their order, join policies, item sizes and
//! placement. The abstract topology and the simulator are loops over the
//! table; the threaded runtime keeps typed connections and takes its names
//! from it, with `tests/wiring.rs` checking the edges.

use aru_core::{NodeId, Topology};
use desim::InputPolicy::{self, DriverLatest, JoinExact, JoinLatestAtOrBefore, LatestOpt};
use vtime::Micros;

/// Channel names (C1..C9) with their payload descriptions and sizes.
pub const CHANNELS: [(&str, &str, u64); 9] = [
    ("C1", "video frame → change detection", 737_280),
    ("C2", "video frame → histogram", 737_280),
    ("C3", "video frame → target detection", 737_280),
    ("C4", "motion mask → target-det-1", 245_760),
    ("C5", "motion mask → target-det-2", 245_760),
    ("C6", "location model-1 → gui", 68),
    ("C7", "histogram model → target-det-1", 983_040),
    ("C8", "histogram model → target-det-2", 983_040),
    ("C9", "location model-2 → gui", 68),
];

// Indices into `CHANNELS`, so the stage table reads like Figure 5.
pub(crate) const C1: usize = 0;
pub(crate) const C2: usize = 1;
pub(crate) const C3: usize = 2;
pub(crate) const C4: usize = 3;
pub(crate) const C5: usize = 4;
pub(crate) const C6: usize = 5;
pub(crate) const C7: usize = 6;
pub(crate) const C8: usize = 7;
pub(crate) const C9: usize = 8;

/// One thread of the tracker: a row of [`STAGES`].
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    pub name: &'static str,
    /// Placement site: which of the paper's five tasks the thread belongs
    /// to (the two detectors are one task). Configuration 2 gives each site
    /// its own node, and per-stage service times and delays are per site.
    pub site: usize,
    /// Inputs in gather order, driver first: `(index into CHANNELS, policy)`.
    pub inputs: &'static [(usize, InputPolicy)],
    /// Outputs in put order: indices into [`CHANNELS`].
    pub outputs: &'static [usize],
}

/// The graph, written down once. `TrackerGraph::topology()` and `build_sim`
/// are loops over this table; `build_threaded` takes its names from it and
/// `tests/wiring.rs` checks its typed connections against it. A stage
/// without inputs is a source, one without outputs the sink, and a channel
/// lives on its producer's site (paper §5).
pub const STAGES: [Stage; 6] = [
    Stage {
        name: "digitizer",
        site: 0,
        inputs: &[],
        outputs: &[C1, C2, C3],
    },
    Stage {
        name: "change-detection",
        site: 1,
        inputs: &[(C1, DriverLatest)],
        outputs: &[C4, C5],
    },
    Stage {
        name: "histogram",
        site: 2,
        inputs: &[(C2, DriverLatest)],
        outputs: &[C7, C8],
    },
    Stage {
        name: "target-det-1",
        site: 3,
        inputs: &[(C4, DriverLatest), (C3, JoinExact), (C7, JoinLatestAtOrBefore)],
        outputs: &[C6],
    },
    Stage {
        name: "target-det-2",
        site: 3,
        inputs: &[(C5, DriverLatest), (C3, JoinExact), (C8, JoinLatestAtOrBefore)],
        outputs: &[C9],
    },
    Stage {
        name: "gui",
        site: 4,
        inputs: &[(C6, DriverLatest), (C9, LatestOpt)],
        outputs: &[],
    },
];

/// Task names in pipeline order (the names of [`STAGES`]).
pub const TASKS: [&str; 6] = {
    let mut names = [""; 6];
    let mut i = 0;
    while i < names.len() {
        names[i] = STAGES[i].name;
        i += 1;
    }
    names
};

/// The site of the stage that writes channel `chan` (an index into
/// [`CHANNELS`]) — where the channel is placed.
#[must_use]
pub(crate) fn producer_site(chan: usize) -> usize {
    STAGES
        .iter()
        .find(|s| s.outputs.contains(&chan))
        .expect("every channel has a producer")
        .site
}

/// The node called `name` in a topology any of the three lowerings built.
#[must_use]
pub fn node(topo: &Topology, name: &str) -> NodeId {
    topo.node_ids()
        .find(|&n| topo.name(n) == name)
        .expect("node in the tracker topology")
}

/// Extra per-iteration compute delay of a stage body (emulates slower
/// hardware; counts as execution time, like a slower kernel).
pub(crate) fn extra(d: Micros) {
    if !d.is_zero() {
        std::thread::sleep(d.into());
    }
}

/// A descriptive handle for rendering / inspection.
#[derive(Debug, Clone, Default)]
pub struct TrackerGraph;

impl TrackerGraph {
    /// Build the abstract topology: threads, then channels, then each
    /// stage's inputs and outputs — the order `build_sim` declares them in.
    #[must_use]
    pub fn topology() -> Topology {
        let mut t = Topology::new();
        let threads = STAGES.map(|s| t.add_thread(s.name));
        let chans = CHANNELS.map(|(name, _, _)| t.add_channel(name));
        for (stage, thread) in STAGES.iter().zip(threads) {
            let ins = stage.inputs.iter().map(|&(c, _)| (chans[c], thread));
            let outs = stage.outputs.iter().map(|&c| (thread, chans[c]));
            for (from, to) in ins.chain(outs) {
                t.connect(from, to).expect("table edges are bipartite");
            }
        }
        t
    }

    /// Render the pipeline (for examples / the `repro` binary).
    #[must_use]
    pub fn render() -> String {
        Self::topology().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_shape() {
        let t = TrackerGraph::topology();
        assert_eq!(t.node_count(), 6 + 9);
        assert!(t.validate().is_ok());
        // one source (digitizer), one sink (gui)
        let sources: Vec<_> = t.source_threads().collect();
        let sinks: Vec<_> = t.sink_threads().collect();
        assert_eq!(sources.len(), 1);
        assert_eq!(sinks.len(), 1);
        assert_eq!(t.name(sources[0]), "digitizer");
        assert_eq!(t.name(sinks[0]), "gui");
    }

    #[test]
    fn channel_degrees() {
        let t = TrackerGraph::topology();
        // C3 (frames to detection) has two consumers; every other channel 1.
        for n in t.node_ids() {
            if t.kind(n).is_buffer() {
                let expected = if t.name(n) == "C3" { 2 } else { 1 };
                assert_eq!(t.out_degree(n), expected, "channel {}", t.name(n));
            }
        }
        // digitizer fans out to 3 channels; GUI consumes 2.
        for n in t.node_ids() {
            match t.name(n) {
                "digitizer" => assert_eq!(t.out_degree(n), 3),
                "gui" => assert_eq!(t.in_degree(n), 2),
                "target-det-1" | "target-det-2" => assert_eq!(t.in_degree(n), 3),
                _ => {}
            }
        }
    }

    /// `TASKS` names the benchmark's per-stage metrics, so the table's names
    /// are frozen; every channel has exactly one producer and a consumer.
    #[test]
    fn table_names_and_channel_ends() {
        assert_eq!(
            TASKS,
            ["digitizer", "change-detection", "histogram", "target-det-1", "target-det-2", "gui"]
        );
        for (c, (name, _, _)) in CHANNELS.iter().enumerate() {
            let producers = STAGES.iter().filter(|s| s.outputs.contains(&c)).count();
            let consumers = STAGES.iter().filter(|s| s.inputs.iter().any(|&(i, _)| i == c));
            assert_eq!(producers, 1, "{name}");
            assert!(consumers.count() >= 1, "{name}");
        }
    }

    #[test]
    fn render_contains_all_names() {
        let s = TrackerGraph::render();
        for task in TASKS {
            assert!(s.contains(task), "missing {task}");
        }
        for (c, _, _) in CHANNELS {
            assert!(s.contains(c), "missing {c}");
        }
    }
}
