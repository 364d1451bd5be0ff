//! Declarative construction of a simulated pipeline and cluster.

use crate::spec::{ServiceModel, TaskSpec};
use aru_core::graph::TopologyError;
use aru_core::{NodeId, Topology};
use aru_gc::InputPolicy;
use std::fmt;
use vtime::Micros;

/// A simulated cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimNodeId(pub usize);

/// A simulated task (thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub usize);

/// A simulated channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChanId(pub usize);

#[derive(Debug, Clone)]
pub(crate) struct NodeDecl {
    pub cores: u32,
    /// Relative CPU speed (1.0 = the paper's reference node). The engine
    /// divides every sampled service time by this.
    pub speed: f64,
}

/// Node-speed distribution for heterogeneous clusters, after the
/// Storm-throughput scheduling study (PAPERS.md): production clusters mix
/// a few hardware generations, so speeds come either as discrete *classes*
/// (weighted hardware generations) or as a uniform spread around the
/// reference machine.
#[derive(Debug, Clone)]
pub enum SpeedDist {
    /// Every node at the reference speed.
    Homogeneous,
    /// Speeds drawn uniformly from `[min, max)`.
    Uniform { min: f64, max: f64 },
    /// Weighted discrete classes `(weight, speed)` — e.g. three hardware
    /// generations at `(0.5, 1.0), (0.3, 1.6), (0.2, 0.7)`.
    Classes(Vec<(f64, f64)>),
}

impl SpeedDist {
    /// The speed of node `i` under seed `seed` — a pure function, so a
    /// sweep cell's cluster is reproducible from `(dist, seed)` alone.
    #[must_use]
    pub fn speed_of(&self, i: usize, seed: u64) -> f64 {
        let u = {
            // splitmix64 output mapped to [0, 1).
            let z = crate::fault::splitmix64(seed ^ ((i as u64) << 21) ^ 0x5EED);
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        match self {
            SpeedDist::Homogeneous => 1.0,
            SpeedDist::Uniform { min, max } => min + u * (max - min),
            SpeedDist::Classes(classes) => {
                let total: f64 = classes.iter().map(|&(w, _)| w).sum();
                let mut x = u * total;
                for &(w, s) in classes {
                    if x < w {
                        return s;
                    }
                    x -= w;
                }
                classes.last().map_or(1.0, |&(_, s)| s)
            }
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ChanDecl {
    pub name: String,
    pub cluster_node: SimNodeId,
    pub graph_node: NodeId,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct InputDecl {
    pub chan: ChanId,
    pub policy: InputPolicy,
    /// This connection's slot among the channel's consumers.
    pub chan_out_index: usize,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct OutputDecl {
    pub chan: ChanId,
    pub bytes: u64,
    /// This connection's slot in the task's backward vector.
    pub thread_out_index: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct TaskDecl {
    pub name: String,
    pub cluster_node: SimNodeId,
    pub graph_node: NodeId,
    pub spec: TaskSpec,
    pub inputs: Vec<InputDecl>,
    pub outputs: Vec<OutputDecl>,
}

/// Errors detected when freezing a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimBuildError {
    Topology(TopologyError),
    /// Non-source task whose first input is not the driver, or which has
    /// several drivers.
    BadDriver(String),
    /// Source task with zero service time would live-lock the simulator.
    ZeroServiceSource(String),
    UnknownNode(SimNodeId),
    /// Node speed must be finite and positive.
    BadNodeSpeed(SimNodeId),
    /// A DGC run whose pass period is zero: the pass would reschedule
    /// itself at the same instant forever and the clock never advance.
    ZeroDgcInterval,
}

impl fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimBuildError::Topology(e) => write!(f, "topology: {e}"),
            SimBuildError::BadDriver(n) => write!(
                f,
                "task '{n}': non-source tasks need exactly one DriverLatest input, first"
            ),
            SimBuildError::ZeroServiceSource(n) => {
                write!(f, "source task '{n}' must have positive service time")
            }
            SimBuildError::UnknownNode(n) => write!(f, "unknown cluster node {n:?}"),
            SimBuildError::BadNodeSpeed(n) => {
                write!(f, "cluster node {n:?} needs a finite positive speed")
            }
            SimBuildError::ZeroDgcInterval => {
                write!(f, "dgc_interval must be positive when the GC mode is DGC")
            }
        }
    }
}

impl std::error::Error for SimBuildError {}

impl From<TopologyError> for SimBuildError {
    fn from(e: TopologyError) -> Self {
        SimBuildError::Topology(e)
    }
}

/// Builder for a simulated pipeline.
#[derive(Debug, Default)]
pub struct SimBuilder {
    pub(crate) topo: Topology,
    pub(crate) nodes: Vec<NodeDecl>,
    pub(crate) chans: Vec<ChanDecl>,
    pub(crate) tasks: Vec<TaskDecl>,
}

impl SimBuilder {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a cluster node with `cores` CPUs at the reference speed.
    pub fn node(&mut self, cores: u32) -> SimNodeId {
        self.node_with_speed(cores, 1.0)
    }

    /// Add a cluster node with `cores` CPUs and a relative CPU `speed`
    /// (1.0 = reference; 2.0 halves service times, 0.5 doubles them).
    pub fn node_with_speed(&mut self, cores: u32, speed: f64) -> SimNodeId {
        self.nodes.push(NodeDecl { cores, speed });
        SimNodeId(self.nodes.len() - 1)
    }

    /// Add `n` nodes whose speeds are drawn from `dist` under `seed` —
    /// the heterogeneous-cluster builder for the scale sweeps.
    pub fn heterogeneous_nodes(
        &mut self,
        n: usize,
        cores: u32,
        dist: &SpeedDist,
        seed: u64,
    ) -> Vec<SimNodeId> {
        (0..n)
            .map(|i| self.node_with_speed(cores, dist.speed_of(i, seed)))
            .collect()
    }

    /// Add a channel placed on `node` (the paper places each channel on its
    /// producer's node).
    pub fn channel(&mut self, name: impl Into<String>, node: SimNodeId) -> ChanId {
        let name = name.into();
        let graph_node = self.topo.add_channel(name.clone());
        self.chans.push(ChanDecl {
            name,
            cluster_node: node,
            graph_node,
        });
        ChanId(self.chans.len() - 1)
    }

    /// Add a task placed on `node`.
    pub fn task(&mut self, name: impl Into<String>, node: SimNodeId, spec: TaskSpec) -> TaskId {
        let name = name.into();
        let graph_node = self.topo.add_thread(name.clone());
        self.tasks.push(TaskDecl {
            name,
            cluster_node: node,
            graph_node,
            spec,
            inputs: Vec::new(),
            outputs: Vec::new(),
        });
        TaskId(self.tasks.len() - 1)
    }

    /// Convenience: a source task (no inputs).
    pub fn source(
        &mut self,
        name: impl Into<String>,
        node: SimNodeId,
        service: ServiceModel,
    ) -> TaskId {
        self.task(name, node, TaskSpec::new(service))
    }

    /// Attach an input connection. Declaration order is gather order; the
    /// driver input must come first on non-source tasks.
    pub fn input(
        &mut self,
        task: TaskId,
        chan: ChanId,
        policy: InputPolicy,
    ) -> Result<(), SimBuildError> {
        let cg = self.chans[chan.0].graph_node;
        let tg = self.tasks[task.0].graph_node;
        let edge = self.topo.connect(cg, tg)?;
        let chan_out_index = self.topo.edge(edge).out_index;
        self.tasks[task.0].inputs.push(InputDecl {
            chan,
            policy,
            chan_out_index,
        });
        Ok(())
    }

    /// Attach an output connection producing items of `bytes` each.
    pub fn output(&mut self, task: TaskId, chan: ChanId, bytes: u64) -> Result<(), SimBuildError> {
        let cg = self.chans[chan.0].graph_node;
        let tg = self.tasks[task.0].graph_node;
        let edge = self.topo.connect(tg, cg)?;
        let thread_out_index = self.topo.edge(edge).out_index;
        self.tasks[task.0].outputs.push(OutputDecl {
            chan,
            bytes,
            thread_out_index,
        });
        Ok(())
    }

    /// The underlying task graph.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub(crate) fn validate(&self) -> Result<(), SimBuildError> {
        self.topo.validate()?;
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.speed.is_finite() || n.speed <= 0.0 {
                return Err(SimBuildError::BadNodeSpeed(SimNodeId(i)));
            }
        }
        for t in &self.tasks {
            if t.cluster_node.0 >= self.nodes.len() {
                return Err(SimBuildError::UnknownNode(t.cluster_node));
            }
            if t.inputs.is_empty() {
                if t.spec.service.base == Micros::ZERO {
                    return Err(SimBuildError::ZeroServiceSource(t.name.clone()));
                }
            } else {
                let drivers = t.inputs.iter().filter(|i| i.policy.is_driver()).count();
                if drivers != 1 || !t.inputs[0].policy.is_driver() {
                    return Err(SimBuildError::BadDriver(t.name.clone()));
                }
            }
        }
        for c in &self.chans {
            if c.cluster_node.0 >= self.nodes.len() {
                return Err(SimBuildError::UnknownNode(c.cluster_node));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_linear_pipeline() {
        let mut b = SimBuilder::new();
        let n = b.node(8);
        let c = b.channel("c", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros(100)));
        let snk = b.task("snk", n, TaskSpec::sink(ServiceModel::fixed(Micros(200))));
        b.output(src, c, 64).unwrap();
        b.input(snk, c, InputPolicy::DriverLatest).unwrap();
        assert!(b.validate().is_ok());
        assert_eq!(b.topology().node_count(), 3);
    }

    #[test]
    fn rejects_source_with_zero_service() {
        let mut b = SimBuilder::new();
        let n = b.node(1);
        let _src = b.source("src", n, ServiceModel::fixed(Micros::ZERO));
        assert!(matches!(
            b.validate(),
            Err(SimBuildError::ZeroServiceSource(_))
        ));
    }

    #[test]
    fn rejects_missing_driver() {
        let mut b = SimBuilder::new();
        let n = b.node(1);
        let c = b.channel("c", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros(10)));
        b.output(src, c, 1).unwrap();
        let t = b.task("t", n, TaskSpec::new(ServiceModel::fixed(Micros(10))));
        b.input(t, c, InputPolicy::JoinExact).unwrap();
        assert!(matches!(b.validate(), Err(SimBuildError::BadDriver(_))));
    }

    #[test]
    fn rejects_driver_not_first() {
        let mut b = SimBuilder::new();
        let n = b.node(1);
        let c1 = b.channel("c1", n);
        let c2 = b.channel("c2", n);
        let src = b.source("src", n, ServiceModel::fixed(Micros(10)));
        b.output(src, c1, 1).unwrap();
        b.output(src, c2, 1).unwrap();
        let t = b.task("t", n, TaskSpec::new(ServiceModel::fixed(Micros(10))));
        b.input(t, c1, InputPolicy::JoinExact).unwrap();
        b.input(t, c2, InputPolicy::DriverLatest).unwrap();
        assert!(matches!(b.validate(), Err(SimBuildError::BadDriver(_))));
    }

    #[test]
    fn rejects_non_positive_node_speed() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut b = SimBuilder::new();
            let _n = b.node_with_speed(4, bad);
            assert!(
                matches!(b.validate(), Err(SimBuildError::BadNodeSpeed(_))),
                "speed {bad} must be rejected"
            );
        }
    }

    #[test]
    fn heterogeneous_nodes_are_seed_deterministic() {
        let dist = SpeedDist::Uniform { min: 0.5, max: 2.0 };
        let mut a = SimBuilder::new();
        let mut b = SimBuilder::new();
        a.heterogeneous_nodes(32, 8, &dist, 42);
        b.heterogeneous_nodes(32, 8, &dist, 42);
        let sa: Vec<f64> = a.nodes.iter().map(|n| n.speed).collect();
        let sb: Vec<f64> = b.nodes.iter().map(|n| n.speed).collect();
        assert_eq!(sa, sb, "same (dist, seed) must rebuild the same cluster");
        assert!(sa.iter().all(|&s| (0.5..2.0).contains(&s)));
        // A different seed must actually produce a different cluster.
        let mut c = SimBuilder::new();
        c.heterogeneous_nodes(32, 8, &dist, 43);
        let sc: Vec<f64> = c.nodes.iter().map(|n| n.speed).collect();
        assert_ne!(sa, sc);
    }

    #[test]
    fn speed_classes_cover_all_weights() {
        let dist = SpeedDist::Classes(vec![(0.5, 1.0), (0.3, 1.6), (0.2, 0.7)]);
        let mut b = SimBuilder::new();
        b.heterogeneous_nodes(200, 8, &dist, 7);
        let mut seen = std::collections::BTreeSet::new();
        for n in &b.nodes {
            assert!(
                [1.0, 1.6, 0.7].contains(&n.speed),
                "class draw produced a speed outside the class set"
            );
            seen.insert(n.speed.to_bits());
        }
        assert_eq!(seen.len(), 3, "200 draws should hit every class");
    }

    #[test]
    fn homogeneous_dist_is_all_reference_speed() {
        let mut b = SimBuilder::new();
        b.heterogeneous_nodes(5, 8, &SpeedDist::Homogeneous, 1);
        assert!(b.nodes.iter().all(|n| n.speed == 1.0));
    }

    #[test]
    fn rejects_unknown_cluster_node() {
        let mut b = SimBuilder::new();
        let _n = b.node(1);
        let mut b2 = SimBuilder::new();
        let n2 = b2.node(1);
        let _ = n2;
        // task referencing a node id beyond the declared range
        let ghost = SimNodeId(5);
        let _t = b.task("t", ghost, TaskSpec::new(ServiceModel::fixed(Micros(1))));
        assert!(matches!(b.validate(), Err(SimBuildError::UnknownNode(_))));
    }
}
