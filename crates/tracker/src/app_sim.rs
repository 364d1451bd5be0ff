//! The tracker on the discrete-event cluster simulator — the configuration
//! used to regenerate the paper's tables and figures.
//!
//! Service-time medians are calibrated to the paper's 2005 testbed regime
//! (550 MHz 8-way P-III Xeons): the digitizer captures at ~30 ms/frame and
//! target detection — the pipeline bottleneck — takes ~200 ms/frame, which
//! places the end-to-end throughput in the paper's 3–5 fps band. The two
//! evaluation configurations mirror §5 exactly: all tasks on one node, or
//! the five tasks on five nodes with each channel on its producer's node.

use crate::graph::{producer_site, CHANNELS, STAGES};
use aru_core::{AruConfig, RetryPolicy};
use aru_gc::GcMode;
use desim::{
    CostModel, FaultPlan, NetModel, ServiceModel, Sim, SimBuilder, SimConfig, SimReport, TaskSpec,
};
use vtime::Micros;

/// Which of the paper's two experimental configurations to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerConfigId {
    /// Configuration 1: every task on a single 8-way node.
    OneNode,
    /// Configuration 2: the five tasks on five nodes over GbE (the two
    /// target-detection threads share the task's node, as in the paper
    /// where they belong to one task).
    FiveNodes,
}

/// Median per-stage service times.
#[derive(Debug, Clone, Copy)]
pub struct StageServices {
    pub digitizer: Micros,
    pub change_detection: Micros,
    pub histogram: Micros,
    pub target_detection: Micros,
    pub gui: Micros,
}

impl Default for StageServices {
    fn default() -> Self {
        StageServices {
            digitizer: Micros::from_millis(30),
            change_detection: Micros::from_millis(90),
            histogram: Micros::from_millis(120),
            target_detection: Micros::from_millis(200),
            gui: Micros::from_millis(30),
        }
    }
}

/// Full parameter set for one simulated tracker run.
#[derive(Debug, Clone)]
pub struct SimTrackerParams {
    pub aru: AruConfig,
    pub gc: GcMode,
    pub config: TrackerConfigId,
    pub services: StageServices,
    /// Log-normal σ of OS-scheduling noise on service times.
    pub noise_sigma: f64,
    pub cost: CostModel,
    pub net: NetModel,
    pub duration: Micros,
    pub seed: u64,
    /// Scheduled fault injection for chaos experiments (empty by default).
    pub faults: FaultPlan,
    /// Supervised-restart policy for injected crashes.
    pub retry: RetryPolicy,
}

impl SimTrackerParams {
    /// Paper-regime defaults for a given ARU mode and configuration.
    #[must_use]
    pub fn new(aru: AruConfig, config: TrackerConfigId) -> Self {
        SimTrackerParams {
            aru,
            gc: GcMode::Dgc,
            config,
            services: StageServices::default(),
            noise_sigma: 0.12,
            cost: CostModel::default(),
            net: match config {
                TrackerConfigId::OneNode => NetModel::local(),
                TrackerConfigId::FiveNodes => NetModel::default(),
            },
            duration: Micros::from_secs(200),
            seed: 2005,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }

    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    #[must_use]
    pub fn with_duration(mut self, duration: Micros) -> Self {
        self.duration = duration;
        self
    }

    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Build the simulated tracker; returns the ready simulation inputs.
/// Declaration order — tasks, channels, then each stage's inputs and
/// outputs — fixes every `NodeId` and connection index, and with them the
/// figures.
#[must_use]
pub fn build_sim(params: &SimTrackerParams) -> (SimBuilder, SimConfig) {
    let mut b = SimBuilder::new();
    // Cluster nodes, one per site: paper hardware is 8-way SMPs.
    let nodes = match params.config {
        TrackerConfigId::OneNode => [b.node(8); 5],
        TrackerConfigId::FiveNodes => [(); 5].map(|()| b.node(8)),
    };
    let svc = &params.services;
    let services = [
        svc.digitizer,
        svc.change_detection,
        svc.histogram,
        svc.target_detection,
        svc.gui,
    ];
    let tasks = STAGES.map(|s| {
        let service = ServiceModel::new(services[s.site], params.noise_sigma);
        let spec = if s.outputs.is_empty() {
            TaskSpec::sink(service)
        } else {
            TaskSpec::new(service)
        };
        b.task(s.name, nodes[s.site], spec)
    });
    let chans: [_; CHANNELS.len()] =
        std::array::from_fn(|c| b.channel(CHANNELS[c].0, nodes[producer_site(c)]));
    for (stage, task) in STAGES.iter().zip(tasks) {
        for &(c, policy) in stage.inputs {
            b.input(task, chans[c], policy).expect("table edge");
        }
        for &c in stage.outputs {
            b.output(task, chans[c], CHANNELS[c].2).expect("table edge");
        }
    }

    let mut cfg = SimConfig::new(params.aru.clone());
    cfg.gc = params.gc;
    cfg.cost = params.cost;
    cfg.net = params.net;
    cfg.duration = params.duration;
    cfg.seed = params.seed;
    cfg.faults = params.faults.clone();
    cfg.retry = params.retry;
    (b, cfg)
}

/// Build and run one simulated tracker experiment.
#[must_use]
pub fn run_sim(params: &SimTrackerParams) -> SimReport {
    let (b, cfg) = build_sim(params);
    Sim::run(b, cfg).expect("tracker sim topology is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(aru: AruConfig, config: TrackerConfigId) -> SimReport {
        let params = SimTrackerParams::new(aru, config)
            .with_duration(Micros::from_secs(30))
            .with_seed(11);
        run_sim(&params)
    }

    #[test]
    fn tracker_sim_produces_output_one_node() {
        let r = short(AruConfig::disabled(), TrackerConfigId::OneNode);
        // bottleneck ~200-300 ms → at least ~60 outputs in 30 s
        assert!(r.outputs() > 50, "outputs {}", r.outputs());
    }

    #[test]
    fn tracker_sim_produces_output_five_nodes() {
        let r = short(AruConfig::aru_min(), TrackerConfigId::FiveNodes);
        assert!(r.outputs() > 50, "outputs {}", r.outputs());
    }

    #[test]
    fn paper_shape_waste_ordering() {
        let no = short(AruConfig::disabled(), TrackerConfigId::OneNode).analyze();
        let min = short(AruConfig::aru_min(), TrackerConfigId::OneNode).analyze();
        let max = short(AruConfig::aru_max(), TrackerConfigId::OneNode).analyze();
        let (w_no, w_min, w_max) = (
            no.waste.pct_memory_wasted(),
            min.waste.pct_memory_wasted(),
            max.waste.pct_memory_wasted(),
        );
        assert!(
            w_no > w_min && w_min > w_max,
            "waste ordering violated: no={w_no:.1} min={w_min:.1} max={w_max:.1}"
        );
        assert!(w_no > 40.0, "baseline should waste heavily: {w_no:.1}%");
        assert!(w_max < 15.0, "ARU-max should waste little: {w_max:.1}%");
    }

    #[test]
    fn paper_shape_footprint_ordering() {
        let no = short(AruConfig::disabled(), TrackerConfigId::OneNode).analyze();
        let min = short(AruConfig::aru_min(), TrackerConfigId::OneNode).analyze();
        let max = short(AruConfig::aru_max(), TrackerConfigId::OneNode).analyze();
        let fp = |a: &desim::report::SimAnalysis| a.footprint.observed_summary().mean;
        assert!(fp(&no) > fp(&min), "no {} !> min {}", fp(&no), fp(&min));
        assert!(fp(&min) > fp(&max), "min {} !> max {}", fp(&min), fp(&max));
        // every run's observed footprint dominates its *own* ideal bound
        for (label, a) in [("no", &no), ("min", &min), ("max", &max)] {
            let igc = a.igc.summary().mean;
            assert!(
                fp(a) >= igc * 0.999,
                "{label}: observed {} below own IGC {igc}",
                fp(a)
            );
        }
    }
}
