//! Cluster-scale sweep (`repro --exp scale`): the simulator itself as the
//! system under test.
//!
//! The paper validates ARU on a 5-node cluster; the question here is
//! whether the *policies* hold at 100–1000 nodes with heterogeneous
//! hardware and non-stationary load — which is first of all a simulator
//! throughput question. This sweep drives the calendar-queue engine
//! (DESIGN.md §15) across node count × speed distribution × load shape ×
//! fault rate, reporting sink outputs, dispatched events, peak pending
//! events, and wall-clock events/s per cell.
//!
//! Cells run concurrently through [`crate::driver`], so the events/s
//! column here is indicative (cells contend for cores); the serial,
//! compared numbers are the `sim_scale_1000` workload of `benchmark/`.
//! Heterogeneous speeds follow the Storm-throughput scheduling study
//! (PAPERS.md): discrete hardware-generation classes.

use crate::config::ExpParams;
use crate::tables::ShapeCheck;
use aru_core::AruConfig;
use aru_metrics::export::{jsonl_line, ExportSink};
use aru_metrics::report::Table;
use aru_metrics::trace::wall_clock_unix_us;
use aru_metrics::Telemetry;
use desim::{
    CostModel, FaultPlan, InputPolicy, NetModel, ServiceModel, Sim, SimBuilder, SimConfig,
    SpeedDist, TaskSpec,
};
use vtime::Micros;

/// Load shape applied to every source in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    Steady,
    /// Raised-cosine swell to 2.5× service once per simulated second.
    Diurnal,
    /// Square-wave burst to 3× service for 30% of every 500 ms.
    Bursty,
}

impl Load {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Load::Steady => "steady",
            Load::Diurnal => "diurnal",
            Load::Bursty => "bursty",
        }
    }
}

/// One sweep cell's scenario parameters.
#[derive(Debug, Clone)]
pub struct ScaleScenario {
    pub nodes: usize,
    pub dist: SpeedDist,
    pub load: Load,
    /// Crashes injected per faulted pipeline (every 8th pipeline).
    pub crashes: usize,
    /// Consumers each source broadcasts to (≥ 1). Fan-out over a slow
    /// fabric is what fills the pending-event set: every remote put is an
    /// in-flight `ItemArrive` for the duration of the transfer.
    pub fanout: usize,
    /// The interconnect the cell's puts cross.
    pub net: NetModel,
    pub duration: Micros,
    pub seed: u64,
}

/// Build a cell: one source→sink pipeline per node pair, the channel on
/// the consumer's node so every put crosses the interconnect (in-flight
/// `ItemArrive` events are what a cluster-scale pending set is made of).
#[must_use]
pub fn build(sc: &ScaleScenario) -> (SimBuilder, SimConfig) {
    let mut b = SimBuilder::new();
    let nodes = b.heterogeneous_nodes(sc.nodes.max(2), 4, &sc.dist, sc.seed);
    let pipelines = (nodes.len() / 2).max(1);
    let mut faults = FaultPlan::none();
    for p in 0..pipelines {
        let n_src = nodes[2 * p];
        let mut src_spec = TaskSpec::new(ServiceModel::new(
            Micros::from_millis(4 + (p as u64 % 3)),
            0.15,
        ));
        match sc.load {
            Load::Steady => {}
            Load::Diurnal => {
                src_spec = src_spec.with_diurnal_load(Micros::from_secs(1), 2.5, 8, sc.duration);
            }
            Load::Bursty => {
                src_spec =
                    src_spec.with_bursty_load(Micros::from_millis(500), 0.3, 3.0, sc.duration);
            }
        }
        let src = b.task(format!("src{p}"), n_src, src_spec);
        for j in 0..sc.fanout.max(1) {
            // Fan-out consumers land on successive odd nodes so every put
            // stays remote (in-flight on the interconnect).
            let n_snk = nodes[(2 * p + 1 + 2 * j) % nodes.len()];
            let suffix = if j == 0 {
                String::new()
            } else {
                format!("f{j}")
            };
            let c = b.channel(format!("c{p}{suffix}"), n_snk);
            b.output(src, c, 64_000).unwrap();
            let snk = b.task(
                format!("snk{p}{suffix}"),
                n_snk,
                TaskSpec::sink(ServiceModel::new(
                    Micros::from_millis(12 + ((p + j) as u64 % 7)),
                    0.15,
                )),
            );
            b.input(snk, c, InputPolicy::DriverLatest).unwrap();
        }
        if sc.crashes > 0 && p % 8 == 0 {
            faults = faults.seeded_crashes(
                format!("snk{p}"),
                sc.crashes,
                Micros::from_millis(200),
                sc.duration,
                sc.seed ^ (p as u64) << 7,
            );
        }
    }
    let mut cfg = SimConfig::new(AruConfig::aru_min());
    cfg.cost = CostModel::default();
    cfg.net = sc.net;
    cfg.duration = sc.duration;
    cfg.seed = sc.seed;
    cfg.faults = faults;
    (b, cfg)
}

/// The bench's reference cell: the heaviest sweep point — heterogeneous
/// classes, bursty load, faults, 8-way fan-out across a congested fabric —
/// at `nodes`. Shared with `benchmark/` (`sim_scale_1000`) so the benchmark
/// measures exactly what the sweep runs. The fan-out × slow-link
/// combination keeps ~14 k events pending at 1000 nodes (a peak of
/// 14 430 at seed 2005), the regime the calendar queue exists for.
#[must_use]
pub fn bench_scenario(nodes: usize, duration: Micros, seed: u64) -> ScaleScenario {
    ScaleScenario {
        nodes,
        dist: storm_classes(),
        load: Load::Bursty,
        crashes: 2,
        fanout: 8,
        net: congested_fabric(),
        duration,
        seed,
    }
}

/// A contended interconnect: ~100 Mbit effective per flow plus 20 ms of
/// queueing/software latency — the shape of a cluster fabric at the edge
/// of saturation, where in-flight transfers pile up.
#[must_use]
pub fn congested_fabric() -> NetModel {
    NetModel {
        latency: Micros::from_millis(20),
        bandwidth_bytes_per_us: 12.5,
    }
}

/// Three hardware generations, Storm-paper style: half the fleet at the
/// reference speed, 30% one generation newer (1.6×), 20% older (0.7×).
#[must_use]
pub fn storm_classes() -> SpeedDist {
    SpeedDist::Classes(vec![(0.5, 1.0), (0.3, 1.6), (0.2, 0.7)])
}

/// One row of the scale table.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    pub nodes: usize,
    pub dist: &'static str,
    pub load: Load,
    pub crashes: usize,
    pub fanout: usize,
    pub outputs: usize,
    pub events: u64,
    pub peak_pending: usize,
    pub wall_ms: f64,
    pub events_per_sec: f64,
    pub waste_pct: f64,
    pub telemetry: Telemetry,
    pub epoch_unix_us: u64,
}

/// The sweep result.
#[derive(Debug, Clone, Default)]
pub struct Scale {
    pub rows: Vec<ScaleRow>,
}

/// The sweep matrix: node count × (speed distribution, load, faults).
#[must_use]
pub fn matrix(params: &ExpParams) -> Vec<ScaleScenario> {
    // Virtual duration shrinks as the cluster grows, keeping per-cell event
    // counts (and debug-build test time) bounded; quick mode halves again.
    let quick = params.duration < Micros::from_secs(100);
    let dur = |nodes: usize| {
        let full = match nodes {
            n if n >= 1000 => 2,
            n if n >= 100 => 4,
            _ => 10,
        };
        Micros::from_secs(if quick { (full / 2).max(1) } else { full })
    };
    let seed = params.seeds[0];
    let mut cells = Vec::new();
    for &nodes in &[10usize, 100, 1000] {
        cells.push(ScaleScenario {
            nodes,
            dist: SpeedDist::Homogeneous,
            load: Load::Steady,
            crashes: 0,
            fanout: 1,
            net: NetModel::default(),
            duration: dur(nodes),
            seed,
        });
        cells.push(ScaleScenario {
            nodes,
            dist: storm_classes(),
            load: Load::Diurnal,
            crashes: 2,
            fanout: 1,
            net: NetModel::default(),
            duration: dur(nodes),
            seed,
        });
    }
    // The bench's reference shape at the two interesting scales.
    cells.push(bench_scenario(100, dur(100), seed));
    cells.push(bench_scenario(1000, dur(1000), seed));
    cells
}

/// Run the sweep; cells execute concurrently with input-order results.
#[must_use]
pub fn run(params: &ExpParams) -> Scale {
    let cells = matrix(params);
    let jobs: Vec<_> = cells
        .iter()
        .cloned()
        .map(|sc| {
            move || {
                let (b, cfg) = build(&sc);
                let t0 = std::time::Instant::now();
                let report = Sim::run(b, cfg).expect("scale cell builds");
                let wall = t0.elapsed();
                let analysis = report.analyze();
                let wall_ms = wall.as_secs_f64() * 1e3;
                ScaleRow {
                    nodes: sc.nodes,
                    dist: match sc.dist {
                        SpeedDist::Homogeneous => "homog",
                        SpeedDist::Uniform { .. } => "uniform",
                        SpeedDist::Classes(_) => "classes",
                    },
                    load: sc.load,
                    crashes: sc.crashes,
                    fanout: sc.fanout,
                    outputs: report.outputs(),
                    events: report.events_dispatched,
                    peak_pending: report.peak_pending,
                    wall_ms,
                    events_per_sec: report.events_dispatched as f64 / wall.as_secs_f64(),
                    waste_pct: analysis.waste.pct_memory_wasted(),
                    epoch_unix_us: report.trace.epoch_unix_us(),
                    telemetry: report.telemetry,
                }
            }
        })
        .collect();
    Scale {
        rows: crate::driver::run_jobs(jobs),
    }
}

impl Scale {
    /// Render the scale table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Scale sweep — calendar-queue engine, nodes × speeds × load × faults",
            &[
                "nodes",
                "speeds",
                "load",
                "crashes",
                "fanout",
                "outputs",
                "events",
                "peak pend",
                "wall ms",
                "Mev/s",
                "waste %",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.nodes.to_string(),
                r.dist.to_string(),
                r.load.label().to_string(),
                r.crashes.to_string(),
                r.fanout.to_string(),
                r.outputs.to_string(),
                r.events.to_string(),
                r.peak_pending.to_string(),
                format!("{:.1}", r.wall_ms),
                format!("{:.2}", r.events_per_sec / 1e6),
                format!("{:.1}", r.waste_pct),
            ]);
        }
        t.render()
    }

    /// Machine-readable CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "nodes,dist,load,crashes,fanout,outputs,events,peak_pending,wall_ms,events_per_sec,waste_pct\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:.3},{:.0},{:.3}\n",
                r.nodes,
                r.dist,
                r.load.label(),
                r.crashes,
                r.fanout,
                r.outputs,
                r.events,
                r.peak_pending,
                r.wall_ms,
                r.events_per_sec,
                r.waste_pct
            ));
        }
        s
    }

    /// Per-cell telemetry (fault counters, restarts, recovery latency)
    /// through the PR 5 exporter serializers.
    pub fn export_jsonl(&self, sink: &ExportSink) -> std::io::Result<()> {
        let now = wall_clock_unix_us();
        for r in &self.rows {
            sink.append_jsonl(&format!(
                "{{\"kind\":\"scale_cell\",\"nodes\":{},\"dist\":\"{}\",\"load\":\"{}\",\"events\":{},\"peak_pending\":{}}}",
                r.nodes,
                r.dist,
                r.load.label(),
                r.events,
                r.peak_pending
            ))?;
            sink.append_jsonl(&jsonl_line(
                &r.telemetry.registry.snapshot(),
                r.epoch_unix_us,
                now,
            ))?;
        }
        Ok(())
    }

    fn cell(&self, nodes: usize, load: Load) -> Option<&ScaleRow> {
        self.rows
            .iter()
            .find(|r| r.nodes == nodes && r.load == load)
    }

    /// The qualitative invariants this sweep must uphold.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        checks.push(ShapeCheck::new(
            "scale: every cell produced sink outputs",
            self.rows.iter().all(|r| r.outputs > 0),
            format!(
                "{:?}",
                self.rows.iter().map(|r| r.outputs).collect::<Vec<_>>()
            ),
        ));
        // Event volume scales with the cluster (pipelines × duration):
        // the 1000-node steady cell must dispatch far more events than the
        // 10-node one even at a fifth of the virtual duration.
        if let (Some(small), Some(big)) =
            (self.cell(10, Load::Steady), self.cell(1000, Load::Steady))
        {
            checks.push(ShapeCheck::new(
                "scale: events grow ~linearly with node count",
                big.events > small.events * 5,
                format!(
                    "{} events at 1000 nodes vs {} at 10",
                    big.events, small.events
                ),
            ));
            checks.push(ShapeCheck::new(
                "scale: pending-event population grows with the cluster",
                big.peak_pending > small.peak_pending * 10,
                format!("peak {} vs {}", big.peak_pending, small.peak_pending),
            ));
        }
        // ARU keeps waste bounded even heterogeneous + non-stationary. The
        // broadcast cells on the congested fabric get a looser bound: with
        // 8-way fan-out against a saturated interconnect most "waste" is
        // items buffered awaiting transfer — network backlog the pacing
        // controller cannot reclaim — so the bound there only asserts the
        // backlog stays short of runaway, not the paper's pacing figure.
        let bound = |r: &ScaleRow| if r.fanout > 1 { 60.0 } else { 40.0 };
        checks.push(ShapeCheck::new(
            "scale: ARU-min waste stays bounded in every cell",
            self.rows.iter().all(|r| r.waste_pct < bound(r)),
            format!(
                "max {:.1}% (fanout>1 cells bounded at 60%, rest at 40%)",
                self.rows.iter().map(|r| r.waste_pct).fold(0.0, f64::max)
            ),
        ));
        checks.push(ShapeCheck::new(
            "scale: faulted cells recorded their injected crashes",
            self.rows.iter().filter(|r| r.crashes > 0).all(|r| {
                r.telemetry
                    .registry
                    .snapshot()
                    .counter("aru_faults_injected_total", &[("kind", "crash")])
                    > 0
            }),
            "aru_faults_injected_total > 0 where crashes were scheduled",
        ));
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_quick_has_expected_shape() {
        let fig = run(&ExpParams::quick());
        assert_eq!(fig.rows.len(), matrix(&ExpParams::quick()).len());
        for c in fig.shape_checks() {
            assert!(c.passed, "{} — {}", c.name, c.detail);
        }
        let csv = fig.to_csv();
        assert_eq!(csv.lines().count(), fig.rows.len() + 1);
        assert!(fig.render().contains("Scale sweep"));

        // Telemetry export: one marker + one registry line per cell.
        let dir = std::env::temp_dir().join(format!("aru-scale-jsonl-{}", std::process::id()));
        let sink = ExportSink {
            prometheus_path: None,
            jsonl_path: Some(dir.join("scale_telemetry.jsonl")),
        };
        fig.export_jsonl(&sink).unwrap();
        let text = std::fs::read_to_string(dir.join("scale_telemetry.jsonl")).unwrap();
        assert_eq!(text.lines().count(), fig.rows.len() * 2);
        assert!(text.contains("\"kind\":\"scale_cell\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
