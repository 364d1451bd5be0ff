//! What the benchmark measures: the five workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metric names.
//! `BENCHMARK.json` at the repository root states the same and a test keeps
//! the two in step.

use crate::json::Value;
use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// In the order the driver runs them. The order matters on a shared host
/// whose speed depends on its recent load (this one slows down after ~40 s of
/// two busy cores and recovers after ~45 s of idling): `tracker_paced` idles,
/// and the workload most sensitive to the host's state — the transport, 3-4x —
/// runs last, after minutes of sustained load, so that its runs see one state.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tracker_paced",
        why: "6-task tracker with a 40 ms target-detection delay: frame rate pinned, only ARU/DGC control (footprint, latency) can move",
    },
    Workload {
        name: "tracker_full_speed",
        why: "same tracker, real kernels, no stage delays: CPU-bound, kernels and frame fan-out dominate, control plane invisible",
    },
    Workload {
        name: "sim_paper_cells",
        why: "the figure cells (3 modes x 2 configs x 5 seeds, 200 s virtual): tens of pending events, guards what scale tuning must not cost",
    },
    Workload {
        name: "sim_scale_1000",
        why: "simulator at the scale sweep's heaviest cell: ~14k pending events, event queue, dispatch, store and postmortem all matter",
    },
    Workload {
        name: "transport_small_items",
        why: "src -> queue -> sink with 64-byte items and no kernels: task loop, controller, queue op, recording and park/wake are the whole cost",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// each has one meaning per workload; README.md has the table.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "memory_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The per-layer metrics, layer = crate/module name. A workload that does
/// not exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        });
    };
    // The tail and the paper's footprint: recorded, too noisy or too
    // workload-specific to gate (see README.md).
    add("latency_p50_us", "us", Lower);
    add("latency_p95_us", "us", Lower);
    add("latency_p99_us", "us", Lower);
    add("latency_tail_pct", "%", Higher);
    add("latency_tail_us", "us", Lower);
    add("latency_samples", "count", Higher);
    add("rss_mean_mb", "MB", Lower);
    add("peak_rss_mb", "MB", Lower);
    add("tracing_overhead_pct", "%", Lower);
    add("budget.unattributed_share", "share", Lower);
    // tracker: kernels and stages
    add("tracker.video.frame_us", "us", Lower);
    add("tracker.kernels.background_us", "us", Lower);
    add("tracker.kernels.histogram_us", "us", Lower);
    add("tracker.kernels.detect_us", "us", Lower);
    add("tracker.serial_fps", "1/s", Higher);
    add("tracker.parallel_efficiency", "share", Higher);
    for task in tracker::graph::TASKS {
        add(&format!("tracker.stage.{task}.busy_share"), "share", Lower);
        add(&format!("tracker.stage.{task}.iterations"), "count", Higher);
        add(
            &format!("tracker.stage.{task}.useful_iterations"),
            "count",
            Higher,
        );
    }
    add("tracker.bottleneck_stage", "index", Lower);
    add("tracker.detection_within_30px_share", "share", Higher);
    // ARU + GC control
    add("aru.source_period_over_bottleneck", "ratio", Lower);
    add("aru.wasted_mem_pct", "%", Lower);
    add("aru.wasted_compute_pct", "%", Lower);
    add("aru.footprint_mean_bytes", "bytes", Lower);
    add("aru.footprint_over_ideal", "%", Lower);
    add("aru.overhead_ns_per_item", "ns", Lower);
    add("aru_core.controller.iteration_ns", "ns", Lower);
    add("aru_gc.dgc.pass_us", "us", Lower);
    // stampede transport
    add("stampede.channel.put_ns", "ns", Lower);
    add("stampede.channel.get_latest_ns", "ns", Lower);
    add("stampede.fanout.put3_frame_ns", "ns", Lower);
    add("stampede.queue.put_ns", "ns", Lower);
    add("stampede.queue.get_ns", "ns", Lower);
    add("stampede.lfqueue.put_ns", "ns", Lower);
    add("stampede.lfqueue.get_ns", "ns", Lower);
    add("stampede.task_loop.iter_ns", "ns", Lower);
    add("stampede.task_loop.iter_noaru_ns", "ns", Lower);
    add("stampede.handoff.roundtrip_ns", "ns", Lower);
    add("stampede.stop_ms", "ms", Lower);
    add("stampede.transport.mutex_ns_per_item", "ns", Lower);
    add("stampede.transport.mutex_noaru_ns_per_item", "ns", Lower);
    add("stampede.transport.lockfree_ns_per_item", "ns", Lower);
    add("stampede.transport.lockfree_noaru_ns_per_item", "ns", Lower);
    add("stampede.transport.fill_drain_ns_per_item", "ns", Lower);
    add("stampede.transport.put_call_ns", "ns", Lower);
    add("stampede.transport.get_call_ns", "ns", Lower);
    // recorders
    add("metrics.trace.record_ns", "ns", Lower);
    add("metrics.trace.events_per_item", "count", Lower);
    add("metrics.journal.record_ns", "ns", Lower);
    add("metrics.spans.record_ns", "ns", Lower);
    add("metrics.registry.counter_ns", "ns", Lower);
    // postmortem analysis
    add("metrics.lineage_s", "s", Lower);
    add("metrics.footprint_s", "s", Lower);
    add("metrics.waste_s", "s", Lower);
    add("metrics.perf_s", "s", Lower);
    add("aru_gc.igc_s", "s", Lower);
    add("metrics.analyze_ns_per_event", "ns", Lower);
    // simulator
    add("desim.build_ms", "ms", Lower);
    add("desim.run_s", "s", Lower);
    add("desim.events_dispatched", "count", Lower);
    add("desim.peak_pending", "count", Lower);
    add("desim.outputs", "count", Higher);
    add("desim.trace_events", "count", Lower);
    add("desim.equeue.calendar_mops", "Mops/s", Higher);
    add("desim.equeue.heap_mops", "Mops/s", Higher);
    add("desim.equeue.share", "share", Lower);
    add("desim.dispatch.share", "share", Lower);
    v
}

/// How the driver starts one run; it appends
/// `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// The contents of `BENCHMARK.json` (`bench --spec` prints it; a test keeps
/// the committed file equal to it).
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| Value::obj().with("name", w.name).with("why", w.why))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.label())
                .with("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Value> = per_layer()
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name.as_str())
                .with("unit", m.unit)
                .with("better", m.better.label())
        })
        .collect();
    Value::obj()
        .with(
            "command",
            COMMAND.iter().map(|s| Value::from(*s)).collect::<Vec<_>>(),
        )
        .with("paths", vec![Value::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

/// Measured values by metric name. Setting a name the spec does not list is
/// a bug in the benchmark and panics when the result is assembled.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (timed pass) or every per-layer metric (traced pass), each with its
    /// unit.
    pub fn to_json(&self, traced: bool) -> Value {
        let spec: Vec<(String, &'static str)> = if traced {
            per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit))
                .collect()
        };
        for name in self.0.keys() {
            assert!(
                spec.iter().any(|(n, _)| n == name),
                "metric {name} is not in the {} spec",
                if traced { "per-layer" } else { "end-to-end" }
            );
        }
        let mut out = Value::obj();
        for (name, unit) in spec {
            let value = match self.get(&name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            out = out.with(&name, Value::obj().with("value", value).with("unit", unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &layers {
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
        }
        for m in &END_TO_END {
            assert!(valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints and `--compare` judges by. They must say the same.
    #[test]
    fn benchmark_json_is_what_spec_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate it with `bench --spec`"
        );
        let keys: Vec<&str> = committed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
    }

    #[test]
    fn traced_result_lists_every_layer_metric_and_zero_fills() {
        let mut m = Metrics::default();
        m.set("desim.run_s", 1.25);
        let j = m.to_json(true);
        assert_eq!(j.fields().len(), per_layer().len());
        let v = |name: &str| j.get(name).unwrap().get("value").and_then(Value::as_f64);
        assert_eq!(v("desim.run_s"), Some(1.25));
        assert_eq!(v("stampede.queue.put_ns"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in the")]
    fn unknown_metric_names_are_caught() {
        let mut m = Metrics::default();
        m.set("stampede.queue.putt_ns", 1.0);
        let _ = m.to_json(true);
    }
}
