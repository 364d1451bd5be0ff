//! Stability experiment (extension beyond the paper): compare the pacing
//! control laws (DESIGN.md §13) under induced congestion.
//!
//! A 3 × 2 matrix — {Direct, PID, Hysteresis} × two scenarios:
//!
//! 1. **chaos** — config 1, the Motion-Mask stage (change detection) is
//!    crashed at the midpoint and restarted by the supervisor; the
//!    digitizer's pacing target collapses and must re-converge. This is
//!    the chaos experiment's crash scenario ([`crate::chaos::crash_sim`]),
//!    and its `Direct` cell is that experiment's run, simulated once.
//! 2. **volatile_link** — config 2 (5 nodes), the interconnect's transfer
//!    times follow a square wave ([`desim::FaultPlan::volatile_link`])
//!    while periodic bursts eat the summary feedback
//!    ([`desim::FaultPlan::summary_drop_bursts`]); the oracle summary-STP
//!    jitters with the chaos and a guardrail law must not chase it.
//!
//! Each cell runs one simulation, extracts the digitizer's applied
//! pacing-target series from the [`aru_metrics::TraceEvent::PaceDecision`]
//! trace, and scores it with [`aru_metrics::stability()`]: convergence time
//! after the disturbance, direction reversals and sustained-oscillation
//! windows, peak overshoot. The headline contrast: `Direct` (the oracle)
//! follows every wiggle of the noisy summary and oscillates; `Hysteresis`
//! holds inside its dead-band — zero sustained oscillation over the same
//! window.

use crate::config::ExpParams;
use crate::tables::ShapeCheck;
use aru_core::{AruConfig, ControllerConfig};
use aru_metrics::export::{jsonl_line, ExportSink};
use aru_metrics::report::Table;
use aru_metrics::stability::{pace_target_series, stability, StabilityReport, StabilitySpec};
use aru_metrics::trace::wall_clock_unix_us;
use aru_metrics::Registry;
use desim::{FaultPlan, SimReport};
use tracker::{SimTrackerParams, TrackerConfigId};
use vtime::{Micros, SimTime};

/// One law × scenario cell.
#[derive(Debug, Clone)]
pub struct StabilityCell {
    pub law: &'static str,
    pub scenario: &'static str,
    pub report: StabilityReport,
    /// Pacing decisions the law took over the whole run.
    pub decisions: usize,
    /// Decisions that clamped (differed from) the raw oracle target.
    pub clamped: usize,
    /// The cell's run telemetry — carries the flight-recorder journal
    /// (DESIGN.md §16) that `repro doctor` analyses.
    pub telemetry: aru_metrics::Telemetry,
}

/// The full matrix.
#[derive(Debug, Clone)]
pub struct Stability {
    pub cells: Vec<StabilityCell>,
    pub epoch_unix_us: u64,
}

fn all_laws() -> [ControllerConfig; 3] {
    [
        ControllerConfig::Direct,
        ControllerConfig::Pid,
        ControllerConfig::Hysteresis,
    ]
}

fn analyze(r: &SimReport, disturb_at: u64, until: u64) -> (StabilityReport, usize, usize) {
    let node = tracker::graph::node(&r.topo, "digitizer");
    let series = pace_target_series(&r.trace, node);
    let spec = StabilitySpec::new(SimTime(disturb_at), SimTime(until));
    let report = stability(&series, &spec);
    let (mut decisions, mut clamped) = (0usize, 0usize);
    for e in &r.trace {
        if let aru_metrics::TraceEvent::PaceDecision {
            node: n,
            clamped: c,
            ..
        } = e
        {
            if n == node {
                decisions += 1;
                clamped += usize::from(c);
            }
        }
    }
    (report, decisions, clamped)
}

/// Scenario 1: crash-recovery congestion on config 1, scored from the
/// [`crate::chaos::crash_sim`] run `r`.
fn chaos_cell(control: ControllerConfig, r: &SimReport) -> StabilityCell {
    let d = r.t_end.as_micros();
    let (report, decisions, clamped) = analyze(r, d / 2, d);
    StabilityCell {
        law: control.label(),
        scenario: "chaos",
        report,
        decisions,
        clamped,
        telemetry: r.telemetry.clone(),
    }
}

/// Scenario 2: volatile link + feedback-drop bursts on config 2.
fn run_volatile_cell(control: ControllerConfig, seed: u64, dur: Micros) -> StabilityCell {
    let d = dur.as_micros();
    let from = d / 4;
    let p = SimTrackerParams::new(
        AruConfig::aru_min().with_control(control),
        TrackerConfigId::FiveNodes,
    )
    .with_seed(seed)
    .with_duration(dur)
    .with_faults(
        FaultPlan::none()
            // 2 s square wave of 6× transfer times for the back 3/4 of the
            // run, plus a 200 ms feedback blackout every 2 s.
            .volatile_link(Micros(from), Micros(d), Micros::from_secs(2), 6.0)
            .summary_drop_bursts(
                "digitizer",
                Micros(from),
                Micros(d),
                Micros::from_millis(200),
                Micros::from_millis(1800),
            ),
    );
    let r = tracker::app_sim::run_sim(&p);
    let (report, decisions, clamped) = analyze(&r, from, d);
    StabilityCell {
        law: control.label(),
        scenario: "volatile_link",
        report,
        decisions,
        clamped,
        telemetry: r.telemetry,
    }
}

/// Run the full 3 × 2 matrix (first seed). `direct_chaos` is the `Direct`
/// [`crate::chaos::crash_sim`] run; the other five simulations are
/// independent and run concurrently.
#[must_use]
pub fn run(params: &ExpParams, direct_chaos: &SimReport) -> Stability {
    let seed = params.seeds[0];
    let dur = params.duration;
    let mut jobs: Vec<Box<dyn FnOnce() -> StabilityCell + Send + '_>> = Vec::new();
    for control in all_laws() {
        jobs.push(Box::new(move || match control {
            ControllerConfig::Direct => chaos_cell(control, direct_chaos),
            _ => chaos_cell(control, &crate::chaos::crash_sim(control, seed, dur)),
        }));
        jobs.push(Box::new(move || run_volatile_cell(control, seed, dur)));
    }
    let cells = crate::driver::run_jobs(jobs);
    Stability {
        cells,
        epoch_unix_us: wall_clock_unix_us(),
    }
}

impl Stability {
    fn cell(&self, law: &str, scenario: &str) -> &StabilityCell {
        self.cells
            .iter()
            .find(|c| c.law == law && c.scenario == scenario)
            .expect("matrix is complete")
    }

    /// Render the matrix.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Stability — control laws under chaos and volatile-link congestion",
            &[
                "law",
                "scenario",
                "steady",
                "convergence",
                "reversals",
                "osc windows",
                "overshoot",
                "decisions",
            ],
        );
        for c in &self.cells {
            let r = &c.report;
            t.row(vec![
                c.law.into(),
                c.scenario.into(),
                format!("{:.1} ms", r.steady_value / 1e3),
                match r.convergence {
                    Some(m) => format!("{:.2} s", m.as_micros() as f64 / 1e6),
                    None => "never".into(),
                },
                format!("{}", r.reversals),
                format!("{}/{}", r.oscillating_windows, r.windows),
                format!("{:.1}%", r.peak_overshoot * 100.0),
                format!("{} ({} clamped)", c.decisions, c.clamped),
            ]);
        }
        t.render()
    }

    /// CSV export.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "law,scenario,steady_us,convergence_us,reversals,oscillating_windows,\
             windows,peak_overshoot_pct,decisions,clamped\n",
        );
        for c in &self.cells {
            let r = &c.report;
            s.push_str(&format!(
                "{},{},{:.1},{},{},{},{},{:.2},{},{}\n",
                c.law,
                c.scenario,
                r.steady_value,
                r.convergence
                    .map_or(String::from(""), |m| m.as_micros().to_string()),
                r.reversals,
                r.oscillating_windows,
                r.windows,
                r.peak_overshoot * 100.0,
                c.decisions,
                c.clamped,
            ));
        }
        s
    }

    /// Flush the matrix through the live-telemetry exporter (PR-5 registry
    /// shapes): one gauge per stability quantity, labelled by law and
    /// scenario, in one JSONL snapshot line.
    pub fn export_jsonl(&self, sink: &ExportSink) -> std::io::Result<()> {
        let reg = Registry::new();
        for c in &self.cells {
            let labels: &[(&str, &str)] = &[("law", c.law), ("scenario", c.scenario)];
            let r = &c.report;
            reg.gauge("aru_stability_steady_us", labels)
                .set(r.steady_value);
            if let Some(m) = r.convergence {
                reg.gauge("aru_stability_convergence_us", labels)
                    .set(m.as_micros() as f64);
            }
            reg.gauge("aru_stability_reversals", labels)
                .set(r.reversals as f64);
            reg.gauge("aru_stability_oscillating_windows", labels)
                .set(r.oscillating_windows as f64);
            reg.gauge("aru_stability_peak_overshoot_pct", labels)
                .set(r.peak_overshoot * 100.0);
            reg.counter("aru_stability_decisions_total", labels)
                .add(c.decisions as u64);
            reg.counter("aru_stability_clamped_total", labels)
                .add(c.clamped as u64);
        }
        let now = wall_clock_unix_us();
        sink.append_jsonl("{\"kind\":\"scenario\",\"name\":\"stability_matrix\"}")?;
        sink.append_jsonl(&jsonl_line(&reg.snapshot(), self.epoch_unix_us, now))
    }

    /// Persist each cell's flight-recorder journal (DESIGN.md §16) as
    /// `stability_<law>_<scenario>.journal.jsonl`, for `repro doctor` and
    /// CI's stability-smoke lane (Direct must oscillate under the volatile
    /// link; Hysteresis must stay clean).
    pub fn write_journals(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut paths = Vec::new();
        for c in &self.cells {
            let path = dir.join(format!("stability_{}_{}.journal.jsonl", c.law, c.scenario));
            c.telemetry
                .journal
                .write_snapshot_file(&path, "sim", self.epoch_unix_us)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// The qualitative invariants this experiment must uphold.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let direct = &self.cell("direct", "volatile_link").report;
        let hyst = &self.cell("hysteresis", "volatile_link").report;
        let pid = &self.cell("pid", "chaos").report;
        vec![
            ShapeCheck::new(
                "stability: direct chases the volatile oracle (oscillates)",
                direct.oscillating_windows > 0,
                format!(
                    "{} reversals, {}/{} oscillating windows",
                    direct.reversals, direct.oscillating_windows, direct.windows
                ),
            ),
            ShapeCheck::new(
                "stability: hysteresis dead-band kills sustained oscillation",
                hyst.is_oscillation_free(),
                format!(
                    "{} reversals, {}/{} oscillating windows",
                    hyst.reversals, hyst.oscillating_windows, hyst.windows
                ),
            ),
            ShapeCheck::new(
                "stability: hysteresis strictly calmer than direct",
                hyst.reversals < direct.reversals,
                format!("{} vs {} reversals", hyst.reversals, direct.reversals),
            ),
            ShapeCheck::new(
                "stability: pid re-converges after the crash",
                pid.convergence.is_some(),
                match pid.convergence {
                    Some(m) => format!("{:.2} s after disturbance", m.as_micros() as f64 / 1e6),
                    None => "never converged".into(),
                },
            ),
            ShapeCheck::new(
                "stability: every cell recorded pacing decisions",
                self.cells.iter().all(|c| c.decisions > 0),
                format!(
                    "min decisions {}",
                    self.cells.iter().map(|c| c.decisions).min().unwrap_or(0)
                ),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_quick_shape_holds() {
        let p = ExpParams::quick();
        let crash = crate::chaos::crash_sim(ControllerConfig::Direct, p.seeds[0], p.duration);
        let fig = run(&p, &crash);
        assert_eq!(fig.cells.len(), 6, "3 laws x 2 scenarios");
        for check in fig.shape_checks() {
            assert!(check.passed, "{}: {}", check.name, check.detail);
        }
        let csv = fig.to_csv();
        assert_eq!(csv.lines().count(), 7, "header + 6 cells");
        assert!(csv.contains("hysteresis,volatile_link"));

        let dir = std::env::temp_dir().join(format!("aru-stability-jsonl-{}", std::process::id()));
        let sink = ExportSink {
            prometheus_path: None,
            jsonl_path: Some(dir.join("stability_telemetry.jsonl")),
        };
        fig.export_jsonl(&sink).unwrap();
        let text = std::fs::read_to_string(dir.join("stability_telemetry.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 2, "marker + one snapshot line");
        assert!(text.contains("aru_stability_reversals"));
        assert!(text.contains("law=\\\"hysteresis\\\""));

        // Doctor acceptance: from the persisted journals alone, the
        // Direct volatile-link cell must be diagnosed as oscillating and
        // the Hysteresis cell must come back clean.
        let paths = fig.write_journals(&dir).unwrap();
        assert_eq!(paths.len(), 6);
        let find = |law: &str| {
            let p = dir.join(format!("stability_{law}_volatile_link.journal.jsonl"));
            crate::doctor::diagnose(&aru_metrics::load_journal(&p).unwrap())
        };
        let direct = find("direct");
        assert!(
            direct.has("oscillation"),
            "direct volatile cell flagged: {:?}",
            direct.findings
        );
        let hyst = find("hysteresis");
        assert!(
            !hyst.has("oscillation"),
            "hysteresis volatile cell clean: {:?}",
            hyst.findings
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
