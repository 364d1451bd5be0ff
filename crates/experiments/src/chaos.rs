//! Chaos experiment (extension beyond the paper): fault injection against
//! the simulated tracker, demonstrating that the ARU feedback loop is
//! self-healing.
//!
//! Two scenarios, both on configuration 1 with ARU-min:
//!
//! 1. **Crash-recovery** — the Motion-Mask stage (change detection) is
//!    killed mid-run and restarted by the supervisor under the default
//!    retry policy. Because ARU keeps no state outside the channels, the
//!    digitizer's paced production period must re-converge to its pre-fault
//!    steady state. This run ([`crash_sim`] under `Direct`) is also the
//!    stability matrix's `(direct, chaos)` cell, so `repro` simulates it
//!    once and hands it to both experiments.
//! 2. **Feedback loss** — every summary to the digitizer is dropped for a
//!    window, with a staleness horizon configured. The source must decay
//!    back to un-paced production (instead of freezing on the last pacing
//!    target), then re-pace when feedback returns.

use crate::config::ExpParams;
use crate::tables::ShapeCheck;
use aru_core::{AruConfig, ControllerConfig, RetryPolicy};
use aru_metrics::export::{fault_report_jsonl, jsonl_line, ExportSink};
use aru_metrics::report::Table;
use aru_metrics::trace::wall_clock_unix_us;
use aru_metrics::{FaultReport, Telemetry, TraceEvent};
use desim::{FaultPlan, SimReport};
use tracker::{SimTrackerParams, TrackerConfigId};
use vtime::Micros;

/// Results of the crash-recovery scenario.
#[derive(Debug, Clone)]
pub struct CrashRecovery {
    pub faults: FaultReport,
    /// Digitizer production period (µs) in the pre-fault steady window.
    pub period_before_us: f64,
    /// Digitizer production period (µs) in the post-recovery tail window.
    pub period_after_us: f64,
    /// Virtual time of the last sink output (µs).
    pub last_output_us: u64,
    pub duration_us: u64,
    /// The sim's fault-injection telemetry (see [`desim::SimReport`]).
    pub telemetry: Telemetry,
    /// Wall-clock origin of the scenario run (epoch satellite).
    pub epoch_unix_us: u64,
}

impl CrashRecovery {
    /// |after − before| / before.
    #[must_use]
    pub fn drift(&self) -> f64 {
        (self.period_after_us - self.period_before_us).abs() / self.period_before_us
    }
}

/// Results of the feedback-loss scenario.
#[derive(Debug, Clone)]
pub struct FeedbackLoss {
    pub faults: FaultReport,
    /// Digitizer production rate (items/s) while paced, before the window.
    pub rate_before: f64,
    /// Production rate deep inside the drop window (staleness expired).
    pub rate_during: f64,
    /// Production rate after feedback returns.
    pub rate_after: f64,
    /// The sim's fault-injection telemetry (see [`desim::SimReport`]).
    pub telemetry: Telemetry,
    /// Wall-clock origin of the scenario run (epoch satellite).
    pub epoch_unix_us: u64,
}

/// The chaos experiment bundle.
#[derive(Debug, Clone)]
pub struct Chaos {
    pub crash: CrashRecovery,
    pub loss: FeedbackLoss,
}

fn digitizer_iter_ends(r: &SimReport) -> Vec<u64> {
    let node = tracker::graph::node(&r.topo, "digitizer");
    r.trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::IterEnd { t, iter, .. } if iter.node == node => Some(t.as_micros()),
            _ => None,
        })
        .collect()
}

fn mean_gap(ends: &[u64], lo: u64, hi: u64) -> f64 {
    let w: Vec<u64> = ends
        .iter()
        .copied()
        .filter(|t| (lo..hi).contains(t))
        .collect();
    if w.len() < 2 {
        return f64::NAN;
    }
    (w[w.len() - 1] - w[0]) as f64 / (w.len() - 1) as f64
}

fn rate_per_sec(ends: &[u64], lo: u64, hi: u64) -> f64 {
    let n = ends.iter().filter(|t| (lo..hi).contains(t)).count();
    n as f64 / ((hi - lo) as f64 / 1e6)
}

/// Scenario 1's simulation under `control`: config 1 with ARU-min, change
/// detection crashed at the midpoint and restarted under the default retry
/// policy.
#[must_use]
pub fn crash_sim(control: ControllerConfig, seed: u64, duration: Micros) -> SimReport {
    let p = SimTrackerParams::new(
        AruConfig::aru_min().with_control(control),
        TrackerConfigId::OneNode,
    )
    .with_seed(seed)
    .with_duration(duration)
    .with_faults(FaultPlan::none().crash("change-detection", Micros(duration.as_micros() / 2)))
    .with_retry(RetryPolicy::default());
    tracker::app_sim::run_sim(&p)
}

/// Scenario 1's verdict, read from the [`crash_sim`] run `r`.
fn crash_recovery(r: &SimReport) -> CrashRecovery {
    let dur = r.t_end.as_micros();
    let crash_at = dur / 2;
    let ends = digitizer_iter_ends(r);
    let last_output_us = r
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SinkOutput { t, .. } => Some(t.as_micros()),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    CrashRecovery {
        faults: r.analyze().faults,
        // steady window: second quarter (warm, pre-fault); tail: last quarter.
        period_before_us: mean_gap(&ends, dur / 4, crash_at),
        period_after_us: mean_gap(&ends, dur * 3 / 4, dur),
        last_output_us,
        duration_us: dur,
        epoch_unix_us: r.trace.epoch_unix_us(),
        telemetry: r.telemetry.clone(),
    }
}

/// Scenario 2: drop every summary to the digitizer for the middle 40% of
/// the run, with a 500 ms staleness horizon.
fn run_loss(seed: u64, duration: Micros) -> FeedbackLoss {
    let dur = duration.as_micros();
    let from = dur * 3 / 10;
    let until = dur * 7 / 10;
    let p = SimTrackerParams::new(
        AruConfig::aru_min().with_staleness(Micros::from_millis(500)),
        TrackerConfigId::OneNode,
    )
    .with_seed(seed)
    .with_duration(duration)
    .with_faults(FaultPlan::none().drop_summaries("digitizer", Micros(from), Micros(until)));
    let r = tracker::app_sim::run_sim(&p);
    let ends = digitizer_iter_ends(&r);
    FeedbackLoss {
        faults: r.analyze().faults,
        rate_before: rate_per_sec(&ends, dur / 10, from),
        // skip the first second of the window (staleness horizon + decay)
        rate_during: rate_per_sec(&ends, from + 1_000_000, until),
        rate_after: rate_per_sec(&ends, until + 1_000_000, dur),
        epoch_unix_us: r.trace.epoch_unix_us(),
        telemetry: r.telemetry,
    }
}

/// Both chaos scenarios (config 1, first seed): the crash-recovery verdict
/// is read from `crash`, the `Direct` [`crash_sim`] run; the feedback-loss
/// scenario is simulated here.
#[must_use]
pub fn run(params: &ExpParams, crash: &SimReport) -> Chaos {
    Chaos {
        crash: crash_recovery(crash),
        loss: run_loss(params.seeds[0], params.duration),
    }
}

impl Chaos {
    /// Render both scenarios.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Chaos — crash-recovery and feedback-loss (config 1, ARU-min)",
            &["scenario", "faults", "before", "during/after", "verdict"],
        );
        let c = &self.crash;
        t.row(vec![
            "crash+restart (change-detection)".into(),
            format!("{} crash / {} restart", c.faults.crashes, c.faults.restarts),
            format!("{:.1} ms period", c.period_before_us / 1e3),
            format!("{:.1} ms period", c.period_after_us / 1e3),
            format!("{:.1}% drift", c.drift() * 100.0),
        ]);
        let l = &self.loss;
        t.row(vec![
            "summary loss (digitizer)".into(),
            format!(
                "{} dropped / {} stale iters",
                l.faults.summaries_dropped, l.faults.stale_iterations
            ),
            format!("{:.1}/s paced", l.rate_before),
            format!(
                "{:.1}/s unpaced → {:.1}/s repaced",
                l.rate_during, l.rate_after
            ),
            "decays, re-paces".into(),
        ]);
        t.render()
    }

    /// CSV export.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "scenario,crashes,restarts,summaries_dropped,stale_iterations,\
             before,during_or_after,tail\n",
        );
        let c = &self.crash;
        s.push_str(&format!(
            "crash_recovery,{},{},{},{},{:.1},{:.1},{}\n",
            c.faults.crashes,
            c.faults.restarts,
            c.faults.summaries_dropped,
            c.faults.stale_iterations,
            c.period_before_us,
            c.period_after_us,
            c.last_output_us,
        ));
        let l = &self.loss;
        s.push_str(&format!(
            "feedback_loss,{},{},{},{},{:.2},{:.2},{:.2}\n",
            l.faults.crashes,
            l.faults.restarts,
            l.faults.summaries_dropped,
            l.faults.stale_iterations,
            l.rate_before,
            l.rate_during,
            l.rate_after,
        ));
        s
    }

    /// Flush both scenarios' telemetry through the exporter serializers:
    /// for each scenario a marker line, the registry snapshot (injected
    /// faults by kind, restarts, recovery latency), and the fault report —
    /// the same shapes a live run's exporter leaves behind on escalation.
    pub fn export_jsonl(&self, sink: &ExportSink) -> std::io::Result<()> {
        let now = wall_clock_unix_us();
        let scenarios: [(&str, &Telemetry, &FaultReport, u64); 2] = [
            (
                "crash_recovery",
                &self.crash.telemetry,
                &self.crash.faults,
                self.crash.epoch_unix_us,
            ),
            (
                "feedback_loss",
                &self.loss.telemetry,
                &self.loss.faults,
                self.loss.epoch_unix_us,
            ),
        ];
        for (name, tele, faults, epoch) in scenarios {
            sink.append_jsonl(&format!("{{\"kind\":\"scenario\",\"name\":\"{name}\"}}"))?;
            sink.append_jsonl(&jsonl_line(&tele.registry.snapshot(), epoch, now))?;
            sink.append_jsonl(&fault_report_jsonl(faults, epoch, now))?;
        }
        Ok(())
    }

    /// Persist each scenario's flight-recorder journal (DESIGN.md §16)
    /// next to the CSVs, for `repro doctor` and CI's chaos lane.
    pub fn write_journals(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        let crash = dir.join("chaos_crash.journal.jsonl");
        self.crash.telemetry.journal.write_snapshot_file(
            &crash,
            "sim",
            self.crash.epoch_unix_us,
        )?;
        let loss = dir.join("chaos_loss.journal.jsonl");
        self.loss
            .telemetry
            .journal
            .write_snapshot_file(&loss, "sim", self.loss.epoch_unix_us)?;
        Ok(vec![crash, loss])
    }

    /// The qualitative invariants this experiment must uphold.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let c = &self.crash;
        let l = &self.loss;
        vec![
            ShapeCheck::new(
                "chaos: supervisor recovered the crash",
                c.faults.crashes == 1 && c.faults.restarts == 1,
                format!("{}", c.faults),
            ),
            ShapeCheck::new(
                "chaos: source pacing re-converged within 10%",
                c.drift() < 0.10,
                format!(
                    "before {:.1} ms, after {:.1} ms ({:.1}% drift)",
                    c.period_before_us / 1e3,
                    c.period_after_us / 1e3,
                    c.drift() * 100.0
                ),
            ),
            ShapeCheck::new(
                "chaos: pipeline alive to the end of the run",
                c.last_output_us > c.duration_us * 9 / 10,
                format!("last output at {} of {}", c.last_output_us, c.duration_us),
            ),
            ShapeCheck::new(
                "chaos: stale source decays toward unpaced",
                l.rate_during > l.rate_before * 2.0,
                format!(
                    "{:.1}/s paced vs {:.1}/s stale",
                    l.rate_before, l.rate_during
                ),
            ),
            ShapeCheck::new(
                "chaos: pacing resumes when feedback returns",
                l.rate_after < l.rate_during / 2.0,
                format!(
                    "{:.1}/s stale vs {:.1}/s repaced",
                    l.rate_during, l.rate_after
                ),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_quick_shape_holds() {
        let p = ExpParams::quick();
        let crash = crash_sim(ControllerConfig::Direct, p.seeds[0], p.duration);
        let chaos = run(&p, &crash);
        for check in chaos.shape_checks() {
            assert!(check.passed, "{}: {}", check.name, check.detail);
        }
        let csv = chaos.to_csv();
        assert!(csv.contains("crash_recovery,1,1"));
        assert!(csv.lines().count() == 3);

        // The exporter-flush path: scenario markers, registry snapshots
        // (fault counters by kind, recovery latency), and fault reports.
        let dir = std::env::temp_dir().join(format!("aru-chaos-jsonl-{}", std::process::id()));
        let sink = ExportSink {
            prometheus_path: None,
            jsonl_path: Some(dir.join("chaos_telemetry.jsonl")),
        };
        chaos.export_jsonl(&sink).unwrap();
        let text = std::fs::read_to_string(dir.join("chaos_telemetry.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 6, "3 lines per scenario");
        assert!(text.contains("\"aru_faults_injected_total{kind=\\\"crash\\\"}\":1"));
        assert!(text.contains("\"aru_faults_injected_total{kind=\\\"drop_summaries\\\"}\":1"));
        assert!(text.contains("\"aru_restarts_total\":1"));
        assert!(text.contains("\"kind\":\"fault_report\""));

        // The journal + doctor path: the injected mid-run crash must be
        // visible in the persisted journal, and the doctor must name it
        // with its recovery latency (the PR's acceptance scenario).
        let paths = chaos.write_journals(&dir).unwrap();
        assert_eq!(paths.len(), 2);
        let crash_j = aru_metrics::load_journal(&paths[0]).unwrap();
        assert_eq!(crash_j.source, "sim");
        let d = crate::doctor::diagnose(&crash_j);
        assert!(d.has("crash"), "doctor findings: {:?}", d.findings);
        assert!(
            d.has("fault_injection"),
            "doctor findings: {:?}",
            d.findings
        );
        let crash_finding = d.findings.iter().find(|f| f.code == "crash").unwrap();
        assert!(
            crash_finding.message.contains("recovered"),
            "recovery latency surfaced: {}",
            crash_finding.message
        );
        let loss_j = aru_metrics::load_journal(&paths[1]).unwrap();
        let d = crate::doctor::diagnose(&loss_j);
        assert!(d.has("feedback_loss"), "doctor findings: {:?}", d.findings);
        std::fs::remove_dir_all(&dir).ok();
    }
}
