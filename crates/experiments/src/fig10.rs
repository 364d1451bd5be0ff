//! Figure 10: latency, throughput and jitter of the tracker
//! ("average statistics over successive execution runs" — we run every
//! seed in `ExpParams::seeds` and report mean/σ across runs).

use crate::cells::PaperCells;
use crate::config::{configs, csv_label, modes};
use crate::tables::{paper, ShapeCheck};
use aru_metrics::report::Table;
use tracker::TrackerConfigId;

/// One measured row (aggregated over seeds).
#[derive(Debug, Clone)]
pub struct Fig10Row {
    pub mode: &'static str,
    pub config: TrackerConfigId,
    pub fps_mean: f64,
    pub fps_std: f64,
    pub latency_ms_mean: f64,
    pub latency_ms_std: f64,
    pub jitter_ms: f64,
}

/// The full Figure-10 result.
#[derive(Debug, Clone, Default)]
pub struct Fig10 {
    pub rows: Vec<Fig10Row>,
}

impl Fig10 {
    /// Fold Figure 10 out of the cell set: mean/σ across the seeds.
    #[must_use]
    pub fn from_cells(cells: &PaperCells) -> Fig10 {
        let mut out = Fig10::default();
        for &config in cells.configs() {
            for mode in modes() {
                let fps = cells.stats(config, mode, |c| c.perf.throughput_fps);
                let lat = cells.stats(config, mode, |c| c.perf.latency.mean / 1000.0);
                let jit = cells.stats(config, mode, |c| c.perf.jitter_us / 1000.0);
                out.rows.push(Fig10Row {
                    mode: mode.label(),
                    config,
                    fps_mean: fps.mean(),
                    fps_std: fps.std_dev(),
                    latency_ms_mean: lat.mean(),
                    latency_ms_std: lat.std_dev(),
                    jitter_ms: jit.mean(),
                });
            }
        }
        out
    }

    /// Render with paper values alongside.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (ci, (config, cname)) in configs().iter().enumerate() {
            let mut t = Table::new(
                format!("Figure 10 — performance, {cname}"),
                &[
                    "mode",
                    "fps mean",
                    "fps STD",
                    "latency ms",
                    "lat STD",
                    "jitter ms",
                    "paper fps",
                    "paper lat",
                    "paper jit",
                ],
            );
            for (mi, row) in self.rows.iter().filter(|r| r.config == *config).enumerate() {
                t.row(vec![
                    row.mode.to_string(),
                    format!("{:.2}", row.fps_mean),
                    format!("{:.2}", row.fps_std),
                    format!("{:.0}", row.latency_ms_mean),
                    format!("{:.0}", row.latency_ms_std),
                    format!("{:.0}", row.jitter_ms),
                    format!("{:.2}", paper::FIG10_FPS[ci][mi]),
                    format!("{:.0}", paper::FIG10_LATENCY_MS[ci][mi]),
                    format!("{:.0}", paper::FIG10_JITTER_MS[ci][mi]),
                ]);
            }
            s.push_str(&t.render());
            s.push('\n');
        }
        s
    }

    /// Machine-readable CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s =
            String::from("config,mode,fps_mean,fps_std,latency_ms_mean,latency_ms_std,jitter_ms\n");
        for row in &self.rows {
            s.push_str(&format!(
                "{},{},{:.4},{:.4},{:.3},{:.3},{:.3}\n",
                csv_label(row.config),
                row.mode,
                row.fps_mean,
                row.fps_std,
                row.latency_ms_mean,
                row.latency_ms_std,
                row.jitter_ms
            ));
        }
        s
    }

    fn rows_for(&self, config: TrackerConfigId) -> Vec<&Fig10Row> {
        self.rows.iter().filter(|r| r.config == config).collect()
    }

    /// Paper-shape invariants (the §5.2 narrative).
    #[must_use]
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        for (config, cname) in configs() {
            let rows = self.rows_for(config);
            if rows.len() != 3 {
                continue;
            }
            let (no, min, max) = (rows[0], rows[1], rows[2]);
            checks.push(ShapeCheck::new(
                format!("fig10 {cname}: ARU-max cuts latency vs baseline"),
                max.latency_ms_mean < no.latency_ms_mean,
                format!(
                    "{:.0} ms vs {:.0} ms",
                    max.latency_ms_mean, no.latency_ms_mean
                ),
            ));
            checks.push(ShapeCheck::new(
                format!("fig10 {cname}: ARU-min throughput >= ARU-max"),
                min.fps_mean >= max.fps_mean * 0.98,
                format!("{:.2} vs {:.2} fps", min.fps_mean, max.fps_mean),
            ));
            checks.push(ShapeCheck::new(
                format!("fig10 {cname}: throughput stays in the paper's 3-5 fps band"),
                rows.iter().all(|r| r.fps_mean > 2.0 && r.fps_mean < 7.0),
                format!(
                    "{:.2} / {:.2} / {:.2} fps",
                    no.fps_mean, min.fps_mean, max.fps_mean
                ),
            ));
        }
        // Config 1: baseline throughput suffers from wasted work.
        let c1 = self.rows_for(TrackerConfigId::OneNode);
        if c1.len() == 3 {
            checks.push(ShapeCheck::new(
                "fig10 config 1: No-ARU throughput below ARU-min (wasted work steals cycles)",
                c1[0].fps_mean < c1[1].fps_mean,
                format!("{:.2} vs {:.2} fps", c1[0].fps_mean, c1[1].fps_mean),
            ));
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_quick_run_has_paper_shape() {
        let fig = Fig10::from_cells(crate::cells::tests::quick_cells());
        assert_eq!(fig.rows.len(), 6);
        for c in fig.shape_checks() {
            assert!(c.passed, "{} — {}", c.name, c.detail);
        }
        assert!(fig.render().contains("Figure 10"));
    }
}
