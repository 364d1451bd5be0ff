//! Figure 6: memory footprint of the tracker vs the Ideal Garbage
//! Collector, in both configurations.

use crate::cells::PaperCells;
use crate::config::{configs, csv_label, modes, Mode};
use crate::tables::{paper, ShapeCheck};
use aru_metrics::report::Table;
use tracker::TrackerConfigId;

const MB: f64 = 1_000_000.0;

/// One measured row.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    pub mode: &'static str,
    pub config: TrackerConfigId,
    pub mean_mb: f64,
    pub std_mb: f64,
    pub pct_wrt_igc: f64,
}

/// The full Figure-6 result.
#[derive(Debug, Clone, Default)]
pub struct Fig6 {
    pub rows: Vec<Fig6Row>,
    /// IGC reference per config: (mean MB, σ MB), from the No-ARU trace
    /// (the paper's "postmortem analysis of the execution trace").
    pub igc: Vec<(TrackerConfigId, f64, f64)>,
}

impl Fig6 {
    /// Fold Figure 6 out of the cell set. The paper reports "average
    /// statistics over successive execution runs": every row is averaged
    /// over all seeds, and the IGC reference is the postmortem of the
    /// baseline (No-ARU) cells.
    #[must_use]
    pub fn from_cells(cells: &PaperCells) -> Fig6 {
        let mut out = Fig6::default();
        for &config in cells.configs() {
            let igc_mean = cells.stats(config, Mode::NoAru, |c| c.igc.mean / MB).mean();
            let igc_std = cells
                .stats(config, Mode::NoAru, |c| c.igc.std_dev / MB)
                .mean();
            out.igc.push((config, igc_mean, igc_std));
            for mode in modes() {
                let mean_mb = cells.stats(config, mode, |c| c.footprint.mean / MB).mean();
                out.rows.push(Fig6Row {
                    mode: mode.label(),
                    config,
                    mean_mb,
                    std_mb: cells
                        .stats(config, mode, |c| c.footprint.std_dev / MB)
                        .mean(),
                    pct_wrt_igc: if igc_mean > 0.0 {
                        100.0 * mean_mb / igc_mean
                    } else {
                        0.0
                    },
                });
            }
        }
        out
    }

    /// Render in the paper's format, with the paper's values alongside.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (ci, (config, cname)) in configs().iter().enumerate() {
            let mut t = Table::new(
                format!("Figure 6 — memory footprint, {cname}"),
                &[
                    "mode",
                    "STD (MB)",
                    "mean (MB)",
                    "% wrt IGC",
                    "paper mean",
                    "paper %",
                ],
            );
            for (mi, row) in self.rows.iter().filter(|r| r.config == *config).enumerate() {
                t.row(vec![
                    row.mode.to_string(),
                    format!("{:.2}", row.std_mb),
                    format!("{:.2}", row.mean_mb),
                    format!("{:.0}", row.pct_wrt_igc),
                    format!("{:.2}", paper::FIG6_MEAN_MB[ci][mi]),
                    format!("{:.0}", paper::FIG6_PCT_IGC[ci][mi]),
                ]);
            }
            if let Some(&(_, mean, std)) = self.igc.iter().find(|(c, _, _)| c == config) {
                t.row(vec![
                    "IGC".into(),
                    format!("{std:.2}"),
                    format!("{mean:.2}"),
                    "100".into(),
                    format!("{:.2}", paper::FIG6_IGC[ci].0),
                    "100".into(),
                ]);
            }
            s.push_str(&t.render());
            s.push('\n');
        }
        s
    }

    /// Machine-readable CSV (one row per mode×config plus IGC rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut s = String::from("config,mode,std_mb,mean_mb,pct_wrt_igc\n");
        for row in &self.rows {
            s.push_str(&format!(
                "{},{},{:.4},{:.4},{:.2}\n",
                csv_label(row.config),
                row.mode,
                row.std_mb,
                row.mean_mb,
                row.pct_wrt_igc
            ));
        }
        for &(config, mean, std) in &self.igc {
            let cfg = csv_label(config);
            s.push_str(&format!("{cfg},IGC,{std:.4},{mean:.4},100.00\n"));
        }
        s
    }

    /// The paper-shape invariants for this table.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        for (config, cname) in configs() {
            let rows: Vec<&Fig6Row> = self.rows.iter().filter(|r| r.config == config).collect();
            let igc = self
                .igc
                .iter()
                .find(|(c, _, _)| *c == config)
                .map(|&(_, m, _)| m)
                .unwrap_or(0.0);
            if rows.len() == 3 {
                checks.push(ShapeCheck::new(
                    format!("fig6 {cname}: footprint No-ARU > ARU-min > ARU-max"),
                    rows[0].mean_mb > rows[1].mean_mb && rows[1].mean_mb > rows[2].mean_mb,
                    format!(
                        "{:.2} > {:.2} > {:.2} MB",
                        rows[0].mean_mb, rows[1].mean_mb, rows[2].mean_mb
                    ),
                ));
                checks.push(ShapeCheck::new(
                    format!("fig6 {cname}: ARU cuts footprint by ≥ half"),
                    rows[2].mean_mb < rows[0].mean_mb / 2.0,
                    format!(
                        "max {:.2} vs baseline {:.2} MB",
                        rows[2].mean_mb, rows[0].mean_mb
                    ),
                ));
                checks.push(ShapeCheck::new(
                    format!("fig6 {cname}: baseline far above IGC"),
                    rows[0].mean_mb > igc * 2.0,
                    format!("baseline {:.2} vs IGC {igc:.2} MB", rows[0].mean_mb),
                ));
            }
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_quick_run_has_paper_shape() {
        let fig = Fig6::from_cells(crate::cells::tests::quick_cells());
        assert_eq!(fig.rows.len(), 6);
        assert_eq!(fig.igc.len(), 2);
        let checks = fig.shape_checks();
        for c in &checks {
            assert!(c.passed, "{} — {}", c.name, c.detail);
        }
        let rendered = fig.render();
        assert!(rendered.contains("Figure 6"));
        assert!(rendered.contains("ARU-max"));
        assert!(rendered.contains("IGC"));
    }
}
