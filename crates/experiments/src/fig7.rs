//! Figure 7: wasted memory footprint and wasted computation.

use crate::cells::PaperCells;
use crate::config::{configs, csv_label, modes};
use crate::tables::{paper, ShapeCheck};
use aru_metrics::report::Table;
use tracker::TrackerConfigId;

/// One measured row.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    pub mode: &'static str,
    pub config: TrackerConfigId,
    pub pct_mem_wasted: f64,
    pub pct_comp_wasted: f64,
}

/// The full Figure-7 result.
#[derive(Debug, Clone, Default)]
pub struct Fig7 {
    pub rows: Vec<Fig7Row>,
}

impl Fig7 {
    /// Fold Figure 7 out of the cell set, averaging each row over all
    /// seeds.
    #[must_use]
    pub fn from_cells(cells: &PaperCells) -> Fig7 {
        let mut out = Fig7::default();
        for &config in cells.configs() {
            for mode in modes() {
                out.rows.push(Fig7Row {
                    mode: mode.label(),
                    config,
                    pct_mem_wasted: cells
                        .stats(config, mode, |c| c.waste.pct_memory_wasted())
                        .mean(),
                    pct_comp_wasted: cells
                        .stats(config, mode, |c| c.waste.pct_computation_wasted())
                        .mean(),
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
                format!("Figure 7 — wasted resources, {cname}"),
                &[
                    "mode",
                    "% mem wasted",
                    "% comp wasted",
                    "paper mem",
                    "paper comp",
                ],
            );
            for (mi, row) in self.rows.iter().filter(|r| r.config == *config).enumerate() {
                t.row(vec![
                    row.mode.to_string(),
                    format!("{:.1}", row.pct_mem_wasted),
                    format!("{:.1}", row.pct_comp_wasted),
                    format!("{:.1}", paper::FIG7_MEM_WASTED[ci][mi]),
                    format!("{:.1}", paper::FIG7_COMP_WASTED[ci][mi]),
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
        let mut s = String::from("config,mode,pct_mem_wasted,pct_comp_wasted\n");
        for row in &self.rows {
            s.push_str(&format!(
                "{},{},{:.3},{:.3}\n",
                csv_label(row.config),
                row.mode,
                row.pct_mem_wasted,
                row.pct_comp_wasted
            ));
        }
        s
    }

    /// Paper-shape invariants.
    #[must_use]
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        for (config, cname) in configs() {
            let rows: Vec<&Fig7Row> = self.rows.iter().filter(|r| r.config == config).collect();
            if rows.len() == 3 {
                checks.push(ShapeCheck::new(
                    format!("fig7 {cname}: mem waste No-ARU > ARU-min > ARU-max"),
                    rows[0].pct_mem_wasted > rows[1].pct_mem_wasted
                        && rows[1].pct_mem_wasted >= rows[2].pct_mem_wasted,
                    format!(
                        "{:.1} > {:.1} >= {:.1} %",
                        rows[0].pct_mem_wasted, rows[1].pct_mem_wasted, rows[2].pct_mem_wasted
                    ),
                ));
                checks.push(ShapeCheck::new(
                    format!("fig7 {cname}: baseline wastes most of its memory"),
                    rows[0].pct_mem_wasted > 40.0,
                    format!("{:.1}% wasted", rows[0].pct_mem_wasted),
                ));
                checks.push(ShapeCheck::new(
                    format!("fig7 {cname}: ARU directs almost all memory to useful work"),
                    rows[2].pct_mem_wasted < 15.0,
                    format!("ARU-max wastes {:.1}%", rows[2].pct_mem_wasted),
                ));
                checks.push(ShapeCheck::new(
                    format!("fig7 {cname}: computation waste follows the same ordering"),
                    rows[0].pct_comp_wasted > rows[2].pct_comp_wasted,
                    format!(
                        "{:.1}% vs {:.1}%",
                        rows[0].pct_comp_wasted, rows[2].pct_comp_wasted
                    ),
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
    fn fig7_quick_run_has_paper_shape() {
        let fig = Fig7::from_cells(crate::cells::tests::quick_cells());
        assert_eq!(fig.rows.len(), 6);
        for c in fig.shape_checks() {
            assert!(c.passed, "{} — {}", c.name, c.detail);
        }
        assert!(fig.render().contains("Figure 7"));
    }
}
