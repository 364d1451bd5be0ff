//! Figures 8 and 9: memory footprint of the tracker as a function of time,
//! four panels per configuration — IGC, ARU-max, ARU-min, No-ARU — all on
//! the same scale.
//!
//! Output: a long-format CSV (`label,t_us,value`) plottable with any tool,
//! plus ASCII plots for terminal inspection.

use crate::cells::PaperCells;
use crate::config::Mode;
use crate::tables::ShapeCheck;
use aru_metrics::report::{ascii_plot, series_csv};
use aru_metrics::IGC_LABEL;
use tracker::TrackerConfigId;
use vtime::{SimTime, TimeWeightedSeries};

/// The four panels of one figure.
#[derive(Debug, Clone)]
pub struct FigSeries {
    pub config: TrackerConfigId,
    /// Panel label → footprint series, in the paper's panel order.
    pub panels: Vec<(String, TimeWeightedSeries)>,
    pub t_end: SimTime,
}

impl FigSeries {
    /// Figure 8 (config 1) or Figure 9 (config 2) out of the cell set: the
    /// first seed's run per mode, the IGC panel from the No-ARU baseline's
    /// trace.
    #[must_use]
    pub fn from_cells(cells: &PaperCells, config: TrackerConfigId) -> FigSeries {
        // The first seed's run is the one that kept its series.
        let run = |mode: Mode| &cells.of(config, mode)[0];
        let series = |mode: Mode| {
            run(mode)
                .series
                .as_ref()
                .expect("first seed keeps its series")
        };
        let observed = |mode: Mode| (mode.label().to_string(), series(mode).observed.clone());
        FigSeries {
            config,
            panels: vec![
                (IGC_LABEL.to_string(), series(Mode::NoAru).igc.clone()),
                observed(Mode::AruMax),
                observed(Mode::AruMin),
                observed(Mode::NoAru),
            ],
            t_end: run(Mode::NoAru).t_end,
        }
    }

    /// 8 or 9.
    fn fig_no(&self) -> u32 {
        match self.config {
            TrackerConfigId::OneNode => 8,
            TrackerConfigId::FiveNodes => 9,
        }
    }

    /// Long-format CSV of all four panels (downsampled to `buckets` rows
    /// per panel).
    #[must_use]
    pub fn to_csv(&self, buckets: usize) -> String {
        let refs: Vec<(&str, &TimeWeightedSeries)> =
            self.panels.iter().map(|(l, s)| (l.as_str(), s)).collect();
        series_csv(&refs, self.t_end, buckets)
    }

    /// ASCII rendering of all four panels.
    #[must_use]
    pub fn render_ascii(&self, rows: usize, cols: usize) -> String {
        let mut s = format!("Figure {} — footprint vs time (bytes)\n", self.fig_no());
        for (label, series) in &self.panels {
            s.push_str(&ascii_plot(label, series, self.t_end, rows, cols));
        }
        s
    }

    /// Shape checks: the panels' time-averaged levels must be ordered
    /// IGC <= ARU-max < ARU-min < No-ARU (the visual of Figures 8/9).
    #[must_use]
    pub fn shape_checks(&self) -> Vec<ShapeCheck> {
        let mean = |s: &TimeWeightedSeries| s.weighted_summary(self.t_end).mean;
        let lvl: Vec<f64> = self.panels.iter().map(|(_, s)| mean(s)).collect();
        let name = format!("fig{}", self.fig_no());
        // Panel order is [IGC, ARU-max, ARU-min, No-ARU]. The paper's
        // visual: No-ARU towers above everything; ARU-min sits between;
        // ARU-max hugs the ideal line. (Whether ARU-max lands slightly
        // above or slightly below the *baseline trace's* IGC depends on how
        // much in-flight buffering the testbed has — ARU-max shortens
        // birth-to-use intervals, which ideal *collection* cannot; see
        // EXPERIMENTS.md.)
        vec![
            ShapeCheck::new(
                format!("{name}: panel levels ordered ARU-max < ARU-min < No-ARU, IGC below min"),
                lvl[1] < lvl[2] && lvl[2] < lvl[3] && lvl[0] < lvl[2] && lvl[0] < lvl[3],
                format!(
                    "IGC {:.2e}, max {:.2e}, min {:.2e}, none {:.2e}",
                    lvl[0], lvl[1], lvl[2], lvl[3]
                ),
            ),
            ShapeCheck::new(
                format!("{name}: ARU-max hugs the ideal line (within 2x either side)"),
                lvl[1] > lvl[0] * 0.5 && lvl[1] < lvl[0] * 2.0,
                format!("max {:.2e} vs IGC {:.2e}", lvl[1], lvl[0]),
            ),
            ShapeCheck::new(
                format!("{name}: No-ARU fluctuates more than ARU-max (σ)"),
                {
                    let sd = |i: usize| self.panels[i].1.weighted_summary(self.t_end).std_dev;
                    sd(3) > sd(1)
                },
                "σ(No-ARU) > σ(ARU-max)".to_string(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_quick_run_has_paper_shape() {
        let fig =
            FigSeries::from_cells(crate::cells::tests::quick_cells(), TrackerConfigId::OneNode);
        assert_eq!(fig.panels.len(), 4);
        for c in fig.shape_checks() {
            assert!(c.passed, "{} — {}", c.name, c.detail);
        }
        let csv = fig.to_csv(50);
        assert!(csv.lines().count() > 4 * 10, "CSV too small");
        assert!(csv.contains("IGC,"));
        assert!(csv.contains("No ARU,"));
        let ascii = fig.render_ascii(10, 40);
        assert!(ascii.contains("Figure 8"));
    }
}
