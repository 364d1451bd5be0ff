//! The paper's cell set: every `(config, mode, seed)` simulation behind
//! Figures 6–10, run exactly once.
//!
//! The paper instruments one set of executions and reads footprint
//! (Fig. 6), waste (Fig. 7), the footprint series (Figs. 8/9) and
//! latency/throughput/jitter (Fig. 10) out of the same postmortem trace.
//! [`run`] does the same: each cell goes through [`crate::driver`] once,
//! keeps the small reports the figures read and drops trace and lineage;
//! `Fig6`, `Fig7`, `Fig10` and `FigSeries` are folds over [`PaperCells`].
//!
//! Cell order is config-major, then mode (the paper's row order), then
//! seed in the order given — so [`PaperCells::of`] is one contiguous slice
//! per `(config, mode)` and every figure folds it seed-ascending, which is
//! what makes the aggregated statistics independent of which figures were
//! asked for and of how many worker threads ran the cells.

use crate::config::{modes, run_cell, Mode};
use aru_metrics::{PerfReport, WasteReport};
use tracker::TrackerConfigId;
use vtime::{Micros, OnlineStats, SimTime, Summary, TimeWeightedSeries};

/// The footprint step functions of one run (the Figure 8/9 panels).
#[derive(Debug, Clone)]
pub struct CellSeries {
    /// Observed live bytes over time.
    pub observed: TimeWeightedSeries,
    /// Ideal-GC live bytes over the same trace.
    pub igc: TimeWeightedSeries,
}

/// What the figures keep of one simulated run.
#[derive(Debug, Clone)]
pub struct Cell {
    pub config: TrackerConfigId,
    pub mode: Mode,
    pub seed: u64,
    pub t_end: SimTime,
    /// Time-weighted observed footprint (bytes).
    pub footprint: Summary,
    /// Time-weighted Ideal-GC footprint of the same trace (bytes).
    pub igc: Summary,
    pub waste: WasteReport,
    pub perf: PerfReport,
    /// Kept for the first seed only — Figures 8/9 plot one run.
    pub series: Option<CellSeries>,
}

/// One cell per `(config, mode, seed)`, in the module's documented order.
#[derive(Debug, Clone)]
pub struct PaperCells {
    configs: Vec<TrackerConfigId>,
    /// Seeds per `(config, mode)`: the length of each contiguous group.
    seeds: usize,
    cells: Vec<Cell>,
}

/// Simulate `configs × modes() × seeds` for `duration`, each cell once.
///
/// # Panics
/// If `seeds` is empty.
#[must_use]
pub fn run(duration: Micros, configs: &[TrackerConfigId], seeds: &[u64]) -> PaperCells {
    assert!(!seeds.is_empty(), "a cell set needs at least one seed");
    let mut jobs = Vec::with_capacity(configs.len() * modes().len() * seeds.len());
    for &config in configs {
        for mode in modes() {
            for (si, &seed) in seeds.iter().enumerate() {
                jobs.push(move || {
                    let report = run_cell(mode, config, seed, duration);
                    let a = report.analyze();
                    Cell {
                        config,
                        mode,
                        seed,
                        t_end: report.t_end,
                        footprint: a.footprint.observed_summary(),
                        igc: a.igc.summary(),
                        waste: a.waste,
                        perf: a.perf,
                        series: (si == 0).then_some(CellSeries {
                            observed: a.footprint.observed,
                            igc: a.igc.series,
                        }),
                    }
                });
            }
        }
    }
    PaperCells {
        configs: configs.to_vec(),
        seeds: seeds.len(),
        cells: crate::driver::run_jobs(jobs),
    }
}

impl PaperCells {
    /// The configurations simulated, in the order given to [`run`].
    #[must_use]
    pub fn configs(&self) -> &[TrackerConfigId] {
        &self.configs
    }

    /// Every cell, in the documented order.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cells of one `(config, mode)`, one per seed in seed order.
    ///
    /// # Panics
    /// If `config` is not part of this set.
    #[must_use]
    pub fn of(&self, config: TrackerConfigId, mode: Mode) -> &[Cell] {
        self.cells
            .chunks(self.seeds)
            .find(|group| group[0].config == config && group[0].mode == mode)
            .expect("config is part of this cell set")
    }

    /// Statistics of one per-cell quantity over the seeds of
    /// `(config, mode)`, accumulated in seed order.
    #[must_use]
    pub fn stats(
        &self,
        config: TrackerConfigId,
        mode: Mode,
        quantity: impl Fn(&Cell) -> f64,
    ) -> OnlineStats {
        let mut acc = OnlineStats::new();
        for cell in self.of(config, mode) {
            acc.push(quantity(cell));
        }
        acc
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{configs, ExpParams};
    use crate::fig8_9::FigSeries;
    use std::sync::OnceLock;

    /// The `--quick` cell set, simulated once for every test that asserts
    /// on a view of it.
    pub(crate) fn quick_cells() -> &'static PaperCells {
        static CELLS: OnceLock<PaperCells> = OnceLock::new();
        CELLS.get_or_init(|| {
            let p = ExpParams::quick();
            run(p.duration, &configs().map(|(c, _)| c), &p.seeds)
        })
    }

    #[test]
    fn cell_set_is_complete_and_ordered() {
        let cells = quick_cells();
        let seeds = ExpParams::quick().seeds;
        // Config-major, then mode in row order, then seed as given.
        let mut expected = Vec::new();
        for (config, _) in configs() {
            for mode in modes() {
                for &seed in &seeds {
                    expected.push((config, mode, seed));
                }
            }
        }
        let got: Vec<_> = cells
            .cells()
            .iter()
            .map(|c| (c.config, c.mode, c.seed))
            .collect();
        assert_eq!(got, expected);
        for c in cells.cells() {
            assert_eq!(c.series.is_some(), c.seed == seeds[0], "{c:?}");
        }
        for (config, _) in configs() {
            for mode in modes() {
                let slice = cells.of(config, mode);
                assert_eq!(slice.len(), seeds.len());
                assert!(slice.iter().all(|c| c.config == config && c.mode == mode));
            }
        }
    }

    #[test]
    fn lone_figure_equals_its_slice() {
        // What `--exp fig8` alone simulates: config 1 × first seed.
        let p = ExpParams::quick();
        let lone = run(p.duration, &[TrackerConfigId::OneNode], &p.seeds[..1]);
        assert_eq!(lone.cells().len(), modes().len());
        let from_lone = FigSeries::from_cells(&lone, TrackerConfigId::OneNode);
        let from_full = FigSeries::from_cells(quick_cells(), TrackerConfigId::OneNode);
        assert_eq!(from_lone.to_csv(400), from_full.to_csv(400));
        assert_eq!(
            from_lone.render_ascii(16, 48),
            from_full.render_ascii(16, 48)
        );
    }
}
