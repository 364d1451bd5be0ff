//! Shared experiment configuration.

use aru_core::AruConfig;
use desim::SimReport;
use tracker::{SimTrackerParams, TrackerConfigId};
use vtime::Micros;

/// The three evaluated modes, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    NoAru,
    AruMin,
    AruMax,
}

impl Mode {
    /// The paper's row label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::NoAru => "No ARU",
            Mode::AruMin => "ARU-min",
            Mode::AruMax => "ARU-max",
        }
    }

    /// The ARU configuration for this mode.
    #[must_use]
    pub fn aru(self) -> AruConfig {
        match self {
            Mode::NoAru => AruConfig::disabled(),
            Mode::AruMin => AruConfig::aru_min(),
            Mode::AruMax => AruConfig::aru_max(),
        }
    }
}

/// All modes in row order.
#[must_use]
pub fn modes() -> [Mode; 3] {
    [Mode::NoAru, Mode::AruMin, Mode::AruMax]
}

/// Both configurations in the paper's column order.
#[must_use]
pub fn configs() -> [(TrackerConfigId, &'static str); 2] {
    [
        (TrackerConfigId::OneNode, "Config 1: 1 node"),
        (TrackerConfigId::FiveNodes, "Config 2: 5 nodes"),
    ]
}

/// The `config` column of the figure CSVs.
#[must_use]
pub(crate) fn csv_label(config: TrackerConfigId) -> &'static str {
    match config {
        TrackerConfigId::OneNode => "1node",
        TrackerConfigId::FiveNodes => "5nodes",
    }
}

/// Experiment-wide parameters.
#[derive(Debug, Clone)]
pub struct ExpParams {
    /// Virtual run length (paper: ~200 s).
    pub duration: Micros,
    /// Seeds; Figure 10 reports mean/σ "over successive execution runs".
    pub seeds: Vec<u64>,
}

impl Default for ExpParams {
    fn default() -> Self {
        ExpParams {
            duration: Micros::from_secs(200),
            seeds: vec![2005, 2006, 2007, 2008, 2009],
        }
    }
}

impl ExpParams {
    /// A fast variant for tests and `--quick` (30 s, 2 seeds).
    #[must_use]
    pub fn quick() -> Self {
        ExpParams {
            duration: Micros::from_secs(30),
            seeds: vec![2005, 2006],
        }
    }
}

/// Run one experiment cell.
#[must_use]
pub fn run_cell(mode: Mode, config: TrackerConfigId, seed: u64, duration: Micros) -> SimReport {
    let params = SimTrackerParams::new(mode.aru(), config)
        .with_seed(seed)
        .with_duration(duration);
    tracker::app_sim::run_sim(&params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::NoAru.label(), "No ARU");
        assert_eq!(Mode::AruMin.label(), "ARU-min");
        assert_eq!(Mode::AruMax.label(), "ARU-max");
        assert!(!Mode::NoAru.aru().enabled);
        assert!(Mode::AruMin.aru().enabled);
    }

    #[test]
    fn quick_params_are_short() {
        let q = ExpParams::quick();
        assert!(q.duration < ExpParams::default().duration);
        assert_eq!(q.seeds.len(), 2);
    }
}
