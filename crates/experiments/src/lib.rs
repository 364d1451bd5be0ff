//! Experiment harness: regenerates every table and figure of the ARU
//! paper's evaluation (§5) from the simulated tracker.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`cells`] | The `(config, mode, seed)` cell set Figures 6–10 are folded from, each cell simulated once |
//! | [`fig6`] | Figure 6 — mean/σ memory footprint vs IGC, both configs |
//! | [`fig7`] | Figure 7 — % wasted memory & computation |
//! | [`fig8_9`] | Figures 8/9 — footprint-vs-time series (4 panels each) |
//! | [`fig10`] | Figure 10 — latency / throughput / jitter |
//! | [`sweep`] | Sensitivity sweep: production ratio vs ARU benefit (extension) |
//! | [`chaos`] | Fault injection: crash-recovery & feedback loss (extension) |
//! | [`scale`] | Cluster-scale sweep: 10→1000 nodes on the calendar-queue engine (extension) |
//! | [`doctor`] | `repro doctor` — postmortem analysis of flight-recorder journals (extension) |
//! | [`tables`] | The paper's published numbers + shape checks |
//!
//! The binary `repro` drives everything:
//!
//! ```text
//! cargo run -p experiments --release --bin repro -- --exp all
//! ```

pub mod cells;
pub mod chaos;
pub mod config;
pub mod doctor;
pub mod driver;
pub mod fig10;
pub mod fig6;
pub mod fig7;
pub mod fig8_9;
pub mod scale;
pub mod stability;
pub mod sweep;
pub mod tables;
pub mod watch;

pub use config::{modes, ExpParams, Mode};
pub use tables::{paper, ShapeCheck};
