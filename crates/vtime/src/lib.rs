//! Virtual-time substrate for the Stampede/ARU reproduction.
//!
//! Streaming pipelines in the ARU paper index every data item by a
//! *timestamp* — a point in the application's virtual time (usually a frame
//! number). This crate provides:
//!
//! * [`Timestamp`] — the virtual-time index attached to every item,
//! * [`SimTime`] / [`Micros`] — physical (wall or simulated) time in
//!   microseconds, matching the paper's measurement granularity,
//! * [`Clock`] — a pluggable time source so the same runtime code can run on
//!   the wall clock (threaded runtime) or on a manually-advanced clock
//!   (discrete-event simulator),
//! * [`TimeWeightedSeries`] — the time-weighted mean/σ integrals the paper
//!   uses to summarize the application memory footprint (its `MUμ`/`MUσ`),
//! * [`TsStore`] — the timestamp-indexed ring+spill item store behind both
//!   the threaded and the simulated channel.

pub mod clock;
pub mod series;
pub mod stats;
pub mod store;
pub mod timestamp;

pub use clock::{Clock, ManualClock, WallClock};
pub use series::TimeWeightedSeries;
pub use stats::{OnlineStats, Summary};
pub use store::TsStore;
pub use timestamp::{Micros, SimTime, Timestamp};
