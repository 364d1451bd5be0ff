//! The color-based people tracker application (paper §4, Figure 5).
//!
//! *"A color-based people tracker application developed at Compaq CRL is
//! used to evaluate the performance benefit of the ARU algorithm. The
//! tracker has five tasks that are interconnected via Stampede channels:
//! (1) a Digitizer task that outputs digitized frames; (2) a Motion Mask or
//! Background task that computes the difference between the background and
//! the current image frame; (3) a Histogram task that constructs color
//! histogram of the current image; (4) a Target-Detection task that
//! analyzes each image for an object of interest using a color model; and
//! (5) a GUI task that continually displays the tracking result. Note that
//! there are two target-detection threads, where each thread tracks a
//! specific color model."*
//!
//! The original CRL tracker is not available; this crate reimplements it
//! (see DESIGN.md §2):
//!
//! * [`video`] — a synthetic digitizer: 640×384 RGB frames (737 280 B ≈
//!   the paper's 738 kB items) with two moving colored targets over a
//!   textured background, deterministic per `(seed, frame)`;
//! * [`kernels`] — real pixel kernels: background differencing (246 kB
//!   motion masks), color-histogram model construction (983 kB models),
//!   and histogram back-projection target detection (68 B location
//!   records — all sizes as reported in §5);
//! * [`graph`] — the 6-thread / 9-channel task graph of Figure 5, written
//!   down once as the [`graph::STAGES`] / [`graph::CHANNELS`] tables
//!   (names, edges and their order, join policies, item sizes, placement);
//! * [`app_sim`] — the table lowered onto the `desim` cluster simulator
//!   with service-time models calibrated to the paper's 2005 testbed
//!   regime, in both evaluation configurations (1 node / 5 nodes);
//! * [`app_threaded`] — the tracker on the `stampede` threaded runtime,
//!   computing for real in configuration 1: typed connections, names from
//!   the table,
//!   `tests/wiring.rs` holding the edges to it and `tests/differential.rs`
//!   the measured behaviour to the simulator's.
//!
//! These two lowerings of the one table are the only wirings of the
//! tracker. How a FIFO queue behaves on either backend (exactly-once
//! delivery, ARU backlog control, restarts) is stampede's to test, on its
//! own two-stage pipelines (`stampede/tests/pipeline.rs`).

pub mod app_sim;
pub mod app_threaded;
pub mod graph;
pub mod gui;
pub mod kernels;
pub mod model;
pub mod types;
pub mod video;

pub use app_sim::{build_sim, SimTrackerParams, TrackerConfigId};
pub use app_threaded::{build_threaded, ThreadedTrackerParams};
pub use graph::TrackerGraph;
pub use model::ColorModel;
pub use types::{Frame, HistModel, MotionMask, TargetLocation, FRAME_H, FRAME_W};
pub use video::SyntheticVideo;
