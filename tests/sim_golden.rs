//! Golden traces: the simulator's output, pinned to constants.
//!
//! Every figure is a fold over `SimReport.trace`, so "the engine changed
//! nothing" is a statement about that event stream. Each cell below hashes
//! the whole stream, in order, and pins the hash next to the engine's own
//! counts; an engine change that is meant to be invisible passes this file
//! unmodified, and one that is not has to say so by editing a constant.
//! The constants were recorded at 4cd30af, before the DGC pass, the fault
//! plan and the release/purge paths were rewritten; `GOLDEN_TIES` at
//! 805da3c, before the DGC pass left the event queue.

use aru_core::{AruConfig, RetryPolicy};
use desim::{
    CostModel, FaultPlan, InputPolicy, NetModel, ServiceModel, Sim, SimBuilder, SimConfig,
    SimReport, TaskSpec,
};
use experiments::scale;
use std::fmt::Write;
use tracker::app_sim::run_sim;
use tracker::{SimTrackerParams, TrackerConfigId};
use vtime::Micros;

/// FNV-1a, fed through `fmt::Write` so an event's `Debug` rendering is
/// hashed without being built (`serde` here is a vendored stand-in; the
/// `Debug` text names every field of every variant).
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// What a cell is pinned to: trace hash, journal hash, trace length,
/// events dispatched, peak pending, sink outputs.
type Golden = (u64, u64, usize, u64, usize, usize);

fn fingerprint(r: &SimReport) -> Golden {
    let mut trace = Fnv(0xcbf2_9ce4_8422_2325);
    for e in r.trace.events() {
        writeln!(trace, "{e:?}").expect("hashing cannot fail");
    }
    let mut journal = Fnv(0xcbf2_9ce4_8422_2325);
    let snap = r.telemetry.journal.snapshot();
    writeln!(journal, "{} {}", snap.torn, snap.dropped).expect("hashing cannot fail");
    for rec in &snap.records {
        writeln!(journal, "{rec:?}").expect("hashing cannot fail");
    }
    (
        trace.0,
        journal.0,
        r.trace.events().len(),
        r.events_dispatched,
        r.peak_pending,
        r.outputs(),
    )
}

/// A paper cell: tracker configuration 1, ARU-min, 20 s virtual.
#[test]
fn tracker_config1_aru_min_20s() {
    let params = SimTrackerParams::new(AruConfig::aru_min(), TrackerConfigId::OneNode)
        .with_duration(Micros::from_secs(20));
    assert_eq!(fingerprint(&run_sim(&params)), GOLDEN_TRACKER);
}

/// The scale sweep's reference cell at 100 nodes (seeded crashes, 8-way
/// fan-out over a congested fabric: remote puts, restarts, stale wakes).
#[test]
fn scale_cell_100_nodes_500ms() {
    let sc = scale::bench_scenario(100, Micros::from_millis(500), 2005);
    let (b, cfg) = scale::build(&sc);
    let r = desim::Sim::run(b, cfg).expect("scale cell is valid");
    assert_eq!(fingerprint(&r), GOLDEN_SCALE);
}

/// Every fault kind at once on configuration 2 (five nodes, so link spikes
/// bite): overlapping summary-drop windows, overlapping link spikes, a
/// stall, a crash that is restarted, and faults naming a task that does
/// not exist (ignored, but the window faults are still counted).
#[test]
fn tracker_config2_under_every_fault_kind() {
    let ms = Micros::from_millis;
    let faults = FaultPlan::none()
        .drop_summaries("digitizer", ms(500), ms(1500))
        .drop_summaries("digitizer", ms(1200), ms(2200))
        .drop_summaries("histogram", ms(3000), ms(3500))
        .drop_summaries("no-such-task", ms(100), ms(4000))
        .link_spike(ms(1000), ms(2000), 3.0)
        .link_spike(ms(1500), ms(2500), 2.0)
        .volatile_link(ms(4000), ms(6000), ms(400), 4.0)
        .stall("target-det-1", ms(2600), ms(300))
        .stall("no-such-task", ms(2600), ms(300))
        .crash("change-detection", ms(3200))
        .crash("no-such-task", ms(3300))
        .seeded_crashes("target-det-2", 2, ms(5000), ms(7000), 7);
    let params = SimTrackerParams::new(AruConfig::aru_min(), TrackerConfigId::FiveNodes)
        .with_duration(Micros::from_secs(8))
        .with_faults(faults)
        .with_retry(RetryPolicy::default());
    assert_eq!(fingerprint(&run_sim(&params)), GOLDEN_CHAOS);
}

/// Same-instant ties between the DGC pass and the events it runs beside:
/// no noise, no contention, and every service time, skip and link latency
/// a multiple of the pass period, so passes land on the instants where
/// items arrive and computes finish. Only `(time, seq)` order separates
/// them.
#[test]
fn dgc_pass_ties_on_a_10ms_grid() {
    let grid = SimConfig::new(AruConfig::aru_min()).dgc_interval;
    let every = |k: u64| Micros(grid.0 * k);
    let spec = |k: u64, sink: bool| {
        let service = ServiceModel::new(every(k), 0.0);
        let mut s = if sink {
            TaskSpec::sink(service)
        } else {
            TaskSpec::new(service)
        };
        s.skip_overhead = grid;
        s
    };
    // Two sources ticking timestamps at different rates: `fuse` reads the
    // slow one without driving on it, so its skip bound (in the fast one's
    // timestamps) lets DGC free `sweeps` ahead of reference counting, and
    // when a pass runs decides what is left for `fuse` to read.
    let mut b = SimBuilder::new();
    let (near, far) = (b.node(2), b.node(2));
    let frames = b.channel("frames", far);
    let masks = b.channel("masks", far);
    let sweeps = b.channel("sweeps", far);
    let tracks = b.channel("tracks", near);
    let camera = b.task("camera", near, spec(1, false));
    let radar = b.task("radar", far, spec(5, false));
    let detect = b.task("detect", far, spec(3, false));
    let fuse = b.task("fuse", far, spec(2, false));
    let plot = b.task("plot", far, spec(2, false));
    let gui = b.task("gui", near, spec(4, true));
    for (task, chan, bytes) in [
        (camera, frames, 64_000),
        (radar, sweeps, 4_000),
        (detect, masks, 8_000),
        (fuse, tracks, 500),
    ] {
        b.output(task, chan, bytes).expect("output is valid");
    }
    for (task, chan, policy) in [
        (detect, frames, InputPolicy::DriverLatest),
        (fuse, masks, InputPolicy::DriverLatest),
        (fuse, frames, InputPolicy::JoinExact),
        (fuse, sweeps, InputPolicy::LatestOpt),
        (plot, sweeps, InputPolicy::DriverLatest),
        (gui, tracks, InputPolicy::DriverLatest),
    ] {
        b.input(task, chan, policy).expect("input is valid");
    }
    let mut cfg = SimConfig::new(AruConfig::disabled());
    cfg.cost = CostModel::ideal();
    cfg.net = NetModel {
        latency: every(2),
        bandwidth_bytes_per_us: f64::INFINITY,
    };
    cfg.duration = Micros::from_secs(3);
    let r = Sim::run(b, cfg).expect("cell is valid");
    assert_eq!(fingerprint(&r), GOLDEN_TIES);
}

const GOLDEN_TRACKER: Golden = (10631506002979642605, 4713643754787937410, 3733, 3397, 7, 81);
const GOLDEN_SCALE: Golden = (
    11909040125667504664,
    10993262101228312073,
    64879,
    35913,
    1419,
    8288,
);
const GOLDEN_CHAOS: Golden = (
    12992252258099789949,
    7345179184666444664,
    1587,
    1378,
    13,
    30,
);
const GOLDEN_TIES: Golden = (1671526787416243467, 4010521411438766087, 2333, 2238, 10, 72);
