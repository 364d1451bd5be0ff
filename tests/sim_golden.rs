//! Golden traces: the simulator's output, pinned to constants.
//!
//! Every figure is a fold over `SimReport.trace`, so "the engine changed
//! nothing" is a statement about that event stream. Each cell below hashes
//! the whole stream, in order, and pins the hash next to the engine's own
//! counts; an engine change that is meant to be invisible passes this file
//! unmodified, and one that is not has to say so by editing a constant.
//! The constants were recorded at 4cd30af, before the DGC pass, the fault
//! plan and the release/purge paths were rewritten.

use aru_core::{AruConfig, RetryPolicy};
use desim::{FaultPlan, SimReport};
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
