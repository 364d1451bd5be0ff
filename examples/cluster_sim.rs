//! The paper's cluster experiments in miniature: run the simulated tracker
//! in both configurations and all three modes, deterministically, in
//! seconds of wall time.
//!
//! ```text
//! cargo run --release --example cluster_sim -- [--secs N]
//! ```
//!
//! (The full table/figure reproduction lives in the `repro` binary:
//! `cargo run -p experiments --release --bin repro -- --exp all`.)

use stampede_aru::prelude::*;
use tracker::{SimTrackerParams, TrackerConfigId};

fn main() {
    let mut secs = 60u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--secs" {
            secs = args.next().and_then(|v| v.parse().ok()).expect("--secs N");
        }
    }
    println!("Simulated color tracker, {secs}s virtual runs (seed 2005)\n");
    println!(
        "{:<18} {:<9} {:>9} {:>11} {:>11} {:>9} {:>9}",
        "config", "mode", "fps", "latency ms", "mean MB", "% waste", "outputs"
    );
    for (config, cname) in [
        (TrackerConfigId::OneNode, "config-1 (1 node)"),
        (TrackerConfigId::FiveNodes, "config-2 (5 nodes)"),
    ] {
        for (mode, aru) in [
            ("No ARU", AruConfig::disabled()),
            ("ARU-min", AruConfig::aru_min()),
            ("ARU-max", AruConfig::aru_max()),
        ] {
            let params = SimTrackerParams::new(aru, config).with_duration(Micros::from_secs(secs));
            let report = tracker::app_sim::run_sim(&params);
            let a = report.analyze();
            println!(
                "{:<18} {:<9} {:>9.2} {:>11.0} {:>11.2} {:>9.1} {:>9}",
                cname,
                mode,
                a.perf.throughput_fps,
                a.perf.latency.mean / 1000.0,
                a.footprint.observed_summary().mean / 1e6,
                a.waste.pct_memory_wasted(),
                report.outputs()
            );
        }
    }
    // Per-stage view of one run (the §3.1 stage-rate picture).
    let params = SimTrackerParams::new(AruConfig::disabled(), TrackerConfigId::OneNode)
        .with_duration(Micros::from_secs(secs));
    let report = tracker::app_sim::run_sim(&params);
    println!(
        "\n{}",
        stampede_aru::metrics::thread_stats::render_thread_stats(
            &stampede_aru::metrics::thread_stats(
                &report.trace,
                &stampede_aru::metrics::Lineage::analyze(&report.trace),
            ),
            &report.topo
        )
    );
    println!(
        "Same seed -> bit-identical results. Try the full reproduction:\n\
         cargo run -p experiments --release --bin repro -- --exp all"
    );
}
