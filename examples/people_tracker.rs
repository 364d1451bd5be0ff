//! The paper's evaluation application, live: the color-based people
//! tracker running on the threaded Stampede-like runtime with real vision
//! kernels over synthetic video.
//!
//! ```text
//! cargo run --release --example people_tracker -- [--no-aru|--min|--max] [--secs N]
//! ```
//!
//! Prints the Figure-5 task graph, runs the 6-thread/9-channel pipeline,
//! renders a small ASCII "GUI" of the two tracked targets against ground
//! truth, and ends with the paper's resource/performance metrics.

use stampede_aru::prelude::*;
use tracker::gui::render_tracking;
use tracker::{build_threaded, ThreadedTrackerParams, TrackerGraph};

fn main() {
    let mut aru = AruConfig::aru_min();
    let mut label = "ARU-min";
    let mut secs = 3u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--no-aru" => {
                aru = AruConfig::disabled();
                label = "No ARU";
            }
            "--min" => {
                aru = AruConfig::aru_min();
                label = "ARU-min";
            }
            "--max" => {
                aru = AruConfig::aru_max();
                label = "ARU-max";
            }
            "--secs" => {
                secs = args.next().and_then(|v| v.parse().ok()).expect("--secs N");
            }
            other => {
                eprintln!("unknown arg {other}; use --no-aru|--min|--max, --secs N");
                std::process::exit(2);
            }
        }
    }

    println!("Color-based people tracker (paper Figure 5), mode: {label}\n");
    println!("{}", TrackerGraph::render());

    let params = ThreadedTrackerParams::new(aru);
    let tracker = build_threaded(&params).expect("tracker builds");
    let video = tracker.video.clone();
    println!("running for {secs}s of wall time…\n");
    let report = tracker
        .runtime
        .run_for(Micros::from_secs(secs))
        .expect("clean run");

    // ASCII "GUI": final detected positions vs ground truth.
    let dets = tracker.detections.lock();
    println!("last tracked positions ('1'/'2' = detections, '+' = ground truth):");
    print!("{}", render_tracking(&dets, &video, 64, 16));

    let analysis = report.analyze();
    println!("\n--- run metrics ({label}) ---");
    println!("  frames displayed:    {}", report.outputs());
    println!(
        "  detections recorded: {} ({} positive)",
        dets.len(),
        dets.iter().filter(|d| d.found == 1).count()
    );
    println!(
        "  wasted memory:       {:.1}%   wasted computation: {:.1}%",
        analysis.waste.pct_memory_wasted(),
        analysis.waste.pct_computation_wasted()
    );
    println!(
        "  mean footprint:      {:.2} MB (ideal bound {:.2} MB)",
        analysis.footprint.observed_summary().mean / 1e6,
        analysis.igc.summary().mean / 1e6
    );
    println!(
        "  throughput:          {:.1} fps   latency {:.0} ms   jitter {:.1} ms",
        analysis.perf.throughput_fps,
        analysis.perf.latency.mean / 1000.0,
        analysis.perf.jitter_us / 1000.0
    );
}
