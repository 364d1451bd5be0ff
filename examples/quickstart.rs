//! Quickstart: a three-stage streaming pipeline with ARU feedback control.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds `camera → (frames) → analyzer → (results) → display`, runs it
//! twice — once without ARU (the producer floods and most frames are
//! wasted) and once with ARU-min (production locks to the consumer's
//! sustainable rate) — and prints the resource/performance comparison.

use stampede_aru::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn run(label: &str, aru: AruConfig) {
    let mut b = RuntimeBuilder::new(aru, GcMode::Dgc);

    // Channels are timestamped buffers: consumers ask for the *latest*
    // item, skipping stale ones — the paper's interactive-pipeline pattern.
    let frames = b.channel::<Vec<u8>>("frames");
    let results = b.channel::<Vec<u8>>("results");

    let camera = b.thread("camera");
    let analyzer = b.thread("analyzer");
    let display = b.thread("display");

    let out_frames = b.connect_out(camera, &frames).unwrap();
    let mut in_frames = b.connect_in(&frames, analyzer).unwrap();
    let out_results = b.connect_out(analyzer, &results).unwrap();
    let mut in_results = b.connect_in(&results, display).unwrap();

    let produced = Arc::new(AtomicU64::new(0));
    let produced2 = Arc::clone(&produced);

    // Camera: ~2 ms per frame — far faster than the pipeline can consume.
    let mut ts = Timestamp::ZERO;
    b.spawn(camera, move |ctx| {
        std::thread::sleep(Duration::from_millis(2));
        out_frames.put(ctx, ts, vec![0u8; 100_000])?;
        ts = ts.next();
        produced2.fetch_add(1, Ordering::Relaxed);
        Ok(Step::Continue)
    });

    // Analyzer: ~15 ms of work per frame.
    b.spawn(analyzer, move |ctx| {
        let frame = in_frames.get_latest(ctx)?;
        std::thread::sleep(Duration::from_millis(15));
        out_results.put(ctx, frame.ts, vec![0u8; 1_000])?;
        Ok(Step::Continue)
    });

    // Display: ~5 ms per result; this is the pipeline's sink.
    b.spawn(display, move |ctx| {
        let result = in_results.get_latest(ctx)?;
        std::thread::sleep(Duration::from_millis(5));
        ctx.emit_output(result.ts);
        Ok(Step::Continue)
    });

    let report = b
        .build()
        .expect("valid pipeline")
        .run_for(Micros::from_secs(2))
        .expect("clean run");

    let analysis = report.analyze();
    println!("--- {label} ---");
    println!(
        "  frames produced: {:>5}   displayed: {:>4}",
        produced.load(Ordering::Relaxed),
        report.outputs()
    );
    println!(
        "  wasted memory:   {:>5.1}%  wasted computation: {:>5.1}%",
        analysis.waste.pct_memory_wasted(),
        analysis.waste.pct_computation_wasted()
    );
    println!(
        "  mean footprint:  {:>6.1} kB (ideal bound {:.1} kB)",
        analysis.footprint.observed_summary().mean / 1000.0,
        analysis.igc.summary().mean / 1000.0
    );
    println!(
        "  throughput:      {:>5.1} fps   latency: {:.0} ms   jitter: {:.1} ms",
        analysis.perf.throughput_fps,
        analysis.perf.latency.mean / 1000.0,
        analysis.perf.jitter_us / 1000.0
    );
}

fn main() {
    println!("ARU quickstart: camera -> analyzer -> display\n");
    run(
        "No ARU (baseline: producer floods the pipeline)",
        AruConfig::disabled(),
    );
    println!();
    run(
        "ARU-min (production paced by summary-STP feedback)",
        AruConfig::aru_min(),
    );
    println!("\nWith ARU the camera produces only what downstream can use:");
    println!("wasted resources collapse while throughput is preserved.");
}
