//! The paper's other motivating workload (§1): *"a gesture recognition
//! module may need to analyze a sliding window over a video stream."*
//!
//! ```text
//! cargo run --release --example gesture_window
//! ```
//!
//! A camera streams motion-energy samples; a gesture recognizer analyzes a
//! sliding window of the last 8 samples per iteration (overlapping windows
//! — items are retained across iterations and only released once the window
//! has slid past them); recognized gestures go through a queue to a logger.
//! ARU paces the camera to the recognizer's sustainable period.

use stampede_aru::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WINDOW: usize = 8;

fn run(label: &str, aru: AruConfig) {
    let mut b = RuntimeBuilder::new(aru, GcMode::Dgc);
    let samples = b.channel::<Vec<u8>>("motion-samples");
    let gestures = b.queue::<Record<[f32; 4]>>("gestures");
    let camera = b.thread("camera");
    let recognizer = b.thread("recognizer");
    let logger = b.thread("logger");
    let out_samples = b.connect_out(camera, &samples).unwrap();
    let mut in_samples = b.connect_in(&samples, recognizer).unwrap();
    let mut out_gestures = b.connect_queue_out(recognizer, &gestures).unwrap();
    let mut in_gestures = b.connect_queue_in(&gestures, logger).unwrap();

    let produced = Arc::new(AtomicU64::new(0));
    let produced2 = Arc::clone(&produced);
    let mut ts = Timestamp::ZERO;
    b.spawn(camera, move |ctx| {
        // a motion-energy sample: tiny payload, 2 ms capture
        std::thread::sleep(Duration::from_millis(2));
        let sample = vec![(ts.raw() % 251) as u8; 4096];
        out_samples.put(ctx, ts, sample)?;
        ts = ts.next();
        produced2.fetch_add(1, Ordering::Relaxed);
        Ok(Step::Continue)
    });

    b.spawn(recognizer, move |ctx| {
        let window = in_samples.get_latest_window(ctx, WINDOW)?;
        // "analyze" the window: mean/max motion energy over time
        let mut energy = [0.0f32; 4];
        for (i, item) in window.iter().enumerate() {
            energy[i % 4] += item.value[0] as f32 / window.len() as f32;
        }
        std::thread::sleep(Duration::from_millis(12)); // recognition cost
        let newest = window.last().unwrap().ts;
        out_gestures.put(ctx, newest, Record(energy))?;
        Ok(Step::Continue)
    });

    b.spawn(logger, move |ctx| {
        let g = in_gestures.get(ctx)?;
        ctx.emit_output(g.ts);
        Ok(Step::Continue)
    });

    let report = b.build().unwrap().run_for(Micros::from_secs(2)).unwrap();
    let a = report.analyze();
    println!("--- {label} ---");
    println!(
        "  samples produced: {:>5}   gestures logged: {:>4}",
        produced.load(Ordering::Relaxed),
        report.outputs()
    );
    println!(
        "  wasted memory: {:>5.1}%   mean footprint: {:>6.1} kB",
        a.waste.pct_memory_wasted(),
        a.footprint.observed_summary().mean / 1000.0
    );
}

fn main() {
    println!("Sliding-window gesture pipeline (window = {WINDOW} samples)\n");
    run("No ARU", AruConfig::disabled());
    println!();
    run("ARU-min", AruConfig::aru_min());
    println!(
        "\nNote: with a sliding window the channel must retain the last {}
samples even under ARU — the footprint floor is the window itself.",
        WINDOW - 1
    );
}
