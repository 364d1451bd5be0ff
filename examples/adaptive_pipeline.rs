//! Adaptation in action: a consumer whose cost *changes mid-run*, and a
//! fan-out where the compress operator decides which consumer the producer
//! sustains.
//!
//! ```text
//! cargo run --release --example adaptive_pipeline
//! ```
//!
//! Part 1 — load step: the analyzer's per-frame cost triples halfway
//! through the run; the summary-STP feedback re-paces the camera within one
//! pipeline latency (watch the production-rate trace).
//!
//! Part 2 — min vs max: one producer feeds a fast preview consumer and a
//! slow archival consumer. `CompressOp::Min` sustains the fast one;
//! `CompressOp::Max` (legal here if only the archive matters) throttles to
//! the slow one.

use stampede_aru::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn load_step_demo() {
    println!("== Part 1: load step (analyzer cost 10 ms -> 30 ms at t=1.5s) ==");
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
    let frames = b.channel::<Vec<u8>>("frames");
    let camera = b.thread("camera");
    let analyzer = b.thread("analyzer");
    let out = b.connect_out(camera, &frames).unwrap();
    let mut inp = b.connect_in(&frames, analyzer).unwrap();

    let produced = Arc::new(AtomicU64::new(0));
    let produced2 = Arc::clone(&produced);
    let mut ts = Timestamp::ZERO;
    b.spawn(camera, move |ctx| {
        std::thread::sleep(Duration::from_millis(1));
        out.put(ctx, ts, vec![0u8; 50_000])?;
        ts = ts.next();
        produced2.fetch_add(1, Ordering::Relaxed);
        Ok(Step::Continue)
    });

    let start = Instant::now();
    b.spawn(analyzer, move |ctx| {
        let item = inp.get_latest(ctx)?;
        let cost = if start.elapsed() > Duration::from_millis(1500) {
            30
        } else {
            10
        };
        std::thread::sleep(Duration::from_millis(cost));
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });

    let running = b.build().unwrap().start();
    // Sample the camera's production rate every 500 ms.
    let mut last = 0u64;
    for i in 1..=6 {
        std::thread::sleep(Duration::from_millis(500));
        let now_total = produced.load(Ordering::Relaxed);
        let rate = (now_total - last) as f64 / 0.5;
        println!(
            "  t={:.1}s  camera rate: {:>5.1} items/s   (analyzer period {} ms)",
            i as f64 * 0.5,
            rate,
            if i * 500 > 1500 { 30 } else { 10 }
        );
        last = now_total;
    }
    let report = running.stop().unwrap();
    let waste = report.analyze().waste;
    println!(
        "  final waste: {:.1}% memory — the camera tracked both operating points\n",
        waste.pct_memory_wasted()
    );
}

fn min_vs_max_demo() {
    println!("== Part 2: fan-out, CompressOp::Min vs CompressOp::Max ==");
    for (name, aru) in [("min", AruConfig::aru_min()), ("max", AruConfig::aru_max())] {
        let mut b = RuntimeBuilder::new(aru, GcMode::Dgc);
        let ch = b.channel::<Vec<u8>>("stream");
        let producer = b.thread("producer");
        let preview = b.thread("preview"); // 5 ms
        let archive = b.thread("archive"); // 40 ms
        let out = b.connect_out(producer, &ch).unwrap();
        let mut in_fast = b.connect_in(&ch, preview).unwrap();
        let mut in_slow = b.connect_in(&ch, archive).unwrap();

        let produced = Arc::new(AtomicU64::new(0));
        let produced2 = Arc::clone(&produced);
        let mut ts = Timestamp::ZERO;
        b.spawn(producer, move |ctx| {
            std::thread::sleep(Duration::from_millis(1));
            out.put(ctx, ts, vec![0u8; 10_000])?;
            ts = ts.next();
            produced2.fetch_add(1, Ordering::Relaxed);
            Ok(Step::Continue)
        });
        b.spawn(preview, move |ctx| {
            let item = in_fast.get_latest(ctx)?;
            std::thread::sleep(Duration::from_millis(5));
            ctx.emit_output(item.ts);
            Ok(Step::Continue)
        });
        b.spawn(archive, move |ctx| {
            let item = in_slow.get_latest(ctx)?;
            std::thread::sleep(Duration::from_millis(40));
            ctx.emit_output(item.ts);
            Ok(Step::Continue)
        });

        let report = b.build().unwrap().run_for(Micros::from_secs(2)).unwrap();
        println!(
            "  ARU-{name}: producer made {:>4} items in 2s  ({})",
            produced.load(Ordering::Relaxed),
            if name == "min" {
                "paced to the 5 ms preview consumer"
            } else {
                "paced to the 40 ms archive consumer"
            }
        );
        let _ = report;
    }
    println!(
        "\nmin is safe for independent consumers; max saves the most when a\n\
         single downstream stage (paper Figure 4) dictates pipeline throughput."
    );
}

fn main() {
    load_step_demo();
    min_vs_max_demo();
}
