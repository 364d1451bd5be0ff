//! Multi-source pipelines: the paper's stereo use case (§1 — *"a stereo
//! module in an interactive vision application may require images with
//! corresponding timestamps from multiple cameras"*).
//!
//! ```text
//! cargo run --release --example stereo_cameras
//! ```
//!
//! Two cameras with different native rates feed a stereo matcher that
//! pairs frames by exact timestamp. Without ARU the faster camera runs
//! away: the matcher keeps waiting for the slow camera to catch up to
//! ever-newer timestamps, and both cameras burn resources on frames the
//! other side will never match. With ARU both sources are paced by the
//! same downstream summary-STP — the feedback loop acts as an implicit
//! camera synchronizer.

use stampede_aru::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn run(label: &str, aru: AruConfig) {
    let mut b = RuntimeBuilder::new(aru, GcMode::Dgc);
    let left = b.channel::<Vec<u8>>("left-frames");
    let right = b.channel::<Vec<u8>>("right-frames");
    let cam_l = b.thread("camera-left");
    let cam_r = b.thread("camera-right");
    let stereo = b.thread("stereo-matcher");
    let out_l = b.connect_out(cam_l, &left).unwrap();
    let out_r = b.connect_out(cam_r, &right).unwrap();
    let mut in_l = b.connect_in(&left, stereo).unwrap();
    let mut in_r = b.connect_in(&right, stereo).unwrap();

    let made = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
    for (thread, out, period_ms, counter) in [
        (cam_l, out_l, 2u64, Arc::clone(&made[0])),
        (cam_r, out_r, 5u64, Arc::clone(&made[1])),
    ] {
        let mut ts = Timestamp::ZERO;
        b.spawn(thread, move |ctx| {
            std::thread::sleep(Duration::from_millis(period_ms));
            out.put(ctx, ts, vec![0u8; 50_000])?;
            ts = ts.next();
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(Step::Continue)
        });
    }

    let pairs = Arc::new(AtomicU64::new(0));
    let pairs2 = Arc::clone(&pairs);
    b.spawn(stereo, move |ctx| {
        // Drive on the left camera, pair the right frame at the same ts.
        let l = in_l.get_latest(ctx)?;
        let Some(_r) = in_r.get_exact(ctx, l.ts)? else {
            return Ok(Step::Continue); // right frame lost — skip this pair
        };
        std::thread::sleep(Duration::from_millis(25)); // disparity compute
        pairs2.fetch_add(1, Ordering::Relaxed);
        ctx.emit_output(l.ts);
        Ok(Step::Continue)
    });

    let report = b.build().unwrap().run_for(Micros::from_secs(2)).unwrap();
    let a = report.analyze();
    println!("--- {label} ---");
    println!(
        "  left produced: {:>4}   right produced: {:>4}   stereo pairs: {:>3}",
        made[0].load(Ordering::Relaxed),
        made[1].load(Ordering::Relaxed),
        pairs.load(Ordering::Relaxed)
    );
    println!(
        "  wasted memory: {:>5.1}%   pair latency: {:>5.0} ms",
        a.waste.pct_memory_wasted(),
        a.perf.latency.mean / 1000.0
    );
}

fn main() {
    println!("Stereo pipeline: two cameras (2 ms / 5 ms) -> exact-timestamp matcher (25 ms)\n");
    run(
        "No ARU (cameras free-run at different rates)",
        AruConfig::disabled(),
    );
    println!();
    run(
        "ARU-min (one feedback loop paces both cameras)",
        AruConfig::aru_min(),
    );
    println!(
        "\nWith ARU both cameras converge on the matcher's sustainable period,\n\
         so 'corresponding timestamps' arrive together instead of drifting apart."
    );
}
