//! `FanOut::put` is observably equivalent to the loop of cloned
//! `Output::put`s it replaces.
//!
//! Two identically-configured channel bundles on the same `ManualClock`,
//! one driven through `FanOut`, the other through per-channel puts of a
//! cloned payload; everything a program can observe is compared: trace
//! events (including item ids — both sides draw from a fresh id counter in
//! the same order), occupancy, live bytes, and ARU summary state. Also
//! pins the store's steady-state shape: a dense in-order stream stays on
//! the ring side.

use aru_core::{AruConfig, NodeId, Stp};
use aru_gc::GcMode;
use aru_metrics::{IterKey, SharedTrace};
use stampede::bench_api;
use stampede::{Channel, FanOut, TaskCtx};
use std::sync::Arc;
use vtime::{Clock, ManualClock, Micros, Timestamp};

fn cfg() -> AruConfig {
    AruConfig::aru_min()
}

fn chan(trace: &SharedTrace, clock: &Arc<ManualClock>) -> Arc<Channel<Vec<u8>>> {
    bench_api::channel(
        NodeId(1),
        "equiv-ch",
        &cfg(),
        GcMode::Ref,
        None,
        Arc::clone(clock) as Arc<dyn Clock>,
        trace.clone(),
        1,
    )
}

fn ctx(node: u32, n_outputs: usize, trace: &SharedTrace, clock: &Arc<ManualClock>) -> TaskCtx {
    bench_api::task_ctx(
        NodeId(node),
        "equiv-task",
        n_outputs,
        false,
        &cfg(),
        Arc::clone(clock) as Arc<dyn Clock>,
        trace.clone(),
    )
}

#[test]
fn fanout_put_matches_clone_put_loop() {
    let clock = Arc::new(ManualClock::new());
    const WIDTH: usize = 3;

    let run = |fan_out: bool| {
        let trace = SharedTrace::new();
        let chans: Vec<_> = (0..WIDTH).map(|_| chan(&trace, &clock)).collect();
        let outs: Vec<_> = (0..WIDTH)
            .map(|i| bench_api::output(&chans[i], i))
            .collect();
        let mut pctx = ctx(5, WIDTH, &trace, &clock);
        // Warm every channel's controller through a consumer get so the
        // puts have a summary to fold back into the producer.
        let mut cctx = ctx(9, 1, &trace, &clock);
        bench_api::warm_summary(&mut cctx, Stp(Micros(1_000)));
        for (i, out) in outs.iter().enumerate() {
            out.put(&mut pctx, Timestamp(0), vec![0; 4]).unwrap();
            chans[i].get_latest(0, &mut cctx, Timestamp::ZERO).unwrap();
        }

        if fan_out {
            let fan = FanOut::new(outs);
            for ts in 1..40u64 {
                fan.put(&mut pctx, Timestamp(ts), vec![ts as u8; 32])
                    .unwrap();
            }
        } else {
            for ts in 1..40u64 {
                let frame = vec![ts as u8; 32];
                outs[0]
                    .put(&mut pctx, Timestamp(ts), frame.clone())
                    .unwrap();
                outs[1]
                    .put(&mut pctx, Timestamp(ts), frame.clone())
                    .unwrap();
                outs[2].put(&mut pctx, Timestamp(ts), frame).unwrap();
            }
        }

        for ch in &chans {
            bench_api::flush_channel_trace(ch);
        }
        let events = trace.snapshot().events().to_vec();
        let occupancy: Vec<_> = chans.iter().map(|c| (c.len(), c.live_bytes())).collect();
        let summaries: Vec<_> = chans.iter().map(|c| c.summary()).collect();
        (events, occupancy, summaries, pctx.summary())
    };

    let s = run(false);
    let b = run(true);
    assert_eq!(s.0, b.0, "identical trace events across all three channels");
    assert_eq!(s.1, b.1, "identical occupancy");
    assert_eq!(s.2, b.2, "identical channel ARU summaries");
    assert_eq!(s.3, b.3, "identical producer-side folded summary");
    assert!(s.3.is_some(), "feedback must actually flow");
}

#[test]
fn dense_stream_never_spills() {
    let clock = Arc::new(ManualClock::new());
    let trace = SharedTrace::new();
    let ch = chan(&trace, &clock);
    let p = IterKey::new(NodeId(7), 3);
    // Crosses the trace's id-block boundary (256) on the way.
    for ts in 0..300u64 {
        ch.put(Timestamp(ts), vec![ts as u8; 8], p).unwrap();
    }
    assert_eq!(
        ch.store_depths(),
        (300, 0),
        "(ring, spill) of an in-order stream"
    );
    // A put far behind the ring span is the case the spill side exists for.
    ch.put(Timestamp(5000), vec![3; 8], p).unwrap();
    ch.put(Timestamp(400), vec![4; 8], p).unwrap();
    let (ring, spill) = ch.store_depths();
    assert_eq!(ring + spill, ch.len());
    assert!(spill > 0, "out-of-order put behind the ring must spill");
}
