//! End-to-end tests of the threaded runtime: channel semantics, ARU
//! feedback behaviour, and GC reclamation on live pipelines.
//!
//! All tasks simulate work with short sleeps (which *are* execution time
//! from the STP meter's point of view — only channel blocking is excluded),
//! so every test completes in well under a second.

use stampede::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vtime::{Micros, Timestamp};

/// Build and run `src --(ch)--> sink` where src "computes" for
/// `src_work_ms` and sink for `sink_work_ms`, for `run_ms` of wall time.
/// Returns (report, items_produced).
fn run_two_stage(
    config: AruConfig,
    gc: GcMode,
    src_work_ms: u64,
    sink_work_ms: u64,
    run_ms: u64,
) -> (RunReport, u64) {
    let mut b = RuntimeBuilder::new(config, gc);
    let ch = b.channel::<Vec<u8>>("frames");
    let src = b.thread("src");
    let snk = b.thread("sink");
    let out = b.connect_out(src, &ch).unwrap();
    let mut inp = b.connect_in(&ch, snk).unwrap();

    let produced = Arc::new(AtomicU64::new(0));
    let produced2 = Arc::clone(&produced);
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(Duration::from_millis(src_work_ms));
        out.put(ctx, ts, vec![0u8; 10_000])?;
        ts = ts.next();
        produced2.fetch_add(1, Ordering::Relaxed);
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get_latest(ctx)?;
        std::thread::sleep(Duration::from_millis(sink_work_ms));
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });

    let report = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(run_ms))
        .unwrap();
    let n = produced.load(Ordering::Relaxed);
    (report, n)
}

#[test]
fn pipeline_produces_output() {
    let (report, produced) = run_two_stage(AruConfig::aru_min(), GcMode::Dgc, 1, 2, 150);
    assert!(report.outputs() > 5, "outputs: {}", report.outputs());
    assert!(produced > 5);
}

#[test]
fn no_aru_overproduces_and_wastes() {
    // Producer 1 ms vs consumer 20 ms: without ARU the producer floods.
    let (report, produced) = run_two_stage(AruConfig::disabled(), GcMode::Dgc, 1, 20, 300);
    let outputs = report.outputs() as u64;
    assert!(
        produced > outputs * 3,
        "producer ({produced}) should far outrun the sink ({outputs})"
    );
    let analysis = report.analyze();
    assert!(
        analysis.waste.pct_memory_wasted() > 30.0,
        "expected heavy waste, got {:.1}%",
        analysis.waste.pct_memory_wasted()
    );
}

#[test]
fn aru_min_matches_production_to_consumption() {
    // Until the first feedback propagates (one pipeline latency — §3.3.2's
    // worst case) the source runs unthrottled, so give the source a 5 ms
    // period to keep the startup transient small relative to the run.
    let (report, produced) = run_two_stage(AruConfig::aru_min(), GcMode::Dgc, 5, 20, 600);
    let outputs = report.outputs() as u64;
    assert!(outputs > 0);
    // With feedback the producer should be within ~2x of the sink rate
    // (startup transient allows a small overshoot).
    assert!(
        produced <= outputs * 2 + 6,
        "paced producer made {produced} items for {outputs} outputs"
    );
    let analysis = report.analyze();
    assert!(
        analysis.waste.pct_memory_wasted() < 35.0,
        "expected little waste, got {:.1}%",
        analysis.waste.pct_memory_wasted()
    );
}

#[test]
fn aru_startup_transient_is_bounded_by_first_feedback() {
    // The paper: "The worst case propagation time for a summary-STP value to
    // reach the producer … is equal to the … latency." With a 1 ms source
    // the flood lasts only until the sink's first iteration completes; after
    // that production locks to the sink period.
    let (report, produced) = run_two_stage(AruConfig::aru_min(), GcMode::Dgc, 1, 20, 600);
    let outputs = report.outputs() as u64;
    // Startup flood ≈ first ~25 ms at ~1.2 ms/item ≈ 20 items; thereafter
    // paced. Far less than the ~500 items an unthrottled run would make.
    assert!(
        produced < outputs + 60,
        "paced producer made {produced} items for {outputs} outputs"
    );
}

#[test]
fn aru_reduces_footprint_vs_baseline() {
    let (no_aru, _) = run_two_stage(AruConfig::disabled(), GcMode::Dgc, 1, 20, 300);
    let (with_aru, _) = run_two_stage(AruConfig::aru_min(), GcMode::Dgc, 1, 20, 300);
    let fp_no = no_aru.analyze().footprint.observed_summary().mean;
    let fp_yes = with_aru.analyze().footprint.observed_summary().mean;
    assert!(
        fp_yes < fp_no,
        "ARU footprint {fp_yes:.0} !< baseline {fp_no:.0}"
    );
}

#[test]
fn observed_footprint_dominates_ideal() {
    for cfg in [
        AruConfig::disabled(),
        AruConfig::aru_min(),
        AruConfig::aru_max(),
    ] {
        let (report, _) = run_two_stage(cfg, GcMode::Dgc, 2, 10, 200);
        let a = report.analyze();
        let obs = a.footprint.observed_summary().mean;
        let ideal = a.footprint.ideal_summary().mean;
        assert!(
            obs >= ideal * 0.999,
            "observed {obs:.0} must dominate ideal {ideal:.0}"
        );
    }
}

#[test]
fn gc_none_retains_everything() {
    let (report, _) = run_two_stage(AruConfig::disabled(), GcMode::None, 1, 5, 150);
    // Without GC nothing is freed during the run (closing frees at the end,
    // which appears as Free events at t_end).
    let frees_before_end = report
        .trace
        .events()
        .iter()
        .filter(|e| {
            matches!(e, aru_metrics::TraceEvent::Free { t, .. } if t.as_micros() + 20_000 < report.t_end.as_micros())
        })
        .count();
    assert_eq!(frees_before_end, 0, "GcMode::None must not free mid-run");
}

#[test]
fn dgc_bounds_channel_occupancy() {
    // Even with a flooding producer, REF+DGC keep only items the consumer
    // may still want: occupancy stays near the backlog of one consumer
    // cycle, not the whole run history.
    let mut b = RuntimeBuilder::new(AruConfig::disabled(), GcMode::Dgc);
    let ch = b.channel::<Vec<u8>>("frames");
    let src = b.thread("src");
    let snk = b.thread("sink");
    let out = b.connect_out(src, &ch).unwrap();
    let ch_probe = out.channel().node();
    let mut inp = b.connect_in(&ch, snk).unwrap();
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(Duration::from_millis(1));
        out.put(ctx, ts, vec![0u8; 1000])?;
        ts = ts.next();
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get_latest(ctx)?;
        std::thread::sleep(Duration::from_millis(10));
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    let report = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(200))
        .unwrap();
    let _ = ch_probe;
    // peak live bytes must stay well below total allocated bytes
    let analysis = report.analyze();
    let peak = analysis.footprint.observed.peak();
    let total_allocs = report
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, aru_metrics::TraceEvent::Alloc { .. }))
        .count() as f64;
    assert!(
        peak < total_allocs * 1000.0 * 0.7,
        "peak {peak} vs total produced {total_allocs} items — GC not reclaiming"
    );
}

#[test]
fn consumer_skips_to_latest() {
    // Slow consumer must observe strictly increasing, gappy timestamps.
    let mut b = RuntimeBuilder::new(AruConfig::disabled(), GcMode::Dgc);
    let ch = b.channel::<Vec<u8>>("c");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let out = b.connect_out(src, &ch).unwrap();
    let mut inp = b.connect_in(&ch, snk).unwrap();
    let seen = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    let seen2 = Arc::clone(&seen);
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(Duration::from_millis(1));
        out.put(ctx, ts, vec![0u8; 8])?;
        ts = ts.next();
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get_latest(ctx)?;
        seen2.lock().push(item.ts.raw());
        std::thread::sleep(Duration::from_millis(15));
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    b.build()
        .unwrap()
        .run_for(Micros::from_millis(200))
        .unwrap();
    let seen = seen.lock();
    assert!(seen.len() > 3);
    for w in seen.windows(2) {
        assert!(w[1] > w[0], "timestamps must strictly increase: {seen:?}");
    }
    // the consumer must have skipped (producer is ~15x faster)
    let gaps: u64 = seen.windows(2).map(|w| w[1] - w[0] - 1).sum();
    assert!(gaps > 0, "expected skipped frames, saw none: {seen:?}");
}

#[test]
fn fan_out_min_sustains_fast_consumer() {
    // One producer, two consumers (5 ms and 40 ms). ARU-min paces the
    // producer to the FAST consumer; ARU-max to the SLOW one.
    fn run(cfg: AruConfig) -> (u64, u64, u64) {
        let mut b = RuntimeBuilder::new(cfg, GcMode::Dgc);
        let ch = b.channel::<Vec<u8>>("c");
        let src = b.thread("src");
        let fast = b.thread("fast");
        let slow = b.thread("slow");
        let out = b.connect_out(src, &ch).unwrap();
        let mut in_fast = b.connect_in(&ch, fast).unwrap();
        let mut in_slow = b.connect_in(&ch, slow).unwrap();
        let produced = Arc::new(AtomicU64::new(0));
        let fast_n = Arc::new(AtomicU64::new(0));
        let slow_n = Arc::new(AtomicU64::new(0));
        let (p2, f2, s2) = (
            Arc::clone(&produced),
            Arc::clone(&fast_n),
            Arc::clone(&slow_n),
        );
        let mut ts = Timestamp::ZERO;
        b.spawn(src, move |ctx| {
            std::thread::sleep(Duration::from_millis(1));
            out.put(ctx, ts, vec![0u8; 128])?;
            ts = ts.next();
            p2.fetch_add(1, Ordering::Relaxed);
            Ok(Step::Continue)
        });
        b.spawn(fast, move |ctx| {
            let item = in_fast.get_latest(ctx)?;
            std::thread::sleep(Duration::from_millis(5));
            ctx.emit_output(item.ts);
            f2.fetch_add(1, Ordering::Relaxed);
            Ok(Step::Continue)
        });
        b.spawn(slow, move |ctx| {
            let item = in_slow.get_latest(ctx)?;
            std::thread::sleep(Duration::from_millis(40));
            ctx.emit_output(item.ts);
            s2.fetch_add(1, Ordering::Relaxed);
            Ok(Step::Continue)
        });
        b.build()
            .unwrap()
            .run_for(Micros::from_millis(400))
            .unwrap();
        (
            produced.load(Ordering::Relaxed),
            fast_n.load(Ordering::Relaxed),
            slow_n.load(Ordering::Relaxed),
        )
    }

    let (p_min, f_min, _) = run(AruConfig::aru_min());
    let (p_max, _, s_max) = run(AruConfig::aru_max());
    // min: producer ≈ fast consumer rate (some slack for startup)
    assert!(
        p_min <= f_min * 2 + 8,
        "ARU-min produced {p_min} vs fast consumer {f_min}"
    );
    // max: producer ≈ slow consumer rate — strictly fewer items than min
    assert!(
        p_max <= s_max * 2 + 8,
        "ARU-max produced {p_max} vs slow consumer {s_max}"
    );
    assert!(
        p_max < p_min,
        "max ({p_max}) must throttle harder than min ({p_min})"
    );
}

/// `src -> q -> sink` on `backend`: 50 items, delivered exactly once in
/// FIFO order. With `crash`, the source panics once before it puts ts 2
/// and restarts under its retry policy: the items it queued before the
/// crash still get through, and the restarted source resumes at ts 2.
fn queue_fifo_exactly_once_on(backend: QueueBackend, crash: bool) {
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc)
        .with_queue_backend(backend)
        .with_retry_policy(RetryPolicy::constant(3, Micros::from_millis(5)));
    let q = b.queue::<Vec<u8>>("q");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let mut out = b.connect_queue_out(src, &q).unwrap();
    let mut inp = b.connect_queue_in(&q, snk).unwrap();
    let seen = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    let seen2 = Arc::clone(&seen);
    let mut ts = Timestamp::ZERO;
    let mut crash_pending = crash;
    b.spawn(src, move |ctx| {
        if crash_pending && ts.raw() == 2 {
            crash_pending = false;
            panic!("injected source crash before ts 2");
        }
        out.put(ctx, ts, vec![ts.raw() as u8])?;
        ts = ts.next();
        if ts.raw() >= 50 {
            return Ok(Step::Stop);
        }
        std::thread::sleep(Duration::from_millis(1));
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get(ctx)?;
        seen2.lock().push(item.ts.raw());
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    let report = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(250))
        .unwrap();
    let seen = seen.lock();
    assert!(seen.len() >= 40, "most items consumed, got {}", seen.len());
    // FIFO: exact contiguous prefix of timestamps
    for (i, &ts) in seen.iter().enumerate() {
        assert_eq!(ts, i as u64, "FIFO order violated: {seen:?}");
    }
    let faults = report.analyze().faults;
    let want = u64::from(crash);
    assert_eq!((faults.crashes, faults.restarts), (want, want), "{faults}");
}

#[test]
fn queue_delivers_fifo_exactly_once() {
    queue_fifo_exactly_once_on(QueueBackend::Mutex, false);
}

/// Identical task-graph code over the lock-free ring: the backend seam
/// must preserve FIFO exactly-once delivery.
#[test]
fn queue_delivers_fifo_exactly_once_lockfree() {
    queue_fifo_exactly_once_on(QueueBackend::lock_free(), false);
}

#[test]
fn queue_delivers_fifo_exactly_once_across_a_source_crash() {
    queue_fifo_exactly_once_on(QueueBackend::Mutex, true);
}

#[test]
fn queue_delivers_fifo_exactly_once_across_a_source_crash_lockfree() {
    queue_fifo_exactly_once_on(QueueBackend::lock_free(), true);
}

/// The largest backlog (items put but not yet taken) of `src -> q -> sink`
/// on `backend` under `aru`: a 1 ms source over a 25 ms sink, sampled
/// every 10 ms for 1.2 s.
fn max_queue_backlog(aru: AruConfig, backend: QueueBackend) -> u64 {
    let mut b = RuntimeBuilder::new(aru, GcMode::Ref).with_queue_backend(backend);
    let q = b.queue::<Vec<u8>>("q");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let mut out = b.connect_queue_out(src, &q).unwrap();
    let mut inp = b.connect_queue_in(&q, snk).unwrap();
    let produced = Arc::new(AtomicU64::new(0));
    let consumed = Arc::new(AtomicU64::new(0));
    let (p2, c2) = (Arc::clone(&produced), Arc::clone(&consumed));
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(Duration::from_millis(1));
        out.put(ctx, ts, vec![0u8; 1000])?;
        p2.fetch_add(1, Ordering::Relaxed);
        ts = ts.next();
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get(ctx)?;
        c2.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(25));
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    let running = b.build().unwrap().start();
    let mut max_backlog = 0;
    for _ in 0..120 {
        std::thread::sleep(Duration::from_millis(10));
        let backlog = produced
            .load(Ordering::Relaxed)
            .saturating_sub(consumed.load(Ordering::Relaxed));
        max_backlog = max_backlog.max(backlog);
    }
    running.stop().unwrap();
    max_backlog
}

/// With ARU the source is paced to the sink and the backlog stays far
/// below what the unpaced source builds: the whole run's surplus on the
/// unbounded mutex queue, the ring's capacity on the lock-free one.
fn aru_bounds_queue_backlog_on(backend: QueueBackend) {
    let base = max_queue_backlog(AruConfig::disabled(), backend);
    let aru = max_queue_backlog(AruConfig::aru_min(), backend);
    assert!(
        base >= 32,
        "{backend:?}: baseline never built a backlog (max {base}); the experiment says nothing"
    );
    assert!(
        aru < base / 2,
        "{backend:?}: ARU backlog {aru} not well below baseline {base}"
    );
}

#[test]
fn aru_bounds_queue_backlog() {
    aru_bounds_queue_backlog_on(QueueBackend::Mutex);
}

#[test]
fn aru_bounds_queue_backlog_lockfree() {
    aru_bounds_queue_backlog_on(QueueBackend::LockFree { capacity: 64 });
}

#[test]
fn try_get_latest_nonblocking() {
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
    let ch = b.channel::<Vec<u8>>("c");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let out = b.connect_out(src, &ch).unwrap();
    let mut inp = b.connect_in(&ch, snk).unwrap();
    let polls = Arc::new(AtomicU64::new(0));
    let hits = Arc::new(AtomicU64::new(0));
    let (p2, h2) = (Arc::clone(&polls), Arc::clone(&hits));
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(Duration::from_millis(10));
        out.put(ctx, ts, vec![0u8; 8])?;
        ts = ts.next();
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        match inp.try_get_latest(ctx)? {
            Some(item) => {
                h2.fetch_add(1, Ordering::Relaxed);
                ctx.emit_output(item.ts);
            }
            None => {
                p2.fetch_add(1, Ordering::Relaxed);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
        Ok(Step::Continue)
    });
    b.build()
        .unwrap()
        .run_for(Micros::from_millis(120))
        .unwrap();
    assert!(polls.load(Ordering::Relaxed) > 0, "expected empty polls");
    assert!(hits.load(Ordering::Relaxed) > 0, "expected some hits");
}

#[test]
fn shutdown_unblocks_starved_consumer() {
    // A consumer with no producer would block forever; stop() must free it.
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
    let ch = b.channel::<Vec<u8>>("c");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let _out = b.connect_out(src, &ch).unwrap();
    let mut inp = b.connect_in(&ch, snk).unwrap();
    b.spawn(src, move |_ctx| {
        // produce nothing, spin slowly
        std::thread::sleep(Duration::from_millis(5));
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let _ = inp.get_latest(ctx)?;
        Ok(Step::Continue)
    });
    let t0 = std::time::Instant::now();
    let report = b.build().unwrap().run_for(Micros::from_millis(50)).unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stop() hung on a blocked consumer"
    );
    assert_eq!(report.outputs(), 0);
}

#[test]
fn aru_max_wastes_less_than_baseline() {
    // The paper's headline ordering (Figure 7): waste(No-ARU) ≫
    // waste(ARU-max). (The latency ordering of Figure 10 depends on the
    // 5-stage tracker topology with timestamp-paired joins and is asserted
    // in the tracker/desim experiments, not on this 2-stage pipeline.)
    let (base, _) = run_two_stage(AruConfig::disabled(), GcMode::Dgc, 1, 25, 400);
    let (maxed, _) = run_two_stage(AruConfig::aru_max(), GcMode::Dgc, 1, 25, 400);
    let w_base = base.analyze().waste.pct_memory_wasted();
    let w_max = maxed.analyze().waste.pct_memory_wasted();
    assert!(
        w_max < w_base,
        "ARU-max waste {w_max:.1}% !< baseline {w_base:.1}%"
    );
}

#[test]
fn panicking_task_is_reported_by_name() {
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
    let ch = b.channel::<Vec<u8>>("c");
    let bad = b.thread("bad-apple");
    let snk = b.thread("snk");
    let out = b.connect_out(bad, &ch).unwrap();
    let mut inp = b.connect_in(&ch, snk).unwrap();
    let mut n = 0u64;
    b.spawn(bad, move |ctx| {
        if n >= 3 {
            panic!("kernel exploded");
        }
        out.put(ctx, Timestamp(n), vec![0u8; 8])?;
        n += 1;
        std::thread::sleep(Duration::from_millis(2));
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get_latest(ctx)?;
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    let err = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(80))
        .unwrap_err();
    assert!(
        err.to_string().contains("bad-apple"),
        "join error should name the panicked task: {err}"
    );
}
