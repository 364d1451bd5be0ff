//! Deterministic tests of the channel get variants (exact join,
//! at-or-before join, local freshness floors, replacement) through small
//! scripted pipelines.

use stampede::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use vtime::{Micros, Timestamp};

type Log = Arc<parking_lot::Mutex<Vec<(u64, u64)>>>; // (driver ts, joined ts)

/// Producer puts ts 0..n into two channels (possibly dropping some from the
/// second); a joiner drives on the first and joins the second.
fn run_join_pipeline(drop_from_second: &'static [u64], exact: bool) -> (Log, usize) {
    let mut b = RuntimeBuilder::new(AruConfig::disabled(), GcMode::None);
    let c1 = b.channel::<Vec<u8>>("driver");
    let c2 = b.channel::<Vec<u8>>("joined");
    let src = b.thread("src");
    let join = b.thread("join");
    let out1 = b.connect_out(src, &c1).unwrap();
    let out2 = b.connect_out(src, &c2).unwrap();
    let mut in1 = b.connect_in(&c1, join).unwrap();
    let mut in2 = b.connect_in(&c2, join).unwrap();
    let log: Log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);

    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        if ts.raw() >= 30 {
            std::thread::sleep(Duration::from_millis(1));
            return Ok(Step::Continue); // idle; keep runtime alive
        }
        // joined channel first, so a driver item is never visible before
        // its join partner (the consumer may run between the two puts)
        if !drop_from_second.contains(&ts.raw()) {
            out2.put(ctx, ts, vec![0u8; 16])?;
        }
        out1.put(ctx, ts, vec![0u8; 16])?;
        ts = ts.next();
        std::thread::sleep(Duration::from_millis(2));
        Ok(Step::Continue)
    });

    b.spawn(join, move |ctx| {
        let driver = in1.get_latest(ctx)?;
        if exact {
            if let Some(j) = in2.get_exact(ctx, driver.ts)? {
                log2.lock().push((driver.ts.raw(), j.ts.raw()));
                ctx.emit_output(driver.ts);
            }
        } else {
            let j = in2.get_latest_at_or_before(ctx, driver.ts)?;
            log2.lock().push((driver.ts.raw(), j.ts.raw()));
            ctx.emit_output(driver.ts);
        }
        Ok(Step::Continue)
    });

    let report = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(300))
        .unwrap();
    (log, report.outputs())
}

#[test]
fn exact_join_always_pairs_matching_timestamps() {
    let (log, outputs) = run_join_pipeline(&[], true);
    let log = log.lock();
    assert!(outputs > 3, "outputs {outputs}");
    for &(d, j) in log.iter() {
        assert_eq!(d, j, "exact join must pair equal timestamps");
    }
}

#[test]
fn exact_join_abandons_missing_timestamps() {
    // every third item is missing from the joined channel
    let (log, _outputs) = run_join_pipeline(&[2, 5, 8, 11, 14, 17, 20, 23, 26, 29], true);
    let log = log.lock();
    assert!(!log.is_empty());
    for &(d, j) in log.iter() {
        assert_eq!(d, j);
        assert!(
            !(d == 2 || d == 5 || d == 8 || d % 3 == 2 && d <= 29),
            "dropped timestamp {d} must never be paired"
        );
    }
}

#[test]
fn at_or_before_join_never_returns_newer_when_older_exists() {
    let (log, _outputs) = run_join_pipeline(&[3, 4, 9, 10, 15, 16, 21, 22, 27, 28], false);
    let log = log.lock();
    assert!(!log.is_empty());
    for &(d, j) in log.iter() {
        // joined ts at or before driver, unless nothing at-or-before existed
        // (then it's the newest overall — only possible at startup, where
        // driver 0 may pair with a later joined item).
        assert!(
            j <= d || d < 2,
            "driver {d} paired with newer joined item {j}"
        );
        // and never an arbitrarily old one when the drop pattern removed
        // the exact match: the gap is at most the drop-run length (2).
        if j <= d {
            assert!(d - j <= 2, "driver {d} paired with stale {j}");
        }
    }
}

#[test]
fn local_floor_prevents_rereading() {
    // A consumer that is *faster* than the producer must see each ts at
    // most once (its Input floor advances even though GC marks advance only
    // at iteration end).
    let mut b = RuntimeBuilder::new(AruConfig::disabled(), GcMode::Dgc);
    let ch = b.channel::<Vec<u8>>("c");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let out = b.connect_out(src, &ch).unwrap();
    let mut inp = b.connect_in(&ch, snk).unwrap();
    let seen: Log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(Duration::from_millis(5));
        out.put(ctx, ts, vec![0u8; 16])?;
        ts = ts.next();
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get_latest(ctx)?;
        seen2.lock().push((item.ts.raw(), 0));
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    b.build()
        .unwrap()
        .run_for(Micros::from_millis(200))
        .unwrap();
    let seen = seen.lock();
    assert!(seen.len() > 10);
    for w in seen.windows(2) {
        assert!(w[1].0 > w[0].0, "timestamp re-read: {seen:?}");
    }
}

#[test]
fn replacement_put_frees_old_item() {
    // Two puts at the same ts: the channel must account only the newer.
    let mut b = RuntimeBuilder::new(AruConfig::disabled(), GcMode::None);
    let ch = b.channel::<Vec<u8>>("c");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let out = b.connect_out(src, &ch).unwrap();
    let mut inp = b.connect_in(&ch, snk).unwrap();
    let mut step = 0u64;
    b.spawn(src, move |ctx| {
        match step {
            0 => out.put(ctx, Timestamp(0), vec![0u8; 1000])?,
            1 => out.put(ctx, Timestamp(0), vec![0u8; 500])?, // replace
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
        step += 1;
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        std::thread::sleep(Duration::from_millis(30));
        if let Some(item) = inp.try_get_latest(ctx)? {
            assert_eq!(item.value.len(), 500, "replacement not visible");
            ctx.emit_output(item.ts);
        }
        Ok(Step::Continue)
    });
    let report = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(120))
        .unwrap();
    // trace contains exactly 2 allocs and at least 1 free before close
    let allocs = report
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, aru_metrics::TraceEvent::Alloc { .. }))
        .count();
    assert_eq!(allocs, 2);
    let a = report.analyze();
    // replaced item occupied 1000 B only briefly; footprint peak = 1000.
    assert!(a.footprint.observed.peak() <= 1000.0 + 1.0);
}

/// What one dead-on-arrival probe saw: bytes the late put added, what an
/// exact join and an at-or-before join at its timestamp returned.
type DoaSeen = Arc<parking_lot::Mutex<Option<(u64, Option<u64>, u64)>>>;

#[test]
fn put_below_the_reclaimed_floor_is_dead_on_arrival() {
    for mode in [GcMode::Ref, GcMode::Dgc, GcMode::None] {
        let mut b = RuntimeBuilder::new(AruConfig::disabled(), mode);
        let ch = b.channel::<Vec<u8>>("c");
        let src = b.thread("src");
        let snk = b.thread("snk");
        let out = b.connect_out(src, &ch).unwrap();
        let _inp = b.connect_in(&ch, snk).unwrap();
        let chan = out.channel_arc();
        let seen: DoaSeen = Arc::default();
        let seen2 = Arc::clone(&seen);
        b.spawn(src, |_| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(Step::Continue)
        });
        b.spawn(snk, move |ctx| {
            let key = ctx.iter_key();
            chan.put(Timestamp(5), vec![0u8; 100], key)?;
            // Raise the dead bound to 5: REF through the consumer's
            // release of 4, DGC through the pass's bound.
            match mode {
                GcMode::Dgc => chan.apply_dead_before(Timestamp(5)),
                _ => chan.release(0, Timestamp(4)),
            }
            let before = chan.live_bytes();
            chan.put(Timestamp(3), vec![0u8; 64], key)?;
            let added = chan.live_bytes() - before;
            let exact = chan.get_exact(0, ctx, Timestamp(3))?.map(|i| i.ts.raw());
            let at_or_before = chan.get_latest_at_or_before(0, ctx, Timestamp(3))?;
            *seen2.lock() = Some((added, exact, at_or_before.ts.raw()));
            Ok(Step::Stop)
        });
        let report = b.build().unwrap().run_for(Micros::from_millis(60)).unwrap();
        let (added, exact, at_or_before) = seen.lock().expect("the probe ran");
        let events = report.trace.events();
        let (at, (alloc_t, late)) = events
            .iter()
            .enumerate()
            .find_map(|(i, e)| match e {
                aru_metrics::TraceEvent::Alloc { t, item, ts, .. } if ts.raw() == 3 => {
                    Some((i, (*t, *item)))
                }
                _ => None,
            })
            .expect("the late put is traced");
        let freed_at = events[at..].iter().find_map(|e| match e {
            aru_metrics::TraceEvent::Free { t, item } if *item == late => Some(*t),
            _ => None,
        });
        if mode == GcMode::None {
            assert_eq!((added, exact, at_or_before), (64, Some(3), 3), "{mode}");
        } else {
            assert_eq!((added, exact, at_or_before), (0, None, 5), "{mode}");
            assert_eq!(freed_at, Some(alloc_t), "{mode}: freed in the put");
        }
    }
}

#[test]
fn queue_dgc_drops_dead_queued_items() {
    // Producer enqueues faster than the consumer dequeues; when the
    // consumer also reads a channel that has advanced far ahead... —
    // simplest observable: Queue::apply_dead_before drops old entries.
    let mut b = RuntimeBuilder::new(AruConfig::disabled(), GcMode::Dgc);
    let q = b.queue::<Vec<u8>>("q");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let mut out = b.connect_queue_out(src, &q).unwrap();
    let mut inp = b.connect_queue_in(&q, snk).unwrap();
    let q_probe = out.mutex_queue().expect("default backend is mutex");
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        out.put(ctx, ts, vec![0u8; 100])?;
        ts = ts.next();
        std::thread::sleep(Duration::from_millis(1));
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get(ctx)?;
        ctx.emit_output(item.ts);
        std::thread::sleep(Duration::from_millis(5));
        Ok(Step::Continue)
    });
    let running = b.build().unwrap().start();
    std::thread::sleep(Duration::from_millis(100));
    // backlog exists (producer 5x faster)
    let before = q_probe.len();
    q_probe.apply_dead_before(Timestamp(1_000_000));
    let after = q_probe.len();
    assert!(before > 0, "expected a backlog");
    assert!(after < before, "apply_dead_before must drop items");
    running.stop().unwrap();
}

#[test]
fn sliding_window_is_ordered_fresh_and_overlapping() {
    let mut b = RuntimeBuilder::new(AruConfig::disabled(), GcMode::Dgc);
    let ch = b.channel::<Vec<u8>>("c");
    let src = b.thread("src");
    let win = b.thread("win");
    let out = b.connect_out(src, &ch).unwrap();
    let mut inp = b.connect_in(&ch, win).unwrap();
    let windows: Arc<parking_lot::Mutex<Vec<Vec<u64>>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let windows2 = Arc::clone(&windows);
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(Duration::from_millis(4));
        out.put(ctx, ts, vec![0u8; 32])?;
        ts = ts.next();
        Ok(Step::Continue)
    });
    b.spawn(win, move |ctx| {
        let w = inp.get_latest_window(ctx, 4)?;
        windows2.lock().push(w.iter().map(|i| i.ts.raw()).collect());
        std::thread::sleep(Duration::from_millis(10));
        ctx.emit_output(w.last().unwrap().ts);
        Ok(Step::Continue)
    });
    b.build()
        .unwrap()
        .run_for(Micros::from_millis(300))
        .unwrap();
    let windows = windows.lock();
    assert!(windows.len() > 5, "windows: {}", windows.len());
    let mut prev_newest = None;
    for w in windows.iter() {
        // strictly increasing inside each window
        for pair in w.windows(2) {
            assert!(pair[1] > pair[0], "window not ordered: {w:?}");
        }
        // windows at full size once warm
        if w.last().copied().unwrap_or(0) >= 4 {
            assert_eq!(w.len(), 4, "window underfull after warmup: {w:?}");
        }
        // freshness: newest strictly advances between iterations
        if let Some(p) = prev_newest {
            assert!(*w.last().unwrap() > p, "stale window: {w:?} after {p}");
        }
        prev_newest = Some(*w.last().unwrap());
    }
    // overlap: consecutive warm windows share elements (slide < width)
    let warm: Vec<&Vec<u64>> = windows.iter().filter(|w| w.len() == 4).collect();
    let overlapping = warm
        .windows(2)
        .filter(|p| p[0].iter().any(|t| p[1].contains(t)))
        .count();
    assert!(
        overlapping * 2 >= warm.len().saturating_sub(1),
        "most consecutive windows should overlap ({overlapping}/{})",
        warm.len()
    );
}

#[test]
fn pipeline_survives_producer_death() {
    // The producer stops after 5 items; the consumer drains what exists and
    // then blocks; stop() must still shut everything down promptly.
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
    let ch = b.channel::<Vec<u8>>("c");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let out = b.connect_out(src, &ch).unwrap();
    let mut inp = b.connect_in(&ch, snk).unwrap();
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        if ts.raw() >= 5 {
            return Ok(Step::Stop); // producer dies
        }
        out.put(ctx, ts, vec![0u8; 16])?;
        ts = ts.next();
        std::thread::sleep(Duration::from_millis(2));
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get_latest(ctx)?;
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    let t0 = std::time::Instant::now();
    let report = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(100))
        .unwrap();
    assert!(t0.elapsed() < Duration::from_secs(5), "shutdown hung");
    assert!(report.outputs() >= 1, "some items were consumed");
    assert!(report.outputs() <= 5, "only 5 items ever existed");
}

/// One blocking entry point of the data plane, stuck on a buffer that will
/// never become ready.
#[derive(Clone, Copy, Debug)]
enum BlockingOp {
    GetLatest,
    GetExact,
    GetLatestAtOrBefore,
    GetLatestWindow,
    QueueGet(QueueBackend),
    /// `QueueOutput::put` on a full lock-free ring (the mutex queue is
    /// unbounded: its puts never block).
    LfQueuePut,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Unblock {
    /// `stop()` closes the buffer under the blocked op.
    Close,
    /// The task's op timeout passes.
    Deadline,
}

/// A blocking op wired to its buffers, ready to run inside a task body.
type Attempt = Box<dyn FnMut(&mut TaskCtx) -> Result<(), StampedeError> + Send>;

/// Block `op` in a task of its own, unblock it by `how`, and return the
/// error the op saw, how long it waited, that task's node, the run report
/// and the run's `aru_channel_timeouts_total`.
fn run_blocked(
    op: BlockingOp,
    how: Unblock,
) -> (StampedeError, Duration, aru_core::NodeId, RunReport, u64) {
    const OP_TIMEOUT_MS: u64 = 40;
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::None);
    if how == Unblock::Deadline {
        b = b.with_op_timeout(Micros::from_millis(OP_TIMEOUT_MS));
    }
    match op {
        BlockingOp::QueueGet(backend) => b = b.with_queue_backend(backend),
        BlockingOp::LfQueuePut => b = b.with_queue_backend(QueueBackend::LockFree { capacity: 2 }),
        _ => {}
    }
    let blocked = b.thread("blocked");
    let peer = b.thread("peer");
    // Everything the op needs is wired here; the peer never makes the
    // buffer ready.
    let mut attempt: Attempt = match op {
        BlockingOp::QueueGet(_) => {
            let q = b.queue::<Vec<u8>>("empty");
            let _out = b.connect_queue_out(peer, &q).unwrap();
            let mut inp = b.connect_queue_in(&q, blocked).unwrap();
            Box::new(move |ctx| inp.get(ctx).map(drop))
        }
        BlockingOp::LfQueuePut => {
            let q = b.queue::<Vec<u8>>("full");
            let mut out = b.connect_queue_out(blocked, &q).unwrap();
            let _in = b.connect_queue_in(&q, peer).unwrap();
            // Two puts fill the ring's two slots; the third parks.
            let mut ts = Timestamp::ZERO;
            Box::new(move |ctx| loop {
                out.put(ctx, ts, vec![0u8; 8])?;
                ts = ts.next();
            })
        }
        _ => {
            let ch = b.channel::<Vec<u8>>("empty");
            let _out = b.connect_out(peer, &ch).unwrap();
            let mut inp = b.connect_in(&ch, blocked).unwrap();
            Box::new(move |ctx| match op {
                BlockingOp::GetLatest => inp.get_latest(ctx).map(drop),
                BlockingOp::GetExact => inp.get_exact(ctx, Timestamp(3)).map(drop),
                BlockingOp::GetLatestAtOrBefore => {
                    inp.get_latest_at_or_before(ctx, Timestamp(3)).map(drop)
                }
                _ => inp.get_latest_window(ctx, 2).map(drop),
            })
        }
    };
    let seen: Arc<parking_lot::Mutex<Option<(StampedeError, Duration)>>> = Arc::default();
    let seen2 = Arc::clone(&seen);
    b.spawn(blocked, move |ctx| {
        let t0 = std::time::Instant::now();
        let err = attempt(ctx).expect_err("the buffer never becomes ready");
        *seen2.lock() = Some((err, t0.elapsed()));
        Err(err)
    });
    b.spawn(peer, |_| {
        std::thread::sleep(Duration::from_millis(1));
        Ok(Step::Continue)
    });

    let telemetry = b.telemetry().clone();
    let running = b.build().unwrap().start();
    match how {
        // Long enough that the op is parked when the close lands.
        Unblock::Close => std::thread::sleep(Duration::from_millis(60)),
        Unblock::Deadline => {
            let t0 = std::time::Instant::now();
            while seen.lock().is_none() {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "{op:?}: deadline never fired"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    let report = running.stop().unwrap();
    let (err, waited) = seen
        .lock()
        .take()
        .expect("the blocked task recorded its error");
    let counted = telemetry
        .registry
        .snapshot()
        .counters
        .iter()
        .filter(|(series, _)| series.name == "aru_channel_timeouts_total")
        .map(|(_, n)| n)
        .sum();
    (err, waited, blocked.node(), report, counted)
}

#[test]
fn every_blocking_op_honours_close_and_deadline_the_same_way() {
    use BlockingOp::*;
    let table = [
        GetLatest,
        GetExact,
        GetLatestAtOrBefore,
        GetLatestWindow,
        QueueGet(QueueBackend::Mutex),
        QueueGet(QueueBackend::lock_free()),
        LfQueuePut,
    ];
    for op in table {
        for how in [Unblock::Close, Unblock::Deadline] {
            let (err, waited, node, report, counted) = run_blocked(op, how);
            let case = format!("{op:?} / {how:?}");
            let want = match how {
                Unblock::Close => StampedeError::Closed,
                Unblock::Deadline => StampedeError::Timeout,
            };
            assert_eq!(err, want, "{case}: wrong error");

            let timeouts = report
                .trace
                .events()
                .iter()
                .filter(|e| matches!(e, aru_metrics::TraceEvent::OpTimeout { node: n, .. } if *n == node))
                .count();
            let want_timeouts = usize::from(how == Unblock::Deadline);
            assert_eq!(timeouts, want_timeouts, "{case}: OpTimeout events");
            // The buffer counts it too.
            assert_eq!(
                counted, want_timeouts as u64,
                "{case}: aru_channel_timeouts_total"
            );

            // The wait is blocked time, not compute: the iteration's busy
            // time (its current-STP) stays far below the time it waited.
            let busy = report
                .trace
                .events()
                .iter()
                .rev()
                .find_map(|e| match e {
                    aru_metrics::TraceEvent::IterEnd { iter, busy, .. } if iter.node == node => {
                        Some(*busy)
                    }
                    _ => None,
                })
                .expect("blocked iteration ended");
            assert!(
                waited >= Duration::from_millis(30),
                "{case}: waited only {waited:?}"
            );
            assert!(
                Duration::from(busy) < waited / 2,
                "{case}: busy {busy} includes the {waited:?} wait"
            );
        }
    }
}
