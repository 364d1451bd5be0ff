//! Time and records go through the task (DESIGN.md §9): a task reads the
//! clock once per transition and reuses that read wherever it can serve.
//!
//! * A counting clock pins the reads per item on the two-task transport
//!   graph (`src → Q → sink`, 64-byte items, ARU-min, DGC), fill-then-drain
//!   and streaming.
//! * Stamp order: per item Alloc ≤ Get ≤ Free, per task non-decreasing
//!   IterEnd times with no Alloc, Get or SinkOutput of an iteration after
//!   its IterEnd, and snapshot times that never decrease (each trace writer
//!   records in time order; the snapshot only merges them). On streaming
//!   runs, where source and sink run at once, the sink takes every other
//!   item by polling a non-blocking get, so it often takes an item put after
//!   its last clock read: such a get is stamped with that read raised to
//!   the buffer's last record, and without the raise it would precede its
//!   alloc. Fill-then-drain, the sink's first get is stamped from a read
//!   taken before it waited out the whole fill, so without the raise it
//!   would precede the fill's later allocs.
//! * The fan-out's raise: one read stamps the put to every channel of the
//!   bundle, so a record another task made in one of them after that read
//!   must raise the put's stamp. Two manual clocks stage it.

use aru_core::{NodeId, Stp};
use aru_metrics::{IterKey, SharedTrace, Trace, TraceEvent};
use stampede::bench_api;
use stampede::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use vtime::{Clock, ManualClock, Micros, SimTime, Timestamp, WallClock};

/// Runs here start two task threads each; one at a time keeps the two
/// regimes (and the stamp-order runs) from competing for the CPUs.
static SERIAL: Mutex<()> = Mutex::new(());

const ITEM_BYTES: usize = 64;

/// [`WallClock`] that counts its reads.
#[derive(Default)]
struct CountingClock {
    wall: WallClock,
    reads: AtomicU64,
}

impl Clock for CountingClock {
    fn now(&self) -> SimTime {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.wall.now()
    }
}

#[derive(Clone, Copy)]
enum Edge {
    Queue(QueueBackend),
    Channel,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// The sink waits until the source has put every item, so neither
    /// side waits for the other.
    FillThenDrain,
    /// Both run at once; the sink blocks when the buffer is empty.
    Streaming,
    /// Streaming, and the sink takes every other item by polling.
    StreamingPolled,
}

/// Move `items` items through `src → buffer → sink`; return the run's
/// trace and the pacing sleep the source asked for, in µs.
fn run(edge: Edge, items: u64, regime: Regime, clock: Arc<dyn Clock>) -> (Trace, u64) {
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc).with_clock(clock);
    let telemetry = b.telemetry().clone();
    let src = b.thread("src");
    let snk = b.thread("sink");
    let (filled, wait_filled) = mpsc::channel::<()>();
    let (done, finished) = mpsc::channel::<()>();
    let mut wait_filled = (regime == Regime::FillThenDrain).then_some(wait_filled);
    let mut poll = false;
    let mut sent = 0u64;
    let last = Timestamp(items - 1);
    // The source puts `items` items and stops; the sink stops on the last.
    let mut put =
        move |ctx: &mut TaskCtx, put: &mut dyn FnMut(&mut TaskCtx, Timestamp) -> TaskResult| {
            put(ctx, Timestamp(sent))?;
            sent += 1;
            if sent < items {
                return Ok(Step::Continue);
            }
            let _ = filled.send(());
            Ok(Step::Stop)
        };
    let mut take =
        move |ctx: &mut TaskCtx,
              get: &mut dyn FnMut(&mut TaskCtx, bool) -> Result<Timestamp, StampedeError>| {
            if let Some(filled) = wait_filled.take() {
                filled.recv().expect("the source fills the buffer");
            }
            poll = regime == Regime::StreamingPolled && !poll;
            let ts = get(ctx, poll)?;
            ctx.emit_output(ts);
            if ts < last {
                return Ok(Step::Continue);
            }
            let _ = done.send(());
            Ok(Step::Stop)
        };
    match edge {
        Edge::Queue(backend) => {
            let q = b.queue_with_backend::<Vec<u8>>("Q", backend);
            let mut out = b.connect_queue_out(src, &q).unwrap();
            let mut inp = b.connect_queue_in(&q, snk).unwrap();
            b.spawn(src, move |ctx| {
                put(ctx, &mut |ctx, ts| {
                    out.put(ctx, ts, vec![0u8; ITEM_BYTES])?;
                    Ok(Step::Continue)
                })
            });
            b.spawn(snk, move |ctx| {
                take(ctx, &mut |ctx, poll| loop {
                    if !poll {
                        break Ok(inp.get(ctx)?.ts);
                    }
                    if let Some(item) = inp.try_get(ctx)? {
                        break Ok(item.ts);
                    }
                    std::thread::yield_now();
                })
            });
        }
        Edge::Channel => {
            let ch = b.channel::<Vec<u8>>("C");
            let out = b.connect_out(src, &ch).unwrap();
            let mut inp = b.connect_in(&ch, snk).unwrap();
            b.spawn(src, move |ctx| {
                put(ctx, &mut |ctx, ts| {
                    out.put(ctx, ts, vec![0u8; ITEM_BYTES])?;
                    Ok(Step::Continue)
                })
            });
            b.spawn(snk, move |ctx| {
                take(ctx, &mut |ctx, poll| loop {
                    if !poll {
                        break Ok(inp.get_latest(ctx)?.ts);
                    }
                    if let Some(item) = inp.try_get_latest(ctx)? {
                        break Ok(item.ts);
                    }
                    std::thread::yield_now();
                })
            });
        }
    }
    let running = b.build().unwrap().start();
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the sink takes the last item");
    let trace = running.stop().expect("no task failed").trace;
    let snap = telemetry.registry.snapshot();
    let slept = snap.counter("aru_pace_sleep_us_total", &[("thread", "src")]);
    (trace, slept)
}

/// Clock reads per item over a whole run, start and stop included, less
/// one read per DGC pass the run's wall time allows: a pass is due at most
/// every 2 ms, and the iteration after one begins with a fresh read, so how
/// many there are depends on how fast the host moves the items. Also
/// returns the source's requested pacing sleep per item, in µs.
fn reads_per_item(items: u64, regime: Regime) -> (f64, f64) {
    let clock = Arc::new(CountingClock::default());
    let edge = Edge::Queue(QueueBackend::Mutex);
    let t0 = Instant::now();
    let (_, slept) = run(edge, items, regime, Arc::clone(&clock) as Arc<dyn Clock>);
    let passes = t0.elapsed().as_micros() as u64 / 2_000 + 1;
    let reads = clock.reads.load(Ordering::Relaxed);
    let per_item = |n: u64| n as f64 / items as f64;
    (per_item(reads.saturating_sub(passes)), per_item(slept))
}

/// Fill-then-drain: each side reads the clock twice per item, the source
/// at its put and its iteration end, the sink at its output and its
/// iteration end; every iteration begins at the previous end read and every
/// get is stamped from the last read. The 0.005 covers the reads of start
/// and stop.
#[test]
fn fill_then_drain_reads_the_clock_four_times_per_item() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (per_item, _) = reads_per_item(20_000, Regime::FillThenDrain);
    eprintln!("fill-then-drain: {per_item:.3} clock reads per item");
    assert!(per_item <= 4.005, "{per_item:.3} clock reads per item");
}

/// Streaming adds a block begin and a wake-up read on each get the sink
/// parks for, and a fresh begin after each pacing sleep of the source.
/// ARU-min streaming is bistable here (ROADMAP 1b): either the source is
/// almost never paced and the sink rarely parks (4.1 reads per item), or
/// the source asks for ≥ 1 µs sleeps before many puts, the timer stretches
/// them, and the sink parks more often (4.4–4.7 reads per item with 0.5–1.1
/// µs of requested sleep per item). Each requested µs of
/// sleep therefore allows three reads: the fresh begin after the sleep,
/// and the block begin and wake-up of the get it leaves waiting.
#[test]
fn streaming_reads_the_clock_at_most_four_and_a_half_times_per_item() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (per_item, slept) = reads_per_item(20_000, Regime::Streaming);
    let what = format!("{per_item:.3} clock reads, {slept:.3} µs of pacing sleep per item");
    eprintln!("streaming: {what}");
    assert!(per_item <= 4.5 + 3.0 * slept, "{what}");
}

fn check_time_order(trace: &Trace) {
    if let Some(w) = trace
        .events()
        .windows(2)
        .find(|w| w[1].time() < w[0].time())
    {
        panic!("snapshot goes back in time: {:?} after {:?}", w[1], w[0]);
    }
}

/// The stamp-order checks over one run's trace; returns how many items
/// and iterations they covered.
fn check_stamp_order(trace: &Trace) -> (usize, usize) {
    check_time_order(trace);
    let mut iter_end: HashMap<IterKey, SimTime> = HashMap::new();
    let mut last_end: HashMap<aru_core::NodeId, SimTime> = HashMap::new();
    let mut alloc = HashMap::new();
    let mut first_get = HashMap::new();
    let mut last_get = HashMap::new();
    // The snapshot is time-ordered across tasks, so per task the IterEnd
    // sequence is the seq order only if the times never go back.
    let mut ends: Vec<(IterKey, SimTime)> = Vec::new();
    for ev in trace.events() {
        match *ev {
            TraceEvent::IterEnd { t, iter, .. } => {
                iter_end.insert(iter, t);
                ends.push((iter, t));
            }
            TraceEvent::Alloc { t, item, .. } => {
                alloc.insert(item, t);
            }
            TraceEvent::Get { t, item, .. } => {
                first_get.entry(item).or_insert(t);
                last_get.insert(item, t);
            }
            _ => {}
        }
    }
    ends.sort_by_key(|(k, _)| (k.node, k.seq));
    for &(k, t) in &ends {
        if let Some(prev) = last_end.insert(k.node, t) {
            assert!(
                prev <= t,
                "IterEnd of {k:?} at {t:?} before the previous one at {prev:?}"
            );
        }
    }
    let ended = |iter: IterKey, t: SimTime, what: &str| {
        let end = iter_end
            .get(&iter)
            .unwrap_or_else(|| panic!("{what} of {iter:?} has no IterEnd"));
        assert!(
            t <= *end,
            "{what} of {iter:?} at {t:?} after its IterEnd at {end:?}"
        );
    };
    for ev in trace.events() {
        match *ev {
            TraceEvent::Alloc { t, producer, .. } => ended(producer, t, "Alloc"),
            TraceEvent::Get { t, item, consumer } => {
                let born = alloc.get(&item).expect("every got item was allocated");
                assert!(
                    *born <= t,
                    "{item:?} got at {t:?} before its Alloc at {born:?}"
                );
                ended(consumer, t, "Get");
            }
            TraceEvent::SinkOutput { t, iter, .. } => ended(iter, t, "SinkOutput"),
            TraceEvent::Free { t, item } => {
                let born = alloc.get(&item).expect("every freed item was allocated");
                assert!(
                    *born <= t,
                    "{item:?} freed at {t:?} before its Alloc at {born:?}"
                );
                if let Some(got) = last_get.get(&item) {
                    assert!(
                        *got <= t,
                        "{item:?} freed at {t:?} before its Get at {got:?}"
                    );
                }
            }
            _ => {}
        }
    }
    (first_get.len(), ends.len())
}

/// Streaming with a polling sink on every backend, and fill-then-drain on
/// the mutex queue and the channel. Fill-then-drain, every Alloc is
/// recorded before the sink's first get, so every Get and Free must be
/// stamped at or after every Alloc.
#[test]
fn stamps_keep_alloc_get_free_and_iteration_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (polled, filled) = (Regime::StreamingPolled, Regime::FillThenDrain);
    let mutex = Edge::Queue(QueueBackend::Mutex);
    let lock_free = Edge::Queue(QueueBackend::lock_free());
    for (edge, regime, what) in [
        (mutex, polled, "mutex queue"),
        (lock_free, polled, "lock-free queue"),
        (Edge::Channel, polled, "channel get_latest"),
        (mutex, filled, "mutex queue, filled"),
        (Edge::Channel, filled, "channel get_latest, filled"),
    ] {
        let clock = Arc::new(WallClock::new());
        let (trace, _) = run(edge, 20_000, regime, clock);
        let (items, iterations) = check_stamp_order(&trace);
        assert!(
            iterations >= 20_000,
            "{what}: {iterations} iterations traced"
        );
        // The lock-free queue records no per-item events (DESIGN.md §14).
        if !matches!(edge, Edge::Queue(QueueBackend::LockFree { .. })) {
            assert!(items > 0, "{what}: no item was got");
        }
        if regime != filled {
            continue;
        }
        let last_alloc = trace
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::Alloc { t, .. } => Some(t),
                _ => None,
            })
            .max()
            .expect("the source put items");
        for ev in trace.events() {
            if let TraceEvent::Get { t, .. } | TraceEvent::Free { t, .. } = *ev {
                assert!(
                    last_alloc <= t,
                    "{what}: {ev:?} before the fill's last Alloc at {last_alloc:?}"
                );
            }
        }
    }
}

/// A lone channel put reads the clock under the channel lock, so no other
/// writer's record can fall between its read and its stamp. A fan-out
/// reads once for the whole bundle: its put to channel B must be raised to
/// the Get that B's consumer recorded after that read. The producer's clock
/// reads 10, the consumer's 20, so the Get is at 20 and the fan-out's read
/// at 10.
#[test]
fn fan_out_put_is_raised_to_its_channels_last_record() {
    let trace = SharedTrace::new();
    let producer_clock = Arc::new(ManualClock::new());
    let consumer_clock = Arc::new(ManualClock::new());
    producer_clock.set(SimTime(10));
    consumer_clock.set(SimTime(20));
    let config = AruConfig::aru_min();
    let channel = |node| {
        let clock = Arc::clone(&producer_clock) as Arc<dyn Clock>;
        bench_api::channel::<Vec<u8>>(
            NodeId(node),
            "fan",
            &config,
            GcMode::Ref,
            None,
            clock,
            trace.clone(),
            1,
        )
    };
    let (a, b) = (channel(1), channel(2));
    let task = |node, outputs, clock: &Arc<ManualClock>| {
        let clock = Arc::clone(clock) as Arc<dyn Clock>;
        bench_api::task_ctx(
            NodeId(node),
            "t",
            outputs,
            false,
            &config,
            clock,
            trace.clone(),
        )
    };
    let mut producer = task(3, 2, &producer_clock);
    let mut consumer = task(4, 0, &consumer_clock);
    let b_out = bench_api::output(&b, 1);
    b_out.put(&mut producer, Timestamp(0), vec![0; 4]).unwrap();
    // The consumer reads its clock (20) as it folds a summary, then gets
    // B's item at that read.
    bench_api::warm_summary(&mut consumer, Stp(Micros(1_000)));
    b.get_latest(0, &mut consumer, Timestamp::ZERO).unwrap();
    let fan = FanOut::new(vec![bench_api::output(&a, 0), b_out]);
    fan.put(&mut producer, Timestamp(1), vec![1; 4]).unwrap();
    bench_api::flush_channel_trace(&a);
    bench_api::flush_channel_trace(&b);
    drop((producer, consumer));
    let snap = trace.snapshot();
    let alloc = |buffer| {
        snap.events()
            .iter()
            .find_map(|ev| match *ev {
                TraceEvent::Alloc {
                    t, buffer: at, ts, ..
                } if at == buffer && ts == Timestamp(1) => Some(t),
                _ => None,
            })
            .expect("the fan-out put to both channels")
    };
    assert_eq!(
        alloc(NodeId(1)),
        SimTime(10),
        "A's put keeps the fan-out's read"
    );
    assert_eq!(
        alloc(NodeId(2)),
        SimTime(20),
        "B's put is raised to B's Get"
    );
    check_time_order(&snap);
}
