//! `transport_small_items`: a bench-wired `src -> Q -> sink` pipeline moving
//! 64-byte items one `put`/`get` at a time. No kernels: the task loop, the
//! controller and its law, the queue operation, per-operation recording and
//! park/wake are the whole cost.
//!
//! Closed loop, exactly two task threads (a three-stage pipeline on this
//! 2-core box measured the scheduler, 4-35 us/item run to run); the harness
//! thread sleeps while they run. ARU-min, the runtime's *default* queue
//! backend — whatever `RuntimeBuilder::queue` builds is what ships.
//!
//! Two regimes, because the streaming one cannot be gated on this host:
//!
//! * **streaming** — source and sink run side by side. With ARU-min this is
//!   bistable: ~1.3 us/item or ~5 us/item, whole runs in one mode, the mode
//!   flipping with the host's state (STP is measured in whole microseconds
//!   and the sink's busy time per item sits right at 1 us; when it reads 1
//!   the source is paced by 1 us sleeps that the timer turns into >= 50 us).
//!   Two sets of ten runs spread 74 % and 55 % in throughput, and the
//!   creation-to-delivery latency follows the backlog (p10 10 us in one
//!   mode, 120 us in the other; p50 20-600 us). The traced pass measures
//!   and reports all of it per layer; nothing of it is gated.
//! * **fill, then drain** — the sink holds back until the source has put
//!   every item, so neither side ever waits for the other: what remains is
//!   the software cost per item (task loop, controller, queue operation,
//!   recording), which is what a queue-backend or recorder change moves.
//!   The timed pass runs this: `throughput_per_s` is items over fill + drain,
//!   `latency_us` the drain alone — how long the consumer needs to catch up
//!   with a 200 000-item backlog.

use crate::harness::{clock_overhead_ns, Outcome, Recorders, Rng, RssSampler, RunParams};
use crate::micro;
use crate::spans::Spans;
use crate::stats;
use aru_core::AruConfig;
use aru_gc::GcMode;
use stampede::{QueueBackend, RuntimeBuilder, Step};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use vtime::Timestamp;

const ITEM_BYTES: usize = 64;
const WORDS: usize = ITEM_BYTES / 8;
const ITEMS_PER_REP: u64 = 200_000;
/// Items of a set-up sample and of a backend-matrix cell.
const ITEMS_SETUP: u64 = 2_000;
const ITEMS_MATRIX: u64 = 100_000;
/// Per-call timings of the traced pass are folded into one span per this
/// many calls.
const CALLS_PER_SPAN: u64 = 8_192;

/// One folded batch of per-call timings from a task body.
struct CallBatch {
    start: Instant,
    end: Instant,
    calls: u64,
    busy: Duration,
}

/// Times each call into the layer and folds the timings (see
/// `Spans::record_batch`).
struct CallTimer {
    batches: Vec<CallBatch>,
    start: Option<Instant>,
    calls: u64,
    busy: Duration,
}

impl CallTimer {
    fn new() -> Self {
        CallTimer {
            batches: Vec::new(),
            start: None,
            calls: 0,
            busy: Duration::ZERO,
        }
    }

    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.start.get_or_insert(t0);
        self.calls += 1;
        self.busy += t1 - t0;
        if self.calls == CALLS_PER_SPAN {
            self.fold(t1);
        }
        out
    }

    fn fold(&mut self, end: Instant) {
        if let Some(start) = self.start.take() {
            self.batches.push(CallBatch {
                start,
                end,
                calls: self.calls,
                busy: self.busy,
            });
            self.calls = 0;
            self.busy = Duration::ZERO;
        }
    }

    fn finish(&mut self) -> Vec<CallBatch> {
        self.fold(Instant::now());
        std::mem::take(&mut self.batches)
    }
}

/// What the sink saw, handed to the harness when the last item arrives.
#[derive(Default)]
struct SinkResult {
    /// Fill-then-drain: when the sink was let go.
    drain_started: Option<Instant>,
    finished: Option<Instant>,
    delivered: u64,
    /// Items that were not the next one in order, or whose payload differs
    /// from the generated stream.
    wrong: u64,
    /// Creation stamp to `get` return, per item.
    latency_ns: Vec<u32>,
    get_calls: Vec<CallBatch>,
}

/// What the source saw, handed over when it stops.
#[derive(Default)]
struct SourceResult {
    first_put: Option<Instant>,
    put_calls: Vec<CallBatch>,
}

struct Rep {
    /// `Runtime::start` to the sink's last item.
    wall: Duration,
    /// Entry (before the graph is built) to the return of the source's
    /// first `put`: graph built, threads started, the first item queued.
    first_put: Duration,
    sink: SinkResult,
    put_calls: Vec<CallBatch>,
    outputs: usize,
    trace_events: usize,
    stop: Duration,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Regime {
    Streaming,
    FillThenDrain,
}

/// One repetition's parameters; `RepSpec::new` is the shipping default
/// (ARU-min, default backend, streaming, recorders off, calls not timed).
struct RepSpec {
    regime: Regime,
    backend: Option<QueueBackend>,
    aru: AruConfig,
    items: u64,
    seed: u64,
    recorders: Option<Recorders>,
    time_calls: bool,
}

impl RepSpec {
    fn new(items: u64, seed: u64) -> Self {
        RepSpec {
            regime: Regime::Streaming,
            backend: None,
            aru: AruConfig::aru_min(),
            items,
            seed,
            recorders: None,
            time_calls: false,
        }
    }
}

/// Build, run to completion and stop one pipeline moving `items` items.
fn run_rep(spec: RepSpec) -> Rep {
    let RepSpec {
        regime,
        backend,
        aru,
        items,
        seed,
        recorders,
        time_calls,
    } = spec;
    let entry = Instant::now();
    let mut b = RuntimeBuilder::new(aru, GcMode::Dgc);
    if let Some(backend) = backend {
        b = b.with_queue_backend(backend);
    }
    if let Some(r) = recorders {
        b = b
            .with_export(r.export, r.export_interval)
            .with_journal(r.journal);
    }
    let q = b.queue::<Vec<u8>>("Q");
    let src = b.thread("src");
    let snk = b.thread("sink");
    let mut out = b.connect_queue_out(src, &q).expect("src -> Q");
    let mut inp = b.connect_queue_in(&q, snk).expect("Q -> sink");

    // The sink sends what it saw when the last item arrives; until then the
    // harness thread is asleep in `recv`.
    let (done, finished) = mpsc::channel::<SinkResult>();
    let source_result = Arc::new(Mutex::new(SourceResult::default()));
    // Fill-then-drain: the sink waits for this before its first `get`.
    let (filled, wait_filled) = mpsc::channel::<()>();

    // Source: item i is [creation stamp, i, six words of the seeded stream].
    {
        let mut rng = Rng::new(seed);
        let mut sent = 0u64;
        let mut timer = CallTimer::new();
        let mut first_put = None;
        let source_result = Arc::clone(&source_result);
        b.spawn(src, move |ctx| {
            let mut payload = vec![0u8; ITEM_BYTES];
            payload[8..16].copy_from_slice(&sent.to_le_bytes());
            for w in 2..WORDS {
                payload[8 * w..8 * w + 8].copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            let stamp = entry.elapsed().as_nanos() as u64;
            payload[..8].copy_from_slice(&stamp.to_le_bytes());
            let ts = Timestamp(sent);
            if time_calls {
                timer.time(|| out.put(ctx, ts, payload))?;
            } else {
                out.put(ctx, ts, payload)?;
            }
            first_put.get_or_insert_with(Instant::now);
            sent += 1;
            if sent < items {
                return Ok(Step::Continue);
            }
            // Hand over in the iteration of the last put: once the sink has
            // that item the harness stops the runtime, and this body does
            // not run again.
            *source_result
                .lock()
                .expect("harness does not panic holding this") = SourceResult {
                first_put,
                put_calls: timer.finish(),
            };
            // Nobody listens when streaming; that is fine.
            let _ = filled.send(());
            Ok(Step::Stop)
        });
    }

    // Sink: regenerates the stream independently and checks every item is
    // the next one, exactly once, unchanged.
    {
        let mut rng = Rng::new(seed);
        let mut local = SinkResult {
            latency_ns: Vec::with_capacity(items as usize),
            ..SinkResult::default()
        };
        let mut timer = CallTimer::new();
        let mut wait_filled = (regime == Regime::FillThenDrain).then_some(wait_filled);
        b.spawn(snk, move |ctx| {
            if let Some(filled) = wait_filled.take() {
                // An error means the source died; the `get` below reports it.
                let _ = filled.recv();
                local.drain_started = Some(Instant::now());
            }
            let item = if time_calls {
                timer.time(|| inp.get(ctx))?
            } else {
                inp.get(ctx)?
            };
            let now = Instant::now();
            let word = |w: usize| {
                u64::from_le_bytes(item.value[8 * w..8 * w + 8].try_into().expect("8 bytes"))
            };
            let mut ok = item.value.len() == ITEM_BYTES
                && item.ts == Timestamp(local.delivered)
                && word(1) == local.delivered;
            for w in 2..WORDS {
                ok &= word(w) == rng.next_u64();
            }
            local.wrong += u64::from(!ok);
            let age = ((now - entry).as_nanos() as u64).saturating_sub(word(0));
            local.latency_ns.push(age.min(u64::from(u32::MAX)) as u32);
            ctx.emit_output(item.ts);
            local.delivered += 1;
            if local.delivered == items {
                local.finished = Some(now);
                local.get_calls = timer.finish();
                // The harness holds the receiver until it has this message.
                let _ = done.send(std::mem::take(&mut local));
                return Ok(Step::Stop);
            }
            Ok(Step::Continue)
        });
    }

    let runtime = b.build().expect("transport graph builds");
    let started = Instant::now();
    let running = runtime.start();
    let sink = finished.recv().expect("the sink task finishes");
    let t_stop = Instant::now();
    let report = running.stop().expect("no task failed");
    let stop = t_stop.elapsed();
    let source = std::mem::take(&mut *source_result.lock().expect("tasks are joined"));
    Rep {
        wall: sink.finished.expect("sink finished") - started,
        first_put: source.first_put.expect("source put an item") - entry,
        outputs: report.outputs(),
        trace_events: report.trace.len(),
        sink,
        put_calls: source.put_calls,
        stop,
    }
}

fn items_per_s(rep: &Rep) -> f64 {
    rep.sink.delivered as f64 / rep.wall.as_secs_f64()
}

/// Creation-to-delivery latencies of one repetition, ascending, in us.
fn latencies_us(rep: &Rep) -> Vec<f64> {
    let mut v: Vec<f64> = rep
        .sink
        .latency_ns
        .iter()
        .map(|&n| f64::from(n) / 1e3)
        .collect();
    stats::sort(&mut v);
    v
}

/// Exactly-once, in-order, unchanged delivery, and one sink output per item.
fn check_rep(out: &mut Outcome, rep: &Rep, items: u64) {
    out.attempted += items;
    let missing = items - rep.sink.delivered.min(items);
    let unreported = items.saturating_sub(rep.outputs as u64);
    out.failed += (rep.sink.wrong + missing).max(unreported);
}

fn items_for(rp: &RunParams) -> u64 {
    if rp.smoke {
        ITEMS_PER_REP / 10
    } else {
        ITEMS_PER_REP
    }
}

fn fill_then_drain(items: u64, seed: u64) -> Rep {
    run_rep(RepSpec {
        regime: Regime::FillThenDrain,
        ..RepSpec::new(items, seed)
    })
}

/// Fill-then-drain: time from the sink being let go to its last item.
fn drain_us(rep: &Rep) -> f64 {
    let s = &rep.sink;
    (s.finished.expect("sink finished") - s.drain_started.expect("sink was held")).as_secs_f64()
        * 1e6
}

pub fn timed(rp: &RunParams) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = rp.median_setup_s(|| {
        let rep = run_rep(RepSpec::new(ITEMS_SETUP, rp.seed));
        check_rep(&mut out, &rep, ITEMS_SETUP);
        rep.first_put.as_secs_f64()
    });
    let items = items_for(rp);
    let deadline = Instant::now() + rp.secs(1.0);
    let (mut rates, mut drains) = (Vec::new(), Vec::new());
    let rss = RssSampler::start();
    while rates.is_empty() || Instant::now() < deadline {
        let rep = fill_then_drain(items, rp.seed);
        check_rep(&mut out, &rep, items);
        rates.push(items_per_s(&rep));
        drains.push(drain_us(&rep));
    }
    let rss_mean_mb = rss.finish();
    out.check(
        "transport: every item delivered exactly once, in order, unchanged",
        out.failed == 0,
        format!(
            "{} items over {} repetitions, {} wrong",
            out.attempted,
            rates.len(),
            out.failed
        ),
    );
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("throughput_per_s", stats::median(&rates));
    m.set("latency_us", stats::median(&drains));
    m.set("memory_mb", rss_mean_mb);
    out
}

pub fn traced(name: &str, rp: &RunParams, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let items = items_for(rp);
    let smoke = rp.smoke;
    let aru = AruConfig::aru_min;

    let rss = RssSampler::start();
    let (reference, _) = spans.scope("reference repetition, recorders off", |_| {
        run_rep(RepSpec::new(items, rp.seed))
    });
    let rss_mean_mb = rss.finish();
    check_rep(&mut out, &reference, items);
    let (traced, _) = spans.scope(
        "traced repetition, exporter + journal on, calls timed",
        |s| {
            let rep = run_rep(RepSpec {
                recorders: Some(rp.recorders(name)),
                time_calls: true,
                ..RepSpec::new(items, rp.seed)
            });
            for (label, batches) in [
                ("stampede::QueueOutput::put", &rep.put_calls),
                ("stampede::QueueInput::get", &rep.sink.get_calls),
            ] {
                for b in batches {
                    s.record_batch(label, b.start, b.end, b.calls, b.busy);
                }
            }
            rep
        },
    );
    check_rep(&mut out, &traced, items);
    let (gated, _) = spans.scope("fill-then-drain repetition (the gated regime)", |_| {
        fill_then_drain(items, rp.seed)
    });
    check_rep(&mut out, &gated, items);
    let fill_drain_ns = 1e9 / items_per_s(&gated);
    drop(gated);
    out.check(
        "transport: every item delivered exactly once, in order, unchanged",
        out.failed == 0,
        format!("{} items, {} wrong", out.attempted, out.failed),
    );

    let overhead = clock_overhead_ns();
    let mean_call_ns = |batches: &[CallBatch]| {
        let calls: u64 = batches.iter().map(|b| b.calls).sum();
        let busy: Duration = batches.iter().map(|b| b.busy).sum();
        busy.as_nanos() as f64 / calls.max(1) as f64 - overhead
    };
    let put_call_ns = mean_call_ns(&traced.put_calls);
    let get_call_ns = mean_call_ns(&traced.sink.get_calls);
    let e2e_ns = 1e9 / items_per_s(&reference);

    let m = &mut out.metrics;
    m.set(
        "tracing_overhead_pct",
        100.0 * (items_per_s(&reference) - items_per_s(&traced)) / items_per_s(&reference),
    );
    m.set("stampede.transport.fill_drain_ns_per_item", fill_drain_ns);
    m.set("stampede.transport.put_call_ns", put_call_ns);
    m.set("stampede.transport.get_call_ns", get_call_ns);
    m.set("stampede.stop_ms", reference.stop.as_secs_f64() * 1e3);
    m.set("rss_mean_mb", rss_mean_mb);
    m.set(
        "metrics.trace.events_per_item",
        reference.trace_events as f64 / items as f64,
    );
    let lat = latencies_us(&reference);
    m.set("latency_p50_us", stats::percentile_sorted(&lat, 50.0));
    m.set("latency_p95_us", stats::percentile_sorted(&lat, 95.0));
    m.set("latency_p99_us", stats::percentile_sorted(&lat, 99.0));
    m.set("latency_samples", lat.len() as f64);
    if let Some(p) = stats::highest_supported_percentile(lat.len()) {
        m.set("latency_tail_pct", p);
        m.set("latency_tail_us", stats::percentile_sorted(&lat, p));
    }
    drop((reference, traced));

    // Backend x ARU matrix: the evidence the queue-backend decision needs.
    // The default backend's ARU-on cell is the end-to-end figure itself.
    let matrix_items = if smoke {
        ITEMS_MATRIX / 10
    } else {
        ITEMS_MATRIX
    };
    let mut cell = |label: &str, backend: QueueBackend, aru: AruConfig| {
        let (rep, _) = spans.scope(label, |_| {
            run_rep(RepSpec {
                backend: Some(backend),
                aru,
                ..RepSpec::new(matrix_items, rp.seed)
            })
        });
        out.attempted += matrix_items;
        out.failed += rep.sink.wrong + (matrix_items - rep.sink.delivered.min(matrix_items));
        1e9 / items_per_s(&rep)
    };
    let mutex_on = cell("matrix: mutex queue, ARU-min", QueueBackend::Mutex, aru());
    let mutex_off = cell(
        "matrix: mutex queue, ARU off",
        QueueBackend::Mutex,
        AruConfig::disabled(),
    );
    let lf_on = cell(
        "matrix: lock-free queue, ARU-min",
        QueueBackend::lock_free(),
        aru(),
    );
    let lf_off = cell(
        "matrix: lock-free queue, ARU off",
        QueueBackend::lock_free(),
        AruConfig::disabled(),
    );
    let default_is_lf = QueueBackend::default().is_lock_free();
    let m = &mut out.metrics;
    m.set("stampede.transport.mutex_ns_per_item", mutex_on);
    m.set("stampede.transport.mutex_noaru_ns_per_item", mutex_off);
    m.set("stampede.transport.lockfree_ns_per_item", lf_on);
    m.set("stampede.transport.lockfree_noaru_ns_per_item", lf_off);
    let (on, off) = if default_is_lf {
        (lf_on, lf_off)
    } else {
        (mutex_on, mutex_off)
    };
    m.set("aru.overhead_ns_per_item", on - off);

    // Micro pass: the layers under the pipeline, called directly.
    let slice = if smoke {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(400)
    };
    micro::queue_ops(spans, m);
    micro::task_loop(spans, m, slice);
    micro::handoff(spans, m, slice);
    micro::recorders(spans, m);
    micro::controller(spans, m);

    // Budget of the gated figure (fill, then drain): each item costs one
    // put and one get, each with no one to wait for, one task-loop iteration
    // on either side, and the sink's output record. What is left is the
    // bench's own body (payload, checking) and the cache misses of a
    // 200 000-item queue that the small warm batches of the micro pass never
    // see.
    let get = |k: &str| m.get(k).unwrap_or(0.0);
    let (put_ns, get_ns) = if default_is_lf {
        (
            get("stampede.lfqueue.put_ns"),
            get("stampede.lfqueue.get_ns"),
        )
    } else {
        (get("stampede.queue.put_ns"), get("stampede.queue.get_ns"))
    };
    let iter_ns = get("stampede.task_loop.iter_ns");
    let events = get("metrics.trace.events_per_item");
    let record_ns = get("metrics.trace.record_ns");
    let attributed = put_ns + get_ns + 2.0 * iter_ns + record_ns;
    let unattributed = 1.0 - attributed / fill_drain_ns;
    let backend = if default_is_lf { "lock-free" } else { "mutex" };
    out.table.extend([
        format!(
            "budget, {name}: {fill_drain_ns:.0} ns of wall per item, fill then drain ({:.0} items/s, default backend: {backend})",
            1e9 / fill_drain_ns
        ),
        format!("  queue op, uncontended      put {put_ns:>7.0} ns   get {get_ns:>7.0} ns"),
        format!(
            "  recorder                   {events:.1} events/item x {record_ns:.1} ns = {:.0} ns (all but the sink's output record inside the ops and the loop)",
            events * record_ns
        ),
        format!(
            "  task loop + controller     2 x {iter_ns:.0} ns/iteration (controller {:.0} ns of it; ARU off {:.0} ns)",
            get("aru_core.controller.iteration_ns"),
            get("stampede.task_loop.iter_noaru_ns")
        ),
        format!("  attributed {attributed:.0} ns; budget.unattributed_share {unattributed:.3}"),
    ]);

    // The streaming regime, not gated (see the module docs). The two task
    // threads run side by side, so the slower side sets the time per item; a
    // side costs its call into the queue as timed inside the pipeline
    // (uncontended cost + waiting/park/wake) plus one task-loop iteration.
    // The source's pacing sleep cannot be seen from outside and is what
    // remains.
    let src_side = put_call_ns + iter_ns;
    let sink_side = get_call_ns + iter_ns;
    let stream_attributed = src_side.max(sink_side);
    out.table.extend([
        format!(
            "streaming, {name}: {e2e_ns:.0} ns of wall per item ({:.0} items/s, ARU-min, default backend: {backend})",
            1e9 / e2e_ns
        ),
        format!(
            "  hand-off / wait            put +{:>6.0} ns   get +{:>6.0} ns in the pipeline over uncontended; park/wake round trip {:.0} ns",
            put_call_ns - put_ns,
            get_call_ns - get_ns,
            get("stampede.handoff.roundtrip_ns")
        ),
        format!(
            "  source side {src_side:.0} ns = put {put_call_ns:.0} + loop {iter_ns:.0}; sink side {sink_side:.0} ns = get {get_call_ns:.0} + loop {iter_ns:.0}"
        ),
        format!(
            "  attributed {stream_attributed:.0} ns (slower side); unattributed share {:.3}",
            1.0 - stream_attributed / e2e_ns
        ),
        format!(
            "  backend x ARU, ns/item     mutex {mutex_on:.0} (ARU off {mutex_off:.0})   lock-free {lf_on:.0} (ARU off {lf_off:.0})"
        ),
    ]);
    m.set("budget.unattributed_share", unattributed);
    out
}
