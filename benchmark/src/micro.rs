//! The micro pass: each layer's public functions called directly, outside any
//! pipeline, so a layer's own cost can be set against the end-to-end cost per
//! frame, item or event. Every measurement is a span; none is gated.

use crate::harness::{batch_ns, clock_overhead_ns, per_call_ns};
use crate::spans::Spans;
use crate::spec::Metrics;
use aru_core::{AruConfig, AruController, NodeId, NodeKind, Stp};
use aru_gc::{ConsumerMarks, DgcEngine, GcMode};
use aru_metrics::{
    FeedbackHop, HopKind, IterKey, Journal, JournalKind, Registry, SharedTrace, SpanRecorder,
};
use stampede::{bench_api, FanOut, RuntimeBuilder, Step};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracker::kernels::{build_histogram, detect_target, subtract_background};
use tracker::{ColorModel, SyntheticVideo, TargetLocation, TrackerGraph};
use vtime::{Clock, Micros, SimTime, Timestamp, WallClock};

fn wall_clock() -> Arc<dyn Clock> {
    Arc::new(WallClock::new())
}

/// Kernel costs per frame, one thread: frame synthesis and the three vision
/// kernels on their own, then all of them per frame as the single-threaded
/// baseline (`tracker.serial_fps`).
pub fn tracker_kernels(spans: &mut Spans, m: &mut Metrics, seed: u64, frames: usize) {
    spans.scope("micro.tracker.kernels", |spans| {
        let video = SyntheticVideo::two_person_scene(seed);
        let background = video.background_frame();
        let models = ColorModel::scene_models(&video);
        let frame = video.frame(7);
        let mask = subtract_background(&background, &frame);
        let hist = build_histogram(&frame);
        let mut call = |name: &str, f: &mut dyn FnMut(usize)| {
            let (ns, _) = spans.scope(name, |_| per_call_ns(frames, f));
            ns / 1e3
        };
        m.set(
            "tracker.video.frame_us",
            call("tracker::SyntheticVideo::frame", &mut |i| {
                black_box(video.frame(i as u64));
            }),
        );
        m.set(
            "tracker.kernels.background_us",
            call("tracker::kernels::subtract_background", &mut |_| {
                black_box(subtract_background(&background, black_box(&frame)));
            }),
        );
        m.set(
            "tracker.kernels.histogram_us",
            call("tracker::kernels::build_histogram", &mut |_| {
                black_box(build_histogram(black_box(&frame)));
            }),
        );
        m.set(
            "tracker.kernels.detect_us",
            call("tracker::kernels::detect_target", &mut |i| {
                black_box(detect_target(&frame, &mask, &hist, &models[i % 2]));
            }),
        );
        let (_, serial) = spans.scope("tracker serial baseline", |_| {
            for i in 0..frames {
                let frame = video.frame(i as u64);
                let mask = subtract_background(&background, &frame);
                let hist = build_histogram(&frame);
                for model in &models {
                    black_box(detect_target(&frame, &mask, &hist, model));
                }
            }
        });
        m.set("tracker.serial_fps", frames as f64 / serial.as_secs_f64());
    });
}

/// Channel operations as the tracker uses them: a small-record put, the
/// consumer's get-latest + release, and the digitizer's three-way frame
/// fan-out (one `Arc` shared by three channels).
pub fn channel_ops(spans: &mut Spans, m: &mut Metrics, seed: u64) {
    spans.scope("micro.stampede.channel", |spans| {
        let clock = wall_clock();
        let trace = SharedTrace::new();
        let cfg = AruConfig::aru_min();
        let overhead = clock_overhead_ns();
        let ch = bench_api::channel::<TargetLocation>(
            NodeId(100),
            "bench-ch",
            &cfg,
            GcMode::Ref,
            None,
            Arc::clone(&clock),
            trace.clone(),
            1,
        );
        let out = bench_api::output(&ch, 0);
        let mut prod = bench_api::task_ctx(
            NodeId(101),
            "bench-prod",
            1,
            true,
            &cfg,
            Arc::clone(&clock),
            trace.clone(),
        );
        let mut cons = bench_api::task_ctx(
            NodeId(102),
            "bench-cons",
            0,
            false,
            &cfg,
            Arc::clone(&clock),
            trace.clone(),
        );
        bench_api::warm_summary(&mut cons, Stp::from_micros(1_000));
        const OPS: usize = 20_000;
        let mut put_ns = Vec::with_capacity(OPS);
        let mut get_ns = Vec::with_capacity(OPS);
        spans.scope("stampede::Channel::{put,get_latest,release}", |_| {
            for i in 0..OPS {
                let ts = Timestamp(i as u64);
                let rec = TargetLocation::not_found(i as u64, 0);
                let t0 = Instant::now();
                out.put(&mut prod, ts, rec).expect("open channel");
                let t1 = Instant::now();
                let item = ch.get_latest(0, &mut cons, ts).expect("item just put");
                ch.release(0, item.ts);
                let t2 = Instant::now();
                put_ns.push((t1 - t0).as_nanos() as f64 - overhead);
                get_ns.push((t2 - t1).as_nanos() as f64 - overhead);
            }
        });
        m.set("stampede.channel.put_ns", crate::stats::median(&put_ns));
        m.set(
            "stampede.channel.get_latest_ns",
            crate::stats::median(&get_ns),
        );

        // Frame fan-out: frames are synthesized outside the timed call.
        let video = SyntheticVideo::two_person_scene(seed);
        let chans: Vec<_> = (0..3)
            .map(|i| {
                bench_api::channel::<tracker::Frame>(
                    NodeId(110 + i),
                    "bench-fan",
                    &cfg,
                    GcMode::Ref,
                    None,
                    Arc::clone(&clock),
                    trace.clone(),
                    1,
                )
            })
            .collect();
        let fan = FanOut::new(
            chans
                .iter()
                .enumerate()
                .map(|(i, c)| bench_api::output(c, i))
                .collect(),
        );
        let mut dig = bench_api::task_ctx(
            NodeId(120),
            "bench-dig",
            3,
            true,
            &cfg,
            Arc::clone(&clock),
            trace.clone(),
        );
        let mut fan_ns = Vec::new();
        spans.scope("stampede::FanOut::put x3 channels", |_| {
            for i in 0..64u64 {
                let frame = video.frame(i);
                let t0 = Instant::now();
                fan.put(&mut dig, Timestamp(i), frame)
                    .expect("open channels");
                fan_ns.push(t0.elapsed().as_nanos() as f64 - overhead);
                for c in &chans {
                    c.release(0, Timestamp(i));
                }
            }
        });
        m.set(
            "stampede.fanout.put3_frame_ns",
            crate::stats::median(&fan_ns),
        );
    });
}

/// One controller iteration as the task loop drives it: begin, one feedback
/// fold, end.
pub fn controller(spans: &mut Spans, m: &mut Metrics) {
    let (ns, _) = spans.scope("aru_core::AruController iteration", |_| {
        let mut c = AruController::new(NodeKind::Thread, 1, true, &AruConfig::aru_min());
        let mut now = 0u64;
        batch_ns(50, 2_000, |i| {
            c.iteration_begin(SimTime(now));
            // A summary that keeps moving, so the fold and the law do work.
            black_box(c.receive_feedback_at(
                0,
                Stp::from_micros(900 + (i % 7) as u64),
                SimTime(now + 40),
            ));
            black_box(c.iteration_end(SimTime(now + 100)));
            now += 1_000;
        })
    });
    m.set("aru_core.controller.iteration_ns", ns);
}

/// One Dead-Timestamp GC propagation pass over the tracker's 6-task /
/// 9-channel graph, marks advancing between passes as in a live run.
pub fn dgc_pass(spans: &mut Spans, m: &mut Metrics) {
    let (ns, _) = spans.scope("aru_gc::DgcEngine::compute (tracker graph)", |_| {
        let topo = TrackerGraph::topology();
        let engine = DgcEngine::new(&topo);
        let mut marks: HashMap<NodeId, ConsumerMarks> = topo
            .node_ids()
            .filter(|n| topo.kind(*n).is_buffer())
            .map(|n| (n, ConsumerMarks::new(topo.out_degree(n))))
            .collect();
        per_call_ns(2_000, |i| {
            for (_, mk) in marks.iter_mut() {
                for c in 0..mk.len() {
                    mk.advance(c, Timestamp(i as u64));
                }
            }
            black_box(engine.compute(&topo, &marks));
        })
    });
    m.set("aru_gc.dgc.pass_us", ns / 1e3);
}

/// The four recorders, one record each, written the way the runtime writes
/// them (buffered trace writer, journal shard, span shard, registry counter).
pub fn recorders(spans: &mut Spans, m: &mut Metrics) {
    spans.scope("micro.metrics.recorders", |spans| {
        let (ns, _) = spans.scope("aru_metrics::LocalTrace alloc+get+free", |_| {
            let trace = SharedTrace::new();
            let mut local = trace.local();
            batch_ns(50, 2_000, |i| {
                let t = SimTime(i as u64);
                let key = IterKey::new(NodeId(1), i as u64);
                let id = local.alloc(t, NodeId(2), Timestamp(i as u64), 64, key);
                local.get(t, id, key);
                local.free(t, id);
            }) / 3.0
        });
        m.set("metrics.trace.record_ns", ns);
        let (ns, _) = spans.scope("aru_metrics::JournalShard::record", |_| {
            let journal = Journal::new();
            let shard = journal.shard();
            batch_ns(50, 2_000, |i| {
                shard.record(
                    SimTime(i as u64),
                    NodeId(1),
                    JournalKind::Pace {
                        law: 0,
                        raw: Micros(i as u64),
                        target: Micros(i as u64),
                        sleep: Micros(3),
                        clamped: false,
                    },
                );
            })
        });
        m.set("metrics.journal.record_ns", ns);
        let (ns, _) = spans.scope("aru_metrics::SpanShard::record", |_| {
            let rec = SpanRecorder::new();
            let shard = rec.shard();
            batch_ns(50, 2_000, |i| {
                shard.record(FeedbackHop {
                    t: SimTime(i as u64),
                    kind: HopKind::Fold,
                    node: NodeId(1),
                    peer: NodeId(2),
                    value: Micros(i as u64),
                    extra: Micros::ZERO,
                });
            })
        });
        m.set("metrics.spans.record_ns", ns);
        let (ns, _) = spans.scope("aru_metrics::Counter::inc", |_| {
            let reg = Registry::new();
            let c = reg.counter("bench_ops_total", &[("thread", "bench")]);
            batch_ns(50, 2_000, |_| c.inc())
        });
        m.set("metrics.registry.counter_ns", ns);
    });
}

/// Uncontended single put and get on both FIFO implementations, one thread,
/// a batch of puts then a batch of gets (bounded working set).
pub fn queue_ops(spans: &mut Spans, m: &mut Metrics) {
    spans.scope("micro.stampede.queue", |spans| {
        let clock = wall_clock();
        let trace = SharedTrace::new();
        let cfg = AruConfig::aru_min();
        let ctx = |node: u32, source: bool| {
            let mut c = bench_api::task_ctx(
                NodeId(node),
                "bench-q",
                usize::from(source),
                source,
                &cfg,
                Arc::clone(&clock),
                trace.clone(),
            );
            if !source {
                bench_api::warm_summary(&mut c, Stp::from_micros(1_000));
            }
            c
        };
        let q = bench_api::queue::<Vec<u8>>(
            NodeId(200),
            "bench-mq",
            &cfg,
            Arc::clone(&clock),
            trace.clone(),
            1,
        );
        let out = bench_api::queue_output(&q, 0);
        let mut inp = bench_api::queue_input(&q, 0);
        let (mut prod, mut cons) = (ctx(201, true), ctx(202, false));
        let ((put, get), _) = spans.scope("stampede::Queue::{put,get}", |_| {
            put_get_ns(
                |ts, item| out.put(&mut prod, ts, item).expect("open queue"),
                || drop(black_box(inp.get(&mut cons).expect("item queued"))),
            )
        });
        m.set("stampede.queue.put_ns", put);
        m.set("stampede.queue.get_ns", get);

        let q =
            bench_api::lfqueue::<Vec<u8>>(NodeId(210), "bench-lfq", &cfg, 1024, trace.clone(), 1);
        let mut out = bench_api::lfqueue_output(&q, 0);
        let mut inp = bench_api::lfqueue_input(&q, 0);
        let (mut prod, mut cons) = (ctx(211, true), ctx(212, false));
        let ((put, get), _) = spans.scope("stampede::LfQueue::{put,get}", |_| {
            put_get_ns(
                |ts, item| out.put(&mut prod, ts, item).expect("open queue"),
                || drop(black_box(inp.get(&mut cons).expect("item queued"))),
            )
        });
        m.set("stampede.lfqueue.put_ns", put);
        m.set("stampede.lfqueue.get_ns", get);
    });
}

/// Median ns per `put` and per `get`: batches of 512 puts, then 512 gets,
/// each batch timed as a whole (payloads are built outside the timed part).
fn put_get_ns(mut put: impl FnMut(Timestamp, Vec<u8>), mut get: impl FnMut()) -> (f64, f64) {
    const BATCH: usize = 512;
    const BATCHES: usize = 40;
    let (mut puts, mut gets) = (Vec::new(), Vec::new());
    let mut ts = 0u64;
    for _ in 0..BATCHES {
        let items: Vec<Vec<u8>> = (0..BATCH).map(|_| vec![0u8; 64]).collect();
        let t0 = Instant::now();
        for item in items {
            put(Timestamp(ts), item);
            ts += 1;
        }
        let t1 = Instant::now();
        for _ in 0..BATCH {
            get();
        }
        let t2 = Instant::now();
        puts.push((t1 - t0).as_nanos() as f64 / BATCH as f64);
        gets.push((t2 - t1).as_nanos() as f64 / BATCH as f64);
    }
    (crate::stats::median(&puts), crate::stats::median(&gets))
}

/// Iterations per wall second of a task whose body does nothing: clock reads,
/// controller, telemetry and the `IterEnd` trace record are all that runs.
/// Once with ARU-min, once with ARU off.
pub fn task_loop(spans: &mut Spans, m: &mut Metrics, dur: Duration) {
    let mut run = |name: &str, cfg: AruConfig| {
        let (ns, _) = spans.scope(name, |_| {
            let mut b = RuntimeBuilder::new(cfg, GcMode::None);
            let t = b.thread("spin");
            let n = Arc::new(AtomicU64::new(0));
            let n2 = Arc::clone(&n);
            b.spawn(t, move |_| {
                n2.fetch_add(1, Ordering::Relaxed);
                Ok(Step::Continue)
            });
            let running = b.build().expect("one-task graph").start();
            let t0 = Instant::now();
            let n0 = n.load(Ordering::Relaxed);
            std::thread::sleep(dur);
            let iters = n.load(Ordering::Relaxed) - n0;
            let wall = t0.elapsed();
            running.stop().expect("clean stop");
            wall.as_nanos() as f64 / iters.max(1) as f64
        });
        ns
    };
    m.set(
        "stampede.task_loop.iter_ns",
        run(
            "stampede task loop, empty body, ARU-min",
            AruConfig::aru_min(),
        ),
    );
    m.set(
        "stampede.task_loop.iter_noaru_ns",
        run(
            "stampede task loop, empty body, ARU off",
            AruConfig::disabled(),
        ),
    );
}

/// Two threads bouncing one item over two queues with blocking gets: every
/// get parks, every put wakes. Round trip = two hand-offs. Bare queues and
/// contexts (`bench_api`), because a ping-pong is a cycle and the runtime's
/// task graphs are acyclic.
pub fn handoff(spans: &mut Spans, m: &mut Metrics, dur: Duration) {
    let (ns, _) = spans.scope("stampede::Queue ping-pong over blocking gets", |_| {
        let clock = wall_clock();
        let trace = SharedTrace::new();
        let cfg = AruConfig::aru_min();
        let queue = |node: u32| {
            bench_api::queue::<Vec<u8>>(
                NodeId(node),
                "bench-pp",
                &cfg,
                Arc::clone(&clock),
                trace.clone(),
                1,
            )
        };
        let (ping, pong) = (queue(300), queue(301));
        let ctx = |node: u32| {
            bench_api::task_ctx(
                NodeId(node),
                "bench-pp",
                1,
                false,
                &cfg,
                Arc::clone(&clock),
                trace.clone(),
            )
        };
        let stop = AtomicBool::new(false);
        let trips = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let (out, mut inp) = (
                    bench_api::queue_output(&ping, 0),
                    bench_api::queue_input(&pong, 0),
                );
                let mut ctx = ctx(302);
                let mut ts = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    out.put(&mut ctx, Timestamp(ts), vec![0u8; 64])
                        .expect("open queue");
                    if inp.get(&mut ctx).is_err() {
                        break;
                    }
                    ts += 1;
                    trips.store(ts, Ordering::Relaxed);
                }
                ping.close();
            });
            s.spawn(|| {
                let (out, mut inp) = (
                    bench_api::queue_output(&pong, 0),
                    bench_api::queue_input(&ping, 0),
                );
                let mut ctx = ctx(303);
                while let Ok(item) = inp.get(&mut ctx) {
                    if out.put(&mut ctx, item.ts, vec![0u8; 64]).is_err() {
                        break;
                    }
                }
            });
            let t0 = Instant::now();
            let n0 = trips.load(Ordering::Relaxed);
            std::thread::sleep(dur);
            let n = trips.load(Ordering::Relaxed) - n0;
            let wall = t0.elapsed();
            stop.store(true, Ordering::Relaxed);
            wall.as_nanos() as f64 / n.max(1) as f64
        })
    });
    m.set("stampede.handoff.roundtrip_ns", ns);
}
