//! End-to-end tests of the live telemetry subsystem on the threaded
//! runtime: the metrics registry fills in from real pipelines, and the
//! flight-recorder journal attributes a source pacing decision to the
//! full backward-propagation hop chain (Deposit → Return → Fold → Pace).

use aru_metrics::journal::{attribute_pace, HopLeg, JournalRecord};
use aru_metrics::{JournalKind, Telemetry};
use stampede::prelude::*;
use std::time::Duration;
use vtime::{Micros, Timestamp};

/// Build and run `src --(ch)--> sink`, returning the telemetry bundle,
/// the source/sink thread nodes, and the run report.
fn run_instrumented(
    src_work_ms: u64,
    sink_work_ms: u64,
    run_ms: u64,
) -> (Telemetry, aru_core::NodeId, aru_core::NodeId, RunReport) {
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
    let ch = b.channel::<Vec<u8>>("frames");
    let src = b.thread("src");
    let snk = b.thread("sink");
    let out = b.connect_out(src, &ch).unwrap();
    let mut inp = b.connect_in(&ch, snk).unwrap();

    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(Duration::from_millis(src_work_ms));
        out.put(ctx, ts, vec![0u8; 10_000])?;
        ts = ts.next();
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get_latest(ctx)?;
        std::thread::sleep(Duration::from_millis(sink_work_ms));
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });

    let telemetry = b.telemetry().clone();
    let (src_node, snk_node) = (src.node(), snk.node());
    let report = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(run_ms))
        .unwrap();
    (telemetry, src_node, snk_node, report)
}

fn counter(snap: &aru_metrics::RegistrySnapshot, name: &str, label: (&str, &str)) -> u64 {
    snap.counters
        .iter()
        .filter(|(s, _)| {
            s.name == name && s.labels.iter().any(|(k, v)| k == label.0 && v == label.1)
        })
        .map(|(_, v)| *v)
        .sum()
}

/// Retry `run_instrumented` with escalating durations until the pipeline
/// made real progress. These tests assert on wall-clock runs; on a loaded
/// (or single-core) CI box a 250 ms window can be starved by sibling test
/// binaries, which says nothing about the telemetry under test.
fn run_instrumented_until(
    src_work_ms: u64,
    sink_work_ms: u64,
    run_ms: u64,
    min_outputs: usize,
) -> (Telemetry, aru_core::NodeId, aru_core::NodeId, RunReport) {
    let mut last = None;
    for attempt in 0..3 {
        let r = run_instrumented(src_work_ms, sink_work_ms, run_ms << (2 * attempt));
        if r.3.outputs() > min_outputs {
            return r;
        }
        last = Some(r);
    }
    last.expect("at least one attempt ran")
}

#[test]
fn registry_fills_in_from_a_live_pipeline() {
    let (telemetry, _, _, report) = run_instrumented_until(1, 2, 250, 5);
    assert!(report.outputs() > 5);
    // `stop` publishes every buffer's accumulators, so the snapshot holds
    // final totals even though no exporter task was configured.
    let snap = telemetry.registry.snapshot();

    let puts = counter(&snap, "aru_channel_puts_total", ("channel", "frames"));
    let gets = counter(&snap, "aru_channel_gets_total", ("channel", "frames"));
    assert!(puts > 5, "puts recorded: {puts}");
    assert!(gets > 5, "gets recorded: {gets}");
    for thread in ["src", "sink"] {
        let iters = counter(&snap, "aru_iterations_total", ("thread", thread));
        assert!(iters > 5, "{thread} iterations: {iters}");
        let stp = snap
            .gauges
            .iter()
            .find(|(s, _)| {
                s.name == "aru_stp_current_us"
                    && s.labels.contains(&("thread".into(), thread.into()))
            })
            .map(|(_, v)| *v)
            .expect("stp gauge registered");
        assert!(stp > 0.0, "{thread} stp gauge: {stp}");
    }
    // Sampled distributions: the first op on each path is always sampled.
    let occ = snap
        .hists
        .iter()
        .find(|(s, _)| s.name == "aru_channel_occupancy")
        .map(|(_, h)| h.count)
        .expect("occupancy histogram registered");
    assert!(occ > 0, "occupancy samples: {occ}");
    let put_ns = snap
        .hists
        .iter()
        .filter(|(s, _)| s.name == "aru_put_latency_ns")
        .map(|(_, h)| h.count)
        .sum::<u64>();
    assert!(put_ns > 0, "put latency samples: {put_ns}");
}

/// `(peer, value)` of a hop record of the given leg.
fn hop(rec: &JournalRecord, want: HopLeg) -> (aru_core::NodeId, Micros) {
    match rec.kind {
        JournalKind::Hop { leg, peer, value } if leg == want => (peer, value),
        other => panic!("expected a {want:?} hop, got {other:?}"),
    }
}

fn pace_records(telemetry: &Telemetry) -> usize {
    telemetry
        .journal
        .snapshot()
        .records
        .iter()
        .filter(|r| matches!(r.kind, JournalKind::Pace { .. }))
        .count()
}

/// At least one pacing decision must attribute through the whole backward
/// path: the sink deposited a summary at the buffer, the buffer returned
/// it to the source with a put, the source folded it, then paced on it.
fn assert_pace_attributes_to_full_chain(
    telemetry: &Telemetry,
    src_node: aru_core::NodeId,
    snk_node: aru_core::NodeId,
) {
    let snap = telemetry.journal.snapshot();
    let recs = &snap.records;
    let paces: Vec<usize> = (0..recs.len())
        .filter(|&i| matches!(recs[i].kind, JournalKind::Pace { .. }))
        .collect();
    assert!(!paces.is_empty(), "source pacing journaled no Pace records");

    let (pace, deposit, ret, fold) = paces
        .iter()
        .find_map(|&p| {
            let chain = attribute_pace(recs, p);
            Some((recs[p], chain.deposit?, chain.ret?, chain.fold?))
        })
        .expect("no pace attributable to a full Deposit → Return → Fold chain");
    let (dep_peer, value) = hop(&deposit, HopLeg::Deposit);
    let (ret_peer, ret_value) = hop(&ret, HopLeg::Return);
    let (fold_peer, fold_value) = hop(&fold, HopLeg::Fold);
    assert!(
        ret_value == value && fold_value == value,
        "one value links the chain"
    );
    assert!(value > Micros::ZERO, "summary period is a real measurement");
    // Topology: deposit/return observed at the buffer (same node), the
    // deposit came from the sink, the return went to the source, and the
    // fold/pace happened on the source thread.
    assert_eq!(deposit.node, ret.node, "deposit and return at the buffer");
    assert_eq!(dep_peer, snk_node, "deposit credited to the sink");
    assert_eq!(ret_peer, src_node, "return handed to the source");
    assert_eq!(fold.node, src_node, "fold on the source thread");
    assert_eq!(fold_peer, ret.node, "fold names the buffer it came from");
    assert_eq!(pace.node, src_node, "pace on the source thread");
    // Timestamps are causally ordered along the chain.
    let ts = [deposit.t, ret.t, fold.t, pace.t];
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "hops time-ordered: {ts:?}"
    );
    // And the pacing actually slept at some point in the run.
    assert!(
        recs.iter().any(|r| matches!(
            r.kind,
            JournalKind::Pace { sleep, .. } if r.node == src_node && sleep > Micros::ZERO
        )),
        "no pace record carried a nonzero sleep"
    );
}

#[test]
fn pace_attributes_to_deposit_return_fold_chain() {
    // Slow sink, fast source: ARU-min (SourcesOnly) must pace the source,
    // and every pacing change must be attributable hop by hop.
    let (telemetry, src_node, snk_node, report) = run_instrumented_until(1, 10, 500, 3);
    assert!(report.outputs() > 3);
    assert_pace_attributes_to_full_chain(&telemetry, src_node, snk_node);
}

/// Same pipeline as [`run_instrumented`], but the edge is a lock-free
/// queue (`QueueBackend::LockFree`).
fn run_instrumented_lockfree(
    src_work_ms: u64,
    sink_work_ms: u64,
    run_ms: u64,
) -> (Telemetry, aru_core::NodeId, aru_core::NodeId, RunReport) {
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::None)
        .with_queue_backend(QueueBackend::lock_free());
    let q = b.queue::<Vec<u8>>("frames");
    let src = b.thread("src");
    let snk = b.thread("sink");
    let mut out = b.connect_queue_out(src, &q).unwrap();
    let mut inp = b.connect_queue_in(&q, snk).unwrap();

    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(Duration::from_millis(src_work_ms));
        out.put(ctx, ts, vec![0u8; 10_000])?;
        ts = ts.next();
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get(ctx)?;
        std::thread::sleep(Duration::from_millis(sink_work_ms));
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });

    let telemetry = b.telemetry().clone();
    let (src_node, snk_node) = (src.node(), snk.node());
    let report = b
        .build()
        .unwrap()
        .run_for(Micros::from_millis(run_ms))
        .unwrap();
    (telemetry, src_node, snk_node, report)
}

#[test]
fn lockfree_backend_pace_attributes_through_the_same_chain() {
    // The lock-free ring must not be lineage-blind: a pacing decision on
    // the LF backend has the same Deposit → Return → Fold → Pace evidence
    // in the flight-recorder journal as the mutex path.
    let mut picked = None;
    for attempt in 0..3 {
        let r = run_instrumented_lockfree(1, 10, 500 << (2 * attempt));
        let done = r.3.outputs() > 3 && pace_records(&r.0) > 0;
        picked = Some(r);
        if done {
            break;
        }
    }
    let (telemetry, src_node, snk_node, report) = picked.expect("at least one attempt ran");
    assert!(report.outputs() > 3);
    assert_pace_attributes_to_full_chain(&telemetry, src_node, snk_node);
}

/// A task drains its counters in batches, and at the latest when its loop
/// exits, so after `stop` each thread's iteration and busy totals are
/// exactly what its trace records: one `IterEnd` per iteration, carrying
/// that iteration's busy time.
#[test]
fn task_counters_are_exact_after_stop() {
    let (tele, src, snk, report) = run_instrumented_until(1, 2, 100, 5);
    let snap = tele.registry.snapshot();
    for (node, name) in [(src, "src"), (snk, "sink")] {
        let (iterations, busy) = report
            .trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                aru_metrics::TraceEvent::IterEnd { iter, busy, .. } if iter.node == node => {
                    Some(busy.as_micros())
                }
                _ => None,
            })
            .fold((0, 0), |(n, sum), b| (n + 1, sum + b));
        let label = ("thread", name);
        assert_eq!(
            counter(&snap, "aru_iterations_total", label),
            iterations,
            "{name}"
        );
        assert_eq!(counter(&snap, "aru_busy_us_total", label), busy, "{name}");
    }
}
