//! Backend parity: the same randomized schedule, driven through a real
//! runtime task graph on the mutex backend and again on the lock-free
//! backend, must deliver the same stream.
//!
//! `lockfree_equivalence.rs` checks the two queues op-for-op from a test
//! harness; this suite checks them *as the runtime actually uses them* —
//! `RuntimeBuilder`-constructed graphs, supervised task loops, blocking
//! endpoint wrappers, summary feedback — so a divergence anywhere on
//! that path (endpoint wiring, wakeups, byte accounting) trips
//! here even if the raw queue ops agree.

use aru_core::NodeId;
use aru_metrics::TraceEvent;
use proptest::prelude::*;
use stampede::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vtime::Timestamp;

/// Drive one schedule (payload size per item; index is the timestamp)
/// through a src → queue → sink graph on `backend`.
/// Returns (received `(ts, len)` sequence, nodes that made pacing
/// decisions, queue live_bytes observed after the sink drained all items).
fn run_graph(backend: QueueBackend, sizes: &[usize]) -> (Vec<(u64, usize)>, Vec<NodeId>, u64) {
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Ref).with_queue_backend(backend);
    let q = b.queue::<Vec<u8>>("parity-q");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let mut out = b.connect_queue_out(src, &q).unwrap();
    let mut inp = b.connect_queue_in(&q, snk).unwrap();

    let items: Vec<(Timestamp, Vec<u8>)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| (Timestamp(i as u64), vec![(i % 251) as u8; s]))
        .collect();
    let total = items.len();
    let mut pending = items.into_iter();
    b.spawn(src, move |ctx| match pending.next() {
        None => Ok(Step::Stop),
        Some((ts, v)) => {
            out.put(ctx, ts, v)?;
            Ok(Step::Continue)
        }
    });

    let received: Arc<Mutex<Vec<(u64, usize)>>> = Arc::default();
    let sink_rx = Arc::clone(&received);
    b.spawn(snk, move |ctx| {
        let item = inp.get(ctx)?;
        ctx.emit_output(item.ts);
        let mut rx = sink_rx.lock().unwrap();
        rx.push((item.ts.raw(), item.value.len()));
        if rx.len() >= total {
            Ok(Step::Stop)
        } else {
            Ok(Step::Continue)
        }
    });

    let running = b.build().unwrap().start();
    let deadline = Instant::now() + Duration::from_secs(20);
    while received.lock().unwrap().len() < total {
        assert!(
            Instant::now() < deadline,
            "graph stalled on {backend:?}: {}/{total} items",
            received.lock().unwrap().len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Everything put has been drained, so no bytes may remain accounted
    // to the queue on either backend.
    let live = running.live_bytes();
    let report = running.stop().expect("clean shutdown");

    let mut pace_nodes: Vec<NodeId> = report
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PaceDecision { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    pace_nodes.sort();
    pace_nodes.dedup();

    let seq = received.lock().unwrap().clone();
    (seq, pace_nodes, live)
}

fn expected(sizes: &[usize]) -> Vec<(u64, usize)> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| (i as u64, s))
        .collect()
}

proptest! {
    // Each case spins up four OS-thread task graphs, so keep the count
    // low; the per-case schedule is what varies.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exactly-once FIFO delivery, byte drain, and pacing-trace shape all
    /// agree between the two backends under a random schedule.
    #[test]
    fn backends_agree_on_random_schedules(
        sizes in prop::collection::vec(1usize..2048, 4..48),
    ) {
        let (mx_seq, mx_pace, mx_live) = run_graph(QueueBackend::Mutex, &sizes);
        let (lf_seq, lf_pace, lf_live) = run_graph(QueueBackend::lock_free(), &sizes);
        let want = expected(&sizes);
        prop_assert_eq!(&mx_seq, &want, "mutex backend lost or reordered items");
        prop_assert_eq!(&lf_seq, &want, "lock-free backend lost or reordered items");
        prop_assert_eq!(mx_live, 0, "mutex backend leaked live bytes");
        prop_assert_eq!(lf_live, 0, "lock-free backend leaked live bytes");
        prop_assert_eq!(
            mx_pace, lf_pace,
            "backends disagree on which nodes made pacing decisions"
        );
    }
}

/// A fixed anchor case that always runs even if the property shrinks
/// around it.
#[test]
fn scripted_schedule_matches_across_backends() {
    let sizes: Vec<usize> = (1..=40).map(|i| i * 13 % 512 + 1).collect();
    let (mx_seq, _, mx_live) = run_graph(QueueBackend::Mutex, &sizes);
    let (lf_seq, _, lf_live) = run_graph(QueueBackend::lock_free(), &sizes);
    let want = expected(&sizes);
    assert_eq!(mx_seq, want);
    assert_eq!(lf_seq, want);
    assert_eq!((mx_live, lf_live), (0, 0));
}
