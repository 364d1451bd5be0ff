//! The postmortem on real traces, against the `HashMap` oracle it replaced
//! (`crates/metrics/tests/oracle/mod.rs`): the reports of a run must read
//! the same, byte for byte, whether the lineage was kept in hash maps or in
//! the id-indexed tables. `crates/metrics/tests/lineage_oracle.rs` does the
//! same on arbitrary event sequences; this file covers what the recorders
//! actually emit — the simulator's dense ids and the threaded runtime's
//! per-writer id blocks and merged shards.

#[path = "../crates/metrics/tests/oracle/mod.rs"]
mod oracle;

use aru_gc::Postmortem;
use aru_metrics::{thread_stats, Trace, TraceEvent};
use experiments::{config, scale};
use stampede_aru::prelude::*;
use tracker::{build_threaded, ThreadedTrackerParams, TrackerConfigId};

fn assert_matches_oracle(what: &str, trace: &Trace, t_end: SimTime) {
    let new = Postmortem::analyze(trace, t_end);
    let old = oracle::Lineage::analyze(trace);
    // (The lock-free queue records no item events: its trace is iterations
    // and sink outputs only, which is a case of its own.)
    assert!(
        !new.lineage.sink_outputs().is_empty(),
        "{what}: no output, proves nothing"
    );

    // `assert!` on strings, not `assert_eq!`: a mismatch must not print
    // megabytes of series.
    let new_reports = format!("{:?}{:?}{:?}", new.waste, new.footprint, new.perf);
    let old_reports = format!(
        "{:?}{:?}{:?}",
        oracle::waste(&old, t_end),
        oracle::footprint(trace, &old, t_end),
        oracle::perf(&old, t_end)
    );
    assert!(
        new_reports == old_reports,
        "{what}: waste/footprint/perf differ"
    );
    assert!(
        format!("{:?}", new.igc.series) == format!("{:?}", oracle::ideal_series(&old, t_end)),
        "{what}: IGC series differ"
    );
    assert_eq!(
        (new.igc.useful_computation, new.igc.useful_items),
        oracle::igc_useful(&old),
        "{what}: IGC totals"
    );
    assert_eq!(new.lineage.item_counts(), old.item_counts(), "{what}");

    // thread_stats reads usefulness per `IterEnd`.
    let useful = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::IterEnd { iter, .. } if old.is_iter_used(*iter)))
        .count() as u64;
    let stats = thread_stats(trace, &new.lineage);
    assert_eq!(
        stats.values().map(|s| s.useful_iterations).sum::<u64>(),
        useful,
        "{what}: useful iterations"
    );
}

#[test]
fn paper_cell_per_mode_matches_oracle() {
    for mode in config::modes() {
        let r = config::run_cell(mode, TrackerConfigId::OneNode, 3, Micros::from_secs(20));
        assert_matches_oracle(mode.label(), &r.trace, r.t_end);
    }
}

fn scale_cell(nodes: usize) {
    let sc = scale::bench_scenario(nodes, Micros::from_secs(2), 2005);
    let (b, cfg) = scale::build(&sc);
    let r = desim::Sim::run(b, cfg).expect("scale cell is valid");
    assert_matches_oracle(&format!("scale {nodes}"), &r.trace, r.t_end);
}

#[test]
fn scale_cell_100_nodes_matches_oracle() {
    scale_cell(100);
}

/// The benchmark's `sim_scale_1000` cell. Minutes in a debug build; CI runs
/// it in release (`--release -- --ignored`).
#[test]
#[ignore = "heavy: run in release"]
fn scale_cell_1000_nodes_matches_oracle() {
    scale_cell(1000);
}

/// `src -> q -> sink` on `backend`: a 1 ms source, a sink that takes
/// every item.
fn two_stage_queue(backend: QueueBackend) -> Runtime {
    let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc).with_queue_backend(backend);
    let q = b.queue::<Vec<u8>>("q");
    let src = b.thread("src");
    let snk = b.thread("snk");
    let mut out = b.connect_queue_out(src, &q).expect("wires");
    let mut inp = b.connect_queue_in(&q, snk).expect("wires");
    let mut ts = Timestamp::ZERO;
    b.spawn(src, move |ctx| {
        std::thread::sleep(std::time::Duration::from_millis(1));
        out.put(ctx, ts, vec![0u8; 1000])?;
        ts = ts.next();
        Ok(Step::Continue)
    });
    b.spawn(snk, move |ctx| {
        let item = inp.get(ctx)?;
        ctx.emit_output(item.ts);
        Ok(Step::Continue)
    });
    b.build().expect("graph builds")
}

/// Threaded traces: the tracker's nine channels (get-latest skips, joins,
/// DGC frees), then a two-stage queue graph on either backend.
#[test]
fn threaded_run_matches_oracle_on_both_queue_backends() {
    let params = ThreadedTrackerParams::new(AruConfig::aru_min());
    let tracker = build_threaded(&params).expect("tracker builds");
    let r = tracker
        .runtime
        .run_for(Micros::from_millis(500))
        .expect("tracker runs");
    assert_matches_oracle("threaded tracker", &r.trace, r.t_end);
    for backend in [QueueBackend::Mutex, QueueBackend::lock_free()] {
        let r = two_stage_queue(backend)
            .run_for(Micros::from_millis(200))
            .expect("queue graph runs");
        assert_matches_oracle(&format!("threaded queue {backend:?}"), &r.trace, r.t_end);
    }
}
