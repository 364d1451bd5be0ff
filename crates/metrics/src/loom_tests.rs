//! Model-checked concurrency tests for the sharded trace recorder, the
//! registry and the journal ring.
//!
//! These only compile under `RUSTFLAGS="--cfg loom"`; run them with
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p aru-metrics --lib loom_
//! ```
//!
//! Under loom, `ID_BLOCK` shrinks to 2 (see `trace.rs`) so the id-block
//! refill — the only cross-shard synchronization on the alloc hot path —
//! is exercised within the model's preemption budget. The model checker
//! explores every bounded interleaving of the shard mutexes and the shared
//! `next_item` atomic, so a torn refill (two writers handed overlapping
//! blocks) or a flush that loses a sealed chunk would fail deterministically.
//! `JOURNAL_CAP` shrinks to 4 the same way, so a journal writer wraps its
//! ring while a snapshot races it.

use crate::event::{IterKey, TraceEvent};
use crate::journal::{Journal, JournalKind, JOURNAL_CAP};
use crate::registry::Registry;
use crate::trace::SharedTrace;
use aru_core::graph::NodeId;
use vtime::{SimTime, Timestamp};

/// Two buffered writers alloc across the (loom-shrunk) id-block boundary
/// concurrently: every interleaving of the shared-counter refill must hand
/// out globally unique ids.
#[test]
fn loom_id_block_refill_yields_unique_ids() {
    loom::model(|| {
        let tr = SharedTrace::new();
        let p = IterKey::new(NodeId(0), 0);
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let mut local = tr.local();
            handles.push(loom::thread::spawn(move || {
                // 3 allocs with ID_BLOCK = 2 forces a mid-run refill.
                (0..3u64)
                    .map(|j| local.alloc(SimTime(j), NodeId(1), Timestamp(t * 10 + j), 1, p))
                    .collect::<Vec<_>>()
            }));
        }
        let mut ids: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .map(|id| id.0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "refill raced: duplicate item ids");
    });
}

/// A snapshot taken while a buffered writer is mid-run must not deadlock or
/// invent events, and after the writer is joined (drop flushes) every alloc
/// must be visible.
#[test]
fn loom_snapshot_races_buffered_writer_without_losing_events() {
    loom::model(|| {
        let tr = SharedTrace::new();
        let p = IterKey::new(NodeId(0), 0);
        let local = tr.local();
        let h = loom::thread::spawn(move || {
            let mut local = local;
            for j in 0..2u64 {
                local.alloc(SimTime(j), NodeId(1), Timestamp(j), 1, p);
            }
            // drop(local) flushes the buffered chunk to the shard
        });
        // Concurrent reader: sees 0..=2 allocs depending on flush timing,
        // never more, never a torn event.
        let mid = tr.snapshot();
        let mid_allocs = mid
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Alloc { .. }))
            .count();
        assert!(mid_allocs <= 2, "snapshot saw {mid_allocs} allocs");
        h.join().unwrap();
        let done = tr.snapshot();
        let allocs = done
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Alloc { .. }))
            .count();
        assert_eq!(allocs, 2, "flushed events lost");
    });
}

/// Telemetry satellite: a registry snapshot racing concurrent wait-free
/// `record()` calls. Two writers bump their own counter shards of the same
/// series while the main thread snapshots mid-flight: any prefix of the
/// concurrent increments is a valid observation, acknowledged increments
/// are never lost, and registering a shard concurrently with a snapshot
/// must not deadlock the registry mutex.
#[test]
fn loom_registry_snapshot_races_record() {
    loom::model(|| {
        let reg = Registry::new();
        // One shard registered before the race: the snapshot always knows
        // the series even if it runs before the second writer registers.
        let pre = reg.counter("ops_total", &[]);
        pre.add(1);
        let mut handles = Vec::new();
        {
            let reg = reg.clone();
            handles.push(loom::thread::spawn(move || {
                // registers a second shard of the same series mid-model
                let c = reg.counter("ops_total", &[]);
                c.inc();
                c.inc();
            }));
        }
        {
            let pre = pre.clone();
            handles.push(loom::thread::spawn(move || {
                pre.inc();
            }));
        }
        let mid = reg.snapshot().counter("ops_total", &[]);
        assert!(
            (1..=4).contains(&mid),
            "mid-flight snapshot saw {mid}, outside the valid prefix range"
        );
        for h in handles {
            h.join().unwrap();
        }
        let done = reg.snapshot().counter("ops_total", &[]);
        assert_eq!(done, 4, "acknowledged increments lost");
    });
}

/// A journal snapshot racing a writer that wraps its ring (6 records,
/// `JOURNAL_CAP` = 4 under loom). Record `i` carries `t = i`, so a
/// snapshot that took the shard lock after `n` records must hold exactly
/// records `n - kept .. n`, oldest first, with the rest counted in
/// `dropped`: contiguous, no duplicate, and `records.len() + dropped == n`.
#[test]
fn loom_journal_snapshot_races_record_across_wrap() {
    const WRITES: u64 = 6;
    fn check(records: &[crate::journal::JournalRecord], dropped: u64) -> u64 {
        let written = records.len() as u64 + dropped;
        assert!(written <= WRITES);
        assert_eq!(
            records.len() as u64,
            written.min(JOURNAL_CAP as u64),
            "dropped before full"
        );
        for (i, r) in records.iter().enumerate() {
            assert_eq!(
                r.t,
                SimTime(dropped + i as u64),
                "not oldest-first and contiguous"
            );
        }
        written
    }
    loom::model(|| {
        let journal = Journal::new();
        let shard = journal.shard();
        let writer = loom::thread::spawn(move || {
            for i in 0..WRITES {
                shard.record(SimTime(i), NodeId(1), JournalKind::SummaryDropped);
            }
        });
        let first = journal.snapshot();
        let second = journal.snapshot();
        assert!(
            check(&first.records, first.dropped) <= check(&second.records, second.dropped),
            "a later snapshot saw fewer records"
        );
        writer.join().unwrap();
        let done = journal.snapshot();
        assert_eq!(check(&done.records, done.dropped), WRITES, "records lost");
        assert_eq!(done.torn, 0);
    });
}
