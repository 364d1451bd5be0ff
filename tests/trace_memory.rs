//! What a trace costs in memory, counted by the allocator.
//!
//! A trace stores its events encoded, ~8 bytes each (DESIGN.md §9). The
//! bound here is 10 bytes per event: a 56-byte `TraceEvent` per record
//! fails it on both substrates. The count is the heap bytes a trace frees
//! when it is dropped, so it holds on any host, whatever the allocator
//! keeps resident.

use aru_core::NodeId;
use aru_metrics::{IterKey, SharedTrace, Trace, TraceEvent, TraceSink};
use experiments::scale;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vtime::{Micros, SimTime, Timestamp};

/// The system allocator, counting the bytes this thread holds.
struct Counting;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread. Tests run on
    /// threads of their own, so each counts only itself.
    static HELD: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: usize, sign: i64) {
    // `try_with`: the allocator is also called while a thread's locals
    // are being torn down.
    let _ = HELD.try_with(|h| h.set(h.get() + sign * bytes as i64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(layout.size(), -1);
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(layout.size(), -1);
        add(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn held() -> i64 {
    HELD.with(Cell::get)
}

/// Bytes per event that dropping `trace` frees.
fn freed_per_event(trace: Trace) -> f64 {
    let events = trace.len();
    assert!(events > 0, "an empty trace measures nothing");
    let before = held();
    drop(trace);
    (before - held()) as f64 / events as f64
}

/// Each substrate's trace holds at most this many bytes per event.
const MAX_BYTES_PER_EVENT: f64 = 10.0;

/// The simulator's trace of the scale sweep's 100-node reference cell.
#[test]
fn simulator_trace_holds_at_most_10_bytes_per_event() {
    let sc = scale::bench_scenario(100, Micros::from_millis(500), 2005);
    let (b, cfg) = scale::build(&sc);
    let report = desim::Sim::run(b, cfg).expect("scale cell is valid");
    let per_event = freed_per_event(report.trace);
    assert!(
        per_event <= MAX_BYTES_PER_EVENT,
        "the trace holds {per_event:.2} bytes per event"
    );
}

/// A snapshot of three writers whose events interleave in time.
#[test]
fn snapshot_holds_at_most_10_bytes_per_event() {
    let shared = SharedTrace::new();
    let mut writers: Vec<_> = (0..3).map(|_| shared.local()).collect();
    for j in 0..20_000u64 {
        for (w, local) in writers.iter_mut().enumerate() {
            let t = SimTime(3 * j + w as u64);
            let key = IterKey::new(NodeId(w as u32), j);
            let item = local.alloc(t, NodeId(10 + w as u32), Timestamp(j), 64, key);
            local.get(t, item, key);
            local.record(TraceEvent::IterEnd {
                t,
                iter: key,
                busy: Micros(j % 500),
            });
            local.free(t, item);
        }
    }
    drop(writers);
    let snapshot = shared.snapshot();
    assert_eq!(snapshot.len(), 3 * 20_000 * 4);
    let per_event = freed_per_event(snapshot);
    assert!(
        per_event <= MAX_BYTES_PER_EVENT,
        "the snapshot holds {per_event:.2} bytes per event"
    );
}
