//! The threaded runtime's cross-graph DGC pass has no thread of its own: a
//! task runs a due pass at the end of an iteration, straight after its
//! releases (DESIGN.md §3).
//!
//! The rule is pinned on `src → A → mid → B → sink` under a manual clock,
//! with every task body driven one command at a time from the test thread,
//! so the test decides which task ends an iteration, and when.

use stampede::prelude::*;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vtime::{Clock, ManualClock, Micros, SimTime, Timestamp};

/// Both tests start runtimes; the thread count must not see the other's.
static SERIAL: Mutex<()> = Mutex::new(());

enum Cmd {
    /// src: put an item at this timestamp into A.
    Put(u64),
    /// mid: get the latest item from A and put it into B.
    Forward,
    /// mid: put an item at this timestamp into B without reading A.
    Emit(u64),
    /// mid: `should_skip(ts)`, as 0 or 1.
    Skip(u64),
    /// sink: get the latest item from B.
    Take,
}

/// The test's end of one task: each call is one iteration of the task's
/// body, and returns what the body replied once that iteration has ended.
struct Remote {
    cmd: Sender<Cmd>,
    reply: Receiver<u64>,
}

impl Remote {
    fn call(&self, c: Cmd) -> u64 {
        self.cmd.send(c).unwrap();
        self.reply.recv_timeout(Duration::from_secs(10)).unwrap()
    }
}

/// A body that runs one command per iteration and stops when its
/// [`Remote`] is dropped. It replies at the start of the next iteration,
/// so the reply also says that the iteration end (releases, and a due
/// pass) is over.
fn served(
    b: &mut RuntimeBuilder,
    t: ThreadRef,
    mut f: impl FnMut(&mut TaskCtx, Cmd) -> Result<u64, StampedeError> + Send + 'static,
) -> Remote {
    let (cmd, cmd_rx) = channel();
    let (reply_tx, reply) = channel();
    let mut done = None;
    b.spawn(t, move |ctx| {
        if let Some(r) = done.take() {
            reply_tx.send(r).unwrap();
        }
        match cmd_rx.recv() {
            Ok(c) => {
                done = Some(f(ctx, c)?);
                Ok(Step::Continue)
            }
            Err(_) => Ok(Step::Stop),
        }
    });
    Remote { cmd, reply }
}

#[test]
fn a_due_pass_runs_at_the_end_of_the_releasing_iteration() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let clock = ManualClock::new();
    let mut b = RuntimeBuilder::new(AruConfig::disabled(), GcMode::Dgc)
        .with_clock(Arc::new(clock.clone()) as Arc<dyn Clock>);
    let src = b.thread("src");
    let a = b.channel::<Vec<u8>>("A");
    let mid = b.thread("mid");
    let bb = b.channel::<Vec<u8>>("B");
    let sink = b.thread("sink");
    let to_a = b.connect_out(src, &a).unwrap();
    let mut from_a = b.connect_in(&a, mid).unwrap();
    let to_b = b.connect_out(mid, &bb).unwrap();
    let mut from_b = b.connect_in(&bb, sink).unwrap();

    // A's items are 100 bytes, B's 1, so live bytes tell them apart.
    let src = served(&mut b, src, move |ctx, c| match c {
        Cmd::Put(ts) => to_a.put(ctx, Timestamp(ts), vec![0; 100]).map(|()| ts),
        _ => unreachable!(),
    });
    let mid = served(&mut b, mid, move |ctx, c| match c {
        Cmd::Forward => {
            let ts = from_a.get_latest(ctx)?.ts;
            to_b.put(ctx, ts, vec![0; 1]).map(|()| ts.0)
        }
        Cmd::Emit(ts) => to_b.put(ctx, Timestamp(ts), vec![0; 1]).map(|()| ts),
        Cmd::Skip(ts) => Ok(u64::from(ctx.should_skip(Timestamp(ts)))),
        _ => unreachable!(),
    });
    let sink = served(&mut b, sink, move |ctx, c| match c {
        Cmd::Take => from_b.get_latest(ctx).map(|item| item.ts.0),
        _ => unreachable!(),
    });
    let running = b.build().unwrap().start();

    // t = 0: the first iteration end (src's) sweeps; the next pass is due
    // at 2 ms.
    assert_eq!(src.call(Cmd::Put(4)), 4);
    assert_eq!(mid.call(Cmd::Forward), 4);

    // t = 1 ms: sink consumes ts 4 from B. No pass is due, so mid's skip
    // bound is still 0 (a pass would have raised it to 5).
    clock.set(SimTime(1_000));
    assert_eq!(sink.call(Cmd::Take), 4);
    assert_eq!(src.call(Cmd::Put(7)), 7);
    assert_eq!(mid.call(Cmd::Skip(2)), 0, "a pass that is not due ran");
    assert_eq!(mid.call(Cmd::Emit(9)), 9);
    assert_eq!(running.live_bytes(), 101, "A holds ts 7, B holds ts 9");

    // t = 2 ms: sink consumes ts 9. The pass is due, and sink's own
    // iteration end runs it: ts 7 in A is dead (everything mid would make
    // of it is dead in B), though mid has not consumed it.
    clock.set(SimTime(2_000));
    assert_eq!(sink.call(Cmd::Take), 9);
    assert_eq!(
        running.live_bytes(),
        0,
        "the releasing iteration ran no pass"
    );
    // Another task's `should_skip` sees the published result.
    assert_eq!(mid.call(Cmd::Skip(5)), 1);
    assert_eq!(mid.call(Cmd::Skip(10)), 0);

    drop((src, mid, sink));
    running.stop().unwrap();
}

/// The pass needs no thread: a DGC runtime starts one per task, plus the
/// exporter when one is configured.
#[test]
#[cfg(target_os = "linux")]
fn a_dgc_runtime_starts_one_thread_per_task() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    for exporter in [false, true] {
        let mut b = RuntimeBuilder::new(AruConfig::aru_min(), GcMode::Dgc);
        if exporter {
            let nowhere = aru_metrics::ExportSink {
                prometheus_path: None,
                jsonl_path: None,
            };
            b = b.with_export(nowhere, Micros::from_millis(10));
        }
        let ch = b.channel::<Vec<u8>>("c");
        let (src, sink) = (b.thread("src"), b.thread("sink"));
        let out = b.connect_out(src, &ch).unwrap();
        let mut input = b.connect_in(&ch, sink).unwrap();
        let mut ts = Timestamp::ZERO;
        b.spawn(src, move |ctx| {
            out.put(ctx, ts, vec![0; 8])?;
            ts = ts.next();
            std::thread::sleep(Duration::from_millis(1));
            Ok(Step::Continue)
        });
        b.spawn(sink, move |ctx| {
            input.get_latest(ctx).map(|_| Step::Continue)
        });
        let before = threads();
        let running = b.build().unwrap().start();
        let started = threads() - before;
        running.stop().unwrap();
        assert_eq!(started, 2 + usize::from(exporter), "exporter: {exporter}");
    }
}
