//! Telemetry glue between the runtime's hot paths and the live metrics
//! registry (DESIGN.md §12).
//!
//! Two structs, two cost regimes:
//!
//! * [`BufTele`] lives **inside a buffer's state mutex** — the channel/queue
//!   ops already hold it, so recording is plain integer arithmetic on
//!   fields the cache already owns: no atomics, no extra locks. Occupancy
//!   is *sampled* (1 in [`OCC_SAMPLE`] ops) into a plain [`Hist`]; the
//!   accumulated deltas are drained to the shared registry only when the
//!   exporter (or shutdown) calls `publish` — the put/get hot path never
//!   touches a shared cache line for telemetry.
//! * [`TaskTele`] is **task-thread-private**: gauges are stored every
//!   iteration, counters accumulate as plain deltas drained to the
//!   registry's wait-free handles when the task is about to block or sleep,
//!   every [`TASK_DRAIN`] iterations, and when its loop exits or recovers.
//!   Per-op put/get latency is sampled 1 in [`LAT_SAMPLE`] calls on the
//!   endpoint side.
//!
//! Both own a [`JournalShard`] and journal feedback-loop hops **only when
//! the carried summary value changes** — a converged pipeline pays one
//! compare per op and records nothing (see `aru_metrics::journal`).

use aru_core::NodeId;
use aru_metrics::journal::{HopGate, HopLeg, OccupancyGate, TaskGates};
use aru_metrics::{Counter, Gauge, Hist, Histogram, IterKey, JournalShard, Telemetry, TraceSink};
use std::time::Instant;
use vtime::{Micros, SimTime};

/// Occupancy sampling cadence for buffer ops (power of two).
const OCC_SAMPLE: u64 = 16;
/// Endpoint-side put/get latency sampling cadence (power of two).
const LAT_SAMPLE: u64 = 64;

/// Per-buffer (channel/queue) telemetry accumulator. All methods are called
/// under the buffer's state mutex by its existing ops; `publish` drains the
/// accumulated deltas into the shared registry.
pub(crate) struct BufTele {
    node: NodeId,
    // Registry sinks (cold handles, written only by `publish`).
    puts: Counter,
    gets: Counter,
    purged: Counter,
    timeouts: Counter,
    occupancy_hist: Histogram,
    occupancy: Gauge,
    live_bytes: Gauge,
    // Plain in-mutex accumulators (hot, drained by `publish`).
    d_puts: u64,
    d_gets: u64,
    d_purged: u64,
    d_timeouts: u64,
    occ: Hist,
    seq: u64,
    // Flight-recorder journal (DESIGN.md §16): hop records are
    // change-triggered; occupancy records are cut at publish cadence on
    // length change.
    deposit_hops: HopGate,
    return_hops: HopGate,
    occupancy_records: OccupancyGate,
    journal: JournalShard,
}

impl BufTele {
    pub(crate) fn new(tele: &Telemetry, kind: &'static str, name: &str, node: NodeId) -> Self {
        let r = &tele.registry;
        let labels: &[(&str, &str)] = &[("channel", name), ("kind", kind)];
        BufTele {
            node,
            puts: r.counter("aru_channel_puts_total", labels),
            gets: r.counter("aru_channel_gets_total", labels),
            purged: r.counter("aru_channel_purged_total", labels),
            timeouts: r.counter("aru_channel_timeouts_total", labels),
            occupancy_hist: r.histogram("aru_channel_occupancy", labels),
            occupancy: r.gauge("aru_channel_occupancy_items", labels),
            live_bytes: r.gauge("aru_channel_live_bytes", labels),
            d_puts: 0,
            d_gets: 0,
            d_purged: 0,
            d_timeouts: 0,
            occ: Hist::new(),
            seq: 0,
            deposit_hops: HopGate::new(HopLeg::Deposit),
            return_hops: HopGate::new(HopLeg::Return),
            occupancy_records: OccupancyGate::default(),
            journal: tele.journal.shard(),
        }
    }

    #[inline]
    fn sample_occupancy(&mut self, len: usize) {
        self.seq = self.seq.wrapping_add(1);
        if self.seq & (OCC_SAMPLE - 1) == 0 {
            self.occ.record(len as u64);
        }
    }

    /// `n` items inserted; `len` is the buffer's occupancy afterwards.
    #[inline]
    pub(crate) fn on_put(&mut self, n: u64, len: usize) {
        self.d_puts += n;
        self.sample_occupancy(len);
    }

    /// `n` items delivered to a consumer; `len` is the occupancy afterwards.
    #[inline]
    pub(crate) fn on_get(&mut self, n: u64, len: usize) {
        self.d_gets += n;
        self.sample_occupancy(len);
    }

    /// `n` dead items reclaimed (REF floor / DGC purge).
    #[inline]
    pub(crate) fn on_purged(&mut self, n: u64) {
        self.d_purged += n;
    }

    /// A blocking op hit its deadline.
    #[inline]
    pub(crate) fn on_timeout(&mut self) {
        self.d_timeouts += 1;
    }

    /// A consumer deposited its summary-STP at this buffer: a
    /// [`HopLeg::Deposit`] hop, journaled on value change.
    #[inline]
    pub(crate) fn on_deposit(&mut self, consumer: NodeId, value: Micros, now: SimTime) {
        self.deposit_hops
            .record(&self.journal, now, self.node, consumer, value);
    }

    /// This buffer's summary-STP was handed back to a producer on `put`: a
    /// [`HopLeg::Return`] hop, journaled on value change.
    #[inline]
    pub(crate) fn on_return(&mut self, producer: NodeId, value: Micros, now: SimTime) {
        self.return_hops
            .record(&self.journal, now, self.node, producer, value);
    }

    /// Drain accumulated deltas into the shared registry and refresh the
    /// point-in-time gauges. Called by the exporter tick and at shutdown —
    /// never from a put/get. Journals an occupancy record when the length
    /// changed since the last publish.
    pub(crate) fn publish(&mut self, now: SimTime, len: usize, live_bytes: u64) {
        self.puts.add(std::mem::take(&mut self.d_puts));
        self.gets.add(std::mem::take(&mut self.d_gets));
        self.purged.add(std::mem::take(&mut self.d_purged));
        self.timeouts.add(std::mem::take(&mut self.d_timeouts));
        self.occupancy_hist.merge_plain(&mut self.occ);
        self.occupancy.set(len as f64);
        self.live_bytes.set(live_bytes as f64);
        self.occupancy_records
            .record(&self.journal, now, self.node, len as u64);
    }
}

/// Endpoint-flush cadence for [`LfEndpointTele`] (power of two): deltas
/// accumulate endpoint-privately and drain to the registry shards every N
/// ops, so the lock-free hot path touches no shared cache line even for
/// its own counters. Bounded staleness ≤ N ops; `Drop` flushes the tail.
const LF_FLUSH: u64 = 64;

/// Per-endpoint telemetry for the lock-free queue (DESIGN.md §14): the
/// per-writer-shard replacement for [`BufTele`], which lives inside a
/// state mutex the lock-free path doesn't have. Each endpoint owns
/// private [`Counter`]/[`Histogram`] *shards* of the same series
/// (`Registry::counter` returns a fresh shard per call; snapshots sum
/// them), so two producers on one queue never share a telemetry cache
/// line. Deltas are plain integers flushed every [`LF_FLUSH`] ops — the
/// same publish-late discipline as `BufTele`, moved from the buffer to
/// the writer.
pub(crate) struct LfEndpointTele {
    ops: Counter,
    timeouts: Counter,
    occupancy_hist: Histogram,
    d_ops: u64,
    d_timeouts: u64,
    occ: Hist,
    seq: u64,
}

impl LfEndpointTele {
    /// Producer-side shard set (counts into `aru_channel_puts_total`).
    pub(crate) fn output(tele: &Telemetry, name: &str) -> Self {
        Self::new(tele, name, "aru_channel_puts_total")
    }

    /// Consumer-side shard set (counts into `aru_channel_gets_total`).
    pub(crate) fn input(tele: &Telemetry, name: &str) -> Self {
        Self::new(tele, name, "aru_channel_gets_total")
    }

    fn new(tele: &Telemetry, name: &str, ops_series: &str) -> Self {
        let r = &tele.registry;
        let labels: &[(&str, &str)] = &[("channel", name), ("kind", "lfqueue")];
        LfEndpointTele {
            ops: r.counter(ops_series, labels),
            timeouts: r.counter("aru_channel_timeouts_total", labels),
            occupancy_hist: r.histogram("aru_channel_occupancy", labels),
            d_ops: 0,
            d_timeouts: 0,
            occ: Hist::new(),
            seq: 0,
        }
    }

    /// `n` items moved through this endpoint; `len` is only evaluated on
    /// the 1-in-[`OCC_SAMPLE`] occupancy samples (it costs atomic loads
    /// on the lock-free queue).
    #[inline]
    pub(crate) fn on_op(&mut self, n: u64, len: impl FnOnce() -> usize) {
        self.d_ops += n;
        self.seq = self.seq.wrapping_add(1);
        if self.seq & (OCC_SAMPLE - 1) == 0 {
            self.occ.record(len() as u64);
        }
        if self.seq & (LF_FLUSH - 1) == 0 {
            self.flush();
        }
    }

    /// A blocking op hit its deadline.
    #[inline]
    pub(crate) fn on_timeout(&mut self) {
        self.d_timeouts += 1;
    }

    fn flush(&mut self) {
        self.ops.add(std::mem::take(&mut self.d_ops));
        self.timeouts.add(std::mem::take(&mut self.d_timeouts));
        self.occupancy_hist.merge_plain(&mut self.occ);
    }
}

impl Drop for LfEndpointTele {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Iterations a task may run between two drains of its telemetry deltas
/// (DESIGN.md §12). A task also drains before it blocks or sleeps, and
/// when its loop exits or recovers from a crash.
pub(crate) const TASK_DRAIN: u64 = 64;

/// A task's counter deltas since its last drain: plain integers.
#[derive(Default)]
struct TaskDeltas {
    iterations: u64,
    pacing_taken: u64,
    pacing_skipped: u64,
    stale: u64,
    pace_sleep_us: u64,
    law_fired: u64,
    law_clamped: u64,
}

/// Per-task telemetry. Thread-private (lives in `TaskCtx`): gauges are
/// stored every iteration, counters accumulate as plain deltas that
/// [`TaskTele::drain`] adds to the registry, and endpoint op latency is
/// sampled.
pub(crate) struct TaskTele {
    stp_current: Gauge,
    stp_summary: Gauge,
    iterations: Counter,
    pacing_taken: Counter,
    pacing_skipped: Counter,
    stale: Counter,
    pace_sleep_us: Counter,
    pace_raw_us: Gauge,
    pace_target_us: Gauge,
    law_fired: Counter,
    law_clamped: Counter,
    busy_us: Counter,
    blocked_us: Counter,
    put_ns: Histogram,
    get_ns: Histogram,
    d: TaskDeltas,
    // Meter totals already published, so a drain adds the difference.
    prev_busy: Micros,
    prev_blocked: Micros,
    op_seq: u64,
    // Flight-recorder journal: pace decisions, staleness transitions and
    // fold hops — gated by `TaskGates`, which the simulator shares.
    journal: JournalShard,
    gates: TaskGates,
}

impl TaskTele {
    pub(crate) fn new(tele: &Telemetry, name: &str, law: &'static str) -> Self {
        let r = &tele.registry;
        let labels: &[(&str, &str)] = &[("thread", name)];
        // Law-tagged series: which control law (DESIGN.md §13) drives this
        // task's pacing, and how often it fired / clamped the oracle.
        let law_labels: &[(&str, &str)] = &[("thread", name), ("law", law)];
        TaskTele {
            stp_current: r.gauge("aru_stp_current_us", labels),
            stp_summary: r.gauge("aru_stp_summary_us", labels),
            iterations: r.counter("aru_iterations_total", labels),
            pacing_taken: r.counter("aru_pacing_taken_total", labels),
            pacing_skipped: r.counter("aru_pacing_skipped_total", labels),
            stale: r.counter("aru_stale_summaries_total", labels),
            pace_sleep_us: r.counter("aru_pace_sleep_us_total", labels),
            pace_raw_us: r.gauge("aru_pace_raw_us", law_labels),
            pace_target_us: r.gauge("aru_pace_target_us", law_labels),
            law_fired: r.counter("aru_law_fired_total", law_labels),
            law_clamped: r.counter("aru_law_clamped_total", law_labels),
            busy_us: r.counter("aru_busy_us_total", labels),
            blocked_us: r.counter("aru_blocked_us_total", labels),
            put_ns: r.histogram("aru_put_latency_ns", labels),
            get_ns: r.histogram("aru_get_latency_ns", labels),
            d: TaskDeltas::default(),
            prev_busy: Micros::ZERO,
            prev_blocked: Micros::ZERO,
            op_seq: 0,
            journal: tele.journal.shard(),
            gates: TaskGates::new(law),
        }
    }

    /// Iteration `iter` finished at `t`: store the STP gauges, count the
    /// iteration, pacing, staleness and law deltas, and write its trace
    /// and journal records through the task's gates. Drains every
    /// [`TASK_DRAIN`] iterations.
    pub(crate) fn on_iteration(
        &mut self,
        trace: &mut impl TraceSink,
        t: SimTime,
        iter: IterKey,
        outcome: &aru_core::IterationOutcome,
        meter: &aru_core::StpMeter,
    ) {
        self.stp_current.set(outcome.current_stp.as_micros() as f64);
        if let Some(s) = outcome.summary {
            self.stp_summary.set(s.as_micros() as f64);
        }
        let d = &mut self.d;
        d.iterations += 1;
        if outcome.paced {
            d.pacing_taken += 1;
            d.pace_sleep_us += outcome.sleep.as_micros();
        } else {
            d.pacing_skipped += 1;
        }
        d.stale += u64::from(outcome.stale);
        if outcome.law_fired {
            d.law_fired += 1;
            d.law_clamped += u64::from(outcome.clamped);
            if let Some(raw) = outcome.raw_target {
                self.pace_raw_us.set(raw.as_micros() as f64);
            }
            if let Some(tg) = outcome.pace_target {
                self.pace_target_us.set(tg.as_micros() as f64);
            }
        }
        self.gates
            .on_iteration(trace, &self.journal, t, iter, outcome);
        if self.d.iterations >= TASK_DRAIN {
            self.drain(meter);
        }
    }

    /// Add the counter deltas and the meter's busy/blocked growth since the
    /// last drain to the registry.
    pub(crate) fn drain(&mut self, meter: &aru_core::StpMeter) {
        let d = std::mem::take(&mut self.d);
        for (counter, delta) in [
            (&self.iterations, d.iterations),
            (&self.pacing_taken, d.pacing_taken),
            (&self.pacing_skipped, d.pacing_skipped),
            (&self.stale, d.stale),
            (&self.pace_sleep_us, d.pace_sleep_us),
            (&self.law_fired, d.law_fired),
            (&self.law_clamped, d.law_clamped),
        ] {
            if delta > 0 {
                counter.add(delta);
            }
        }
        let (busy, blocked) = (meter.total_busy(), meter.total_blocked());
        // saturating: the meter restarts from zero after a crash recovery
        let busy_delta = busy.as_micros().saturating_sub(self.prev_busy.as_micros());
        let blocked_delta = blocked
            .as_micros()
            .saturating_sub(self.prev_blocked.as_micros());
        if busy_delta > 0 {
            self.busy_us.add(busy_delta);
        }
        if blocked_delta > 0 {
            self.blocked_us.add(blocked_delta);
        }
        self.prev_busy = busy;
        self.prev_blocked = blocked;
    }

    /// A `put` returned a buffer's summary-STP and the task folded it into
    /// its controller — a [`HopLeg::Fold`] hop, journaled on value change.
    #[inline]
    pub(crate) fn on_fold(&mut self, t: SimTime, node: NodeId, from: NodeId, value: Micros) {
        self.gates.on_fold(&self.journal, t, node, from, value);
    }

    /// Sample gate for endpoint op latency: `Some(start)` for 1 in
    /// [`LAT_SAMPLE`] calls. Costs one increment + branch when not sampled.
    #[inline]
    pub(crate) fn op_sample(&mut self) -> Option<Instant> {
        self.op_seq = self.op_seq.wrapping_add(1);
        if self.op_seq & (LAT_SAMPLE - 1) == 0 {
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn record_put_ns(&self, t0: Instant) {
        self.put_ns.record(t0.elapsed().as_nanos() as u64);
    }

    #[inline]
    pub(crate) fn record_get_ns(&self, t0: Instant) {
        self.get_ns.record(t0.elapsed().as_nanos() as u64);
    }

    /// After a crash the meter restarts from zero (the caller drained the
    /// old one first); resync the published baselines to match.
    pub(crate) fn on_recover(&mut self) {
        self.prev_busy = Micros::ZERO;
        self.prev_blocked = Micros::ZERO;
    }
}
