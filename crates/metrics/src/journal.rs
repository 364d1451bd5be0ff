//! Black-box flight recorder: a bounded, per-writer journal of typed
//! control-plane records (DESIGN.md §16).
//!
//! Live telemetry (DESIGN.md §12) answers "what is the pipeline doing
//! *now*"; the trace answers "what did every item do" but lives only in
//! process memory. When a run goes wrong — a law oscillates, a backlog
//! ramps, the supervisor escalates — the evidence must survive the
//! process. The journal records the *control-plane* events that explain a
//! run (pace decisions with their law/raw/clamp fields, summary-STP hops,
//! occupancy watermark transitions, staleness fallbacks, supervisor
//! retries/escalations, fault injections) into per-writer rings, and cuts
//! whole-file atomic JSONL snapshots on demand, at clean stop, and on
//! supervisor escalation. The threaded runtime and the desim engine
//! record through this one schema, so a simulated 1000-node sweep and a
//! real run produce comparable journals for `repro doctor`.
//!
//! # Recording discipline
//!
//! Same sharding as the trace: each writer owns a [`JournalShard`] — a
//! ring behind a mutex that only the writer and a snapshot ever take, so
//! the lock is uncontended. The ring overwrites its oldest record once it
//! holds [`JOURNAL_CAP`] and counts what it overwrote; memory stays
//! bounded no matter how long the run, and grows only as far as a shard
//! is used. Every record is change- or event-gated (a steady-state
//! pipeline journals nothing), and each kind by one rule that both
//! substrates and both FIFO backends call: [`TaskGates`] for a task's
//! iterations, crashes and restarts, [`HopGate`] for the summary-STP hops,
//! [`OccupancyGate`] for buffer occupancy. A snapshot is cut only at clean
//! stop (what `repro --watch` reads), at a crash dump or on demand, so
//! nothing here needs to be lock-free. The span recorder ([`crate::spans`]) keeps
//! its hops in the same ring type.

use crate::event::{IterKey, TraceEvent};
use crate::json::JsonObj;
use crate::sync::Mutex;
use crate::trace::TraceSink;
use aru_core::graph::NodeId;
use aru_core::IterationOutcome;
use std::io;
use std::path::Path;
use std::sync::Arc;
use vtime::{Micros, SimTime};

/// Journal schema version, stamped into every snapshot header.
pub const JOURNAL_SCHEMA: u32 = 1;

/// Records kept per writer ring. Shrunk under loom so a model-checked test
/// can cross the wrap boundary within the preemption budget.
pub const JOURNAL_CAP: usize = if cfg!(loom) { 4 } else { 4096 };

/// Occupancy high-watermark (items) for [`JournalKind::Occupancy`]
/// transition records.
pub const DEFAULT_OCC_WATERMARK: u64 = 1024;

/// The crate's one overwrite-oldest ring: at most [`JOURNAL_CAP`] records,
/// allocated as it fills, counting every record it overwrote.
#[derive(Debug)]
pub(crate) struct Ring<R> {
    buf: Vec<R>,
    /// Overwrite cursor once `buf` reached capacity: the oldest record.
    next: usize,
    dropped: u64,
}

impl<R: Copy> Ring<R> {
    fn new() -> Self {
        Ring {
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, rec: R) {
        if self.buf.len() < JOURNAL_CAP {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next = (self.next + 1) % JOURNAL_CAP;
            self.dropped += 1;
        }
    }

    /// Append the contents oldest-first.
    fn collect_into(&self, out: &mut Vec<R>) {
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
    }
}

/// One writer's ring, shared with the registry that snapshots it.
pub(crate) type SharedRing<R> = Arc<Mutex<Ring<R>>>;

/// Every ring opened on one recorder, in registration order.
#[derive(Debug)]
pub(crate) struct Rings<R> {
    shards: Mutex<Vec<SharedRing<R>>>,
}

impl<R> Default for Rings<R> {
    fn default() -> Self {
        Rings {
            shards: Mutex::new(Vec::new()),
        }
    }
}

impl<R: Copy> Rings<R> {
    /// Open and register a new writer-private ring.
    pub(crate) fn open(&self) -> SharedRing<R> {
        let ring = Arc::new(Mutex::new(Ring::new()));
        self.shards.lock().push(Arc::clone(&ring));
        ring
    }

    /// Every ring's records, each oldest-first, then stable-sorted by
    /// `key` (ties keep registration order, like the trace merge); plus
    /// the total overwritten. Non-destructive.
    pub(crate) fn collect<K: Ord>(&self, key: impl FnMut(&R) -> K) -> (Vec<R>, u64) {
        let shards: Vec<SharedRing<R>> = self.shards.lock().clone();
        let mut records = Vec::new();
        let mut dropped = 0u64;
        for shard in &shards {
            let ring = shard.lock();
            ring.collect_into(&mut records);
            dropped += ring.dropped;
        }
        records.sort_by_key(key);
        (records, dropped)
    }
}

/// Which leg of the backward summary propagation a [`JournalKind::Hop`]
/// records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopLeg {
    Deposit,
    Return,
    Fold,
}

impl HopLeg {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HopLeg::Deposit => "deposit",
            HopLeg::Return => "return",
            HopLeg::Fold => "fold",
        }
    }
}

/// Injected fault classes (mirrors desim's `FaultKind` without depending
/// on it — metrics sits below desim).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    Crash,
    Stall,
    DropSummaries,
    LinkSpike,
}

impl FaultClass {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Crash => "crash",
            FaultClass::Stall => "stall",
            FaultClass::DropSummaries => "drop_summaries",
            FaultClass::LinkSpike => "link_spike",
        }
    }
}

/// Control-law code carried by [`JournalKind::Pace`] records. Codes are
/// part of the persisted schema; `0` is "unknown". Code 2 belongs to the
/// retired AIMD law: no controller writes it any more, and it stays
/// reserved and decodable so older journals still load.
#[must_use]
pub fn law_code(label: &str) -> u8 {
    match label {
        "direct" => 1,
        "aimd" => 2,
        "pid" => 3,
        "hysteresis" => 4,
        _ => 0,
    }
}

/// Inverse of [`law_code`].
#[must_use]
pub fn law_label(code: u8) -> &'static str {
    match code {
        1 => "direct",
        2 => "aimd",
        3 => "pid",
        4 => "hysteresis",
        _ => "unknown",
    }
}

/// The typed payload of one journal record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalKind {
    /// A control law fired: raw oracle target, applied target, the sleep
    /// chosen, and whether guardrails clamped the raw value.
    Pace {
        law: u8,
        raw: Micros,
        target: Micros,
        sleep: Micros,
        clamped: bool,
    },
    /// One leg of summary-STP propagation (`node` is where the hop was
    /// observed — the buffer for `Deposit`/`Return`, the thread for `Fold`
    /// — and `peer` the other party).
    Hop {
        leg: HopLeg,
        peer: NodeId,
        value: Micros,
    },
    /// Buffer occupancy at a publish point; recorded when the length
    /// changed since the last publish or crossed the watermark.
    Occupancy {
        len: u64,
        watermark: u64,
        high: bool,
    },
    /// A task entered (`true`) or left (`false`) staleness fallback.
    Stale { entered: bool },
    /// A supervised task body panicked (`attempt` = crashes so far).
    Crash { attempt: u32 },
    /// The supervisor restarted a crashed task after `backoff`.
    Restart { attempt: u32, backoff: Micros },
    /// Retry budget exhausted — the run is escalating to shutdown.
    Escalate { attempt: u32 },
    /// A fault-plan injection fired (desim) or was detected.
    Fault { class: FaultClass },
    /// A summary was dropped before folding (feedback loss).
    SummaryDropped,
}

/// One journal record: when, where, what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    pub t: SimTime,
    pub node: NodeId,
    pub kind: JournalKind,
}

/// A writer-private journal ring. The owning writer is the only writer
/// (same contract as a trace shard); a snapshot takes its lock briefly.
#[derive(Debug)]
pub struct JournalShard {
    ring: SharedRing<JournalRecord>,
}

impl JournalShard {
    /// Record one event, overwriting the shard's oldest when it is full.
    pub fn record(&self, t: SimTime, node: NodeId, kind: JournalKind) {
        self.ring.lock().push(JournalRecord { t, node, kind });
    }
}

/// The value-change gate of one hop leg: a hop is recorded only when the
/// summary it carries differs from the last one this gate recorded, so a
/// converged pipeline pays one compare per op and records nothing. Every
/// `Deposit`, `Return` and `Fold` record of both substrates goes through
/// one.
#[derive(Debug)]
pub struct HopGate {
    leg: HopLeg,
    last: Option<Micros>,
}

impl HopGate {
    #[must_use]
    pub fn new(leg: HopLeg) -> Self {
        HopGate { leg, last: None }
    }

    /// `node` saw `value` pass to or from `peer` at `t`.
    #[inline]
    pub fn record(
        &mut self,
        shard: &JournalShard,
        t: SimTime,
        node: NodeId,
        peer: NodeId,
        value: Micros,
    ) {
        if self.last != Some(value) {
            self.last = Some(value);
            let leg = self.leg;
            shard.record(t, node, JournalKind::Hop { leg, peer, value });
        }
    }
}

/// The occupancy gate of one buffer, read at publish cadence: a record
/// when the length changed since the last one. A watermark crossing is a
/// length change, and the record says which side of
/// [`DEFAULT_OCC_WATERMARK`] the length is on.
#[derive(Debug, Default)]
pub struct OccupancyGate {
    last: Option<u64>,
}

impl OccupancyGate {
    /// Buffer `node` holds `len` items at `t`.
    pub fn record(&mut self, shard: &JournalShard, t: SimTime, node: NodeId, len: u64) {
        if self.last != Some(len) {
            self.last = Some(len);
            let kind = JournalKind::Occupancy {
                len,
                watermark: DEFAULT_OCC_WATERMARK,
                high: len >= DEFAULT_OCC_WATERMARK,
            };
            shard.record(t, node, kind);
        }
    }
}

/// The recording rule of a task's control-plane records, on the threaded
/// runtime and the simulator alike: each writes its iterations, crashes
/// and restarts here, so a sim trace or journal and a live one differ only
/// in what happened. An iteration's end is traced always, its staleness
/// traced while it lasts and journaled on its edges (the storm detector
/// wants transitions, not area), its pace decision traced and journaled
/// when the law fired and both targets exist; a fold hop is journaled when
/// the folded value changed.
#[derive(Debug)]
pub struct TaskGates {
    law: u8,
    was_stale: bool,
    fold: HopGate,
}

impl TaskGates {
    /// Gates for a task paced by the control law labelled `law`.
    #[must_use]
    pub fn new(law: &str) -> Self {
        TaskGates {
            law: law_code(law),
            was_stale: false,
            fold: HopGate::new(HopLeg::Fold),
        }
    }

    /// Iteration `iter` ended at `t`: trace `IterEnd`, then `StaleSummary`
    /// and `PaceDecision`; journal a [`JournalKind::Stale`] edge, then the
    /// [`JournalKind::Pace`] decision.
    #[inline]
    pub fn on_iteration(
        &mut self,
        trace: &mut impl TraceSink,
        shard: &JournalShard,
        t: SimTime,
        iter: IterKey,
        outcome: &IterationOutcome,
    ) {
        let node = iter.node;
        let busy = outcome.current_stp.period();
        trace.record(TraceEvent::IterEnd { t, iter, busy });
        if outcome.stale {
            trace.record(TraceEvent::StaleSummary { t, iter });
        }
        if outcome.stale != self.was_stale {
            self.was_stale = outcome.stale;
            let entered = outcome.stale;
            shard.record(t, node, JournalKind::Stale { entered });
        }
        if let (true, Some(raw), Some(target)) =
            (outcome.law_fired, outcome.raw_target, outcome.pace_target)
        {
            let (raw, target, clamped) = (raw.period(), target.period(), outcome.clamped);
            trace.record(TraceEvent::PaceDecision {
                t,
                node,
                raw,
                target,
                clamped,
            });
            let pace = JournalKind::Pace {
                law: self.law,
                raw,
                target,
                sleep: outcome.sleep,
                clamped,
            };
            shard.record(t, node, pace);
        }
    }

    /// `node` folded the summary-STP `value` that buffer `from` returned on
    /// a put: a [`HopLeg::Fold`] hop.
    #[inline]
    pub fn on_fold(
        &mut self,
        shard: &JournalShard,
        t: SimTime,
        node: NodeId,
        from: NodeId,
        value: Micros,
    ) {
        self.fold.record(shard, t, node, from, value);
    }

    /// Task `node`'s body crashed for the `attempt`th time: trace
    /// `TaskCrash`, journal [`JournalKind::Crash`].
    pub fn on_crash(
        trace: &mut impl TraceSink,
        shard: &JournalShard,
        t: SimTime,
        node: NodeId,
        attempt: u32,
    ) {
        trace.record(TraceEvent::TaskCrash { t, node, attempt });
        shard.record(t, node, JournalKind::Crash { attempt });
    }

    /// The supervisor restarted task `node` after `backoff`: trace
    /// `TaskRestart`, journal [`JournalKind::Restart`].
    pub fn on_restart(
        trace: &mut impl TraceSink,
        shard: &JournalShard,
        t: SimTime,
        node: NodeId,
        attempt: u32,
        backoff: Micros,
    ) {
        trace.record(TraceEvent::TaskRestart {
            t,
            node,
            attempt,
            backoff,
        });
        shard.record(t, node, JournalKind::Restart { attempt, backoff });
    }
}

/// Shared handle to the flight recorder (cheap to clone; all clones see
/// the same shards). Carried by [`crate::Telemetry`].
#[derive(Clone, Debug, Default)]
pub struct Journal {
    rings: Arc<Rings<JournalRecord>>,
}

impl Journal {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new writer-private ring.
    #[must_use]
    pub fn shard(&self) -> JournalShard {
        JournalShard {
            ring: self.rings.open(),
        }
    }

    /// Merge all rings into one time-ordered record list. Non-destructive;
    /// holds each shard's lock only while copying it.
    #[must_use]
    pub fn snapshot(&self) -> JournalSnapshot {
        let (records, dropped) = self.rings.collect(|r| r.t);
        JournalSnapshot {
            records,
            torn: 0,
            dropped,
        }
    }

    /// Cut a snapshot and persist it (whole-file atomic; see
    /// [`JournalSnapshot::write_file`]).
    pub fn write_snapshot_file(
        &self,
        path: &Path,
        source: &str,
        epoch_unix_us: u64,
    ) -> io::Result<()> {
        self.snapshot().write_file(path, source, epoch_unix_us)
    }
}

/// All journaled records, time-ordered, plus loss accounting.
#[derive(Clone, Debug, Default)]
pub struct JournalSnapshot {
    pub records: Vec<JournalRecord>,
    /// Records a reader could not read consistently. Always 0 for a
    /// mutex ring; kept in the header so older journals, cut from
    /// lock-free rings, still load and report theirs.
    pub torn: u64,
    /// Records lost to ring overwrite before this snapshot.
    pub dropped: u64,
}

fn record_jsonl(rec: &JournalRecord) -> String {
    let base = |kind: &str| {
        JsonObj::new()
            .field("kind", kind)
            .field("t_us", rec.t.as_micros())
            .field("node", u64::from(rec.node.0))
    };
    match rec.kind {
        JournalKind::Pace {
            law,
            raw,
            target,
            sleep,
            clamped,
        } => base("pace")
            .field("law", law_label(law))
            .field("raw_us", raw.as_micros())
            .field("target_us", target.as_micros())
            .field("sleep_us", sleep.as_micros())
            .field("clamped", clamped)
            .finish(),
        JournalKind::Hop { leg, peer, value } => base("hop")
            .field("leg", leg.label())
            .field("peer", u64::from(peer.0))
            .field("value_us", value.as_micros())
            .finish(),
        JournalKind::Occupancy {
            len,
            watermark,
            high,
        } => base("occupancy")
            .field("len", len)
            .field("watermark", watermark)
            .field("high", high)
            .finish(),
        JournalKind::Stale { entered } => base("stale").field("entered", entered).finish(),
        JournalKind::Crash { attempt } => {
            base("crash").field("attempt", u64::from(attempt)).finish()
        }
        JournalKind::Restart { attempt, backoff } => base("restart")
            .field("attempt", u64::from(attempt))
            .field("backoff_us", backoff.as_micros())
            .finish(),
        JournalKind::Escalate { attempt } => base("escalate")
            .field("attempt", u64::from(attempt))
            .finish(),
        JournalKind::Fault { class } => base("fault").field("fault", class.label()).finish(),
        JournalKind::SummaryDropped => base("summary_dropped").finish(),
    }
}

impl JournalSnapshot {
    /// Serialize as JSONL: one header line (schema, source, epoch, loss
    /// accounting) then one line per record, oldest first.
    #[must_use]
    pub fn to_jsonl(&self, source: &str, epoch_unix_us: u64) -> String {
        let mut out = JsonObj::new()
            .field("kind", "journal_header")
            .field("schema", u64::from(JOURNAL_SCHEMA))
            .field("source", source)
            .field("epoch_unix_us", epoch_unix_us)
            .field("torn", self.torn)
            .field("dropped", self.dropped)
            .field("records", self.records.len() as u64)
            .finish();
        out.push('\n');
        for rec in &self.records {
            out.push_str(&record_jsonl(rec));
            out.push('\n');
        }
        out
    }

    /// Persist atomically: write a `.tmp` sibling, then rename over the
    /// target — a reader (or a crash) never observes a torn file (the
    /// `ExportSink` discipline).
    pub fn write_file(&self, path: &Path, source: &str, epoch_unix_us: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_jsonl(source, epoch_unix_us))?;
        std::fs::rename(&tmp, path)
    }
}

/// A pace decision walked backwards through the persisted hop legs.
/// Threaded journals carry all three legs; sim journals fold directly, so
/// only the Fold leg exists there.
#[derive(Clone, Debug, Default)]
pub struct PaceChain {
    pub fold: Option<JournalRecord>,
    pub ret: Option<JournalRecord>,
    pub deposit: Option<JournalRecord>,
}

/// Walk one pace decision backwards through the journal's hop records —
/// the one causal-chain walk (`repro doctor` and the runtime's telemetry
/// tests both call it): the latest Fold on the pace's node, then the
/// Return whose (node, peer, value) mirror that fold, then the Deposit
/// that carried the same summary value into that buffer. Records must be
/// time-sorted (what [`JournalSnapshot`] holds).
#[must_use]
pub fn attribute_pace(records: &[JournalRecord], pace_idx: usize) -> PaceChain {
    let mut chain = PaceChain::default();
    let Some(pace) = records.get(pace_idx) else {
        return chain;
    };
    let node = pace.node;
    let mut fold_at = None;
    for (i, r) in records.iter().enumerate().take(pace_idx).rev() {
        if r.node == node {
            if let JournalKind::Hop {
                leg: HopLeg::Fold, ..
            } = r.kind
            {
                chain.fold = Some(*r);
                fold_at = Some(i);
                break;
            }
        }
    }
    let Some(fold_i) = fold_at else { return chain };
    let (fpeer, fvalue, ft) = match records[fold_i].kind {
        JournalKind::Hop { peer, value, .. } => (peer, value, records[fold_i].t),
        _ => return chain,
    };
    // A Return at the same timestamp may sort after the fold (different
    // shards), so scan by time, not index.
    let mut ret_at = None;
    for (i, r) in records.iter().enumerate().take(pace_idx).rev() {
        if r.t > ft || r.node != fpeer {
            continue;
        }
        if let JournalKind::Hop {
            leg: HopLeg::Return,
            peer,
            value,
        } = r.kind
        {
            if peer == node && value == fvalue {
                chain.ret = Some(*r);
                ret_at = Some(i);
                break;
            }
        }
    }
    let Some(ret_i) = ret_at else { return chain };
    let rt = records[ret_i].t;
    for r in records.iter().take(pace_idx).rev() {
        if r.t > rt || r.node != fpeer {
            continue;
        }
        if let JournalKind::Hop {
            leg: HopLeg::Deposit,
            value,
            ..
        } = r.kind
        {
            if value == fvalue {
                chain.deposit = Some(*r);
                break;
            }
        }
    }
    chain
}

/// A journal read back from disk: header metadata plus the records.
#[derive(Clone, Debug)]
pub struct LoadedJournal {
    /// `"threaded"` or `"sim"` — which runtime cut the snapshot.
    pub source: String,
    pub schema: u32,
    pub epoch_unix_us: u64,
    pub snapshot: JournalSnapshot,
    /// Data lines that did not parse (0 for an intact snapshot; the loader
    /// tolerates them so a truncated foreign file still yields its prefix).
    pub skipped: u64,
}

// ---- flat-JSON line parsing (matched to this module's own writer; the
// workspace has no JSON crate) ----

fn field_pos(line: &str, key: &str) -> Option<usize> {
    let needle = format!("\"{key}\":");
    line.find(&needle).map(|i| i + needle.len())
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[field_pos(line, key)?..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A field the record holds as `u32` (`node`, `peer`, `attempt`): a value
/// out of range fails the line instead of wrapping onto another node.
fn json_u32(line: &str, key: &str) -> Option<u32> {
    u32::try_from(json_u64(line, key)?).ok()
}

fn json_bool(line: &str, key: &str) -> Option<bool> {
    let rest = &line[field_pos(line, key)?..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn json_str(line: &str, key: &str) -> Option<String> {
    let rest = line[field_pos(line, key)?..].strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// A line the writer finished: one whole object. A line torn mid-write
/// can hold every field and still be wrong, its last number cut short.
fn whole_line(line: &str) -> Option<&str> {
    line.ends_with('}').then_some(line)
}

fn parse_record(line: &str) -> Option<JournalRecord> {
    let line = whole_line(line)?;
    let kind = json_str(line, "kind")?;
    let t = SimTime(json_u64(line, "t_us")?);
    let node = NodeId(json_u32(line, "node")?);
    let kind = match kind.as_str() {
        "pace" => JournalKind::Pace {
            law: law_code(&json_str(line, "law")?),
            raw: Micros(json_u64(line, "raw_us")?),
            target: Micros(json_u64(line, "target_us")?),
            sleep: Micros(json_u64(line, "sleep_us")?),
            clamped: json_bool(line, "clamped")?,
        },
        "hop" => JournalKind::Hop {
            leg: match json_str(line, "leg")?.as_str() {
                "deposit" => HopLeg::Deposit,
                "return" => HopLeg::Return,
                "fold" => HopLeg::Fold,
                _ => return None,
            },
            peer: NodeId(json_u32(line, "peer")?),
            value: Micros(json_u64(line, "value_us")?),
        },
        "occupancy" => JournalKind::Occupancy {
            len: json_u64(line, "len")?,
            watermark: json_u64(line, "watermark")?,
            high: json_bool(line, "high")?,
        },
        "stale" => JournalKind::Stale {
            entered: json_bool(line, "entered")?,
        },
        "crash" => JournalKind::Crash {
            attempt: json_u32(line, "attempt")?,
        },
        "restart" => JournalKind::Restart {
            attempt: json_u32(line, "attempt")?,
            backoff: Micros(json_u64(line, "backoff_us")?),
        },
        "escalate" => JournalKind::Escalate {
            attempt: json_u32(line, "attempt")?,
        },
        "fault" => JournalKind::Fault {
            class: match json_str(line, "fault")?.as_str() {
                "crash" => FaultClass::Crash,
                "stall" => FaultClass::Stall,
                "drop_summaries" => FaultClass::DropSummaries,
                "link_spike" => FaultClass::LinkSpike,
                _ => return None,
            },
        },
        "summary_dropped" => JournalKind::SummaryDropped,
        _ => return None,
    };
    Some(JournalRecord { t, node, kind })
}

/// Parse a serialized journal (the output of
/// [`JournalSnapshot::to_jsonl`]). The first line must be a whole
/// `journal_header`; later lines that fail to parse, a line torn mid-write
/// among them, are counted in [`LoadedJournal::skipped`] rather than
/// aborting the load.
pub fn parse_journal(text: &str) -> io::Result<LoadedJournal> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty journal"))?;
    let Some(header) =
        whole_line(header).filter(|h| json_str(h, "kind").as_deref() == Some("journal_header"))
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "missing or torn journal_header line",
        ));
    };
    let source = json_str(header, "source").unwrap_or_else(|| "unknown".to_string());
    let schema = json_u32(header, "schema").unwrap_or(0);
    let epoch_unix_us = json_u64(header, "epoch_unix_us").unwrap_or(0);
    let torn = json_u64(header, "torn").unwrap_or(0);
    let dropped = json_u64(header, "dropped").unwrap_or(0);
    let mut records = Vec::new();
    let mut skipped = 0u64;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_record(line) {
            Some(rec) => records.push(rec),
            None => skipped += 1,
        }
    }
    Ok(LoadedJournal {
        source,
        schema,
        epoch_unix_us,
        snapshot: JournalSnapshot {
            records,
            torn,
            dropped,
        },
        skipped,
    })
}

/// Load a journal snapshot file written by [`JournalSnapshot::write_file`].
/// Bytes that are not UTF-8 spoil only the lines they are on, which are
/// skipped like any other bad line.
pub fn load_journal(path: &Path) -> io::Result<LoadedJournal> {
    parse_journal(&String::from_utf8_lossy(&std::fs::read(path)?))
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<JournalKind> {
        vec![
            JournalKind::Pace {
                law: law_code("hysteresis"),
                raw: Micros(42_000),
                target: Micros(40_000),
                sleep: Micros(1_200),
                clamped: true,
            },
            JournalKind::Hop {
                leg: HopLeg::Deposit,
                peer: NodeId(7),
                value: Micros(80_000),
            },
            JournalKind::Hop {
                leg: HopLeg::Return,
                peer: NodeId(8),
                value: Micros(80_000),
            },
            JournalKind::Hop {
                leg: HopLeg::Fold,
                peer: NodeId(9),
                value: Micros(80_000),
            },
            JournalKind::Occupancy {
                len: 1500,
                watermark: 1024,
                high: true,
            },
            JournalKind::Stale { entered: true },
            JournalKind::Crash { attempt: 1 },
            JournalKind::Restart {
                attempt: 1,
                backoff: Micros(10_000),
            },
            JournalKind::Escalate { attempt: 3 },
            JournalKind::Fault {
                class: FaultClass::LinkSpike,
            },
            JournalKind::SummaryDropped,
        ]
    }

    #[test]
    fn every_kind_roundtrips_through_the_ring() {
        let journal = Journal::new();
        let shard = journal.shard();
        let kinds = all_kinds();
        for (i, kind) in kinds.iter().enumerate() {
            shard.record(SimTime(i as u64), NodeId(3), *kind);
        }
        let snap = journal.snapshot();
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.records.len(), kinds.len());
        for (i, (rec, kind)) in snap.records.iter().zip(&kinds).enumerate() {
            assert_eq!(rec.t, SimTime(i as u64));
            assert_eq!(rec.node, NodeId(3));
            assert_eq!(rec.kind, *kind, "{kind:?} came back changed");
        }
    }

    /// The one ring behind journal and span shards: below capacity it keeps
    /// everything; past it, the newest `JOURNAL_CAP` oldest-first and a
    /// count of the rest — however many times the cursor has wrapped.
    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let cap = JOURNAL_CAP as u64;
        for n in [0, 3, cap, cap + 3, 2 * cap, 3 * cap + 5] {
            let mut ring = Ring::new();
            (0..n).for_each(|i| ring.push(i));
            let mut kept = Vec::new();
            ring.collect_into(&mut kept);
            let oldest = n.saturating_sub(cap);
            assert_eq!(kept, (oldest..n).collect::<Vec<_>>(), "{n} pushes");
            assert_eq!(ring.dropped, oldest, "{n} pushes");
        }
    }

    #[test]
    fn snapshot_merges_shards_in_time_order() {
        let journal = Journal::new();
        let a = journal.shard();
        let b = journal.shard();
        a.record(SimTime(10), NodeId(1), JournalKind::SummaryDropped);
        b.record(SimTime(5), NodeId(2), JournalKind::Crash { attempt: 1 });
        let snap = journal.snapshot();
        assert_eq!(snap.records[0].t, SimTime(5));
        assert_eq!(snap.records[1].t, SimTime(10));
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_record() {
        let journal = Journal::new();
        let shard = journal.shard();
        for (i, kind) in all_kinds().into_iter().enumerate() {
            shard.record(SimTime(i as u64 * 100), NodeId(i as u32), kind);
        }
        let snap = journal.snapshot();
        let text = snap.to_jsonl("sim", 1_700_000_000_000_000);
        let loaded = parse_journal(&text).unwrap();
        assert_eq!(loaded.source, "sim");
        assert_eq!(loaded.schema, JOURNAL_SCHEMA);
        assert_eq!(loaded.epoch_unix_us, 1_700_000_000_000_000);
        assert_eq!(loaded.skipped, 0);
        assert_eq!(loaded.snapshot.records, snap.records);
    }

    #[test]
    fn write_file_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join(format!("aru-journal-{}", std::process::id()));
        let path = dir.join("run.journal.jsonl");
        let journal = Journal::new();
        let shard = journal.shard();
        shard.record(
            SimTime(1),
            NodeId(0),
            JournalKind::Pace {
                law: law_code("direct"),
                raw: Micros(50_000),
                target: Micros(50_000),
                sleep: Micros(0),
                clamped: false,
            },
        );
        journal.write_snapshot_file(&path, "threaded", 7).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp renamed away");
        let loaded = load_journal(&path).unwrap();
        assert_eq!(loaded.source, "threaded");
        assert_eq!(loaded.snapshot.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every law a controller can run journals under a code that decodes
    /// back to its `ControllerConfig::label`, the one name the telemetry,
    /// desim's gates and the doctor share.
    #[test]
    fn every_controller_label_roundtrips_through_its_law_code() {
        use aru_core::ControllerConfig;
        // Exhaustive on purpose: a new law does not compile until it is
        // listed here, and so until it has a code.
        let listed = |c: ControllerConfig| match c {
            ControllerConfig::Direct | ControllerConfig::Pid | ControllerConfig::Hysteresis => c,
        };
        for law in [
            ControllerConfig::Direct,
            ControllerConfig::Pid,
            ControllerConfig::Hysteresis,
        ]
        .map(listed)
        {
            let code = law_code(law.label());
            assert_ne!(code, 0, "{} has no journal code", law.label());
            assert_eq!(law_label(code), law.label());
        }
    }

    /// A pace line written while AIMD was still a law loads with its
    /// reserved code.
    #[test]
    fn retired_aimd_pace_line_still_loads_as_code_2() {
        let text = "{\"kind\":\"journal_header\",\"schema\":1,\"source\":\"sim\",\
                    \"epoch_unix_us\":0,\"torn\":0,\"dropped\":0,\"records\":1}\n\
                    {\"kind\":\"pace\",\"t_us\":5,\"node\":1,\"law\":\"aimd\",\
                    \"raw_us\":200000,\"target_us\":150000,\"sleep_us\":0,\"clamped\":true}";
        let loaded = parse_journal(text).unwrap();
        assert_eq!(loaded.skipped, 0);
        assert_eq!(
            loaded.snapshot.records[0].kind,
            JournalKind::Pace {
                law: 2,
                raw: Micros(200_000),
                target: Micros(150_000),
                sleep: Micros(0),
                clamped: true,
            }
        );
        assert_eq!(law_label(2), "aimd");
    }

    #[test]
    fn loader_rejects_headerless_text_and_skips_bad_lines() {
        assert!(parse_journal("").is_err());
        assert!(parse_journal("{\"kind\":\"pace\"}").is_err());
        let text = "{\"kind\":\"journal_header\",\"schema\":1,\"source\":\"sim\",\
                    \"epoch_unix_us\":0,\"torn\":0,\"dropped\":0,\"records\":2}\n\
                    {\"kind\":\"summary_dropped\",\"t_us\":5,\"node\":1}\n\
                    {\"kind\":\"pace\",\"t_us\":6,\"node\"";
        let loaded = parse_journal(text).unwrap();
        assert_eq!(loaded.snapshot.records.len(), 1, "intact prefix kept");
        assert_eq!(loaded.skipped, 1, "truncated tail counted");
    }

    /// `node`, `peer` and `attempt` are `u32` in the record; 2^32 + 5 must
    /// not load as 5 (doctor would blame the wrong task).
    #[test]
    fn loader_skips_lines_whose_u32_fields_are_out_of_range() {
        let header = "{\"kind\":\"journal_header\",\"schema\":1,\"source\":\"sim\",\
                      \"epoch_unix_us\":0,\"torn\":0,\"dropped\":0,\"records\":4}";
        let lines = [
            "{\"kind\":\"stale\",\"t_us\":1,\"node\":4294967301,\"entered\":true}",
            "{\"kind\":\"hop\",\"t_us\":2,\"node\":5,\"leg\":\"fold\",\"peer\":4294967301,\"value_us\":9}",
            "{\"kind\":\"crash\",\"t_us\":3,\"node\":5,\"attempt\":4294967301}",
            "{\"kind\":\"stale\",\"t_us\":4,\"node\":4294967295,\"entered\":true}",
        ];
        let loaded = parse_journal(&format!("{header}\n{}\n", lines.join("\n"))).unwrap();
        assert_eq!(loaded.skipped, 3, "one bad line per field");
        let nodes: Vec<_> = loaded.snapshot.records.iter().map(|r| r.node).collect();
        assert_eq!(nodes, [NodeId(u32::MAX)], "the in-range line is kept");
    }

    #[test]
    fn task_gates_record_edges_decisions_and_changes_only() {
        use crate::Trace;
        use aru_core::Stp;
        let journal = Journal::new();
        let shard = journal.shard();
        let mut trace = Trace::default();
        let mut gates = TaskGates::new("pid");
        let quiet = IterationOutcome {
            current_stp: Stp::from_micros(10),
            summary: None,
            sleep: Micros(3),
            paced: true,
            stale: false,
            law_fired: false,
            raw_target: Some(Stp::from_micros(40)),
            pace_target: Some(Stp::from_micros(30)),
            clamped: true,
        };
        let node = NodeId(2);
        let key = |seq| IterKey::new(node, seq);
        gates.on_iteration(&mut trace, &shard, SimTime(1), key(0), &quiet);
        let stale_and_fired = IterationOutcome {
            stale: true,
            law_fired: true,
            ..quiet
        };
        gates.on_iteration(&mut trace, &shard, SimTime(2), key(1), &stale_and_fired);
        let stale_quiet = IterationOutcome {
            law_fired: false,
            ..stale_and_fired
        };
        gates.on_iteration(&mut trace, &shard, SimTime(3), key(2), &stale_quiet);
        let fired_without_target = IterationOutcome {
            stale: false,
            pace_target: None,
            ..stale_and_fired
        };
        gates.on_iteration(
            &mut trace,
            &shard,
            SimTime(4),
            key(3),
            &fired_without_target,
        );
        for (t, value) in [(5, 7), (6, 7), (7, 8)] {
            gates.on_fold(&shard, SimTime(t), node, NodeId(9), Micros(value));
        }
        TaskGates::on_crash(&mut trace, &shard, SimTime(8), node, 1);
        TaskGates::on_restart(&mut trace, &shard, SimTime(9), node, 1, Micros(6));
        let kinds: Vec<_> = journal
            .snapshot()
            .records
            .iter()
            .map(|r| (r.t.0, r.kind))
            .collect();
        let fold = |value| JournalKind::Hop {
            leg: HopLeg::Fold,
            peer: NodeId(9),
            value: Micros(value),
        };
        assert_eq!(
            kinds,
            [
                (2, JournalKind::Stale { entered: true }),
                (
                    2,
                    JournalKind::Pace {
                        law: law_code("pid"),
                        raw: Micros(40),
                        target: Micros(30),
                        sleep: Micros(3),
                        clamped: true,
                    }
                ),
                (4, JournalKind::Stale { entered: false }),
                (5, fold(7)),
                (7, fold(8)),
                (8, JournalKind::Crash { attempt: 1 }),
                (
                    9,
                    JournalKind::Restart {
                        attempt: 1,
                        backoff: Micros(6),
                    }
                ),
            ]
        );
        let iter_end = |t, seq| TraceEvent::IterEnd {
            t: SimTime(t),
            iter: key(seq),
            busy: Micros(10),
        };
        let stale = |t, seq| TraceEvent::StaleSummary {
            t: SimTime(t),
            iter: key(seq),
        };
        assert_eq!(
            trace.events(),
            [
                iter_end(1, 0),
                iter_end(2, 1),
                stale(2, 1),
                TraceEvent::PaceDecision {
                    t: SimTime(2),
                    node,
                    raw: Micros(40),
                    target: Micros(30),
                    clamped: true,
                },
                iter_end(3, 2),
                stale(3, 2),
                iter_end(4, 3),
                TraceEvent::TaskCrash {
                    t: SimTime(8),
                    node,
                    attempt: 1,
                },
                TraceEvent::TaskRestart {
                    t: SimTime(9),
                    node,
                    attempt: 1,
                    backoff: Micros(6),
                },
            ]
        );
    }

    /// A hop gate records a leg's value when it differs from the last one
    /// it recorded, whichever peer carried it; an occupancy gate records a
    /// length when it changed, flagged high from the watermark on.
    #[test]
    fn hop_and_occupancy_gates_record_changes_only() {
        let journal = Journal::new();
        let shard = journal.shard();
        let mut ret = HopGate::new(HopLeg::Return);
        for (t, peer, value) in [(1, 3, 50), (2, 4, 50), (3, 3, 60), (4, 3, 50)] {
            ret.record(&shard, SimTime(t), NodeId(1), NodeId(peer), Micros(value));
        }
        let mut occ = OccupancyGate::default();
        let w = DEFAULT_OCC_WATERMARK;
        for (t, len) in [
            (5, 0),
            (6, 0),
            (7, w - 1),
            (8, w),
            (9, w),
            (10, w + 1),
            (11, 2),
        ] {
            occ.record(&shard, SimTime(t), NodeId(1), len);
        }
        let got: Vec<_> = journal
            .snapshot()
            .records
            .iter()
            .map(|r| (r.t.0, r.kind))
            .collect();
        let ret = |value| JournalKind::Hop {
            leg: HopLeg::Return,
            peer: NodeId(3),
            value: Micros(value),
        };
        let occ = |len: u64| JournalKind::Occupancy {
            len,
            watermark: w,
            high: len >= w,
        };
        assert_eq!(
            got,
            [
                (1, ret(50)),
                (3, ret(60)),
                (4, ret(50)),
                (5, occ(0)),
                (7, occ(w - 1)),
                (8, occ(w)),
                (10, occ(w + 1)),
                (11, occ(2)),
            ]
        );
        assert!(
            matches!(got[5].1, JournalKind::Occupancy { high: true, .. }),
            "the watermark's own length is high"
        );
    }

    #[test]
    fn snapshot_while_writing_never_yields_garbage() {
        let journal = Journal::new();
        let shard = journal.shard();
        std::thread::scope(|s| {
            s.spawn(|| {
                for t in 0..(8 * JOURNAL_CAP as u64) {
                    shard.record(
                        SimTime(t),
                        NodeId(1),
                        JournalKind::Occupancy {
                            len: t,
                            watermark: 1024,
                            high: t >= 1024,
                        },
                    );
                }
            });
            for _ in 0..50 {
                let snap = journal.snapshot();
                for rec in &snap.records {
                    // Every surfaced record must be internally consistent:
                    // an occupancy with len == t and the right high flag.
                    match rec.kind {
                        JournalKind::Occupancy {
                            len,
                            watermark,
                            high,
                        } => {
                            assert_eq!(len, rec.t.as_micros());
                            assert_eq!(watermark, 1024);
                            assert_eq!(high, len >= 1024);
                        }
                        other => panic!("foreign record surfaced: {other:?}"),
                    }
                }
            }
        });
    }

    fn hop(t: u64, node: u32, leg: HopLeg, peer: u32, value: u64) -> JournalRecord {
        JournalRecord {
            t: SimTime(t),
            node: NodeId(node),
            kind: JournalKind::Hop {
                leg,
                peer: NodeId(peer),
                value: Micros(value),
            },
        }
    }

    fn pace_at(t: u64, node: u32, target: u64) -> JournalRecord {
        JournalRecord {
            t: SimTime(t),
            node: NodeId(node),
            kind: JournalKind::Pace {
                law: law_code("direct"),
                raw: Micros(target),
                target: Micros(target),
                sleep: Micros::ZERO,
                clamped: false,
            },
        }
    }

    #[test]
    fn causal_chain_walks_fold_return_deposit() {
        // Buffer node 10 between consumer 1 and producer 3; a deposit with
        // a different value in between is noise the walk must skip.
        let recs = [
            hop(100, 10, HopLeg::Deposit, 1, 80_000),
            hop(200, 10, HopLeg::Return, 3, 80_000),
            hop(200, 3, HopLeg::Fold, 10, 80_000),
            hop(250, 10, HopLeg::Deposit, 1, 99_000),
            pace_at(300, 3, 80_000),
        ];
        let chain = attribute_pace(&recs, recs.len() - 1);
        assert_eq!(chain.fold.expect("fold leg").node, NodeId(3));
        assert_eq!(chain.ret.expect("return leg").node, NodeId(10));
        let dep = chain.deposit.expect("deposit leg");
        assert_eq!(dep.t, SimTime(100), "traced to the consumer's deposit");
    }

    #[test]
    fn causal_chain_is_partial_when_links_are_missing() {
        // The Return/Deposit legs predate the ring (overwritten): the walk
        // stops at the fold instead of inventing a cause.
        let recs = [hop(3, 30, HopLeg::Fold, 10, 70_000), pace_at(5, 30, 70_000)];
        let chain = attribute_pace(&recs, 1);
        assert!(chain.fold.is_some());
        assert!(chain.ret.is_none() && chain.deposit.is_none());
        // Out of range yields an empty chain.
        assert!(attribute_pace(&recs, 9).fold.is_none());
    }
}
