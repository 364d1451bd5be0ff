//! `repro doctor` — causal postmortem analyzer over flight-recorder
//! journals (DESIGN.md §16).
//!
//! The journal (see `aru_metrics::journal`) persists the control-plane
//! events that explain a run: pace decisions with their law/raw/clamp
//! fields, summary-STP hops, occupancy watermark transitions, staleness
//! fallbacks, supervisor retries/escalations, fault injections. The doctor
//! reads one of those snapshots back (threaded or sim — same schema) and
//! answers "why did this run behave that way" without re-running anything:
//!
//! * a **per-node feedback timeline**: decision, hop, occupancy, staleness
//!   and crash counts per node, so a 1000-node sweep condenses to one line
//!   per interesting node;
//! * **causal chains**: each flagged pace decision is walked backwards
//!   through the persisted Fold → Return → Deposit hops
//!   (`aru_metrics::journal::attribute_pace`), naming the summary that
//!   drove it;
//! * **rule-based detectors** (the verdict dictionary in EXPERIMENTS.md):
//!   sustained oscillation, unbounded backlog growth, law saturation at
//!   the clamp bounds, staleness-fallback storms, crash/recovery latency
//!   and escalation;
//! * a human verdict plus a machine-readable JSON report, and `--baseline`
//!   to diff two journals (did the fix actually remove the oscillation?).
//!
//! CI's chaos and stability-smoke lanes drive the `--expect`/`--forbid`
//! flags: the chaos journal must produce `crash`, the Direct volatile-link
//! journal must produce `oscillation`, and the Hysteresis cell must not.

use aru_metrics::journal::{
    attribute_pace, law_label, HopLeg, JournalKind, JournalRecord, LoadedJournal, PaceChain,
};
use aru_metrics::json::{JsonArr, JsonObj, Raw};
use aru_metrics::{stability, StabilitySpec};
use std::fmt::Write as _;
use std::path::Path;
use vtime::{Micros, SimTime};

/// Minimum pace samples on a node before the oscillation detector runs —
/// below this the stability windows are too sparse to mean anything.
const OSC_MIN_SAMPLES: usize = 8;

/// Minimum pace decisions before the saturation detector fires.
const SAT_MIN_DECISIONS: u64 = 10;

/// Clamped fraction at or above which a law is "saturated" — it is riding
/// its guardrails instead of tracking the oracle.
const SAT_FRACTION: f64 = 0.5;

/// Staleness-fallback entries per node at or above which (together with
/// [`STALE_STORM_RATE`]) the storm detector fires.
const STALE_STORM_MIN: u64 = 3;

/// Staleness entries per second of journal span for a storm.
const STALE_STORM_RATE: f64 = 0.2;

/// Occupancy must reach this multiple of the watermark (while still
/// rising) for "high occupancy" to escalate to "unbounded growth".
const BACKLOG_GROWTH_FACTOR: u64 = 2;

/// Finding severity, ordered: the worst one present decides the verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warn,
    Crit,
}

impl Severity {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Crit => "crit",
        }
    }
}

/// One detector hit. `code` is the stable machine identifier CI matches
/// with `--expect`/`--forbid`; the dictionary lives in EXPERIMENTS.md.
#[derive(Clone, Debug)]
pub struct Finding {
    pub code: &'static str,
    pub severity: Severity,
    /// Node the finding is attributed to; `None` for run-global findings.
    pub node: Option<u32>,
    pub message: String,
}

/// Per-node activity counts — the condensed feedback timeline.
#[derive(Clone, Debug, Default)]
pub struct NodeTimeline {
    pub node: u32,
    pub pace: u64,
    pub clamped: u64,
    /// Law code seen on this node's pace records (last wins; one run uses
    /// one law per node).
    pub law: u8,
    pub deposits: u64,
    pub returns: u64,
    pub folds: u64,
    pub occ: u64,
    pub occ_high: u64,
    pub stale_entries: u64,
    pub crashes: u64,
    pub restarts: u64,
    pub escalations: u64,
    pub summaries_dropped: u64,
    /// Oscillation stats from the pace-target series (zeroed when the
    /// series was too short to analyse).
    pub reversals: u64,
    pub oscillating_windows: u64,
}

/// The doctor's full analysis of one journal.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    pub source: String,
    pub schema: u32,
    pub epoch_unix_us: u64,
    pub records: usize,
    pub torn: u64,
    pub dropped: u64,
    pub skipped: u64,
    pub span: (SimTime, SimTime),
    pub nodes: Vec<NodeTimeline>,
    pub findings: Vec<Finding>,
    /// Causal chains for the last pace decision of each node with a
    /// pace-related finding: (pace record, reconstructed chain).
    pub chains: Vec<(JournalRecord, PaceChain)>,
}

impl Diagnosis {
    /// Worst severity present decides the one-word verdict.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        match self.findings.iter().map(|f| f.severity).max() {
            Some(Severity::Crit) => "critical",
            Some(Severity::Warn) => "degraded",
            _ => "healthy",
        }
    }

    #[must_use]
    pub fn has(&self, code: &str) -> bool {
        self.findings.iter().any(|f| f.code == code)
    }
}

fn secs(t: SimTime) -> String {
    format!("{:.3}s", t.as_micros() as f64 / 1e6)
}

/// Analyse a loaded journal: build the per-node timeline, run every
/// detector, and reconstruct causal chains for flagged pace decisions.
#[must_use]
pub fn diagnose(j: &LoadedJournal) -> Diagnosis {
    let recs = &j.snapshot.records;
    let span = match (recs.first(), recs.last()) {
        (Some(a), Some(b)) => (a.t, b.t),
        _ => (SimTime::ZERO, SimTime::ZERO),
    };
    let span_secs = (span.1.as_micros().saturating_sub(span.0.as_micros())) as f64 / 1e6;

    // ---- per-node timeline ----
    let mut nodes: Vec<NodeTimeline> = Vec::new();
    let idx_of = |nodes: &mut Vec<NodeTimeline>, n: u32| -> usize {
        if let Some(i) = nodes.iter().position(|t| t.node == n) {
            i
        } else {
            nodes.push(NodeTimeline {
                node: n,
                ..NodeTimeline::default()
            });
            nodes.len() - 1
        }
    };
    for r in recs {
        let i = idx_of(&mut nodes, r.node.0);
        let t = &mut nodes[i];
        match r.kind {
            JournalKind::Pace { law, clamped, .. } => {
                t.pace += 1;
                t.law = law;
                if clamped {
                    t.clamped += 1;
                }
            }
            JournalKind::Hop { leg, .. } => match leg {
                HopLeg::Deposit => t.deposits += 1,
                HopLeg::Return => t.returns += 1,
                HopLeg::Fold => t.folds += 1,
            },
            JournalKind::Occupancy { high, .. } => {
                t.occ += 1;
                if high {
                    t.occ_high += 1;
                }
            }
            JournalKind::Stale { entered } => {
                if entered {
                    t.stale_entries += 1;
                }
            }
            JournalKind::Crash { .. } => t.crashes += 1,
            JournalKind::Restart { .. } => t.restarts += 1,
            JournalKind::Escalate { .. } => t.escalations += 1,
            JournalKind::Fault { .. } => {}
            JournalKind::SummaryDropped => t.summaries_dropped += 1,
        }
    }
    nodes.sort_by_key(|t| t.node);

    let mut findings: Vec<Finding> = Vec::new();
    let mut chain_out: Vec<(JournalRecord, PaceChain)> = Vec::new();
    let mut flag_chain = |code_node: u32| {
        // Latest pace record on that node, walked backwards through hops.
        if let Some(idx) = recs
            .iter()
            .rposition(|r| r.node.0 == code_node && matches!(r.kind, JournalKind::Pace { .. }))
        {
            chain_out.push((recs[idx], attribute_pace(recs, idx)));
        }
    };

    // ---- crash / recovery / escalation ----
    for t in &nodes {
        if t.crashes == 0 && t.escalations == 0 {
            continue;
        }
        let crash_ts: Vec<SimTime> = recs
            .iter()
            .filter(|r| r.node.0 == t.node && matches!(r.kind, JournalKind::Crash { .. }))
            .map(|r| r.t)
            .collect();
        let restart_ts: Vec<SimTime> = recs
            .iter()
            .filter(|r| r.node.0 == t.node && matches!(r.kind, JournalKind::Restart { .. }))
            .map(|r| r.t)
            .collect();
        // Pair each crash with the first restart at or after it.
        let mut latencies: Vec<Micros> = Vec::new();
        let mut ri = 0usize;
        for c in &crash_ts {
            while ri < restart_ts.len() && restart_ts[ri] < *c {
                ri += 1;
            }
            if ri < restart_ts.len() {
                latencies.push(restart_ts[ri].since(*c));
                ri += 1;
            }
        }
        if t.crashes > 0 {
            let lat = latencies
                .iter()
                .map(|l| format!("{}us", l.as_micros()))
                .collect::<Vec<_>>()
                .join(", ");
            findings.push(Finding {
                code: "crash",
                severity: Severity::Warn,
                node: Some(t.node),
                message: if latencies.is_empty() {
                    format!("{} crash(es), no recovery recorded", t.crashes)
                } else {
                    format!(
                        "{} crash(es), {} recovered (latency: {lat})",
                        t.crashes,
                        latencies.len()
                    )
                },
            });
        }
        if t.escalations > 0 {
            findings.push(Finding {
                code: "escalation",
                severity: Severity::Crit,
                node: Some(t.node),
                message: format!(
                    "retry budget exhausted after {} crash(es) — run escalated to shutdown",
                    t.crashes.max(1)
                ),
            });
        } else if t.crashes > 0 && latencies.len() < crash_ts.len() {
            findings.push(Finding {
                code: "unrecovered_crash",
                severity: Severity::Crit,
                node: Some(t.node),
                message: format!(
                    "{} crash(es) without a matching restart or escalation — \
                     the journal ends mid-recovery",
                    crash_ts.len() - latencies.len()
                ),
            });
        }
    }

    // ---- sustained oscillation + law saturation (per node pace series) ----
    for t in &mut nodes {
        if t.pace == 0 {
            continue;
        }
        let series: Vec<(SimTime, f64)> = recs
            .iter()
            .filter_map(|r| match r.kind {
                JournalKind::Pace { target, .. } if r.node.0 == t.node => {
                    Some((r.t, target.as_micros() as f64))
                }
                _ => None,
            })
            .collect();
        if series.len() >= OSC_MIN_SAMPLES {
            // The stability experiment's criterion, so doctor verdicts
            // agree with its shape checks.
            let spec = StabilitySpec::new(
                series[0].0,
                SimTime(series[series.len() - 1].0.as_micros() + 1),
            );
            let rep = stability(&series, &spec);
            t.reversals = rep.reversals;
            t.oscillating_windows = rep.oscillating_windows;
            if rep.oscillating_windows > 0 {
                findings.push(Finding {
                    code: "oscillation",
                    severity: Severity::Warn,
                    node: Some(t.node),
                    message: format!(
                        "law `{}` oscillated in {}/{} windows ({} reversals, peak overshoot {:.0}%)",
                        law_label(t.law),
                        rep.oscillating_windows,
                        rep.windows,
                        rep.reversals,
                        rep.peak_overshoot * 100.0
                    ),
                });
                flag_chain(t.node);
            }
        }
        if t.pace >= SAT_MIN_DECISIONS && t.clamped as f64 / t.pace as f64 >= SAT_FRACTION {
            findings.push(Finding {
                code: "saturation",
                severity: Severity::Warn,
                node: Some(t.node),
                message: format!(
                    "law `{}` clamped on {}/{} decisions — riding its guardrail bounds",
                    law_label(t.law),
                    t.clamped,
                    t.pace
                ),
            });
            flag_chain(t.node);
        }
    }

    // ---- backlog growth (per node occupancy series) ----
    for t in &nodes {
        if t.occ_high == 0 {
            continue;
        }
        let series: Vec<(SimTime, u64, u64)> = recs
            .iter()
            .filter_map(|r| match r.kind {
                JournalKind::Occupancy { len, watermark, .. } if r.node.0 == t.node => {
                    Some((r.t, len, watermark))
                }
                _ => None,
            })
            .collect();
        let Some(&(_, last_len, wm)) = series.last() else {
            continue;
        };
        let tail = &series[series.len().saturating_sub(4)..];
        let rising = tail.windows(2).all(|w| w[1].1 >= w[0].1);
        if last_len >= wm.saturating_mul(BACKLOG_GROWTH_FACTOR) && rising {
            findings.push(Finding {
                code: "backlog_growth",
                severity: Severity::Crit,
                node: Some(t.node),
                message: format!(
                    "occupancy still rising at snapshot: {last_len} items ≥ {}× watermark {wm} — \
                     feedback is not pacing the producer down",
                    BACKLOG_GROWTH_FACTOR
                ),
            });
        } else {
            findings.push(Finding {
                code: "backlog_high",
                severity: Severity::Warn,
                node: Some(t.node),
                message: format!(
                    "occupancy crossed the {wm}-item watermark {} time(s), peak persisted len {}",
                    t.occ_high,
                    series.iter().map(|s| s.1).max().unwrap_or(0)
                ),
            });
        }
    }

    // ---- staleness storms ----
    for t in &nodes {
        if t.stale_entries >= STALE_STORM_MIN
            && span_secs > 0.0
            && t.stale_entries as f64 / span_secs >= STALE_STORM_RATE
        {
            findings.push(Finding {
                code: "stale_storm",
                severity: Severity::Warn,
                node: Some(t.node),
                message: format!(
                    "entered staleness fallback {} times in {span_secs:.1}s — summaries are \
                     repeatedly going stale, not just once",
                    t.stale_entries
                ),
            });
        } else if t.stale_entries > 0 {
            findings.push(Finding {
                code: "stale_fallback",
                severity: Severity::Info,
                node: Some(t.node),
                message: format!("entered staleness fallback {} time(s)", t.stale_entries),
            });
        }
    }

    // ---- feedback loss + injected faults (run-global) ----
    let dropped_sum: u64 = nodes.iter().map(|t| t.summaries_dropped).sum();
    if dropped_sum > 0 {
        findings.push(Finding {
            code: "feedback_loss",
            severity: if dropped_sum >= 10 {
                Severity::Warn
            } else {
                Severity::Info
            },
            node: None,
            message: format!("{dropped_sum} summaries dropped before folding"),
        });
    }
    let mut fault_counts: Vec<(&'static str, u64)> = Vec::new();
    for r in recs {
        if let JournalKind::Fault { class } = r.kind {
            let label = class.label();
            if let Some(e) = fault_counts.iter_mut().find(|e| e.0 == label) {
                e.1 += 1;
            } else {
                fault_counts.push((label, 1));
            }
        }
    }
    if !fault_counts.is_empty() {
        let list = fault_counts
            .iter()
            .map(|(l, c)| format!("{l}×{c}"))
            .collect::<Vec<_>>()
            .join(", ");
        findings.push(Finding {
            code: "fault_injection",
            severity: Severity::Info,
            node: None,
            message: format!("fault plan fired: {list}"),
        });
    }

    // ---- journal health ----
    if j.snapshot.torn > 0 || j.skipped > 0 {
        findings.push(Finding {
            code: "journal_loss",
            severity: Severity::Info,
            node: None,
            message: format!(
                "{} torn slot(s), {} unparseable line(s) — evidence is a prefix, not complete",
                j.snapshot.torn, j.skipped
            ),
        });
    }
    if j.snapshot.dropped > 0 {
        findings.push(Finding {
            code: "journal_wrap",
            severity: Severity::Info,
            node: None,
            message: format!(
                "{} record(s) overwritten by ring wrap before the snapshot",
                j.snapshot.dropped
            ),
        });
    }

    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));

    Diagnosis {
        source: j.source.clone(),
        schema: j.schema,
        epoch_unix_us: j.epoch_unix_us,
        records: recs.len(),
        torn: j.snapshot.torn,
        dropped: j.snapshot.dropped,
        skipped: j.skipped,
        span,
        nodes,
        findings,
        chains: chain_out,
    }
}

/// Render the human-readable postmortem.
#[must_use]
pub fn render(d: &Diagnosis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "doctor: {} journal, schema v{}, {} records over {} → {} \
         (torn {}, wrapped {}, skipped {})",
        d.source,
        d.schema,
        d.records,
        secs(d.span.0),
        secs(d.span.1),
        d.torn,
        d.dropped,
        d.skipped
    );
    out.push_str("\nper-node feedback timeline\n");
    out.push_str(
        "  node   pace clamp  law         d/r/f hops      occ(high)  stale  crash/restart/esc\n",
    );
    for t in &d.nodes {
        let _ = writeln!(
            out,
            "  {:<6} {:<4} {:<5} {:<10} {:>4}/{:<4}/{:<5} {:>5}({:<4}) {:<6} {}/{}/{}",
            if t.node == u32::MAX {
                "global".to_string()
            } else {
                t.node.to_string()
            },
            t.pace,
            t.clamped,
            if t.pace > 0 { law_label(t.law) } else { "-" },
            t.deposits,
            t.returns,
            t.folds,
            t.occ,
            t.occ_high,
            t.stale_entries,
            t.crashes,
            t.restarts,
            t.escalations,
        );
    }
    if !d.chains.is_empty() {
        out.push_str("\ncausal chains (last flagged pace decision per node)\n");
        for (pace, chain) in &d.chains {
            let (raw, target, clamped) = match pace.kind {
                JournalKind::Pace {
                    raw,
                    target,
                    clamped,
                    ..
                } => (raw, target, clamped),
                _ => continue,
            };
            let mut line = format!(
                "  node {} @ {}: pace raw={}us target={}us{}",
                pace.node.0,
                secs(pace.t),
                raw.as_micros(),
                target.as_micros(),
                if clamped { " [clamped]" } else { "" }
            );
            if let Some(f) = &chain.fold {
                if let JournalKind::Hop { peer, value, .. } = f.kind {
                    let _ = write!(
                        line,
                        "\n      ← fold @ {} of {}us summary from node {}",
                        secs(f.t),
                        value.as_micros(),
                        peer.0
                    );
                }
            }
            if let Some(r) = &chain.ret {
                if let JournalKind::Hop { .. } = r.kind {
                    let _ = write!(
                        line,
                        "\n      ← returned by buffer node {} @ {}",
                        r.node.0,
                        secs(r.t)
                    );
                }
            }
            if let Some(dep) = &chain.deposit {
                if let JournalKind::Hop { peer, .. } = dep.kind {
                    let _ = write!(
                        line,
                        "\n      ← deposited @ {} by producer node {}",
                        secs(dep.t),
                        peer.0
                    );
                }
            }
            if chain.fold.is_some() && chain.ret.is_none() {
                line.push_str("\n      (no persisted return/deposit legs — sim folds directly)");
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out.push_str("\nfindings\n");
    if d.findings.is_empty() {
        out.push_str("  (none)\n");
    }
    for f in &d.findings {
        let at = f.node.map_or(String::new(), |n| {
            if n == u32::MAX {
                " @ global".to_string()
            } else {
                format!(" @ node {n}")
            }
        });
        let _ = writeln!(
            out,
            "  [{}] {}{}: {}",
            f.severity.label(),
            f.code,
            at,
            f.message
        );
    }
    let _ = writeln!(out, "\nverdict: {}", d.verdict().to_uppercase());
    out
}

/// Machine-readable report (one pretty-printed JSON document).
#[must_use]
pub fn to_json(d: &Diagnosis) -> String {
    let mut findings = JsonArr::new();
    for f in &d.findings {
        let mut obj = JsonObj::new()
            .field("code", f.code)
            .field("severity", f.severity.label());
        if let Some(n) = f.node {
            obj = obj.field("node", u64::from(n));
        }
        findings = findings.item(obj.field("message", f.message.as_str()).raw());
    }
    let mut nodes = JsonArr::new();
    for t in &d.nodes {
        nodes = nodes.item(
            JsonObj::new()
                .field("node", u64::from(t.node))
                .field("pace", t.pace)
                .field("clamped", t.clamped)
                .field("law", law_label(t.law))
                .field("deposits", t.deposits)
                .field("returns", t.returns)
                .field("folds", t.folds)
                .field("occ", t.occ)
                .field("occ_high", t.occ_high)
                .field("stale_entries", t.stale_entries)
                .field("crashes", t.crashes)
                .field("restarts", t.restarts)
                .field("escalations", t.escalations)
                .field("summaries_dropped", t.summaries_dropped)
                .field("reversals", t.reversals)
                .field("oscillating_windows", t.oscillating_windows)
                .raw(),
        );
    }
    let doc = JsonObj::new()
        .field("kind", "doctor_report")
        .field("source", d.source.as_str())
        .field("schema", u64::from(d.schema))
        .field("epoch_unix_us", d.epoch_unix_us)
        .field("records", d.records as u64)
        .field("torn", d.torn)
        .field("dropped", d.dropped)
        .field("skipped", d.skipped)
        .field("verdict", d.verdict())
        .field("findings", Raw(findings.finish()))
        .field("nodes", Raw(nodes.finish()))
        .finish();
    aru_metrics::json::pretty(&doc)
}

/// Render the diff of a run against a baseline run: which findings
/// appeared, which were resolved, and the headline counter deltas.
#[must_use]
pub fn diff(current: &Diagnosis, baseline: &Diagnosis) -> String {
    let key = |f: &Finding| (f.code, f.node);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline diff ({} → {}):",
        baseline.verdict(),
        current.verdict()
    );
    let mut any = false;
    for f in &current.findings {
        if !baseline.findings.iter().any(|b| key(b) == key(f)) {
            let _ = writeln!(
                out,
                "  new      [{}] {}{}: {}",
                f.severity.label(),
                f.code,
                f.node.map_or(String::new(), |n| format!(" @ node {n}")),
                f.message
            );
            any = true;
        }
    }
    for f in &baseline.findings {
        if !current.findings.iter().any(|c| key(c) == key(f)) {
            let _ = writeln!(
                out,
                "  resolved [{}] {}{}",
                f.severity.label(),
                f.code,
                f.node.map_or(String::new(), |n| format!(" @ node {n}"))
            );
            any = true;
        }
    }
    if !any {
        out.push_str("  findings unchanged\n");
    }
    let sum = |d: &Diagnosis, f: fn(&NodeTimeline) -> u64| -> u64 { d.nodes.iter().map(f).sum() };
    let _ = writeln!(
        out,
        "  pace decisions {} → {}, reversals {} → {}, crashes {} → {}, stale entries {} → {}",
        sum(baseline, |t| t.pace),
        sum(current, |t| t.pace),
        sum(baseline, |t| t.reversals),
        sum(current, |t| t.reversals),
        sum(baseline, |t| t.crashes),
        sum(current, |t| t.crashes),
        sum(baseline, |t| t.stale_entries),
        sum(current, |t| t.stale_entries),
    );
    out
}

fn load(path: &Path) -> Result<Diagnosis, String> {
    let j = aru_metrics::load_journal(path)
        .map_err(|e| format!("cannot load journal {}: {e}", path.display()))?;
    Ok(diagnose(&j))
}

/// CLI entry: `repro doctor <journal> [--baseline J] [--expect codes]
/// [--forbid codes] [--json PATH]`. Returns the process exit code:
/// 0 = analysis ran and every `--expect`/`--forbid` assertion held,
/// 1 = an assertion failed, 2 = usage or I/O error.
pub fn run_cli(args: &[String]) -> i32 {
    let mut journal: Option<std::path::PathBuf> = None;
    let mut baseline: Option<std::path::PathBuf> = None;
    let mut expect: Vec<String> = Vec::new();
    let mut forbid: Vec<String> = Vec::new();
    let mut json_out: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(v) => baseline = Some(v.into()),
                None => {
                    eprintln!("--baseline needs a path");
                    return 2;
                }
            },
            "--expect" => match it.next() {
                Some(v) => expect.extend(v.split(',').map(str::to_string)),
                None => {
                    eprintln!("--expect needs a comma-separated code list");
                    return 2;
                }
            },
            "--forbid" => match it.next() {
                Some(v) => forbid.extend(v.split(',').map(str::to_string)),
                None => {
                    eprintln!("--forbid needs a comma-separated code list");
                    return 2;
                }
            },
            "--json" => match it.next() {
                Some(v) => json_out = Some(v.into()),
                None => {
                    eprintln!("--json needs a path");
                    return 2;
                }
            },
            "--help" | "-h" => {
                println!(
                    "repro doctor <journal.jsonl> [--baseline J] [--expect codes] \
                     [--forbid codes] [--json PATH]"
                );
                return 0;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown doctor flag: {flag}");
                return 2;
            }
            path => {
                if journal.is_some() {
                    eprintln!("doctor takes one journal path (got a second: {path})");
                    return 2;
                }
                journal = Some(path.into());
            }
        }
    }
    let Some(journal) = journal else {
        eprintln!("doctor needs a journal path (see --help)");
        return 2;
    };
    let d = match load(&journal) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    print!("{}", render(&d));
    if let Some(bp) = baseline {
        match load(&bp) {
            Ok(b) => print!("\n{}", diff(&d, &b)),
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    if let Some(jp) = json_out {
        if let Some(dir) = jp.parent() {
            std::fs::create_dir_all(dir).ok();
        }
        if let Err(e) = std::fs::write(&jp, to_json(&d)) {
            eprintln!("cannot write {}: {e}", jp.display());
            return 2;
        }
    }
    let mut failed = false;
    for code in &expect {
        if !d.has(code) {
            eprintln!("doctor: expected finding `{code}` is MISSING");
            failed = true;
        }
    }
    for code in &forbid {
        if d.has(code) {
            eprintln!("doctor: forbidden finding `{code}` is PRESENT");
            failed = true;
        }
    }
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aru_core::NodeId;
    use aru_metrics::journal::{law_code, parse_journal, FaultClass, Journal};

    fn journal_of(records: &[(u64, u32, JournalKind)]) -> LoadedJournal {
        let j = Journal::new();
        let shard = j.shard();
        for &(t, n, kind) in records {
            shard.record(SimTime(t), NodeId(n), kind);
        }
        parse_journal(&j.snapshot().to_jsonl("sim", 0)).unwrap()
    }

    fn pace(target: u64) -> JournalKind {
        JournalKind::Pace {
            law: law_code("direct"),
            raw: Micros(target),
            target: Micros(target),
            sleep: Micros(0),
            clamped: false,
        }
    }

    #[test]
    fn crash_recovery_latency_is_paired_and_reported() {
        let d = diagnose(&journal_of(&[
            (
                1_000,
                3,
                JournalKind::Fault {
                    class: FaultClass::Crash,
                },
            ),
            (1_000, 3, JournalKind::Crash { attempt: 1 }),
            (
                11_000,
                3,
                JournalKind::Restart {
                    attempt: 1,
                    backoff: Micros(10_000),
                },
            ),
        ]));
        assert!(d.has("crash"));
        assert!(d.has("fault_injection"));
        assert!(!d.has("unrecovered_crash"));
        let f = d.findings.iter().find(|f| f.code == "crash").unwrap();
        assert!(
            f.message.contains("10000us"),
            "latency in message: {}",
            f.message
        );
        assert_eq!(d.verdict(), "degraded");
    }

    #[test]
    fn escalation_is_critical() {
        let d = diagnose(&journal_of(&[
            (1_000, 3, JournalKind::Crash { attempt: 1 }),
            (2_000, 3, JournalKind::Escalate { attempt: 1 }),
        ]));
        assert!(d.has("escalation"));
        assert_eq!(d.verdict(), "critical");
    }

    #[test]
    fn oscillating_pace_series_is_flagged_and_steady_is_not() {
        // 50ms ↔ 100ms square wave, 40 decisions over 4s: sustained.
        let osc: Vec<_> = (0..40u64)
            .map(|i| {
                (
                    i * 100_000,
                    3,
                    pace(if i % 2 == 0 { 50_000 } else { 100_000 }),
                )
            })
            .collect();
        let d = diagnose(&journal_of(&osc));
        assert!(d.has("oscillation"), "findings: {:?}", d.findings);
        assert!(d.nodes[0].reversals > 0);

        let steady: Vec<_> = (0..40u64).map(|i| (i * 100_000, 3, pace(80_000))).collect();
        let d = diagnose(&journal_of(&steady));
        assert!(!d.has("oscillation"));
        assert_eq!(d.verdict(), "healthy");
    }

    #[test]
    fn saturation_needs_majority_clamped() {
        let clamped = JournalKind::Pace {
            law: law_code("pid"),
            raw: Micros(10),
            target: Micros(5_000),
            sleep: Micros(0),
            clamped: true,
        };
        let recs: Vec<_> = (0..12u64).map(|i| (i * 1_000, 2, clamped)).collect();
        let d = diagnose(&journal_of(&recs));
        assert!(d.has("saturation"));
    }

    #[test]
    fn backlog_growth_beyond_watermark_is_critical() {
        let recs: Vec<_> = (0..6u64)
            .map(|i| {
                (
                    i * 1_000,
                    4,
                    JournalKind::Occupancy {
                        len: 1024 + i * 300,
                        watermark: 1024,
                        high: true,
                    },
                )
            })
            .collect();
        let d = diagnose(&journal_of(&recs));
        assert!(d.has("backlog_growth"), "findings: {:?}", d.findings);
        assert_eq!(d.verdict(), "critical");
    }

    #[test]
    fn occasional_high_occupancy_is_only_degraded() {
        let d = diagnose(&journal_of(&[
            (
                1_000,
                4,
                JournalKind::Occupancy {
                    len: 1100,
                    watermark: 1024,
                    high: true,
                },
            ),
            (
                2_000,
                4,
                JournalKind::Occupancy {
                    len: 400,
                    watermark: 1024,
                    high: false,
                },
            ),
        ]));
        assert!(d.has("backlog_high"));
        assert!(!d.has("backlog_growth"));
    }

    #[test]
    fn stale_storm_is_rate_gated() {
        // 4 entries in 2 seconds = 2/s: a storm.
        let mut recs = vec![(0, 1, pace(80_000))];
        for i in 0..4u64 {
            recs.push((i * 500_000, 1, JournalKind::Stale { entered: true }));
            recs.push((
                i * 500_000 + 100_000,
                1,
                JournalKind::Stale { entered: false },
            ));
        }
        let d = diagnose(&journal_of(&recs));
        assert!(d.has("stale_storm"), "findings: {:?}", d.findings);

        // One entry is ordinary fallback, info only.
        let d = diagnose(&journal_of(&[
            (0, 1, pace(80_000)),
            (1_000_000, 1, JournalKind::Stale { entered: true }),
            (9_000_000, 1, JournalKind::SummaryDropped),
        ]));
        assert!(d.has("stale_fallback"));
        assert!(!d.has("stale_storm"));
        assert!(d.has("feedback_loss"));
    }

    #[test]
    fn json_report_carries_verdict_and_findings() {
        let d = diagnose(&journal_of(&[
            (1_000, 3, JournalKind::Crash { attempt: 1 }),
            (
                2_000,
                3,
                JournalKind::Restart {
                    attempt: 1,
                    backoff: Micros(1_000),
                },
            ),
        ]));
        let json = to_json(&d);
        assert!(json.contains("\"doctor_report\""));
        assert!(json.contains("\"crash\""));
        assert!(json.contains("\"degraded\""));
    }

    #[test]
    fn baseline_diff_reports_new_and_resolved() {
        let broken = diagnose(&journal_of(&[(
            1_000,
            3,
            JournalKind::Crash { attempt: 1 },
        )]));
        let healthy = diagnose(&journal_of(&[(1_000, 3, pace(80_000))]));
        let fixed = diff(&healthy, &broken);
        assert!(fixed.contains("resolved"), "{fixed}");
        let regressed = diff(&broken, &healthy);
        assert!(regressed.contains("new"), "{regressed}");
    }
}
