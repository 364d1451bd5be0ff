//! Property-based tests on the postmortem analyses: randomly generated
//! (well-formed) traces must produce internally consistent reports. And on
//! the two text formats the system writes and reads back: arbitrary text
//! never panics the journal loader or the Prometheus validator, and
//! whatever the writers write, the readers accept.

use aru_core::graph::NodeId;
use aru_metrics::export::{prometheus_text, validate_prometheus_text};
use aru_metrics::footprint::{ideal_series, observed_series};
use aru_metrics::journal::{parse_journal, JOURNAL_SCHEMA};
use aru_metrics::{
    FaultClass, HopLeg, IterKey, JournalKind, JournalRecord, JournalSnapshot, Lineage, PerfReport,
    Registry, Trace, WasteReport,
};
use proptest::prelude::*;
use vtime::{Micros, SimTime, Timestamp};

/// A compact random-trace generator: a source producing items 0..n into
/// one buffer, a consumer that gets a random subset, and sink outputs for a
/// random subset of the gotten items.
#[derive(Debug, Clone)]
struct RandomRun {
    n: usize,
    bytes: Vec<u64>,
    gotten: Vec<bool>,
    emitted: Vec<bool>,
    freed: Vec<bool>,
    gap_us: u64,
}

fn run_strategy() -> impl Strategy<Value = RandomRun> {
    (1usize..40).prop_flat_map(|n| {
        (
            prop::collection::vec(1u64..100_000, n..=n),
            prop::collection::vec(any::<bool>(), n..=n),
            prop::collection::vec(any::<bool>(), n..=n),
            prop::collection::vec(any::<bool>(), n..=n),
            10u64..10_000,
        )
            .prop_map(move |(bytes, gotten, emitted, freed, gap_us)| RandomRun {
                n,
                bytes,
                gotten,
                emitted,
                freed,
                gap_us,
            })
    })
}

/// Materialize the run into a trace. Returns (trace, t_end).
fn build(run: &RandomRun) -> (Trace, SimTime) {
    let src = NodeId(0);
    let buf = NodeId(1);
    let snk = NodeId(2);
    let mut tr = Trace::new();
    let mut t = 0u64;
    let mut items = Vec::new();
    for (i, &bytes) in run.bytes.iter().enumerate() {
        let key = IterKey::new(src, i as u64);
        let id = tr.alloc(SimTime(t), buf, Timestamp(i as u64), bytes, key);
        tr.iter_end(SimTime(t + 5), key, Micros(5));
        items.push(id);
        t += run.gap_us;
    }
    let mut out_seq = 0u64;
    for (i, &item) in items.iter().enumerate() {
        if run.gotten[i] {
            let key = IterKey::new(snk, out_seq);
            tr.get(SimTime(t), item, key);
            if run.emitted[i] {
                tr.sink_output(SimTime(t + 1), key, Timestamp(i as u64));
            }
            tr.iter_end(SimTime(t + 2), key, Micros(2));
            out_seq += 1;
            t += run.gap_us;
        }
    }
    for (&item, &freed) in items.iter().zip(&run.freed) {
        if freed {
            tr.free(SimTime(t), item);
            t += 1;
        }
    }
    (tr, SimTime(t + 100))
}

/// Pieces of journal lines and of what breaks a line reader: multi-byte
/// characters next to a key, escapes cut short, a lone surrogate, keys
/// inside string values, numbers past `u64` and past `u32`. The same
/// pieces are what breaks a Prometheus label value.
const JOURNAL_FRAGMENTS: [&str; 37] = [
    "\"",
    "\\",
    "\\u",
    "\\u12",
    "\\ud800",
    "\\n",
    "{",
    "}",
    ":",
    ",",
    "=",
    " ",
    "\n",
    "\u{8}",
    "é",
    "日",
    "🦀",
    "\"kind\":",
    "\"journal_header\"",
    "\"pace\"",
    "\"hop\"",
    "\"crash\"",
    "\"fault\"",
    "\"t_us\":",
    "\"node\":",
    "\"peer\":",
    "\"attempt\":",
    "\"leg\":\"fold\"",
    "\"law\":\"",
    "\"source\":\"",
    "\"clamped\":",
    "true",
    "7",
    "4294967296",
    "18446744073709551616",
    "\"value_us\":",
    "\"fault\":\"stall\"",
];

fn journal_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..JOURNAL_FRAGMENTS.len(), 0..40)
        .prop_map(|ix| ix.into_iter().map(|i| JOURNAL_FRAGMENTS[i]).collect())
}

/// Any record the schema can hold (law codes are the persisted ones; an
/// unknown code is written as the label of 0).
fn record_strategy() -> impl Strategy<Value = JournalRecord> {
    let words = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>());
    (
        0u8..9,
        any::<u64>(),
        any::<u32>(),
        words,
        0u8..5,
        any::<bool>(),
    )
        .prop_map(|(tag, t, node, (a, b, c, small), law, flag)| {
            let kind = match tag {
                0 => JournalKind::Pace {
                    law,
                    raw: Micros(a),
                    target: Micros(b),
                    sleep: Micros(c),
                    clamped: flag,
                },
                1 => JournalKind::Hop {
                    leg: [HopLeg::Deposit, HopLeg::Return, HopLeg::Fold][law as usize % 3],
                    peer: NodeId(small),
                    value: Micros(a),
                },
                2 => JournalKind::Occupancy {
                    len: a,
                    watermark: b,
                    high: flag,
                },
                3 => JournalKind::Stale { entered: flag },
                4 => JournalKind::Crash { attempt: small },
                5 => JournalKind::Restart {
                    attempt: small,
                    backoff: Micros(a),
                },
                6 => JournalKind::Escalate { attempt: small },
                7 => JournalKind::Fault {
                    class: [
                        FaultClass::Crash,
                        FaultClass::Stall,
                        FaultClass::DropSummaries,
                        FaultClass::LinkSpike,
                    ][law as usize % 4],
                },
                _ => JournalKind::SummaryDropped,
            };
            JournalRecord {
                t: SimTime(t),
                node: NodeId(node),
                kind,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The loader returns — `Ok` or `Err` — whatever the bytes: as the whole
    /// file, and as the data lines under an intact header.
    #[test]
    fn parse_journal_never_panics_on_arbitrary_text(text in journal_text()) {
        let _ = parse_journal(&text);
        let header = JournalSnapshot::default().to_jsonl("sim", 0);
        let loaded = parse_journal(&format!("{header}{text}"));
        prop_assert!(loaded.is_ok(), "an intact header loads, bad lines are skipped");
    }

    /// Whatever `to_jsonl` writes, `parse_journal` reads back: every record,
    /// the loss accounting, and a source label full of quotes, escapes and
    /// key look-alikes.
    #[test]
    fn journal_round_trips_through_jsonl(
        records in prop::collection::vec(record_strategy(), 0..24),
        source in journal_text(),
        header in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let (epoch, torn, dropped) = header;
        let snap = JournalSnapshot { records, torn, dropped };
        let loaded = parse_journal(&snap.to_jsonl(&source, epoch)).expect("own output loads");
        prop_assert_eq!(loaded.skipped, 0);
        prop_assert_eq!(&loaded.snapshot.records, &snap.records);
        prop_assert_eq!((loaded.snapshot.torn, loaded.snapshot.dropped), (torn, dropped));
        prop_assert_eq!((loaded.schema, loaded.epoch_unix_us), (JOURNAL_SCHEMA, epoch));
        prop_assert_eq!(loaded.source, source);
    }

    /// The scrape validator returns — `Ok` or `Err` — whatever the text:
    /// unbalanced braces, lone quotes and backslashes, multi-byte
    /// characters, alone and after a sample line.
    #[test]
    fn validate_prometheus_text_never_panics(text in journal_text()) {
        let _ = validate_prometheus_text(&text);
        let _ = validate_prometheus_text(&format!("aru_x{{k=\"v\"}} 1\naru_y{text} 2\n"));
    }

    /// Whatever label values the series carry, the exporter's text passes
    /// the validator: every counter, gauge and histogram line is escaped.
    #[test]
    fn prometheus_text_validates_for_arbitrary_label_values(
        values in prop::collection::vec(journal_text(), 1..6),
        n in any::<u64>(),
    ) {
        let reg = Registry::new();
        for (i, v) in values.iter().enumerate() {
            let labels = [("thread", v.as_str()), ("k", "x")];
            reg.counter("aru_test_total", &labels).add(n);
            reg.gauge("aru_test_gauge", &labels).set(i as f64);
            reg.histogram("aru_test_us", &labels).record(n % 1_000_000);
        }
        let text = prometheus_text(&reg.snapshot(), n, n);
        prop_assert!(validate_prometheus_text(&text).is_ok(), "{:?}", validate_prometheus_text(&text));
    }

    /// Lineage: an item is useful iff it was gotten by an iteration that
    /// emitted a sink output.
    #[test]
    fn lineage_matches_ground_truth(run in run_strategy()) {
        let (tr, _t_end) = build(&run);
        let lin = Lineage::analyze(&tr);
        let mut out_seq = 0u64;
        for i in 0..run.n {
            if run.gotten[i] {
                let expect_used = run.emitted[i];
                let id = aru_metrics::ItemId(i as u64);
                prop_assert_eq!(
                    lin.is_item_used(id),
                    expect_used,
                    "item {} used mismatch", i
                );
                out_seq += 1;
            } else {
                prop_assert!(!lin.is_item_used(aru_metrics::ItemId(i as u64)));
            }
        }
        let _ = out_seq;
    }

    /// Waste percentages are well-formed and consistent with counts.
    #[test]
    fn waste_report_consistency(run in run_strategy()) {
        let (tr, t_end) = build(&run);
        let lin = Lineage::analyze(&tr);
        let w = WasteReport::compute(&lin, t_end);
        prop_assert_eq!(w.total_items, run.n);
        let expect_wasted = (0..run.n)
            .filter(|&i| !(run.gotten[i] && run.emitted[i]))
            .count();
        prop_assert_eq!(w.wasted_items, expect_wasted);
        prop_assert!(w.wasted_byte_time <= w.total_byte_time * (1.0 + 1e-12));
        prop_assert!(w.wasted_computation <= w.total_computation);
        prop_assert!((0.0..=100.0).contains(&w.pct_memory_wasted()));
        prop_assert!((0.0..=100.0).contains(&w.pct_computation_wasted()));
    }

    /// The ideal series never exceeds the observed series at any sampled
    /// instant (pointwise dominance, not just means).
    #[test]
    fn ideal_pointwise_below_observed(run in run_strategy()) {
        let (tr, t_end) = build(&run);
        let lin = Lineage::analyze(&tr);
        let obs = observed_series(&tr);
        let ideal = ideal_series(&lin, t_end);
        for probe in 0..50u64 {
            let t = SimTime(t_end.as_micros() * probe / 50);
            prop_assert!(
                ideal.value_at(t) <= obs.value_at(t) + 1e-9,
                "ideal {} > observed {} at {t:?}",
                ideal.value_at(t),
                obs.value_at(t)
            );
        }
    }

    /// Perf report: outputs counted exactly; latency nonnegative; gap σ
    /// finite.
    #[test]
    fn perf_report_consistency(run in run_strategy()) {
        let (tr, t_end) = build(&run);
        let lin = Lineage::analyze(&tr);
        let p = PerfReport::compute(&tr, &lin, t_end);
        let expect_outputs = (0..run.n).filter(|&i| run.gotten[i] && run.emitted[i]).count();
        prop_assert_eq!(p.outputs, expect_outputs);
        prop_assert!(p.latency.min >= 0.0);
        prop_assert!(p.jitter_us.is_finite());
        prop_assert!(p.throughput_fps >= 0.0);
    }
}
