//! Property-based tests on the postmortem analyses: randomly generated
//! (well-formed) traces must produce internally consistent reports. And on
//! the two text formats the system writes and reads back: arbitrary text
//! never panics the journal loader or the Prometheus validator, and
//! whatever the writers write, the readers accept.

use aru_core::graph::NodeId;
use aru_metrics::export::{prometheus_text, validate_prometheus_text};
use aru_metrics::footprint::{ideal_series, observed_series};
use aru_metrics::journal::{law_code, load_journal, parse_journal, JOURNAL_SCHEMA};
use aru_metrics::{
    FaultClass, HopLeg, IterKey, JournalKind, JournalRecord, JournalSnapshot, Lineage, PerfReport,
    Registry, Trace, TraceEvent, TraceSink, WasteReport,
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
        tr.record(TraceEvent::IterEnd {
            t: SimTime(t + 5),
            iter: key,
            busy: Micros(5),
        });
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
            tr.record(TraceEvent::IterEnd {
                t: SimTime(t + 2),
                iter: key,
                busy: Micros(2),
            });
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

/// Text of arbitrary Unicode scalar values, interleaved with the journal
/// fragments so keys and quotes meet multi-byte characters.
fn unicode_text() -> impl Strategy<Value = String> {
    let piece = (any::<u32>(), 0usize..JOURNAL_FRAGMENTS.len(), any::<bool>());
    prop::collection::vec(piece, 0..60).prop_map(|pieces| {
        let mut text = String::new();
        for (code, fragment, scalar) in pieces {
            match char::from_u32(code % 0x11_0000) {
                Some(c) if scalar => text.push(c),
                _ => text.push_str(JOURNAL_FRAGMENTS[fragment]),
            }
        }
        text
    })
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

    /// Any characters at all, not only the fragments above: every scalar
    /// value from ASCII to the astral planes, between key look-alikes. The
    /// loader returns, and under an intact header it loads.
    #[test]
    fn parse_journal_never_panics_on_arbitrary_unicode(text in unicode_text()) {
        let _ = parse_journal(&text);
        let header = JournalSnapshot::default().to_jsonl("sim", 0);
        let loaded = parse_journal(&(header + &text));
        prop_assert!(loaded.is_ok(), "an intact header loads");
    }

    /// A file of arbitrary bytes, valid UTF-8 or not, loads or fails with
    /// an error; under an intact header it loads, the lines that are not
    /// records counted as skipped.
    #[test]
    fn load_journal_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        record in record_strategy(),
    ) {
        let dir = std::env::temp_dir().join(format!("aru-journal-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arbitrary.journal.jsonl");
        std::fs::write(&path, &bytes).unwrap();
        let _ = load_journal(&path);
        let snap = JournalSnapshot { records: vec![record], torn: 0, dropped: 0 };
        let mut file = snap.to_jsonl("sim", 0).into_bytes();
        file.extend_from_slice(&bytes);
        std::fs::write(&path, &file).unwrap();
        let loaded = load_journal(&path);
        std::fs::remove_dir_all(&dir).ok();
        let loaded = loaded.expect("an intact header loads");
        prop_assert_eq!(loaded.snapshot.records.first(), Some(&record));
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

/// A journal cut at every byte offset — a crash dump torn mid-write —
/// loads a prefix of its records: every line written whole, none changed,
/// and the torn line, if any, counted in `skipped`. A cut inside the header
/// fails the load. Every record kind is in it, at extreme field values, so
/// every kind is cut inside every field, its last field's digits included.
#[test]
fn a_journal_cut_at_any_byte_loads_a_prefix_of_its_records() {
    let (max, big) = (Micros(u64::MAX), u32::MAX);
    let kinds = [
        JournalKind::Pace {
            law: law_code("hysteresis"),
            raw: max,
            target: max,
            sleep: max,
            clamped: true,
        },
        JournalKind::Hop {
            leg: HopLeg::Deposit,
            peer: NodeId(big),
            value: max,
        },
        JournalKind::Hop {
            leg: HopLeg::Return,
            peer: NodeId(big),
            value: max,
        },
        JournalKind::Hop {
            leg: HopLeg::Fold,
            peer: NodeId(big),
            value: max,
        },
        JournalKind::Occupancy {
            len: u64::MAX,
            watermark: u64::MAX,
            high: false,
        },
        JournalKind::Stale { entered: false },
        JournalKind::Crash { attempt: big },
        JournalKind::Restart {
            attempt: big,
            backoff: max,
        },
        JournalKind::Escalate { attempt: big },
        JournalKind::Fault {
            class: FaultClass::DropSummaries,
        },
        JournalKind::SummaryDropped,
    ];
    let records: Vec<_> = kinds
        .into_iter()
        .map(|kind| JournalRecord {
            t: SimTime(u64::MAX),
            node: NodeId(big),
            kind,
        })
        .collect();
    let snap = JournalSnapshot {
        records,
        torn: u64::MAX,
        dropped: u64::MAX,
    };
    let file = snap.to_jsonl("sim \"日🦀\"", u64::MAX).into_bytes();
    // Byte offsets at which each line's content ends (its newline's).
    let ends: Vec<usize> = (0..file.len()).filter(|&i| file[i] == b'\n').collect();
    assert_eq!(
        ends.len(),
        snap.records.len() + 1,
        "a header and a line per record"
    );
    let dir = std::env::temp_dir().join(format!("aru-journal-cut-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cut.journal.jsonl");
    for cut in 0..=file.len() {
        std::fs::write(&path, &file[..cut]).unwrap();
        let loaded = load_journal(&path);
        if cut < ends[0] {
            assert!(loaded.is_err(), "cut at {cut} inside the header loaded");
            continue;
        }
        let loaded = loaded.unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let whole = ends[1..].iter().filter(|&&end| end <= cut).count();
        let torn = ends[1..]
            .iter()
            .any(|&end| end > cut && cut > ends[whole] + 1);
        assert_eq!(
            loaded.snapshot.records,
            snap.records[..whole],
            "cut at {cut}: the records written whole, unchanged"
        );
        assert_eq!(loaded.skipped, u64::from(torn), "cut at {cut}");
        assert_eq!(
            (loaded.snapshot.torn, loaded.snapshot.dropped),
            (u64::MAX, u64::MAX),
            "cut at {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
