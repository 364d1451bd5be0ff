//! Telemetry serialization: Prometheus text exposition and JSONL.
//!
//! Pure string builders over [`RegistrySnapshot`] plus an [`ExportSink`]
//! that writes them to disk (Prometheus file written atomically via
//! tmp-and-rename so a scraper never reads a torn snapshot; JSONL
//! appended, one snapshot per line). The periodic exporter *task* lives in
//! the stampede runtime — this module has no threads and no clocks, so the
//! CI smoke check and the watch renderer can reuse every piece.
//!
//! JSON comes from the std-only writer in `crate::json` (the workspace
//! has no JSON crate).

use crate::fault::FaultReport;
use crate::hist::HistSnapshot;
use crate::json::{JsonArr, JsonObj, Raw};
use crate::registry::{RegistrySnapshot, Series};
use std::io::Write as _;
use std::path::PathBuf;

/// Quantiles exported per histogram in JSONL / watch views.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

fn write_prom_line(out: &mut String, series: &Series, value: impl std::fmt::Display) {
    out.push_str(&series.to_string());
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Render a snapshot in the Prometheus text exposition format.
///
/// `epoch_unix_us` (wall-clock run origin) and `now_unix_us` are exported
/// as gauges so scrapes can be correlated with trace reports across runs
/// and nodes (the epoch satellite).
#[must_use]
pub fn prometheus_text(snap: &RegistrySnapshot, epoch_unix_us: u64, now_unix_us: u64) -> String {
    let mut out = String::new();
    out.push_str("# TYPE aru_epoch_unix_us gauge\n");
    out.push_str(&format!("aru_epoch_unix_us {epoch_unix_us}\n"));
    out.push_str("# TYPE aru_scrape_unix_us gauge\n");
    out.push_str(&format!("aru_scrape_unix_us {now_unix_us}\n"));

    let mut last_type: Option<(String, &str)> = None;
    let mut type_line = |out: &mut String, name: &str, kind: &'static str| {
        if last_type.as_ref().is_none_or(|(n, _)| n != name) {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_type = Some((name.to_string(), kind));
        }
    };

    for (series, value) in &snap.counters {
        type_line(&mut out, &series.name, "counter");
        write_prom_line(&mut out, series, value);
    }
    for (series, value) in &snap.gauges {
        type_line(&mut out, &series.name, "gauge");
        write_prom_line(&mut out, series, value);
    }
    for (series, hist) in &snap.hists {
        type_line(&mut out, &series.name, "histogram");
        for (upper, cum) in hist.cumulative_nonzero() {
            let mut labeled = series.clone();
            labeled.name = format!("{}_bucket", series.name);
            labeled.labels.push(("le".to_string(), upper.to_string()));
            write_prom_line(&mut out, &labeled, cum);
        }
        let mut inf = series.clone();
        inf.name = format!("{}_bucket", series.name);
        inf.labels.push(("le".to_string(), "+Inf".to_string()));
        write_prom_line(&mut out, &inf, hist.count);
        let mut sum = series.clone();
        sum.name = format!("{}_sum", series.name);
        write_prom_line(&mut out, &sum, hist.sum);
        let mut count = series.clone();
        count.name = format!("{}_count", series.name);
        write_prom_line(&mut out, &count, hist.count);
    }
    out
}

/// Validate Prometheus text-format syntax (the CI smoke check): every
/// non-comment line must be `name{label="v",...} value` with a legal
/// metric name, balanced/escaped label quoting, and a parseable value.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    // Inside the quotes only `\\`, `\"` and `\n` are legal escapes, and a
    // bare `"` (which the serializer would have escaped) is malformed —
    // an adversarial task name that leaked through unescaped shows up as
    // exactly these shapes.
    fn valid_label_value(quoted: &str) -> bool {
        let inner = &quoted[1..quoted.len() - 1];
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' if !matches!(chars.next(), Some('\\' | '"' | 'n')) => return false,
                '"' => return false,
                _ => {}
            }
        }
        true
    }
    for (no, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", no + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            // `# TYPE name kind` must be well-formed; other comments pass.
            if let Some(t) = rest.trim_start().strip_prefix("TYPE ") {
                let mut parts = t.split_whitespace();
                let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
                if !valid_name(name) {
                    return err("bad metric name in TYPE");
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return err("bad kind in TYPE");
                }
            }
            continue;
        }
        // name[{labels}] value
        let (name_part, rest) = match line.find('{') {
            Some(b) => {
                let close = match line.rfind('}') {
                    Some(c) if c > b => c,
                    _ => return err("unbalanced braces"),
                };
                let labels = &line[b + 1..close];
                // each pair: key="value" with only escaped inner quotes
                for pair in split_label_pairs(labels) {
                    let Some((k, v)) = pair.split_once('=') else {
                        return err("label pair without '='");
                    };
                    if !valid_name(k) {
                        return err("bad label name");
                    }
                    if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                        return err("unquoted label value");
                    }
                    if !valid_label_value(v) {
                        return err("bad escaping in label value");
                    }
                }
                (&line[..b], &line[close + 1..])
            }
            None => match line.split_once(' ') {
                Some((n, r)) => (n, r),
                None => return err("missing value"),
            },
        };
        if !valid_name(name_part.trim()) {
            return err("bad metric name");
        }
        let value = rest.split_whitespace().next().unwrap_or("");
        let ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !ok {
            return err("unparseable sample value");
        }
    }
    Ok(())
}

/// Split `k="v",k2="v2"` on commas outside quoted values.
fn split_label_pairs(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_str, mut escaped) = (0usize, false, false);
    for (i, c) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == ',' {
            out.push(&s[start..i]);
            start = i + 1;
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
    out
}

fn hist_json(h: &HistSnapshot) -> Raw {
    let mut obj = JsonObj::new().field("count", h.count).field("sum", h.sum);
    for (key, q) in QUANTILES {
        obj = obj.field(key, h.quantile(q));
    }
    obj.raw()
}

/// One JSONL snapshot line (compact, newline-free).
#[must_use]
pub fn jsonl_line(snap: &RegistrySnapshot, epoch_unix_us: u64, now_unix_us: u64) -> String {
    let mut counters = JsonObj::new();
    for (series, value) in &snap.counters {
        counters = counters.field(&series.to_string(), *value);
    }
    let mut gauges = JsonObj::new();
    for (series, value) in &snap.gauges {
        gauges = gauges.field(&series.to_string(), *value);
    }
    let mut hists = JsonObj::new();
    for (series, h) in &snap.hists {
        hists = hists.field(&series.to_string(), hist_json(h));
    }
    JsonObj::new()
        .field("kind", "snapshot")
        .field("epoch_unix_us", epoch_unix_us)
        .field("t_unix_us", now_unix_us)
        .field("counters", counters.raw())
        .field("gauges", gauges.raw())
        .field("hists", hists.raw())
        .finish()
}

/// A `FaultReport` as one JSONL line — what the exporter flushes when the
/// supervisor escalates, so a crashed run still leaves telemetry behind.
#[must_use]
pub fn fault_report_jsonl(report: &FaultReport, epoch_unix_us: u64, now_unix_us: u64) -> String {
    let mut per_node = JsonArr::new();
    for (node, f) in &report.per_node {
        per_node = per_node.item(
            JsonObj::new()
                .field("node", u64::from(node.0))
                .field("crashes", f.crashes)
                .field("restarts", f.restarts)
                .field("timeouts", f.timeouts)
                .field("summaries_dropped", f.summaries_dropped)
                .field("stale_iterations", f.stale_iterations)
                .raw(),
        );
    }
    JsonObj::new()
        .field("kind", "fault_report")
        .field("epoch_unix_us", epoch_unix_us)
        .field("t_unix_us", now_unix_us)
        .field("crashes", report.crashes)
        .field("restarts", report.restarts)
        .field("timeouts", report.timeouts)
        .field("summaries_dropped", report.summaries_dropped)
        .field("stale_iterations", report.stale_iterations)
        .field("stale_intervals", report.stale_intervals)
        .field("per_node", per_node.raw())
        .finish()
}

/// Where the exporter writes. Either path may be absent (that format is
/// skipped); errors are returned, not panicked — a full disk must not take
/// down the pipeline being observed.
#[derive(Clone, Debug, Default)]
pub struct ExportSink {
    /// Prometheus text file, rewritten atomically per snapshot.
    pub prometheus_path: Option<PathBuf>,
    /// JSONL file, one snapshot appended per line.
    pub jsonl_path: Option<PathBuf>,
}

impl ExportSink {
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prometheus_path.is_none() && self.jsonl_path.is_none()
    }

    /// Serialize and write one snapshot to every configured output.
    pub fn write_snapshot(
        &self,
        snap: &RegistrySnapshot,
        epoch_unix_us: u64,
        now_unix_us: u64,
    ) -> std::io::Result<()> {
        if let Some(path) = &self.prometheus_path {
            let text = prometheus_text(snap, epoch_unix_us, now_unix_us);
            let tmp = path.with_extension("tmp");
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(&tmp, text)?;
            std::fs::rename(&tmp, path)?;
        }
        self.append_jsonl(&jsonl_line(snap, epoch_unix_us, now_unix_us))
    }

    /// Append one pre-rendered line to the JSONL output (no-op when no
    /// JSONL path is configured).
    pub fn append_jsonl(&self, line: &str) -> std::io::Result<()> {
        let Some(path) = &self.jsonl_path else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{line}")
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> RegistrySnapshot {
        let reg = Registry::new();
        reg.counter("aru_puts_total", &[("channel", "c1")]).add(7);
        let g = reg.gauge("aru_stp_current_us", &[("thread", "digitizer")]);
        g.set(40_000.0);
        let h = reg.histogram("aru_put_latency_ns", &[("channel", "c1")]);
        for v in [100u64, 200, 3000] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn prometheus_text_round_trips_the_validator() {
        let text = prometheus_text(
            &sample_snapshot(),
            1_722_000_000_000_000,
            1_722_000_001_000_000,
        );
        validate_prometheus_text(&text).expect("own output must validate");
        assert!(text.contains("# TYPE aru_puts_total counter"));
        assert!(text.contains("aru_puts_total{channel=\"c1\"} 7"));
        assert!(text.contains("aru_stp_current_us{thread=\"digitizer\"} 40000"));
        assert!(text.contains("aru_put_latency_ns_bucket{channel=\"c1\",le=\"+Inf\"} 3"));
        assert!(text.contains("aru_put_latency_ns_count{channel=\"c1\"} 3"));
        assert!(text.contains("aru_epoch_unix_us 1722000000000000"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "1bad_name 3",
            "name{x=\"1\" 3",
            "name{x=1} 3",
            "name notanumber",
            "name",
            "# TYPE name weird",
        ] {
            assert!(
                validate_prometheus_text(bad).is_err(),
                "accepted malformed: {bad}"
            );
        }
        validate_prometheus_text("ok{a=\"b,c\",d=\"e\"} 1.5\nplain 2").unwrap();
    }

    #[test]
    fn validator_rejects_bad_label_escaping() {
        for bad in [
            // unescaped inner quote (a task named `a"b` leaked raw)
            "name{x=\"a\"b\"} 1",
            // illegal escape sequence
            "name{x=\"a\\qb\"} 1",
            // trailing backslash eats the closing quote
            "name{x=\"a\\\"} 1",
        ] {
            assert!(
                validate_prometheus_text(bad).is_err(),
                "accepted bad escaping: {bad}"
            );
        }
        // The legal escapes pass.
        validate_prometheus_text("name{x=\"a\\\\b\\\"c\\nd\"} 1").unwrap();
    }

    #[test]
    fn adversarial_task_names_round_trip_the_validator() {
        // Label values with every character the exposition format must
        // escape: the serializer (Series::fmt) escapes them, and the
        // tightened validator accepts exactly that output.
        let reg = Registry::new();
        for name in ["quo\"te", "back\\slash", "new\nline", "all\\\"\n"] {
            reg.counter("aru_iterations_total", &[("thread", name)])
                .inc();
        }
        let text = prometheus_text(&reg.snapshot(), 1, 2);
        validate_prometheus_text(&text).expect("escaped output must validate");
        assert!(text.contains("thread=\"quo\\\"te\""));
        assert!(text.contains("thread=\"back\\\\slash\""));
        assert!(text.contains("thread=\"new\\nline\""));
    }

    #[test]
    fn jsonl_line_is_single_line_json() {
        let line = jsonl_line(&sample_snapshot(), 10, 20);
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"snapshot\""));
        assert!(line.contains("\"aru_puts_total{channel=\\\"c1\\\"}\":7"));
        assert!(line.contains("\"epoch_unix_us\":10"));
    }

    #[test]
    fn fault_report_jsonl_includes_per_node_rows() {
        let mut report = FaultReport {
            crashes: 2,
            restarts: 1,
            ..FaultReport::default()
        };
        report
            .per_node
            .entry(aru_core::graph::NodeId(3))
            .or_default()
            .crashes = 2;
        let line = fault_report_jsonl(&report, 5, 6);
        assert!(line.contains("\"kind\":\"fault_report\""));
        assert!(line.contains("\"crashes\":2"));
        assert!(line.contains("\"node\":3"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn sink_writes_both_formats() {
        let dir = std::env::temp_dir().join(format!(
            "aru-export-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = ExportSink {
            prometheus_path: Some(dir.join("metrics.prom")),
            jsonl_path: Some(dir.join("metrics.jsonl")),
        };
        let snap = sample_snapshot();
        sink.write_snapshot(&snap, 1, 2).unwrap();
        sink.write_snapshot(&snap, 1, 3).unwrap();
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        validate_prometheus_text(&prom).unwrap();
        let jsonl = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 2, "jsonl appends one line per tick");
        std::fs::remove_dir_all(&dir).ok();
    }
}
