//! Table and CSV rendering for the experiment harness.

use vtime::{SimTime, TimeWeightedSeries};

/// One-line run header stamping the wall-clock epoch (see
/// [`crate::trace::wall_clock_unix_us`]). Prepend it to rendered reports —
/// opt-in, so renders of epoch-free traces stay unchanged — to correlate
/// trace-derived tables with exported telemetry across runs and nodes: the
/// body's virtual timestamps are relative to exactly this origin.
#[must_use]
pub fn run_header(epoch_unix_us: u64, t_end: SimTime) -> String {
    format!(
        "run epoch: unix {}.{:06} s; horizon: {}",
        epoch_unix_us / 1_000_000,
        epoch_unix_us % 1_000_000,
        t_end
    )
}

/// A simple aligned text table (the shape the paper's figures 6/7/10 use).
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], width: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<w$}  ", c, w = width[i]);
            }
            s.trim_end().to_string()
        };
        let header = line(&self.headers, &width);
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &width));
        }
        out
    }

    /// CSV rendering (RFC-4180-ish; quotes fields containing commas).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Serialize a set of labelled time series into one long-format CSV
/// (`label,t_us,value`) — the Figure 8/9 output format.
#[must_use]
pub fn series_csv(
    series: &[(&str, &TimeWeightedSeries)],
    t_end: SimTime,
    buckets: usize,
) -> String {
    let mut out = String::from("label,t_us,value\n");
    for (label, s) in series {
        for (t, v) in s.downsample(t_end, buckets) {
            out.push_str(&format!("{label},{},{v}\n", t.as_micros()));
        }
    }
    out
}

/// Render a compact ASCII plot of one series (rows = bucketed time,
/// bar length ∝ value). Used by the `repro` binary for quick inspection of
/// the Figure 8/9 shapes without leaving the terminal.
#[must_use]
pub fn ascii_plot(
    title: &str,
    series: &TimeWeightedSeries,
    t_end: SimTime,
    rows: usize,
    cols: usize,
) -> String {
    use std::fmt::Write as _;
    let pts = series.downsample(t_end, rows);
    let max = pts.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    let mut out = String::new();
    let _ = writeln!(out, "--- {title} (peak {max:.3e}) ---");
    for (t, v) in pts {
        let w = if max > 0.0 {
            ((v / max) * cols as f64).round() as usize
        } else {
            0
        };
        let _ = writeln!(
            out,
            "{:>8.2}s |{}",
            t.as_secs_f64(),
            "#".repeat(w.min(cols))
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_aligns() {
        let mut t = Table::new("demo", &["mode", "value"]);
        t.row(vec!["No ARU".into(), "4.31".into()]);
        t.row(vec!["ARU-min".into(), "2.58".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("No ARU"));
        assert!(s.contains("ARU-min"));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    fn series_csv_emits_all_labels() {
        let mut s1 = TimeWeightedSeries::new();
        s1.push(SimTime(0), 1.0);
        let mut s2 = TimeWeightedSeries::new();
        s2.push(SimTime(0), 2.0);
        let csv = series_csv(&[("a", &s1), ("b", &s2)], SimTime(100), 4);
        assert!(csv.lines().any(|l| l.starts_with("a,")));
        assert!(csv.lines().any(|l| l.starts_with("b,")));
        assert!(csv.starts_with("label,t_us,value\n"));
    }

    #[test]
    fn ascii_plot_scales_bars() {
        let mut s = TimeWeightedSeries::new();
        s.push(SimTime(0), 1.0);
        s.push(SimTime(50), 10.0);
        let p = ascii_plot("x", &s, SimTime(100), 4, 20);
        assert!(p.contains("--- x"));
        let longest = p.lines().map(|l| l.matches('#').count()).max().unwrap();
        assert_eq!(longest, 20, "peak bar fills the width:\n{p}");
    }

    #[test]
    fn ascii_plot_empty_series() {
        let s = TimeWeightedSeries::new();
        let p = ascii_plot("empty", &s, SimTime(100), 4, 20);
        assert!(p.contains("empty"));
    }

    #[test]
    fn run_header_formats_epoch_and_horizon() {
        let h = run_header(1_722_000_000_123_456, SimTime(200_000_000));
        assert_eq!(
            h,
            "run epoch: unix 1722000000.123456 s; horizon: t=200.000s"
        );
    }
}
