//! `bench --compare A.json B.json`: two result files of the runner, A the
//! base (the parent commit, or the first of two A/A sets), B the candidate.
//!
//! Per workload and end-to-end metric it prints both medians, the ratio B/A
//! and the bound, and fails when B is worse than A by more than the bound or
//! when a workload's share of failed operations rose.

use crate::json::Value;
use crate::spec::{self, Better};

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
}

impl Row {
    pub fn regressed(&self) -> bool {
        // A metric that cannot be compared (zero base, NaN) is a failure of
        // the measurement, not a pass.
        !self.worse_by.is_finite() || self.worse_by > self.bound
    }
}

pub struct Verdict {
    pub rows: Vec<Row>,
    /// Workloads whose failed-operation share rose, or that are missing
    /// from B, or that were not correct in B.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && !self.rows.iter().any(Row::regressed)
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:<18} {:>16} {:>16} {:>8} {:>7}  verdict\n",
            "workload", "metric", "A (base) median", "B median", "B/A", "bound"
        );
        for r in &self.rows {
            let verdict = if r.regressed() {
                "WORSE"
            } else if r.worse_by < -r.bound {
                "better"
            } else {
                "same"
            };
            out.push_str(&format!(
                "{:<24} {:<18} {:>16.4} {:>16.4} {:>8.3} {:>6.0}%  {verdict} ({:+.1}% {})\n",
                r.workload,
                format!("{} [{}]", r.metric, r.unit),
                r.a,
                r.b,
                r.b / r.a,
                100.0 * r.bound,
                100.0 * r.worse_by,
                if r.worse_by > 0.0 { "worse" } else { "better" },
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("PROBLEM: {p}\n"));
        }
        out.push_str(if self.passed() {
            "compare: PASS — every end-to-end metric within its bound\n"
        } else {
            "compare: FAIL\n"
        });
        out
    }
}

fn workloads(doc: &Value) -> Result<&[Value], String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "result file has no \"workloads\" array".to_string())
}

fn failed_share(w: &Value) -> f64 {
    let n = |k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    n("failed") / n("attempted")
}

pub fn compare(a: &Value, b: &Value) -> Result<Verdict, String> {
    let mut verdict = Verdict {
        rows: Vec::new(),
        problems: Vec::new(),
    };
    let b_workloads = workloads(b)?;
    for wa in workloads(a)? {
        let name = wa
            .get("name")
            .and_then(Value::as_str)
            .ok_or("a workload without a name")?;
        let Some(wb) = b_workloads
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            verdict.problems.push(format!("{name}: missing from B"));
            continue;
        };
        if wb.get("correct").and_then(Value::as_bool) != Some(true) {
            verdict
                .problems
                .push(format!("{name}: B's outputs were not correct"));
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        // NaN (a file without the counts) must not pass as "did not rise".
        if fb > fa || fb.is_nan() || fa.is_nan() {
            verdict.problems.push(format!(
                "{name}: failed-operation share rose from {fa:.6} to {fb:.6}"
            ));
        }
        for m in &spec::END_TO_END {
            let median = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get("median"))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (median(wa), median(wb)) else {
                verdict
                    .problems
                    .push(format!("{name}: {} is missing from a result file", m.name));
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            verdict.rows.push(Row {
                workload: name.to_string(),
                metric: m.name.to_string(),
                unit: m.unit.to_string(),
                a: va,
                b: vb,
                bound: m.bound,
                worse_by,
            });
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-workload result file with the given medians.
    fn file(throughput: f64, latency: f64, rss: f64, setup: f64, failed: u64) -> Value {
        let metric = |v: f64, unit: &str| {
            Value::obj()
                .with("median", v)
                .with("n", 3u64)
                .with("unit", unit)
        };
        Value::obj().with(
            "workloads",
            vec![Value::obj()
                .with("name", "transport_small_items")
                .with("correct", failed == 0)
                .with("attempted", 1000u64)
                .with("failed", failed)
                .with(
                    "end_to_end",
                    Value::obj()
                        .with("throughput_per_s", metric(throughput, "1/s"))
                        .with("latency_us", metric(latency, "us"))
                        .with("memory_mb", metric(rss, "MB"))
                        .with("setup_s", metric(setup, "s")),
                )],
        )
    }

    #[test]
    fn identical_files_pass() {
        let a = file(250_000.0, 12.0, 150.0, 0.001, 0);
        let v = compare(&a, &a).unwrap();
        assert!(v.passed(), "{}", v.render());
        assert_eq!(v.rows.len(), spec::END_TO_END.len());
    }

    #[test]
    fn within_bound_passes_beyond_bound_fails_in_the_worse_direction_only() {
        let a = file(250_000.0, 12.0, 150.0, 0.001, 0);
        // 20 % less throughput, 20 % more latency, 20 % slower set-up: inside.
        assert!(compare(&a, &file(200_000.0, 14.4, 150.0, 0.0012, 0))
            .unwrap()
            .passed());
        // 28 % less throughput: outside its 25 %.
        let v = compare(&a, &file(180_000.0, 12.0, 150.0, 0.001, 0)).unwrap();
        assert!(!v.passed());
        let bad: Vec<&str> = v
            .rows
            .iter()
            .filter(|r| r.regressed())
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(bad, ["throughput_per_s"]);
        assert!(v.render().contains("WORSE"));
        // 30 % more throughput and half the latency is not a regression.
        assert!(compare(&a, &file(325_000.0, 6.0, 150.0, 0.001, 0))
            .unwrap()
            .passed());
        // Set-up and memory 30 % worse: outside their 25 %.
        assert!(!compare(&a, &file(250_000.0, 12.0, 150.0, 0.0013, 0))
            .unwrap()
            .passed());
        assert!(!compare(&a, &file(250_000.0, 12.0, 195.0, 0.001, 0))
            .unwrap()
            .passed());
    }

    #[test]
    fn a_rise_in_failed_operations_fails() {
        let a = file(250_000.0, 12.0, 150.0, 0.001, 0);
        let v = compare(&a, &file(250_000.0, 12.0, 150.0, 0.001, 3)).unwrap();
        assert!(!v.passed());
        assert!(v
            .problems
            .iter()
            .any(|p| p.contains("failed-operation share rose")));
    }

    #[test]
    fn missing_workloads_and_metrics_are_problems_not_passes() {
        let a = file(250_000.0, 12.0, 150.0, 0.001, 0);
        let empty = Value::obj().with("workloads", Vec::<Value>::new());
        assert!(!compare(&a, &empty).unwrap().passed());
        assert!(compare(&a, &Value::obj()).is_err());
        let nan = file(f64::NAN, 12.0, 150.0, 0.001, 0);
        assert!(!compare(&a, &nan).unwrap().passed());
    }
}
