//! Bench-side spans: one record per call the benchmark makes into a layer's
//! public functions (name, start, end, the span that caused it), all sharing
//! the run's identifier. Kept in memory and written when the run ends.
//!
//! The program has no spans of its own yet (ROADMAP item 3); until it does,
//! every layer is timed from outside, here.

use crate::json::Value;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Calls this span stands for: 1 for a single call, more for a batch of
    /// per-item calls folded into one record (see [`Spans::record_batch`]).
    pub calls: u64,
    /// Time spent inside those calls; equals the duration for a single call.
    pub busy_ns: u64,
}

pub struct Spans {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// `enabled == false` is the timed pass: `scope` still times the call
    /// (the end-to-end metrics need the durations) but records nothing.
    pub fn new(enabled: bool, run_id: String) -> Self {
        Spans {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` as a child span of the innermost open span; returns its
    /// result and how long it took.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, Duration) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.open.last().copied(),
                calls: 1,
                busy_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            let end_ns = self.ns(end);
            let span = &mut self.spans[id];
            span.end_ns = end_ns;
            span.busy_ns = end_ns - span.start_ns;
        }
        (out, end - start)
    }

    /// Record `calls` per-item calls made between `start` and `end` (on any
    /// thread) that spent `busy` inside the layer, as one span under the
    /// innermost open span. Per-item calls are timed one by one but folded
    /// before they are stored: a span per queue operation would be millions
    /// of records per run.
    pub fn record_batch(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        calls: u64,
        busy: Duration,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            calls,
            busy_ns: busy.as_nanos() as u64,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self, workload: &str, extra: Value) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj()
                    .with("id", id)
                    .with("run_id", self.run_id.as_str())
                    .with("name", s.name.as_str())
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("parent", s.parent.map_or(Value::Null, Value::from))
                    .with("calls", s.calls)
                    .with("busy_ns", s.busy_ns)
            })
            .collect();
        Value::obj()
            .with("workload", workload)
            .with("run_id", self.run_id.as_str())
            .with("info", extra)
            .with("spans", spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_their_parent() {
        let mut s = Spans::new(true, "r1".into());
        let ((), outer) = s.scope("outer", |s| {
            s.scope("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            let t0 = Instant::now();
            s.record_batch(
                "ops",
                t0,
                t0 + Duration::from_micros(5),
                10,
                Duration::from_micros(3),
            );
        });
        assert!(outer >= Duration::from_millis(2));
        assert_eq!(s.len(), 3);
        let doc = s.to_json("w", Value::obj());
        let spans = doc.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[2].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[2].get("calls").and_then(Value::as_f64), Some(10.0));
        assert!(spans
            .iter()
            .all(|s| s.get("run_id").and_then(Value::as_str) == Some("r1")));
        let (start, end) = (
            spans[1].get("start_ns").and_then(Value::as_f64).unwrap(),
            spans[1].get("end_ns").and_then(Value::as_f64).unwrap(),
        );
        assert!(end - start >= 2e6);
    }

    #[test]
    fn disabled_spans_time_but_do_not_record() {
        let mut s = Spans::new(false, "r".into());
        let (v, d) = s.scope("x", |_| {
            std::thread::sleep(Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::from_millis(1));
        assert_eq!(s.len(), 0);
    }
}
