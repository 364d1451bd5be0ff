//! Lock-free live-metrics registry.
//!
//! The same discipline as the sharded trace (DESIGN.md §9): writers never
//! share a cache line on the hot path. Registering a metric takes the
//! registry lock once (cold); every [`Counter`] / [`Histogram`] handle owns
//! a **private shard** — its own atomic cell(s) — and recording is one
//! relaxed `fetch_add` per field: wait-free, no CAS loop, no lock, no
//! cross-writer traffic. [`Registry::snapshot`] is the only cross-shard
//! reader; it sums counter shards and bucket-merges histogram shards into
//! one value per series.
//!
//! [`Gauge`]s are the exception: a gauge is a last-writer-wins `store`, so
//! all handles for one series share a single cell (per-series writers are
//! single-threaded in practice — e.g. `aru_stp_current_us{thread=...}` is
//! only ever set by that thread).
//!
//! Series identity is `name + sorted label pairs` ([`Series`]); snapshots
//! use a `BTreeMap` so exports are deterministically ordered.

use crate::hist::{AtomicHist, HistSnapshot};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A metric series: name plus label pairs (sorted at construction so the
/// same logical series always maps to the same key).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Series {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl Series {
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        Series {
            name: name.to_string(),
            labels,
        }
    }
}

impl std::fmt::Display for Series {
    /// `name{k="v",...}` — the Prometheus series syntax.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)?;
        if self.labels.is_empty() {
            return Ok(());
        }
        f.write_str("{")?;
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}=\"")?;
            for c in v.chars() {
                match c {
                    '\\' => f.write_str("\\\\")?,
                    '"' => f.write_str("\\\"")?,
                    '\n' => f.write_str("\\n")?,
                    c => write!(f, "{c}")?,
                }
            }
            f.write_str("\"")?;
        }
        f.write_str("}")
    }
}

/// Monotone counter handle — a private shard of its series.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Wait-free: one relaxed `fetch_add` on a writer-private cell.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Last-writer-wins gauge handle (shared cell; see module docs). Stores
/// `f64` bits; a never-set gauge (NaN sentinel) is omitted from snapshots.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> Option<f64> {
        let v = f64::from_bits(self.cell.load(Ordering::Relaxed));
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }
}

/// Histogram handle — a private [`AtomicHist`] shard of its series.
#[derive(Clone, Debug)]
pub struct Histogram {
    shard: Arc<AtomicHist>,
}

impl Histogram {
    /// Wait-free (see [`AtomicHist::record`]).
    #[inline]
    pub fn record(&self, v: u64) {
        self.shard.record(v);
    }

    /// Bulk-merge a drained plain histogram (the channel/queue publish
    /// step): non-zero buckets only, so cost scales with what happened.
    pub fn merge_plain(&self, h: &mut crate::hist::Hist) {
        h.drain_into(&self.shard);
    }
}

#[derive(Debug, Default)]
struct Metrics {
    counters: BTreeMap<Series, Vec<Arc<AtomicU64>>>,
    gauges: BTreeMap<Series, Arc<AtomicU64>>,
    hists: BTreeMap<Series, Vec<Arc<AtomicHist>>>,
}

/// Shared handle to the metrics registry (cheap to clone).
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<Metrics>>,
}

impl Registry {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a counter shard. Each call returns a **new** shard of the
    /// series; snapshots report the sum over shards. Cold path (one lock).
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let cell = Arc::new(AtomicU64::new(0));
        self.inner
            .lock()
            .counters
            .entry(Series::new(name, labels))
            .or_default()
            .push(Arc::clone(&cell));
        Counter { cell }
    }

    /// Register (or re-attach to) a gauge. All handles for one series share
    /// the cell: last write wins, as a gauge should.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let cell = Arc::clone(
            self.inner
                .lock()
                .gauges
                .entry(Series::new(name, labels))
                .or_insert_with(|| Arc::new(AtomicU64::new(f64::NAN.to_bits()))),
        );
        Gauge { cell }
    }

    /// Register a histogram shard (new shard per call, like [`counter`]).
    ///
    /// [`counter`]: Registry::counter
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let shard = Arc::new(AtomicHist::new());
        self.inner
            .lock()
            .hists
            .entry(Series::new(name, labels))
            .or_default()
            .push(Arc::clone(&shard));
        Histogram { shard }
    }

    /// Merge all shards into one value per series. Relaxed reads racing
    /// in-flight `record`s may miss the very latest samples; they never
    /// tear a shard or lose acknowledged history (the loom test pins this).
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let m = self.inner.lock();
        let counters = m
            .counters
            .iter()
            .map(|(s, shards)| {
                let total = shards.iter().map(|c| c.load(Ordering::Relaxed)).sum();
                (s.clone(), total)
            })
            .collect();
        let gauges = m
            .gauges
            .iter()
            .filter_map(|(s, cell)| {
                let v = f64::from_bits(cell.load(Ordering::Relaxed));
                if v.is_nan() {
                    None
                } else {
                    Some((s.clone(), v))
                }
            })
            .collect();
        let hists = m
            .hists
            .iter()
            .map(|(s, shards)| {
                let mut merged = HistSnapshot::empty();
                for sh in shards {
                    merged.merge(&sh.snapshot());
                }
                (s.clone(), merged)
            })
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            hists,
        }
    }
}

/// One coherent view of every registered series.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<Series, u64>,
    pub gauges: BTreeMap<Series, f64>,
    pub hists: BTreeMap<Series, HistSnapshot>,
}

impl RegistrySnapshot {
    /// Counter value by name + labels (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&Series::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Gauge value by name + labels.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&Series::new(name, labels)).copied()
    }

    /// Histogram snapshot by name + labels.
    #[must_use]
    pub fn hist(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistSnapshot> {
        self.hists.get(&Series::new(name, labels))
    }
}

/// The live-telemetry bundle the runtimes carry: metrics registry and the
/// flight-recorder journal. Cloning shares both (they are handles).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    pub registry: Registry,
    pub journal: crate::journal::Journal,
}

impl Telemetry {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum_in_snapshot() {
        let reg = Registry::new();
        let a = reg.counter("ops_total", &[("thread", "t0")]);
        let b = reg.counter("ops_total", &[("thread", "t0")]);
        let other = reg.counter("ops_total", &[("thread", "t1")]);
        a.add(3);
        b.inc();
        other.add(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ops_total", &[("thread", "t0")]), 4);
        assert_eq!(snap.counter("ops_total", &[("thread", "t1")]), 10);
        assert_eq!(snap.counter("missing", &[]), 0);
    }

    #[test]
    fn gauge_is_last_writer_wins_and_absent_until_set() {
        let reg = Registry::new();
        let g1 = reg.gauge("stp_us", &[("thread", "dig")]);
        assert_eq!(reg.snapshot().gauge("stp_us", &[("thread", "dig")]), None);
        let g2 = reg.gauge("stp_us", &[("thread", "dig")]);
        g1.set(40_000.0);
        g2.set(41_000.0);
        assert_eq!(
            reg.snapshot().gauge("stp_us", &[("thread", "dig")]),
            Some(41_000.0)
        );
        assert_eq!(g1.get(), Some(41_000.0), "handles share the cell");
    }

    #[test]
    fn histogram_shards_merge_in_snapshot() {
        let reg = Registry::new();
        let h1 = reg.histogram("lat_ns", &[]);
        let h2 = reg.histogram("lat_ns", &[]);
        for v in [10u64, 20, 30] {
            h1.record(v);
        }
        h2.record(1000);
        let snap = reg.snapshot();
        let h = snap.hist("lat_ns", &[]).unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1060);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let reg = Registry::new();
        let a = reg.counter("c", &[("x", "1"), ("y", "2")]);
        let b = reg.counter("c", &[("y", "2"), ("x", "1")]);
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("c", &[("x", "1"), ("y", "2")]), 2);
    }

    #[test]
    fn series_display_is_prometheus_syntax() {
        let s = Series::new("aru_stp_us", &[("thread", "a\"b")]);
        assert_eq!(s.to_string(), "aru_stp_us{thread=\"a\\\"b\"}");
        assert_eq!(Series::new("plain", &[]).to_string(), "plain");
    }

    #[test]
    fn concurrent_records_all_land() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = &reg;
                s.spawn(move || {
                    let c = reg.counter("n", &[]);
                    let h = reg.histogram("h", &[]);
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("n", &[]), 4000);
        assert_eq!(snap.hist("h", &[]).unwrap().count, 4000);
    }
}
