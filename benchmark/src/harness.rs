//! What every workload shares: the run's parameters, the outcome a workload
//! hands back, a seeded generator for inputs, and the timing helpers of the
//! micro pass.

use crate::spec::Metrics;
use crate::stats;
use aru_metrics::ExportSink;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vtime::Micros;

/// One invocation: one workload, one pass.
pub struct RunParams {
    pub seed: u64,
    /// How long the pass measures.
    pub seconds: f64,
    /// `false`: timed pass (recorders off, no spans) for the end-to-end
    /// metrics. `true`: traced pass for the per-layer metrics.
    pub traced: bool,
    /// Where recorder artifacts and the span file go.
    pub out_dir: PathBuf,
    /// Smallest sizes that still exercise every code path of the benchmark
    /// (`--smoke`); the numbers of such a run mean nothing.
    pub smoke: bool,
}

/// Cold starts per pass for `setup_s`: at least `MIN_SETUP_STARTS`, and on
/// while `SETUP_BUDGET` is not yet spent, up to `MAX_SETUP_STARTS` — a
/// millisecond set-up needs many more samples than fifteen for its median to
/// hold still. A smoke run makes two.
const MIN_SETUP_STARTS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1_500);
const MAX_SETUP_STARTS: usize = 200;

/// The program's optional recorders, switched on for a traced run.
pub struct Recorders {
    pub export: ExportSink,
    pub export_interval: Micros,
    pub journal: PathBuf,
}

impl RunParams {
    pub fn secs(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Where the telemetry exporter and the journal of workload `name`
    /// write during a traced run.
    pub fn recorders(&self, name: &str) -> Recorders {
        Recorders {
            export: ExportSink {
                prometheus_path: Some(self.out_dir.join(format!("{name}.prom"))),
                jsonl_path: Some(self.out_dir.join(format!("{name}.telemetry.jsonl"))),
            },
            export_interval: Micros::from_millis(100),
            journal: self.out_dir.join(format!("{name}.journal.jsonl")),
        }
    }

    /// `setup_s`: the median over repeated cold starts, each timed by
    /// `cold_start` (seconds from entry to the workload's set-up mark).
    pub fn median_setup_s(&self, mut cold_start: impl FnMut() -> f64) -> f64 {
        let t0 = Instant::now();
        let (fewest, budget) = if self.smoke {
            (2, Duration::ZERO)
        } else {
            (MIN_SETUP_STARTS, SETUP_BUDGET)
        };
        let mut samples = Vec::new();
        while samples.len() < fewest || (t0.elapsed() < budget && samples.len() < MAX_SETUP_STARTS)
        {
            samples.push(cold_start());
        }
        stats::median(&samples)
    }
}

pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// What a workload reports back.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Metrics,
    /// Human-readable lines (the budget table) printed above the result.
    pub table: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.passed)
    }
}

/// SplitMix64: the benchmark's only source of input randomness, so the same
/// `--seed` gives the same inputs on every machine.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix(field))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MB. Every workload and
/// pass runs in its own process, so this is the workload's own high-water
/// mark.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Samples the resident set (`VmRSS`) of this process every 20 ms from a
/// thread of its own, which sleeps in between. The time average over the
/// measured interval is the memory figure the transport and simulator
/// workloads gate; the high-water mark is a maximum and moves more.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

impl RssSampler {
    const PERIOD: Duration = Duration::from_millis(20);

    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rss-sampler".into())
            .spawn(move || {
                let mut samples = Vec::new();
                while !flag.load(Ordering::Relaxed) {
                    samples.extend(status_kb("VmRSS:"));
                    std::thread::sleep(Self::PERIOD);
                }
                samples.extend(status_kb("VmRSS:"));
                samples
            })
            .expect("spawn rss sampler");
        RssSampler { stop, thread }
    }

    /// Stop sampling; the mean resident set in MB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.thread.join().expect("rss sampler does not panic");
        if samples.is_empty() {
            return f64::NAN;
        }
        samples.iter().sum::<f64>() / samples.len() as f64 / 1024.0
    }
}

/// Cost of one `Instant::now()` pair, subtracted from per-call timings.
pub fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            (t1 - t0).as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Time each of `n` calls on its own; median ns per call. For calls of a
/// microsecond and up.
pub fn per_call_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Time `batches` batches of `per_batch` calls; median ns per call. For
/// calls too short to time one by one.
pub fn batch_ns(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f(i);
                i += 1;
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(2005);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(2005);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c = Rng::new(2006).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn rss_reads_positive_numbers_on_linux() {
        let sampler = RssSampler::start();
        std::thread::sleep(Duration::from_millis(50));
        let mean = sampler.finish();
        assert!(
            mean > 0.0 && mean <= peak_rss_mb(),
            "mean {mean} peak {}",
            peak_rss_mb()
        );
    }

    #[test]
    fn timing_helpers_scale_with_the_work() {
        let spin = |n: u64| {
            let mut x = 0u64;
            for i in 0..n {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            std::hint::black_box(x);
        };
        let short = batch_ns(20, 50, |_| spin(100));
        let long = batch_ns(20, 50, |_| spin(1_000));
        assert!(long > short * 3.0, "short {short} long {long}");
        assert!(per_call_ns(50, |_| spin(10_000)) > clock_overhead_ns());
    }
}
