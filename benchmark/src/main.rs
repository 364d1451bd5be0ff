//! `bench` — one end-to-end benchmark for the tracker pipeline and the
//! simulator, with a per-layer budget. See README.md for the metric map.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1   one workload, one pass, in this process
//! bench [--workload NAME] [--seed N] [--seconds S] [--runs N] [--out FILE] [--smoke]
//!                                                          the runner: every workload, both passes,
//!                                                          each in a child process; writes FILE
//! bench --compare A.json B.json                            judge B against A by the bounds
//! bench --spec                                             print the contents of BENCHMARK.json
//! ```
//!
//! With `--trace` the last line of standard output is the result object the
//! driver reads: `correct`, `attempted`, `failed`, `metrics`. Exit status:
//! 0 all correct (and, for `--compare`, within bounds), 1 a correctness
//! check or a comparison failed, 2 bad usage or IO.

mod compare;
mod harness;
mod json;
mod micro;
mod postmortem;
mod sim_wl;
mod spans;
mod spec;
mod stats;
mod tracker_wl;
mod transport_wl;

use harness::{Outcome, RunParams};
use json::Value;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 2005;

struct Args {
    workload: Option<String>,
    seed: u64,
    /// Length of one pass; without `--seconds`, one second for a smoke run
    /// and `BENCHMARK.json`'s `run_seconds` otherwise.
    seconds: f64,
    trace: Option<bool>,
    runs: usize,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
    spec: bool,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: bench --workload NAME --seed N --seconds S --trace 0|1\n       \
         bench [--workload NAME] [--seed N] [--seconds S] [--runs N] [--out FILE] [--smoke]\n       \
         bench --compare A.json B.json\n       \
         bench --spec          (prints the contents of BENCHMARK.json)\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: None,
        runs: 1,
        out: None,
        smoke: false,
        compare: None,
        spec: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec::WORKLOADS.iter().any(|x| x.name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--runs" => {
                a.runs = value()?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?;
                if !(1..=100).contains(&a.runs) {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--spec" => a.spec = true,
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.trace.is_some() && a.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    if a.seconds == 0.0 {
        a.seconds = if a.smoke {
            1.0
        } else {
            spec::RUN_SECONDS as f64
        };
    }
    Ok(a)
}

/// `benchmark/out` when run from the repository root (how the driver and
/// the README run it), `out` when run from inside `benchmark/`.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(seed: u64, seconds: f64) -> Value {
    Value::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(1, usize::from),
        )
        .with("rustc", tool_line("rustc", &["--version"]))
        .with("commit", tool_line("git", &["rev-parse", "HEAD"]))
        .with("seed", seed)
        .with("seconds", seconds)
}

fn run_workload(name: &str, rp: &RunParams, spans: &mut Spans) -> Outcome {
    use sim_wl::Kind as Sim;
    use tracker_wl::Kind as Tracker;
    match (name, rp.traced) {
        ("tracker_full_speed", false) => tracker_wl::timed(Tracker::FullSpeed, rp),
        ("tracker_full_speed", true) => tracker_wl::traced(Tracker::FullSpeed, name, rp, spans),
        ("tracker_paced", false) => tracker_wl::timed(Tracker::Paced, rp),
        ("tracker_paced", true) => tracker_wl::traced(Tracker::Paced, name, rp, spans),
        ("transport_small_items", false) => transport_wl::timed(rp),
        ("transport_small_items", true) => transport_wl::traced(name, rp, spans),
        ("sim_scale_1000", false) => sim_wl::timed(Sim::Scale1000, rp),
        ("sim_scale_1000", true) => sim_wl::traced(Sim::Scale1000, name, rp, spans),
        ("sim_paper_cells", false) => sim_wl::timed(Sim::PaperCells, rp),
        ("sim_paper_cells", true) => sim_wl::traced(Sim::PaperCells, name, rp, spans),
        _ => unreachable!("workload names are validated when arguments are parsed"),
    }
}

/// One workload, one pass, in this process. Prints the checks, the budget
/// table and every metric by name with its unit, then the result line.
fn single(name: &str, args: &Args, traced: bool) -> ExitCode {
    let out_dir = out_dir();
    if traced {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("bench: cannot create {}: {e}", out_dir.display());
            return ExitCode::from(2);
        }
        // The exporter appends to its JSONL file: start each traced run
        // without the previous run's recorder artifacts.
        for entry in std::fs::read_dir(&out_dir).into_iter().flatten().flatten() {
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with(&format!("{name}."))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    let rp = RunParams {
        seed: args.seed,
        seconds: args.seconds,
        traced,
        out_dir: out_dir.clone(),
        smoke: args.smoke,
    };
    let prov = provenance(args.seed, args.seconds);
    let run_id = format!("{name}-seed{}-pid{}", args.seed, std::process::id());
    let mut spans = Spans::new(traced, run_id);
    let (mut outcome, _) = spans.scope(name, |s| run_workload(name, &rp, s));
    if traced {
        outcome.metrics.set("peak_rss_mb", harness::peak_rss_mb());
    }

    println!(
        "# {name}, {} pass, {}",
        if traced { "traced" } else { "timed" },
        prov.to_line()
    );
    for c in &outcome.checks {
        println!(
            "check {} {}: {}",
            if c.passed { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for line in &outcome.table {
        println!("{line}");
    }
    let metrics = outcome.metrics.to_json(traced);
    for (metric, v) in metrics.fields() {
        let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        // A layer this workload does not exercise reports 0; not worth a line.
        if !traced || value != 0.0 {
            println!(
                "{metric:<48} {value:>18.4} {}",
                v.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }
    }
    if traced {
        let path = out_dir.join(format!("trace_{name}.json"));
        let doc = spans.to_json(name, prov.with("metrics", metrics.clone()));
        match std::fs::write(&path, doc.to_pretty()) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("bench: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let correct = outcome.correct();
    let result = Value::obj()
        .with("correct", correct)
        .with("attempted", outcome.attempted.max(1))
        .with("failed", outcome.failed)
        .with("metrics", metrics);
    println!("{}", result.to_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Re-execute this binary for one workload and pass; returns the child's
/// result object. The child's report is passed through, indented.
fn child(name: &str, args: &Args, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("  {l}");
    }
    let result = json::parse(last).map_err(|e| {
        format!(
            "{name}: child printed no result line ({e}); exit {}",
            output.status
        )
    })?;
    // Exit 1 with a result line is a failed correctness check, carried in
    // the result; anything else without success is a crash.
    if !output.status.success() && output.status.code() != Some(1) {
        return Err(format!("{name}: child exited with {}", output.status));
    }
    Ok(result)
}

/// The runner: every selected workload in its own child process, `--runs`
/// timed passes then one traced pass each, so peak memory, allocator state
/// and leftover threads never leak from one workload into the next.
fn runner(args: &Args) -> ExitCode {
    let selected: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in selected {
        println!("== {name}");
        // `--runs` timed passes, then the traced one.
        let passes: Result<Vec<Value>, String> = (0..=args.runs)
            .map(|i| child(name, args, i == args.runs))
            .collect();
        let (traced, timed) = match passes {
            Ok(mut passes) => (passes.pop().expect("runs + 1 passes"), passes),
            Err(e) => {
                eprintln!("bench: {e}");
                return ExitCode::from(2);
            }
        };
        let sum = |key: &str| -> f64 {
            timed
                .iter()
                .filter_map(|r| r.get(key).and_then(Value::as_f64))
                .sum()
        };
        let correct = timed
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
        all_correct &= correct;
        let mut end_to_end = Value::obj();
        for m in &spec::END_TO_END {
            let samples: Vec<f64> = timed
                .iter()
                .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect();
            let median = if samples.is_empty() {
                f64::NAN
            } else {
                stats::median(&samples)
            };
            if samples.len() >= 2 {
                println!(
                    "  {name} {}: median {median:.4} {} over {} runs, quartile spread {:.1} % of it (bound {:.0} %)",
                    m.name,
                    m.unit,
                    samples.len(),
                    100.0 * stats::spread(&samples),
                    100.0 * m.bound
                );
            }
            end_to_end = end_to_end.with(
                m.name,
                Value::obj()
                    .with("median", median)
                    .with("n", samples.len())
                    .with("unit", m.unit)
                    .with("better", m.better.label())
                    .with("bound", m.bound)
                    .with(
                        "samples",
                        samples.into_iter().map(Value::from).collect::<Vec<_>>(),
                    ),
            );
        }
        workloads.push(
            Value::obj()
                .with("name", name)
                .with("correct", correct)
                .with("attempted", sum("attempted"))
                .with("failed", sum("failed"))
                .with("end_to_end", end_to_end)
                .with(
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Value::Null),
                ),
        );
    }
    let doc = Value::obj()
        .with("benchmark", "aru-benchmark")
        .with(
            "provenance",
            provenance(args.seed, args.seconds)
                .with("runs", args.runs)
                .with("smoke", args.smoke),
        )
        .with("workloads", workloads);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    let written = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.to_pretty()));
    if let Err(e) = written {
        eprintln!("bench: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("result written to {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench: a correctness check failed");
        ExitCode::from(1)
    }
}

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    match load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| compare::compare(&a, &b))
    {
        Ok(v) => {
            print!("{}", v.render());
            if v.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("bench: {e}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    if args.spec {
        print!("{}", spec::benchmark_json().to_pretty());
        return ExitCode::SUCCESS;
    }
    match (&args.workload, args.trace) {
        (Some(name), Some(traced)) => single(name, &args, traced),
        _ => runner(&args),
    }
}
