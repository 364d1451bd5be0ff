//! `repro` — regenerate the ARU paper's tables and figures.
//!
//! ```text
//! repro [--exp NAME] [--watch] [--quick] [--smoke]
//!       [--duration-secs N] [--seeds N] [--out DIR]
//! repro doctor <journal.jsonl> ...
//! ```
//!
//! `NAME` is one of [`EXPERIMENTS`]; `repro --help` prints the list.
//!
//! Tables are printed with the paper's published values alongside; the
//! Figure 8/9 series are written as CSV into `--out` (default `results/`);
//! a shape-check report summarizes whether the paper's qualitative
//! orderings hold.
//!
//! Figures 6–10 are views of one cell set ([`experiments::cells`]): every
//! (mode, config, seed) cell — including the `--seeds N` expansion — is
//! simulated once, concurrently through [`experiments::driver`]; output
//! ordering and the aggregated statistics are independent of completion
//! order (set `ARU_EXP_THREADS=1` to force serial execution).

use aru_core::ControllerConfig;
use aru_metrics::ExportSink;
use experiments::config::{configs, ExpParams};
use experiments::fig10::Fig10;
use experiments::fig6::Fig6;
use experiments::fig7::Fig7;
use experiments::fig8_9::FigSeries;
use experiments::tables::render_checks;
use experiments::{cells, chaos, doctor, scale, stability, sweep, watch};
use std::path::PathBuf;
use tracker::TrackerConfigId;
use vtime::Micros;

/// Every value `--exp` accepts. `all` is everything up to `scale`;
/// `threads` and `smoke` are diagnostics that run only when named.
const EXPERIMENTS: &str = "all|fig6|fig7|fig8|fig9|fig10|sweep|chaos|stability|scale|threads|smoke";

struct Args {
    exp: String,
    params: ExpParams,
    out: PathBuf,
    /// `--duration-secs` as given (the watch mode defaults to a short
    /// wall-clock run otherwise).
    duration: Option<Micros>,
    watch: bool,
}

/// Print `msg` and exit with the usage status.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut exp = "all".to_string();
    let mut out = PathBuf::from("results");
    // `--quick`/`--smoke` pick the base preset wherever they appear;
    // explicit `--seeds`/`--duration-secs` always win over it.
    let (mut quick, mut smoke) = (false, false);
    let (mut duration, mut seeds) = (None, None);
    let mut watch = false;
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, v: Option<String>| -> String {
        v.unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
    };
    let number = |flag: &str, v: Option<String>| -> u64 {
        let v = value(flag, v);
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} needs a number, got {v}")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => exp = value(&a, it.next()),
            "--quick" => quick = true,
            // CI smoke: quick duration, one seed — cheapest full pass.
            "--smoke" => smoke = true,
            "--watch" => watch = true,
            "--duration-secs" => duration = Some(Micros::from_secs(number(&a, it.next()))),
            "--seeds" => seeds = Some(number(&a, it.next())),
            "--out" => out = PathBuf::from(value(&a, it.next())),
            "--help" | "-h" => {
                println!(
                    "repro [--exp {EXPERIMENTS}] \
                     [--watch] [--quick] [--smoke] [--duration-secs N] [--seeds N] [--out DIR]\n\
                     repro doctor <journal.jsonl> [--baseline J] [--expect codes] [--forbid codes] \
                     [--json PATH]"
                );
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    if !EXPERIMENTS.split('|').any(|name| name == exp) {
        usage_error(&format!(
            "unknown experiment: {exp} (expected {EXPERIMENTS})"
        ));
    }
    let mut params = if quick || smoke {
        ExpParams::quick()
    } else {
        ExpParams::default()
    };
    if smoke {
        params.seeds.truncate(1);
    }
    if let Some(n) = seeds {
        if n == 0 {
            usage_error("--seeds must be at least 1");
        }
        params.seeds = (0..n).map(|i| 2005 + i).collect();
    }
    if let Some(duration) = duration {
        params.duration = duration;
    }
    Args {
        exp,
        params,
        out,
        duration,
        watch,
    }
}

/// A sink for an experiment's telemetry JSONL, next to its CSV. JSONL
/// appends, so start fresh for this invocation.
fn fresh_jsonl_sink(path: PathBuf) -> ExportSink {
    std::fs::remove_file(&path).ok();
    ExportSink {
        prometheus_path: None,
        jsonl_path: Some(path),
    }
}

fn main() {
    // `repro doctor <journal> ...` — postmortem analysis of a persisted
    // flight-recorder journal; its flag grammar is its own (see doctor.rs).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("doctor") {
        std::process::exit(doctor::run_cli(&argv[1..]));
    }

    let args = parse_args();
    std::fs::create_dir_all(&args.out).expect("create output dir");

    if args.watch {
        // Live telemetry table over the threaded tracker (wall-clock run;
        // --duration-secs is wall seconds here, default 10 s).
        let duration = args.duration.unwrap_or(Micros::from_secs(10));
        watch::run_watch(duration, &args.out);
        return;
    }
    if args.exp == "smoke" {
        // CI exporter check: short tracker run, then artifact validation.
        let failures = watch::run_smoke(&args.out);
        for f in &failures {
            eprintln!("smoke FAILED: {f}");
        }
        std::process::exit(if failures.is_empty() { 0 } else { 1 });
    }

    let mut all_checks = Vec::new();
    let want = |name: &str| args.exp == "all" || args.exp == name;
    // What every table experiment leaves behind: its table on stdout, its
    // CSV in `--out`, its shape checks in the final report.
    macro_rules! emit {
        ($fig:expr, $file:expr) => {{
            let fig = &$fig;
            print!("{}", fig.render());
            std::fs::write(args.out.join($file), fig.to_csv()).expect(concat!("write ", $file));
            all_checks.extend(fig.shape_checks());
        }};
    }

    // Figures 6–10 are views of one cell set, simulated once. A lone
    // fig8/fig9 needs only its configuration's first-seed runs.
    let ExpParams { duration, seeds } = &args.params;
    let (one, five) = (TrackerConfigId::OneNode, TrackerConfigId::FiveNodes);
    let paper_cells = match args.exp.as_str() {
        "all" | "fig6" | "fig7" | "fig10" => {
            Some(cells::run(*duration, &configs().map(|(c, _)| c), seeds))
        }
        "fig8" => Some(cells::run(*duration, &[one], &seeds[..1])),
        "fig9" => Some(cells::run(*duration, &[five], &seeds[..1])),
        _ => None,
    };
    if let Some(cells) = &paper_cells {
        if want("fig6") {
            emit!(Fig6::from_cells(cells), "fig6_footprint.csv");
        }
        if want("fig7") {
            emit!(Fig7::from_cells(cells), "fig7_waste.csv");
        }
        for (name, config, file) in [
            ("fig8", one, "fig8_footprint_config1.csv"),
            ("fig9", five, "fig9_footprint_config2.csv"),
        ] {
            if want(name) {
                let fig = FigSeries::from_cells(cells, config);
                let path = args.out.join(file);
                std::fs::write(&path, fig.to_csv(400)).expect("write series csv");
                println!("{}", fig.render_ascii(16, 48));
                println!("{name} series written to {}", path.display());
                all_checks.extend(fig.shape_checks());
            }
        }
        if want("fig10") {
            emit!(Fig10::from_cells(cells), "fig10_perf.csv");
        }
    }
    if want("sweep") {
        emit!(sweep::run(&args.params), "sweep_sensitivity.csv");
    }
    // The chaos crash scenario is also the stability matrix's
    // `(direct, chaos)` cell: simulated once, read by both.
    if want("chaos") || want("stability") {
        let crash = chaos::crash_sim(ControllerConfig::Direct, seeds[0], *duration);
        if want("chaos") {
            let fig = chaos::run(&args.params, &crash);
            emit!(fig, "chaos_faults.csv");
            fig.export_jsonl(&fresh_jsonl_sink(args.out.join("chaos_telemetry.jsonl")))
                .expect("write chaos telemetry jsonl");
            // Flight-recorder journals for `repro doctor` (one per scenario).
            for p in fig.write_journals(&args.out).expect("write chaos journals") {
                println!("chaos journal written to {}", p.display());
            }
        }
        if want("stability") {
            let fig = stability::run(&args.params, &crash);
            emit!(fig, "stability_laws.csv");
            fig.export_jsonl(&fresh_jsonl_sink(
                args.out.join("stability_telemetry.jsonl"),
            ))
            .expect("write stability telemetry jsonl");
            // Per-cell flight-recorder journals for `repro doctor`.
            let journals = fig
                .write_journals(&args.out)
                .expect("write stability journals");
            println!(
                "{} stability journals written to {}",
                journals.len(),
                args.out.display()
            );
        }
    }
    if want("scale") {
        let fig = scale::run(&args.params);
        emit!(fig, "scale_sweep.csv");
        fig.export_jsonl(&fresh_jsonl_sink(args.out.join("scale_telemetry.jsonl")))
            .expect("write scale telemetry jsonl");
    }
    if args.exp == "threads" {
        // Per-stage execution view (not a paper figure; diagnostic). The
        // three runs execute concurrently; output stays in mode order.
        let seed = args.params.seeds[0];
        let duration = args.params.duration;
        let jobs: Vec<_> = experiments::config::modes()
            .into_iter()
            .map(|mode| {
                move || {
                    (
                        mode,
                        experiments::config::run_cell(
                            mode,
                            TrackerConfigId::OneNode,
                            seed,
                            duration,
                        ),
                    )
                }
            })
            .collect();
        for (mode, report) in experiments::driver::run_jobs(jobs) {
            println!("--- {} (config 1) ---", mode.label());
            println!(
                "{}",
                aru_metrics::report::run_header(report.trace.epoch_unix_us(), report.t_end)
            );
            println!(
                "{}",
                aru_metrics::thread_stats::render_thread_stats(
                    &aru_metrics::thread_stats(
                        &report.trace,
                        &aru_metrics::Lineage::analyze(&report.trace)
                    ),
                    &report.topo
                )
            );
            println!(
                "{}",
                aru_metrics::channel_stats::render_channel_stats(
                    &aru_metrics::channel_stats(&report.trace, report.t_end),
                    &report.topo
                )
            );
        }
    }

    println!("{}", render_checks(&all_checks));
    let failed = all_checks.iter().filter(|c| !c.passed).count();
    if failed > 0 {
        eprintln!("{failed} shape check(s) FAILED");
        std::process::exit(1);
    }
}
