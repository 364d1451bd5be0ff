//! `repro` — regenerate the ARU paper's tables and figures.
//!
//! ```text
//! repro [--exp all|fig6|fig7|fig8|fig9|fig10] [--quick]
//!       [--duration-secs N] [--seeds N] [--out DIR]
//! ```
//!
//! Tables are printed with the paper's published values alongside; the
//! Figure 8/9 series are written as CSV into `--out` (default `results/`);
//! a shape-check report summarizes whether the paper's qualitative
//! orderings hold.
//!
//! Every (mode, config, seed) cell — including the `--seeds N` expansion —
//! runs concurrently through [`experiments::driver`]; output ordering and
//! the aggregated statistics are independent of completion order (set
//! `ARU_EXP_THREADS=1` to force serial execution).

use experiments::config::ExpParams;
use experiments::tables::render_checks;
use experiments::{chaos, doctor, fig10, fig6, fig7, fig8_9, scale, stability, sweep, watch};
use std::path::PathBuf;
use tracker::TrackerConfigId;
use vtime::Micros;

struct Args {
    exp: String,
    params: ExpParams,
    out: PathBuf,
    /// Wall-clock duration explicitly set via `--duration-secs` (the
    /// watch mode defaults to a short run otherwise).
    duration_set: bool,
    watch: bool,
}

fn parse_args() -> Args {
    let mut exp = "all".to_string();
    let mut params = ExpParams::default();
    let mut out = PathBuf::from("results");
    let mut duration_set = false;
    let mut watch = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => exp = it.next().expect("--exp needs a value"),
            "--quick" => params = ExpParams::quick(),
            // CI smoke: quick duration, one seed — cheapest full pass.
            "--smoke" => {
                params = ExpParams::quick();
                params.seeds.truncate(1);
            }
            "--watch" => watch = true,
            "--duration-secs" => {
                let v: u64 = it
                    .next()
                    .expect("--duration-secs needs a value")
                    .parse()
                    .expect("numeric duration");
                params.duration = Micros::from_secs(v);
                duration_set = true;
            }
            "--seeds" => {
                let n: u64 = it
                    .next()
                    .expect("--seeds needs a value")
                    .parse()
                    .expect("numeric seed count");
                params.seeds = (0..n).map(|i| 2005 + i).collect();
            }
            "--out" => out = PathBuf::from(it.next().expect("--out needs a value")),
            "--help" | "-h" => {
                println!(
                    "repro [--exp all|fig6|fig7|fig8|fig9|fig10|sweep|chaos|stability|scale|threads|smoke] \
                     [--watch] [--quick] [--smoke] [--duration-secs N] [--seeds N] [--out DIR]\n\
                     repro doctor <journal.jsonl> [--baseline J] [--expect codes] [--forbid codes] \
                     [--json PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    Args {
        exp,
        params,
        out,
        duration_set,
        watch,
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
        let duration = if args.duration_set {
            args.params.duration
        } else {
            Micros::from_secs(10)
        };
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

    if want("fig6") {
        let fig = fig6::run(&args.params);
        print!("{}", fig.render());
        std::fs::write(args.out.join("fig6_footprint.csv"), fig.to_csv())
            .expect("write fig6 csv");
        all_checks.extend(fig.shape_checks());
    }
    if want("fig7") {
        let fig = fig7::run(&args.params);
        print!("{}", fig.render());
        std::fs::write(args.out.join("fig7_waste.csv"), fig.to_csv())
            .expect("write fig7 csv");
        all_checks.extend(fig.shape_checks());
    }
    if want("fig8") {
        let fig = fig8_9::run(TrackerConfigId::OneNode, &args.params);
        let path = args.out.join("fig8_footprint_config1.csv");
        std::fs::write(&path, fig.to_csv(400)).expect("write fig8 csv");
        println!("{}", fig.render_ascii(16, 48));
        println!("fig8 series written to {}", path.display());
        all_checks.extend(fig.shape_checks());
    }
    if want("fig9") {
        let fig = fig8_9::run(TrackerConfigId::FiveNodes, &args.params);
        let path = args.out.join("fig9_footprint_config2.csv");
        std::fs::write(&path, fig.to_csv(400)).expect("write fig9 csv");
        println!("{}", fig.render_ascii(16, 48));
        println!("fig9 series written to {}", path.display());
        all_checks.extend(fig.shape_checks());
    }
    if want("fig10") {
        let fig = fig10::run(&args.params);
        print!("{}", fig.render());
        std::fs::write(args.out.join("fig10_perf.csv"), fig.to_csv())
            .expect("write fig10 csv");
        all_checks.extend(fig.shape_checks());
    }
    if want("sweep") {
        let fig = sweep::run(&args.params);
        print!("{}", fig.render());
        std::fs::write(args.out.join("sweep_sensitivity.csv"), fig.to_csv())
            .expect("write sweep csv");
        all_checks.extend(fig.shape_checks());
    }
    if want("chaos") {
        let fig = chaos::run(&args.params);
        print!("{}", fig.render());
        std::fs::write(args.out.join("chaos_faults.csv"), fig.to_csv())
            .expect("write chaos csv");
        // Fault telemetry through the exporter serializers, next to the
        // CSV. JSONL appends, so start fresh for this invocation.
        let jsonl = args.out.join("chaos_telemetry.jsonl");
        std::fs::remove_file(&jsonl).ok();
        let sink = aru_metrics::ExportSink {
            prometheus_path: None,
            jsonl_path: Some(jsonl),
        };
        fig.export_jsonl(&sink).expect("write chaos telemetry jsonl");
        // Flight-recorder journals for `repro doctor` (one per scenario).
        for p in fig.write_journals(&args.out).expect("write chaos journals") {
            println!("chaos journal written to {}", p.display());
        }
        all_checks.extend(fig.shape_checks());
    }
    if want("stability") {
        let fig = stability::run(&args.params);
        print!("{}", fig.render());
        std::fs::write(args.out.join("stability_laws.csv"), fig.to_csv())
            .expect("write stability csv");
        // Stability metrics through the exporter serializers (PR-5 shapes),
        // next to the CSV. JSONL appends, so start fresh for this invocation.
        let jsonl = args.out.join("stability_telemetry.jsonl");
        std::fs::remove_file(&jsonl).ok();
        let sink = aru_metrics::ExportSink {
            prometheus_path: None,
            jsonl_path: Some(jsonl),
        };
        fig.export_jsonl(&sink)
            .expect("write stability telemetry jsonl");
        // Per-cell flight-recorder journals for `repro doctor`.
        let journals = fig
            .write_journals(&args.out)
            .expect("write stability journals");
        println!("{} stability journals written to {}", journals.len(), args.out.display());
        all_checks.extend(fig.shape_checks());
    }
    if want("scale") {
        let fig = scale::run(&args.params);
        print!("{}", fig.render());
        std::fs::write(args.out.join("scale_sweep.csv"), fig.to_csv())
            .expect("write scale csv");
        // Per-cell telemetry through the exporter serializers, next to the
        // CSV. JSONL appends, so start fresh for this invocation.
        let jsonl = args.out.join("scale_telemetry.jsonl");
        std::fs::remove_file(&jsonl).ok();
        let sink = aru_metrics::ExportSink {
            prometheus_path: None,
            jsonl_path: Some(jsonl),
        };
        fig.export_jsonl(&sink).expect("write scale telemetry jsonl");
        all_checks.extend(fig.shape_checks());
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
