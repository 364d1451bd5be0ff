//! Golden figures: the paper tables and the doctor's reports, pinned to
//! constants.
//!
//! `sim_golden.rs` pins the trace the figures fold; this file pins the
//! folds themselves — `Lineage`, `WasteReport`, footprint/IGC and
//! `PerfReport` as the Figure 6–10 CSVs print them, `repro doctor
//! --json` over the two journals CI's chaos and stability lanes diagnose,
//! and every control law's trajectory in the stability matrix.
//! A postmortem or recording change that is meant to be invisible passes
//! this file unmodified; one that is not has to say so by editing a
//! constant, in a commit that says why. The constants were recorded at
//! a432560.

use aru_core::ControllerConfig;
use aru_metrics::Telemetry;
use experiments::config::{configs, ExpParams};
use experiments::fig10::Fig10;
use experiments::fig6::Fig6;
use experiments::fig7::Fig7;
use experiments::fig8_9::FigSeries;
use experiments::{cells, chaos, doctor, stability};
use std::fmt::Write;
use std::path::Path;
use std::sync::OnceLock;
use tracker::TrackerConfigId;

/// FNV-1a over the bytes a figure or report writes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `repro --exp all --quick`'s figure files: Figure 6, 7 and 10 CSVs and
/// the Figure 8/9 series, in that order. Last, every cell's reports at
/// full precision, which the CSVs round: a change in summation order
/// shows there first.
#[test]
fn quick_figures_are_pinned() {
    let p = ExpParams::quick();
    let cells = cells::run(p.duration, &configs().map(|(c, _)| c), &p.seeds);
    let series = |config| FigSeries::from_cells(&cells, config).to_csv(400);
    let mut reports = String::new();
    for c in cells.cells() {
        writeln!(
            reports,
            "{:?} {:?} {:?} {:?}",
            c.footprint, c.igc, c.waste, c.perf
        )
        .unwrap();
    }
    let got = [
        fnv(Fig6::from_cells(&cells).to_csv().as_bytes()),
        fnv(Fig7::from_cells(&cells).to_csv().as_bytes()),
        fnv(series(TrackerConfigId::OneNode).as_bytes()),
        fnv(series(TrackerConfigId::FiveNodes).as_bytes()),
        fnv(Fig10::from_cells(&cells).to_csv().as_bytes()),
        fnv(reports.as_bytes()),
    ];
    assert_eq!(got, GOLDEN_FIGURES);
}

/// Write `telemetry`'s journal as `name` under `dir` and run `repro doctor
/// <journal> --expect <expect> --json <out>` on it; the hash of `out`. The
/// journal's epoch is 0, since the report prints it.
fn doctor_json(dir: &Path, name: &str, telemetry: &Telemetry, expect: &str) -> u64 {
    let journal = dir.join(format!("{name}.journal.jsonl"));
    let json = dir.join(format!("{name}.doctor.json"));
    telemetry
        .journal
        .write_snapshot_file(&journal, "sim", 0)
        .expect("write journal");
    let args = [
        journal.display().to_string(),
        "--expect".into(),
        expect.into(),
        "--json".into(),
        json.display().to_string(),
    ];
    assert_eq!(
        doctor::run_cli(&args),
        0,
        "{name}: doctor expected {expect}"
    );
    fnv(&std::fs::read(&json).expect("doctor wrote its report"))
}

/// The `--smoke` chaos crash run and the stability matrix built on it,
/// simulated once for the two tests that read them.
fn smoke_matrix() -> &'static (Telemetry, stability::Stability) {
    static RUN: OnceLock<(Telemetry, stability::Stability)> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut smoke = ExpParams::quick();
        smoke.seeds.truncate(1);
        let crash = chaos::crash_sim(ControllerConfig::Direct, smoke.seeds[0], smoke.duration);
        let matrix = stability::run(&smoke, &crash);
        (crash.telemetry, matrix)
    })
}

/// The doctor on what CI's lanes diagnose at `--smoke`: the chaos crash
/// journal (crash and faults flagged) and the Direct law's volatile-link
/// journal (oscillation flagged).
#[test]
fn doctor_reports_are_pinned() {
    let (crash, matrix) = smoke_matrix();
    let volatile = matrix
        .cells
        .iter()
        .find(|c| c.law == "direct" && c.scenario == "volatile_link")
        .expect("the matrix has the Direct volatile-link cell");
    let dir = std::env::temp_dir().join(format!("aru-figures-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let got = [
        doctor_json(&dir, "chaos_crash", crash, "crash,fault_injection"),
        doctor_json(
            &dir,
            "stability_direct_volatile_link",
            &volatile.telemetry,
            "oscillation",
        ),
    ];
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(got, GOLDEN_DOCTOR);
}

/// Every control law's trajectory in the `--smoke` stability matrix:
/// `stability_laws.csv`, each cell's `StabilityReport` at full precision
/// with its decision and clamped counts, and each cell's journal (epoch
/// 0) — every pace decision the law took, in order. A law rewrite meant
/// to be invisible passes this unmodified.
#[test]
fn stability_matrix_is_pinned() {
    let (_, matrix) = smoke_matrix();
    let mut reports = String::new();
    for c in &matrix.cells {
        writeln!(
            reports,
            "{} {} {:?} {} {}",
            c.law, c.scenario, c.report, c.decisions, c.clamped
        )
        .unwrap();
    }
    let mut got = vec![fnv(matrix.to_csv().as_bytes()), fnv(reports.as_bytes())];
    for c in &matrix.cells {
        let jsonl = c.telemetry.journal.snapshot().to_jsonl("sim", 0);
        got.push(fnv(jsonl.as_bytes()));
    }
    assert_eq!(got, GOLDEN_STABILITY);
}

const GOLDEN_FIGURES: [u64; 6] = [
    14590919992168433529,
    17664614703705367339,
    3989000494472473197,
    138786517736873874,
    14703967015756227497,
    3259710142154462698,
];
const GOLDEN_DOCTOR: [u64; 2] = [4841508166720960872, 18066418795252540774];
const GOLDEN_STABILITY: [u64; 8] = [
    2079859906591136434,
    6471054725552500948,
    9321812978692810944,
    7286699754829032659,
    15692149912190115084,
    17545051534134838892,
    16616030128574292634,
    11165435553036151910,
];
