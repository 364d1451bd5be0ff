//! `bench --smoke` end to end: every workload, both passes, each in its own
//! child process, then `--compare` of the result with itself.
//!
//! Seconds in a release build (`cargo test --release`); a debug build runs
//! the vision kernels some twenty times slower, so there the test is ignored.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "tracker_full_speed",
    "tracker_paced",
    "transport_small_items",
    "sim_scale_1000",
    "sim_paper_cells",
];

fn bench() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_bench"));
    // Run from the package directory, so recorder artifacts and span files
    // land in `benchmark/out/`, which is ignored.
    c.current_dir(env!("CARGO_MANIFEST_DIR"));
    c
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with `cargo test --release`")]
fn smoke_runs_every_workload_and_both_passes() {
    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "out", "smoke_result.json"]
        .iter()
        .collect();
    let run = bench()
        .args(["--smoke", "--seed", "42", "--out"])
        .arg(&out)
        .output()
        .expect("bench starts");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "bench --smoke failed: {}\n{stdout}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let result = std::fs::read_to_string(&out).expect("result file written");
    for w in WORKLOADS {
        assert!(stdout.contains(&format!("== {w}")), "{w} did not run");
        assert!(
            stdout.contains(&format!("# {w}, timed pass")),
            "{w}: no timed pass"
        );
        assert!(
            stdout.contains(&format!("# {w}, traced pass")),
            "{w}: no traced pass"
        );
        assert!(
            stdout.contains(&format!("budget, {w}:")),
            "{w}: no budget table"
        );
        assert!(
            result.contains(&format!("\"name\": \"{w}\"")),
            "{w} missing from the result"
        );
        let trace: PathBuf = [
            env!("CARGO_MANIFEST_DIR"),
            "out",
            &format!("trace_{w}.json"),
        ]
        .iter()
        .collect();
        let spans = std::fs::read_to_string(&trace).expect("span file written");
        assert!(
            spans.contains("\"parent\"") && spans.contains("\"run_id\""),
            "{w}: span fields"
        );
    }
    assert!(result.contains("\"seed\": 42") && result.contains("\"nproc\""));
    assert!(!stdout.contains("check FAIL"), "{stdout}");

    // A result compared with itself is within every bound.
    let cmp = bench()
        .arg("--compare")
        .arg(&out)
        .arg(&out)
        .output()
        .expect("bench starts");
    let text = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{text}");
    assert!(text.contains("compare: PASS"), "{text}");
}

#[test]
fn bad_usage_exits_2_and_prints_no_result() {
    for args in [
        &["--workload", "no_such_workload", "--trace", "0"][..],
        &["--trace", "1"],
        &["--seconds", "0"],
        &["--compare", "only-one.json"],
        &["--frobnicate"],
    ] {
        let out = bench().args(args).output().expect("bench starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let missing = bench()
        .args(["--compare", "/nonexistent/a.json", "/nonexistent/b.json"])
        .output()
        .expect("bench starts");
    assert_eq!(missing.status.code(), Some(2));
}
