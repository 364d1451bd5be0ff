//! `repro`'s command line, driven through the built binary: bad input is a
//! one-line message and exit 2, never an empty report with exit 0 or a
//! panic, and flag order does not change what runs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// A per-test output directory under cargo's integration-test tmpdir.
fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Exit 2, nothing on stdout, exactly one line on stderr mentioning `what`.
fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no report on a usage error");
    assert_eq!(stderr.lines().count(), 1, "one-line message, got: {stderr}");
    assert!(stderr.contains(what), "message names {what}: {stderr}");
}

#[test]
fn unknown_experiment_exits_2() {
    let dir = out_dir("bogus");
    let out = repro(&["--exp", "bogus", "--out", dir.to_str().unwrap()]);
    assert_usage_error(&out, "bogus");
    // The message lists what would have been accepted.
    assert!(String::from_utf8_lossy(&out.stderr).contains("fig10"));
}

#[test]
fn zero_seeds_exits_2() {
    for exp in ["fig7", "fig8", "sweep"] {
        let dir = out_dir(&format!("seeds0-{exp}"));
        let out = repro(&[
            "--exp",
            exp,
            "--quick",
            "--seeds",
            "0",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert_usage_error(&out, "--seeds");
    }
}

#[test]
fn missing_or_non_numeric_flag_value_exits_2() {
    assert_usage_error(&repro(&["--seeds", "x"]), "--seeds");
    assert_usage_error(&repro(&["--duration-secs"]), "--duration-secs");
    assert_usage_error(&repro(&["--exp"]), "--exp");
}

#[test]
fn preset_position_does_not_discard_explicit_flags() {
    let fig7_csv = |name: &str, flags: &[&str]| {
        let dir = out_dir(name);
        let mut args = vec!["--exp", "fig7", "--out", dir.to_str().unwrap()];
        args.extend_from_slice(flags);
        let out = repro(&args);
        // Shape checks may fail on a run this short (exit 1); usage must not.
        assert_ne!(
            out.status.code(),
            Some(2),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.join("fig7_waste.csv")).expect("fig7 csv written")
    };
    let explicit = ["--seeds", "3", "--duration-secs", "4"];
    let preset_last = fig7_csv("preset-last", &[&explicit[..], &["--quick"]].concat());
    let preset_first = fig7_csv("preset-first", &[&["--quick"], &explicit[..]].concat());
    assert_eq!(preset_last, preset_first);
    // ... and the explicit seed count really took effect.
    let two_seeds = fig7_csv("two-seeds", &["--quick", "--duration-secs", "4"]);
    assert_ne!(preset_first, two_seeds);
}
