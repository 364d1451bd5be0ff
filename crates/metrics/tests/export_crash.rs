//! Crash-safety of the export discipline: kill a process mid-write and
//! assert the artifacts on disk are never torn.
//!
//! `ExportSink` rewrites the Prometheus scrape and the flight-recorder
//! journal with the tmp+rename discipline (write a `.tmp` sibling, rename
//! over the target), so a reader — or a crash — must only ever observe a
//! complete previous version or a complete new version. The JSONL stream
//! appends, so its guarantee is weaker by design: every line but the
//! final one must be complete (a kill can truncate at most the line being
//! appended).
//!
//! The test spawns its own binary as a child (filtered to
//! [`child_writer_loop`], armed by `ARU_EXPORT_CRASH_DIR`), lets it write
//! snapshots in a tight loop, SIGKILLs it mid-flight, and then validates
//! everything left on disk.

use aru_metrics::export::validate_prometheus_text;
use aru_metrics::journal::Journal;
use aru_metrics::{load_journal, ExportSink, JournalKind, Registry};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use vtime::SimTime;

/// Child body: loop forever rewriting every artifact until killed. Runs
/// (and returns immediately) as an ordinary no-op test unless the parent
/// armed it via the env var.
#[test]
fn child_writer_loop() {
    let Ok(dir) = std::env::var("ARU_EXPORT_CRASH_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let reg = Registry::new();
    let journal = Journal::new();
    let shard = journal.shard();
    let sink = ExportSink {
        prometheus_path: Some(dir.join("telemetry.prom")),
        jsonl_path: Some(dir.join("telemetry.jsonl")),
    };
    // Label values with every escape-worthy character, so a torn write
    // would have plenty of chances to corrupt the scrape syntax.
    let c = reg.counter(
        "aru_crash_test_total",
        &[("label", "quote \" slash \\ newline \n done")],
    );
    let journal_path = dir.join("run.journal.jsonl");
    let mut i = 0u64;
    loop {
        c.inc();
        reg.gauge("aru_crash_test_gauge", &[]).set(i as f64);
        shard.record(
            SimTime(i),
            aru_core::NodeId(1),
            JournalKind::Occupancy {
                len: i,
                watermark: 1024,
                high: i >= 1024,
            },
        );
        let _ = sink.write_snapshot(&reg.snapshot(), 7, 1_700_000_000_000_000 + i);
        let _ = journal.write_snapshot_file(&journal_path, "threaded", 7);
        i += 1;
    }
}

#[test]
fn killed_exporter_never_leaves_torn_artifacts() {
    let dir = std::env::temp_dir().join(format!("aru-export-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(&exe)
        .args(["--exact", "child_writer_loop"])
        .env("ARU_EXPORT_CRASH_DIR", &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child writer");

    // Wait until the child has produced every artifact at least once,
    // then let it keep rewriting a little longer so the kill lands
    // mid-write with decent odds.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if dir.join("run.journal.jsonl").exists()
            && dir.join("telemetry.prom").exists()
            && dir.join("telemetry.jsonl").exists()
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(200));
    child.kill().expect("kill child");
    child.wait().expect("reap child");

    // Atomic artifacts: whatever version is on disk must be complete.
    let prom = std::fs::read_to_string(dir.join("telemetry.prom")).expect("prom exists");
    validate_prometheus_text(&prom).expect("scrape is valid after a mid-write kill");
    assert!(
        prom.contains("aru_crash_test_total"),
        "scrape has the series"
    );

    let j = load_journal(&dir.join("run.journal.jsonl")).expect("journal loads after kill");
    assert_eq!(j.source, "threaded");
    assert_eq!(j.skipped, 0, "no torn journal lines — tmp+rename held");
    assert!(!j.snapshot.records.is_empty(), "journal carries records");

    // Append-only stream: every line but (possibly) the killed tail is a
    // complete JSON object.
    let jsonl = std::fs::read_to_string(dir.join("telemetry.jsonl")).expect("jsonl exists");
    let lines: Vec<&str> = jsonl.split('\n').collect();
    assert!(lines.len() > 1, "child appended at least one snapshot");
    for line in &lines[..lines.len() - 1] {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "complete JSONL line, got: {line:?}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
