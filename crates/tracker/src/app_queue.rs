//! The tracker as a queue-backed work pipeline, runnable on either queue
//! backend (mutex oracle or lock-free ring).
//!
//! Where [`crate::app_threaded`] reproduces Figure 5's channel dataflow
//! (windowed `get_latest` / `get_exact` joins over timestamp sets — a
//! shape only channels can serve), this module wires the same kernels as
//! a *work queue* pipeline: every frame is processed exactly once, in
//! FIFO order, through destructive queue gets:
//!
//! ```text
//! digitizer ──Q1: Frame──▶ detector ──Q2: TargetLocation──▶ gui
//! ```
//!
//! The detector stage fuses change detection, histogram construction, and
//! both color models' target detection into one pass over the frame — the
//! tracker's full per-frame compute, so queue backpressure and ARU pacing
//! act on genuinely data-dependent service times.
//!
//! The pipeline is parameterized by [`stampede::QueueBackend`]: the same
//! graph runs on the mutex queue and on the lock-free ring, which is what
//! the differential tests here exercise — delivery, detection accuracy,
//! ARU backlog control, and supervised restarts must hold on both.

use crate::app_threaded::StageDelays;
use crate::graph::extra;
use crate::kernels::{build_histogram, detect_target, subtract_background};
use crate::model::ColorModel;
use crate::types::{Frame, TargetLocation};
use crate::video::SyntheticVideo;
use aru_core::{AruConfig, RetryPolicy};
use aru_gc::GcMode;
use parking_lot::Mutex;
use stampede::{BuildError, QueueBackend, Runtime, RuntimeBuilder, Step};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vtime::Timestamp;

/// Parameters for a queue-backed tracker run.
#[derive(Debug, Clone)]
pub struct QueueTrackerParams {
    pub aru: AruConfig,
    pub gc: GcMode,
    pub seed: u64,
    /// Which queue implementation backs both pipeline queues.
    pub backend: QueueBackend,
    /// Ring capacity for the lock-free backend's frame queue — also the
    /// hard backpressure bound when ARU is disabled.
    pub capacity: usize,
    /// Extra per-stage compute delays (same semantics as the threaded app).
    pub delays: StageDelays,
    /// Supervised-restart policy for the task threads.
    pub retry: RetryPolicy,
    /// Crash the digitizer once at this frame number (restart testing).
    pub crash_digitizer_at: Option<u64>,
}

impl QueueTrackerParams {
    #[must_use]
    pub fn new(aru: AruConfig, backend: QueueBackend) -> Self {
        QueueTrackerParams {
            aru,
            gc: GcMode::Ref,
            seed: 1,
            backend,
            capacity: 64,
            delays: StageDelays::default(),
            retry: RetryPolicy::none(),
            crash_digitizer_at: None,
        }
    }
}

/// A built queue-backed tracker plus live observation hooks.
pub struct QueueTracker {
    pub runtime: Runtime,
    /// Detections observed by the GUI task, in arrival order.
    pub detections: Arc<Mutex<Vec<TargetLocation>>>,
    /// The video source (for ground-truth comparison).
    pub video: SyntheticVideo,
    /// Frames the digitizer has put (sampling `produced - consumed` gives
    /// the live frame backlog ARU is supposed to keep small).
    pub frames_produced: Arc<AtomicU64>,
    /// Frames the detector has drained.
    pub frames_consumed: Arc<AtomicU64>,
}

impl QueueTracker {
    /// Current frame backlog: frames put but not yet drained.
    #[must_use]
    pub fn frame_backlog(&self) -> u64 {
        self.frames_produced
            .load(Ordering::Relaxed)
            .saturating_sub(self.frames_consumed.load(Ordering::Relaxed))
    }
}

/// Wire the 3-thread / 2-queue tracker pipeline onto the threaded runtime
/// with the requested queue backend.
pub fn build_queue_tracker(params: &QueueTrackerParams) -> Result<QueueTracker, BuildError> {
    assert!(params.capacity > 0, "queue capacity must be positive");
    let video = SyntheticVideo::two_person_scene(params.seed);
    let background = Arc::new(video.background_frame());
    let models = ColorModel::scene_models(&video);
    let detections: Arc<Mutex<Vec<TargetLocation>>> = Arc::new(Mutex::new(Vec::new()));
    let frames_produced = Arc::new(AtomicU64::new(0));
    let frames_consumed = Arc::new(AtomicU64::new(0));

    let backend = match params.backend {
        QueueBackend::Mutex => QueueBackend::Mutex,
        QueueBackend::LockFree { .. } => QueueBackend::LockFree {
            capacity: params.capacity,
        },
    };
    let mut b = RuntimeBuilder::new(params.aru.clone(), params.gc)
        .with_queue_backend(backend)
        .with_retry_policy(params.retry);

    let q_frames = b.queue::<Frame>("Q1-frames");
    let q_locs = b.queue::<TargetLocation>("Q2-locations");

    let t_dig = b.thread("digitizer");
    let t_det = b.thread("detector");
    let t_gui = b.thread("gui");

    // digitizer: renders frames and pushes them through Q1. ARU paces this
    // loop from the feedback the puts return; without ARU only the ring
    // capacity (lock-free) bounds it.
    let mut out_frames = b.connect_queue_out(t_dig, &q_frames)?;
    {
        let video = video.clone();
        let produced = Arc::clone(&frames_produced);
        let d = params.delays.digitizer;
        let crash_at = params.crash_digitizer_at;
        let mut crashed = false;
        let mut ts = Timestamp::ZERO;
        b.spawn(t_dig, move |ctx| {
            if crash_at == Some(ts.raw()) && !crashed {
                crashed = true;
                panic!("injected digitizer crash at frame {}", ts.raw());
            }
            let frame = video.frame(ts.raw());
            extra(d);
            out_frames.put(ctx, ts, frame)?;
            produced.fetch_add(1, Ordering::Relaxed);
            ts = ts.next();
            Ok(Step::Continue)
        });
    }

    // detector: drains frames exactly once and runs the tracker's full
    // per-frame compute — background subtraction, histogram construction,
    // and target detection for both color models. Emits two location
    // records per frame (one per model) at distinct timestamps.
    let mut in_frames = b.connect_queue_in(&q_frames, t_det)?;
    let mut out_locs = b.connect_queue_out(t_det, &q_locs)?;
    {
        let background = Arc::clone(&background);
        let consumed = Arc::clone(&frames_consumed);
        let d = params.delays.target_detection;
        b.spawn(t_det, move |ctx| {
            let frame = in_frames.get(ctx)?;
            // Counted as drained before either record is put: a stop that
            // lands between the two puts must not leave a delivered record
            // without its frame.
            consumed.fetch_add(1, Ordering::Relaxed);
            let mask = subtract_background(&background, &frame.value);
            let hist = build_histogram(&frame.value);
            let locs: Vec<(Timestamp, TargetLocation)> = models
                .iter()
                .enumerate()
                .map(|(m, model)| {
                    let loc = detect_target(&frame.value, &mask, &hist, model);
                    (Timestamp(frame.ts.raw() * 2 + m as u64), loc)
                })
                .collect();
            extra(d);
            for (ts, loc) in locs {
                out_locs.put(ctx, ts, loc)?;
            }
            Ok(Step::Continue)
        });
    }

    // GUI sink: drains location records and logs them.
    let mut in_locs = b.connect_queue_in(&q_locs, t_gui)?;
    {
        let detections = Arc::clone(&detections);
        let d = params.delays.gui;
        b.spawn(t_gui, move |ctx| {
            let loc = in_locs.get(ctx)?;
            extra(d);
            detections.lock().push(*loc.value);
            ctx.emit_output(loc.ts);
            Ok(Step::Continue)
        });
    }

    Ok(QueueTracker {
        runtime: b.build()?,
        detections,
        video,
        frames_produced,
        frames_consumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::check_accuracy;
    use std::time::Duration;
    use vtime::Micros;

    /// End-to-end on both backends: frames flow digitizer → detector →
    /// GUI exactly once and detections land near ground truth.
    #[test]
    fn queue_tracker_end_to_end_on_both_backends() {
        for backend in [QueueBackend::Mutex, QueueBackend::lock_free()] {
            let params = QueueTrackerParams::new(AruConfig::aru_min(), backend);
            let tracker = build_queue_tracker(&params).unwrap();
            let report = tracker.runtime.run_for(Micros::from_millis(1200)).unwrap();
            assert!(
                report.outputs() > 2,
                "{backend:?}: outputs {}",
                report.outputs()
            );
            let checked = check_accuracy(&tracker.video, &tracker.detections.lock());
            assert!(checked > 0, "{backend:?}: no positive detections");
            // Exactly-once accounting: every drained frame yields one
            // detection record per color model.
            let consumed = tracker.frames_consumed.load(Ordering::Relaxed);
            let dets = tracker.detections.lock().len() as u64;
            assert!(
                dets <= consumed * 2,
                "{backend:?}: {dets} detections from {consumed} frames"
            );
        }
    }

    /// The ARU claim on the lock-free backend, measured without the
    /// lineage trace (which the lock-free queue intentionally does not
    /// record): with ARU the digitizer is paced to the detector and the
    /// frame backlog stays far below the ring capacity; without it the
    /// producer floods until ring backpressure is the only limit.
    #[test]
    fn queue_tracker_aru_bounds_backlog_on_lockfree_backend() {
        let run = |aru: AruConfig| {
            let mut params = QueueTrackerParams::new(aru, QueueBackend::lock_free());
            params.delays.target_detection = Micros::from_millis(25);
            let tracker = build_queue_tracker(&params).unwrap();
            let produced = Arc::clone(&tracker.frames_produced);
            let consumed = Arc::clone(&tracker.frames_consumed);
            let running = tracker.runtime.start();
            let mut max_backlog = 0;
            for _ in 0..120 {
                std::thread::sleep(Duration::from_millis(10));
                let backlog = produced
                    .load(Ordering::Relaxed)
                    .saturating_sub(consumed.load(Ordering::Relaxed));
                max_backlog = max_backlog.max(backlog);
            }
            running.stop().unwrap();
            max_backlog
        };
        let base = run(AruConfig::disabled());
        let aru = run(AruConfig::aru_min());
        assert!(
            base >= 32,
            "baseline never built a backlog (max {base}); the experiment says nothing"
        );
        assert!(
            aru < base / 2,
            "ARU backlog {aru} not well below baseline {base}"
        );
    }

    /// Supervised restart over the lock-free queue: an injected digitizer
    /// crash is caught, the task restarts under the retry policy, and the
    /// pipeline keeps delivering — items already in the ring survive the
    /// crash window.
    #[test]
    fn queue_tracker_survives_digitizer_crash_on_lockfree_backend() {
        let mut params = QueueTrackerParams::new(AruConfig::aru_min(), QueueBackend::lock_free());
        params.retry = RetryPolicy::constant(3, Micros::from_millis(5));
        params.crash_digitizer_at = Some(2);
        let tracker = build_queue_tracker(&params).unwrap();
        let report = tracker.runtime.run_for(Micros::from_millis(1200)).unwrap();
        assert!(report.outputs() > 2, "outputs {}", report.outputs());
        // Frames from both sides of the crash made it through: more frames
        // than the pre-crash prefix alone could supply.
        let produced = tracker.frames_produced.load(Ordering::Relaxed);
        assert!(
            produced > 2,
            "digitizer never resumed (produced {produced})"
        );
        check_accuracy(&tracker.video, &tracker.detections.lock());
    }
}
