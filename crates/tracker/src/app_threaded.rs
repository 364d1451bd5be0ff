//! The tracker on the threaded Stampede runtime — real pixel computation.
//!
//! Every stage runs its actual kernel on the synthetic video, so iteration
//! times are genuinely data-dependent. Optional per-stage extra delays let
//! examples emulate the paper's much slower 2005 hardware without burning
//! CPU (the delays count as execution time, not blocking — exactly like a
//! slower kernel).

use crate::graph::{extra, C1, C2, C3, C4, C5, C6, C7, C8, C9, CHANNELS, STAGES};
use crate::kernels::{build_histogram, detect_target, subtract_background};
use crate::model::ColorModel;
use crate::types::{Frame, HistModel, MotionMask, TargetLocation};
use crate::video::SyntheticVideo;
use aru_core::AruConfig;
use aru_gc::GcMode;
use parking_lot::Mutex;
use stampede::{BuildError, FanOut, Runtime, RuntimeBuilder, Step};
use std::sync::Arc;
use vtime::{Micros, Timestamp};

/// Optional per-stage extra compute delay (emulates slower hardware).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageDelays {
    pub digitizer: Micros,
    pub change_detection: Micros,
    pub histogram: Micros,
    pub target_detection: Micros,
    pub gui: Micros,
}

/// Parameters for a threaded tracker run.
#[derive(Debug, Clone)]
pub struct ThreadedTrackerParams {
    pub aru: AruConfig,
    pub gc: GcMode,
    pub seed: u64,
    pub delays: StageDelays,
    /// `Some((sink, interval))` enables the runtime's periodic telemetry
    /// exporter (Prometheus text + JSONL) for this run.
    pub export: Option<(aru_metrics::ExportSink, Micros)>,
    /// `Some(path)` persists the flight-recorder journal (DESIGN.md §16)
    /// there at clean stop, plus a `.crash.jsonl` sibling on escalation.
    pub journal: Option<std::path::PathBuf>,
}

impl ThreadedTrackerParams {
    #[must_use]
    pub fn new(aru: AruConfig) -> Self {
        ThreadedTrackerParams {
            aru,
            gc: GcMode::Dgc,
            seed: 1,
            delays: StageDelays::default(),
            export: None,
            journal: None,
        }
    }

    /// Enable the runtime's periodic telemetry exporter.
    #[must_use]
    pub fn with_export(mut self, sink: aru_metrics::ExportSink, interval: Micros) -> Self {
        self.export = Some((sink, interval));
        self
    }

    /// Persist the flight-recorder journal for `repro doctor`.
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }
}

/// A built tracker pipeline plus live observation hooks.
pub struct ThreadedTracker {
    /// The ready-to-run pipeline.
    pub runtime: Runtime,
    /// Detections observed by the GUI task, in display order.
    pub detections: Arc<Mutex<Vec<TargetLocation>>>,
    /// The video source (for ground-truth comparison).
    pub video: SyntheticVideo,
}

/// Wire the full 6-thread / 9-channel tracker (Figure 5) onto the threaded
/// runtime: the paper's configuration 1, every task in one process
/// (configuration 2 is `build_sim`'s). Names come from
/// `graph::STAGES`/`CHANNELS`; the connections are typed, so they are
/// spelled out here and `tests/wiring.rs` holds them to the table (edges
/// and per-node order). The stages that broadcast one result to several
/// channels put through a [`FanOut`]: one `Arc`, one clock read and one
/// feedback time for the whole bundle.
pub fn build_threaded(params: &ThreadedTrackerParams) -> Result<ThreadedTracker, BuildError> {
    let video = SyntheticVideo::two_person_scene(params.seed);
    let background = Arc::new(video.background_frame());
    let models = ColorModel::scene_models(&video);
    let detections: Arc<Mutex<Vec<TargetLocation>>> = Arc::new(Mutex::new(Vec::new()));

    let mut b = RuntimeBuilder::new(params.aru.clone(), params.gc);
    if let Some((sink, interval)) = params.export.clone() {
        b = b.with_export(sink, interval);
    }
    if let Some(path) = params.journal.clone() {
        b = b.with_journal(path);
    }
    let name = |c: usize| CHANNELS[c].0;
    let c1 = b.channel::<Frame>(name(C1));
    let c2 = b.channel::<Frame>(name(C2));
    let c3 = b.channel::<Frame>(name(C3));
    let c4 = b.channel::<MotionMask>(name(C4));
    let c5 = b.channel::<MotionMask>(name(C5));
    let c6 = b.channel::<TargetLocation>(name(C6));
    let c7 = b.channel::<HistModel>(name(C7));
    let c8 = b.channel::<HistModel>(name(C8));
    let c9 = b.channel::<TargetLocation>(name(C9));

    let [t_dig, t_cd, t_hist, t_td1, t_td2, t_gui] = STAGES.map(|s| b.thread(s.name));

    // digitizer
    let out_frames = FanOut::new(vec![
        b.connect_out(t_dig, &c1)?,
        b.connect_out(t_dig, &c2)?,
        b.connect_out(t_dig, &c3)?,
    ]);
    {
        let video = video.clone();
        let d = params.delays.digitizer;
        let mut ts = Timestamp::ZERO;
        b.spawn(t_dig, move |ctx| {
            let frame = video.frame(ts.raw());
            extra(d);
            out_frames.put(ctx, ts, frame)?;
            ts = ts.next();
            Ok(Step::Continue)
        });
    }

    // change detection
    let mut in_c1 = b.connect_in(&c1, t_cd)?;
    let out_masks = FanOut::new(vec![b.connect_out(t_cd, &c4)?, b.connect_out(t_cd, &c5)?]);
    {
        let background = Arc::clone(&background);
        let d = params.delays.change_detection;
        b.spawn(t_cd, move |ctx| {
            let frame = in_c1.get_latest(ctx)?;
            if ctx.should_skip(frame.ts) {
                return Ok(Step::Continue);
            }
            let mask = subtract_background(&background, &frame.value);
            extra(d);
            out_masks.put(ctx, frame.ts, mask)?;
            Ok(Step::Continue)
        });
    }

    // histogram
    let mut in_c2 = b.connect_in(&c2, t_hist)?;
    let out_hists = FanOut::new(vec![
        b.connect_out(t_hist, &c7)?,
        b.connect_out(t_hist, &c8)?,
    ]);
    {
        let d = params.delays.histogram;
        b.spawn(t_hist, move |ctx| {
            let frame = in_c2.get_latest(ctx)?;
            if ctx.should_skip(frame.ts) {
                return Ok(Step::Continue);
            }
            let hist = build_histogram(&frame.value);
            extra(d);
            out_hists.put(ctx, frame.ts, hist)?;
            Ok(Step::Continue)
        });
    }

    // the two target-detection threads (one per color model)
    for (mask_ch, model_ch, loc_ch, thread, model) in [
        (&c4, &c7, &c6, t_td1, models[0].clone()),
        (&c5, &c8, &c9, t_td2, models[1].clone()),
    ] {
        let mut in_mask = b.connect_in(mask_ch, thread)?;
        let mut in_frame = b.connect_in(&c3, thread)?;
        let mut in_model = b.connect_in(model_ch, thread)?;
        let out_loc = b.connect_out(thread, loc_ch)?;
        let d = params.delays.target_detection;
        b.spawn(thread, move |ctx| {
            let mask = in_mask.get_latest(ctx)?;
            if ctx.should_skip(mask.ts) {
                return Ok(Step::Continue);
            }
            let Some(frame) = in_frame.get_exact(ctx, mask.ts)? else {
                // frame lost — abandon this mask
                return Ok(Step::Continue);
            };
            let hist = in_model.get_latest_at_or_before(ctx, mask.ts)?;
            let loc = detect_target(&frame.value, &mask.value, &hist.value, &model);
            extra(d);
            out_loc.put(ctx, mask.ts, loc)?;
            Ok(Step::Continue)
        });
    }

    // GUI
    let mut in_c6 = b.connect_in(&c6, t_gui)?;
    let mut in_c9 = b.connect_in(&c9, t_gui)?;
    {
        let detections = Arc::clone(&detections);
        let d = params.delays.gui;
        b.spawn(t_gui, move |ctx| {
            let loc1 = in_c6.get_latest(ctx)?;
            let loc2 = in_c9.try_get_latest(ctx)?;
            extra(d);
            {
                let mut log = detections.lock();
                log.push(*loc1.value);
                if let Some(l2) = &loc2 {
                    log.push(*l2.value);
                }
            }
            ctx.emit_output(loc1.ts);
            Ok(Step::Continue)
        });
    }

    Ok(ThreadedTracker {
        runtime: b.build()?,
        detections,
        video,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::{check_accuracy, detection_error};
    use aru_metrics::TraceEvent;
    use stampede::RunReport;
    use std::collections::HashMap;

    /// Each test here runs the six-task tracker; one at a time keeps them
    /// from competing for the CPUs. The footprint comparison needs the
    /// baseline to outgrow ARU-min within its 1.5 s window, which a
    /// concurrent tracker run can starve it of.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The histogram lag of every detector iteration, from the run's trace:
    /// the mask's frame less the frame of the histogram the iteration
    /// joined to it (`get_latest_at_or_before`), keyed by `(model, mask
    /// frame)`. Each `Get` is joined to its item's `Alloc` for the frame.
    fn histogram_lag(report: &RunReport) -> HashMap<(u32, u64), i64> {
        let topo = &report.topo;
        let node = |c: usize| {
            let name = CHANNELS[c].0;
            topo.node_ids().find(|&n| topo.name(n) == name).expect(name)
        };
        // (model, is the histogram) per mask and histogram channel
        let role = HashMap::from([
            (node(C4), (0, false)),
            (node(C7), (0, true)),
            (node(C5), (1, false)),
            (node(C8), (1, true)),
        ]);
        let mut items = HashMap::new();
        let mut iters: HashMap<_, (u32, [Option<u64>; 2])> = HashMap::new();
        for ev in &report.trace {
            match ev {
                TraceEvent::Alloc {
                    item, buffer, ts, ..
                } => {
                    if let Some(&r) = role.get(&buffer) {
                        items.insert(item, (r, ts.raw()));
                    }
                }
                TraceEvent::Get { item, consumer, .. } => {
                    if let Some(&((model, hist), frame)) = items.get(&item) {
                        let it = iters.entry(consumer).or_insert((model, [None; 2]));
                        it.1[usize::from(hist)] = Some(frame);
                    }
                }
                _ => {}
            }
        }
        iters
            .into_values()
            .filter_map(|(model, [mask, hist])| {
                let (mask, hist) = (mask?, hist?);
                Some(((model, mask), mask as i64 - hist as i64))
            })
            .collect()
    }

    /// A short real run: frames flow end-to-end and detections land near
    /// ground truth. (The detection kernel joins on matching timestamps, so
    /// accuracy also validates the join plumbing.) Before the accuracy
    /// check it prints the detectors' histogram lag (ROADMAP 1d): the
    /// largest, and the lag behind every detection more than 30 px off, so
    /// a failing run's log carries it.
    #[test]
    fn threaded_tracker_end_to_end() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let params = ThreadedTrackerParams::new(AruConfig::aru_min());
        let tracker = build_threaded(&params).unwrap();
        let report = tracker.runtime.run_for(Micros::from_millis(1500)).unwrap();
        assert!(report.outputs() > 2, "outputs {}", report.outputs());
        // Every writer, the fan-outs' channels included, records in time
        // order, so the merge of their shards is in time order too.
        let in_order = report.trace.iter().is_sorted_by_key(|ev| ev.time());
        assert!(in_order, "trace out of time order");
        let detections = tracker.detections.lock();
        let lag = histogram_lag(&report);
        let max = lag.values().max().copied().unwrap_or(0);
        println!(
            "histogram lag: max {max} frames over {} detector iterations",
            lag.len()
        );
        for det in detections.iter().filter(|det| det.found == 1) {
            let err = detection_error(&tracker.video, det);
            if err > 30.0 {
                let lag = lag.get(&(det.model_id, det.frame_no));
                println!(
                    "frame {} model {}: {err:.1}px off, histogram lag {lag:?} frames",
                    det.frame_no, det.model_id
                );
            }
        }
        let checked = check_accuracy(&tracker.video, &detections);
        assert!(checked > 0, "no positive detections");
    }

    #[test]
    fn threaded_tracker_aru_reduces_footprint() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let run = |aru: AruConfig| {
            let mut params = ThreadedTrackerParams::new(aru);
            // slow the detectors so the digitizer overruns without ARU
            params.delays.target_detection = Micros::from_millis(40);
            let tracker = build_threaded(&params).unwrap();
            tracker
                .runtime
                .run_for(Micros::from_millis(1500))
                .unwrap()
                .analyze()
        };
        let base = run(AruConfig::disabled());
        let aru = run(AruConfig::aru_min());
        let fp_base = base.footprint.observed_summary().mean;
        let fp_aru = aru.footprint.observed_summary().mean;
        assert!(
            fp_aru < fp_base,
            "ARU footprint {fp_aru:.0} !< baseline {fp_base:.0}"
        );
    }
}
