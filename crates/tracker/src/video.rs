//! Synthetic digitizer: deterministic video with moving colored targets.
//!
//! Substitutes for the paper's camera + digitizer (DESIGN.md §2). Frames
//! contain a textured static background plus two moving "people" — solid
//! colored rectangles with per-pixel noise — whose positions follow
//! Lissajous paths. Given the same `(seed, frame_no)` the generator emits
//! bit-identical frames, so detection accuracy is testable against ground
//! truth.

use crate::types::{Frame, FRAME_H, FRAME_PIXELS, FRAME_W};

/// A moving colored target ("person's shirt").
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// Dominant color (RGB).
    pub color: (u8, u8, u8),
    /// Half-extents of the rectangle in pixels.
    pub half_w: usize,
    pub half_h: usize,
    /// Path parameters (Lissajous): position oscillates across the frame.
    pub fx: f64,
    pub fy: f64,
    pub phase: f64,
}

/// Ground-truth position of a target in a given frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruth {
    pub cx: f64,
    pub cy: f64,
}

/// The synthetic video source.
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    seed: u64,
    targets: Vec<Target>,
    /// Per-pixel noise amplitude (0 disables noise).
    pub noise_amp: u8,
    /// Per-target absence intervals `(from, to)` in frame numbers: the
    /// target is not painted while `from <= frame < to` (it walked out of
    /// the scene — exercises the tracker's not-found path).
    absences: Vec<Vec<(u64, u64)>>,
}

impl SyntheticVideo {
    /// The standard two-target scene used throughout the reproduction: a
    /// red-shirted and a green-shirted target (the two color models the
    /// paper's two Target-Detection threads track).
    #[must_use]
    pub fn two_person_scene(seed: u64) -> Self {
        SyntheticVideo {
            seed,
            targets: vec![
                Target {
                    color: (210, 40, 40),
                    half_w: 28,
                    half_h: 48,
                    fx: 0.021,
                    fy: 0.013,
                    phase: 0.0,
                },
                Target {
                    color: (40, 200, 60),
                    half_w: 24,
                    half_h: 44,
                    fx: 0.017,
                    fy: 0.023,
                    phase: 2.1,
                },
            ],
            noise_amp: 12,
            absences: vec![Vec::new(), Vec::new()],
        }
    }

    /// Make target `i` absent (off-scene) for frames `from..to`.
    #[must_use]
    pub fn with_absence(mut self, i: usize, from: u64, to: u64) -> Self {
        self.absences[i].push((from, to));
        self
    }

    /// Is target `i` in the scene at `frame_no`?
    #[must_use]
    pub fn is_visible(&self, i: usize, frame_no: u64) -> bool {
        !self.absences[i]
            .iter()
            .any(|&(from, to)| frame_no >= from && frame_no < to)
    }

    /// Number of targets in the scene.
    #[must_use]
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Target descriptor (for building color models).
    #[must_use]
    pub fn target(&self, i: usize) -> &Target {
        &self.targets[i]
    }

    /// Ground-truth center of target `i` in frame `frame_no`.
    #[must_use]
    pub fn ground_truth(&self, i: usize, frame_no: u64) -> GroundTruth {
        let t = &self.targets[i];
        let ft = frame_no as f64;
        let cx = (FRAME_W as f64 / 2.0)
            + (FRAME_W as f64 / 2.0 - 80.0) * (t.fx * ft + t.phase).sin();
        let cy = (FRAME_H as f64 / 2.0)
            + (FRAME_H as f64 / 2.0 - 70.0) * (t.fy * ft + t.phase * 0.7).cos();
        GroundTruth { cx, cy }
    }

    /// The static background pixel at (x, y): a smooth two-tone gradient
    /// with a checker texture (so background differencing has real work).
    #[inline]
    fn background_pixel(&self, x: usize, y: usize) -> (u8, u8, u8) {
        let checker = if ((x >> 4) + (y >> 4)) & 1 == 0 { 18 } else { 0 };
        let r = (40 + (x * 40 / FRAME_W) + checker) as u8;
        let g = (60 + (y * 40 / FRAME_H) + checker) as u8;
        let b = (90 + ((x + y) * 30 / (FRAME_W + FRAME_H)) + checker) as u8;
        (r, g, b)
    }

    /// A clean background frame (what the Background task differencing
    /// model was trained on).
    #[must_use]
    pub fn background_frame(&self) -> Frame {
        let mut rgb = vec![0u8; 3 * FRAME_PIXELS];
        for y in 0..FRAME_H {
            for x in 0..FRAME_W {
                let (r, g, b) = self.background_pixel(x, y);
                let i = 3 * (y * FRAME_W + x);
                rgb[i] = r;
                rgb[i + 1] = g;
                rgb[i + 2] = b;
            }
        }
        Frame { frame_no: u64::MAX, rgb }
    }

    /// Generate frame `frame_no`.
    #[must_use]
    pub fn frame(&self, frame_no: u64) -> Frame {
        let mut rgb = vec![0u8; 3 * FRAME_PIXELS];
        // Background with cheap deterministic per-pixel noise.
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(frame_no);
        for y in 0..FRAME_H {
            for x in 0..FRAME_W {
                let (r, g, b) = self.background_pixel(x, y);
                let i = 3 * (y * FRAME_W + x);
                let n = if self.noise_amp > 0 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % (2 * self.noise_amp as u64 + 1)) as i16
                        - self.noise_amp as i16
                } else {
                    0
                };
                rgb[i] = (r as i16 + n).clamp(0, 255) as u8;
                rgb[i + 1] = (g as i16 + n).clamp(0, 255) as u8;
                rgb[i + 2] = (b as i16 + n).clamp(0, 255) as u8;
            }
        }
        // Paint targets (unless absent from the scene).
        for (ti, t) in self.targets.iter().enumerate() {
            if !self.is_visible(ti, frame_no) {
                continue;
            }
            let gt = self.ground_truth(ti, frame_no);
            let x0 = (gt.cx as isize - t.half_w as isize).max(0) as usize;
            let x1 = ((gt.cx as usize) + t.half_w).min(FRAME_W - 1);
            let y0 = (gt.cy as isize - t.half_h as isize).max(0) as usize;
            let y1 = ((gt.cy as usize) + t.half_h).min(FRAME_H - 1);
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let i = 3 * (y * FRAME_W + x);
                    // slight per-pixel shading so target histograms spread
                    let shade = ((x ^ y) & 7) as i16 - 3;
                    rgb[i] = (t.color.0 as i16 + shade).clamp(0, 255) as u8;
                    rgb[i + 1] = (t.color.1 as i16 + shade).clamp(0, 255) as u8;
                    rgb[i + 2] = (t.color.2 as i16 + shade).clamp(0, 255) as u8;
                }
            }
        }
        Frame { frame_no, rgb }
    }
}

/// Test support for the pipeline modules: every positive detection lies
/// within 30 px of its frame's ground truth. Returns how many were checked.
#[cfg(test)]
pub(crate) fn check_accuracy(
    video: &SyntheticVideo,
    detections: &[crate::types::TargetLocation],
) -> usize {
    assert!(!detections.is_empty(), "no detections reached the GUI");
    let mut checked = 0;
    for det in detections.iter().filter(|det| det.found == 1) {
        let gt = video.ground_truth(det.model_id as usize, det.frame_no);
        let err = ((det.x as f64 - gt.cx).powi(2) + (det.y as f64 - gt.cy).powi(2)).sqrt();
        assert!(err < 30.0, "detection error {err:.1}px");
        checked += 1;
    }
    checked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_deterministic() {
        let v = SyntheticVideo::two_person_scene(7);
        assert_eq!(v.frame(3), v.frame(3));
        assert_ne!(v.frame(3), v.frame(4), "different frames differ");
        let v2 = SyntheticVideo::two_person_scene(8);
        assert_ne!(v.frame(3), v2.frame(3), "different seeds differ");
    }

    #[test]
    fn targets_move_over_time() {
        let v = SyntheticVideo::two_person_scene(1);
        let a = v.ground_truth(0, 0);
        let b = v.ground_truth(0, 100);
        let d = ((a.cx - b.cx).powi(2) + (a.cy - b.cy).powi(2)).sqrt();
        assert!(d > 20.0, "target barely moved: {d}");
    }

    #[test]
    fn ground_truth_stays_in_frame() {
        let v = SyntheticVideo::two_person_scene(1);
        for i in 0..v.target_count() {
            for f in (0..2000).step_by(37) {
                let gt = v.ground_truth(i, f);
                assert!(gt.cx >= 0.0 && gt.cx < FRAME_W as f64);
                assert!(gt.cy >= 0.0 && gt.cy < FRAME_H as f64);
            }
        }
    }

    #[test]
    fn target_pixels_have_target_color() {
        let mut v = SyntheticVideo::two_person_scene(1);
        v.noise_amp = 0;
        let f = v.frame(10);
        let gt = v.ground_truth(0, 10);
        let (r, g, b) = f.pixel(gt.cx as usize, gt.cy as usize);
        let t = v.target(0).color;
        assert!((r as i16 - t.0 as i16).abs() < 10);
        assert!((g as i16 - t.1 as i16).abs() < 10);
        assert!((b as i16 - t.2 as i16).abs() < 10);
    }

    #[test]
    fn absent_target_is_not_painted() {
        let mut v = SyntheticVideo::two_person_scene(1).with_absence(0, 10, 20);
        v.noise_amp = 0;
        assert!(v.is_visible(0, 9));
        assert!(!v.is_visible(0, 10));
        assert!(!v.is_visible(0, 19));
        assert!(v.is_visible(0, 20));
        // during the absence, target 0's pixels are background
        let bg = v.background_frame();
        let f = v.frame(15);
        let gt = v.ground_truth(0, 15);
        assert_eq!(
            f.pixel(gt.cx as usize, gt.cy as usize),
            bg.pixel(gt.cx as usize, gt.cy as usize)
        );
        // target 1 unaffected
        let gt1 = v.ground_truth(1, 15);
        assert_ne!(
            f.pixel(gt1.cx as usize, gt1.cy as usize),
            bg.pixel(gt1.cx as usize, gt1.cy as usize)
        );
    }

    #[test]
    fn background_differs_from_frame_only_near_targets() {
        let mut v = SyntheticVideo::two_person_scene(1);
        v.noise_amp = 0;
        let bg = v.background_frame();
        let f = v.frame(5);
        let gt = v.ground_truth(0, 5);
        // far corner should match the background exactly (no noise)
        let far = (
            if gt.cx > (FRAME_W / 2) as f64 { 5 } else { FRAME_W - 5 },
            3usize,
        );
        assert_eq!(f.pixel(far.0, far.1), bg.pixel(far.0, far.1));
    }
}
