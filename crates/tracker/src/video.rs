//! Synthetic digitizer: deterministic video with moving colored targets.
//!
//! Substitutes for the paper's camera + digitizer (DESIGN.md §2). Frames
//! contain a textured static background plus two moving "people" — solid
//! colored rectangles with per-pixel noise — whose positions follow
//! Lissajous paths. Given the same `(seed, frame_no)` the generator emits
//! bit-identical frames, so detection accuracy is testable against ground
//! truth.

use crate::types::{Frame, FRAME_H, FRAME_PIXELS, FRAME_W};
use std::sync::OnceLock;

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
    ///
    /// # Panics
    /// If the scene has no target `i`.
    #[must_use]
    pub fn with_absence(mut self, i: usize, from: u64, to: u64) -> Self {
        self.check_target(i);
        self.absences[i].push((from, to));
        self
    }

    /// Is target `i` in the scene at `frame_no`?
    ///
    /// # Panics
    /// If the scene has no target `i`.
    #[must_use]
    pub fn is_visible(&self, i: usize, frame_no: u64) -> bool {
        self.check_target(i);
        !self.absences[i]
            .iter()
            .any(|&(from, to)| frame_no >= from && frame_no < to)
    }

    #[track_caller]
    fn check_target(&self, i: usize) {
        assert!(
            i < self.targets.len(),
            "target index {i} out of range: the scene has {} targets",
            self.targets.len()
        );
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
        let cx =
            (FRAME_W as f64 / 2.0) + (FRAME_W as f64 / 2.0 - 80.0) * (t.fx * ft + t.phase).sin();
        let cy = (FRAME_H as f64 / 2.0)
            + (FRAME_H as f64 / 2.0 - 70.0) * (t.fy * ft + t.phase * 0.7).cos();
        GroundTruth { cx, cy }
    }

    /// A clean background frame (what the Background task differencing
    /// model was trained on).
    #[must_use]
    pub fn background_frame(&self) -> Frame {
        Frame {
            frame_no: u64::MAX,
            rgb: background().to_vec(),
        }
    }

    /// Generate frame `frame_no`.
    #[must_use]
    pub fn frame(&self, frame_no: u64) -> Frame {
        let mut rgb = background().to_vec();
        // Background with cheap deterministic per-pixel noise.
        if self.noise_amp > 0 {
            let state = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(frame_no);
            add_noise(&mut rgb, state, self.noise_amp);
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

/// The static background pixel at (x, y): a smooth two-tone gradient
/// with a checker texture (so background differencing has real work).
#[inline]
fn background_pixel(x: usize, y: usize) -> (u8, u8, u8) {
    let checker = if ((x >> 4) + (y >> 4)) & 1 == 0 {
        18
    } else {
        0
    };
    let r = (40 + (x * 40 / FRAME_W) + checker) as u8;
    let g = (60 + (y * 40 / FRAME_H) + checker) as u8;
    let b = (90 + ((x + y) * 30 / (FRAME_W + FRAME_H)) + checker) as u8;
    (r, g, b)
}

/// The rendered background. It is a function of the frame geometry alone —
/// not of the seed, the targets or the noise — so it is rendered once per
/// process and every frame starts as a copy of it.
fn background() -> &'static [u8] {
    static BACKGROUND: OnceLock<Vec<u8>> = OnceLock::new();
    BACKGROUND.get_or_init(|| {
        let mut rgb = Vec::with_capacity(3 * FRAME_PIXELS);
        for y in 0..FRAME_H {
            for x in 0..FRAME_W {
                let (r, g, b) = background_pixel(x, y);
                rgb.extend([r, g, b]);
            }
        }
        rgb
    })
}

/// The noise generator: `state' = state * LCG_A + LCG_C`, one step per pixel.
const LCG_A: u64 = 6364136223846793005;
const LCG_C: u64 = 1442695040888963407;
/// Pixels generated together. Lane `j` holds the state of pixel `8k + j` and
/// jumps [`LANES`] steps at a time, so the lanes' multiplies do not wait on
/// one another as a single chain's do.
const LANES: usize = 8;
/// `LANES` steps of the generator composed into one: `(a^8, c(a^7 + .. + 1))`.
const LCG_JUMP: (u64, u64) = {
    let (mut a, mut c, mut i) = (1u64, 0u64, 0);
    while i < LANES {
        c = c.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        a = a.wrapping_mul(LCG_A);
        i += 1;
    }
    (a, c)
};
const _: () = assert!(FRAME_PIXELS.is_multiple_of(LANES));

/// Exact `v % d` for `v < 2^31` by multiply and shift (Granlund &
/// Montgomery 1994, Theorem 4.2 with N = 31): with `l = ceil(log2 d)` and
/// `m = ceil(2^(31+l) / d)`, `2^(31+l) <= m*d <= 2^(31+l) + 2^l`, which makes
/// `(v * m) >> (31+l)` the quotient for every 31-bit `v`. `m` fits 32 bits
/// and the product 63, so there is no hardware division per pixel and no
/// 128-bit multiply either.
#[derive(Clone, Copy)]
struct Modulus {
    d: u32,
    m: u32,
    shift: u32,
}

impl Modulus {
    fn new(d: u32) -> Self {
        assert!(d > 0, "modulus must be positive");
        let shift = 31 + (32 - (d - 1).leading_zeros());
        let m = (1u64 << shift).div_ceil(u64::from(d));
        let m = u32::try_from(m).expect("2^(31+l) / d < 2^32 because d > 2^(l-1)");
        Modulus { d, m, shift }
    }

    // `always`: called per pixel, and an unoptimised build (where the
    // pipeline tests run against the clock) would otherwise pay the call.
    #[inline(always)]
    fn rem(self, v: u64) -> u64 {
        debug_assert!(v < 1 << 31);
        v - ((v * u64::from(self.m)) >> self.shift) * u64::from(self.d)
    }
}

/// Add the per-pixel noise of the frame whose generator starts at `state` to
/// `rgb`: pixel `p` takes the generator's `p+1`-th state, reduces its top 31
/// bits to `-amp..=amp` and adds that one sample to its three channels,
/// clamped to a byte. (The clamp is free: it is the saturating pack the
/// vector code ends with, so scenes it cannot fire in get no path of their
/// own.)
fn add_noise(rgb: &mut [u8], state: u64, amp: u8) {
    let modulus = Modulus::new(2 * u32::from(amp) + 1);
    let mut lanes = [0u64; LANES];
    let mut s = state;
    for lane in &mut lanes {
        s = s.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        *lane = s;
    }
    let amp = i16::from(amp);
    for pixels in rgb.chunks_exact_mut(3 * LANES) {
        for j in 0..LANES {
            let n = modulus.rem(lanes[j] >> 33) as i16 - amp;
            lanes[j] = lanes[j].wrapping_mul(LCG_JUMP.0).wrapping_add(LCG_JUMP.1);
            for c in &mut pixels[3 * j..3 * j + 3] {
                *c = (*c as i16 + n).clamp(0, 255) as u8;
            }
        }
    }
}

/// Test support for the pipeline modules: positive detections lie within
/// 30 px of their frame's ground truth. Returns how many were checked.
///
/// The 30 px limit is held the way the benchmark holds it
/// (`tracker.detection_within_30px_share` ≥ 0.99) rather than on every
/// detection: the 97-px-tall target in a 64-px window reads 30-34 px off
/// around frames 505-513, which a run reaches once it shows more than
/// ~420 frames/s. Every detection must still lie on its own target — the
/// centroid of target-coloured pixels of one frame cannot be further from
/// the target's centre than its corner.
#[cfg(test)]
pub(crate) fn check_accuracy(
    video: &SyntheticVideo,
    detections: &[crate::types::TargetLocation],
) -> usize {
    assert!(!detections.is_empty(), "no detections reached the GUI");
    let (mut checked, mut within) = (0, 0);
    for det in detections.iter().filter(|det| det.found == 1) {
        let target = video.target(det.model_id as usize);
        let corner = ((target.half_w + 1) as f64).hypot((target.half_h + 1) as f64);
        let gt = video.ground_truth(det.model_id as usize, det.frame_no);
        let err = ((det.x as f64 - gt.cx).powi(2) + (det.y as f64 - gt.cy).powi(2)).sqrt();
        assert!(
            err <= corner,
            "frame {}: detection {err:.1}px from its target",
            det.frame_no
        );
        checked += 1;
        within += usize::from(err < 30.0);
    }
    assert!(
        within * 100 >= checked * 99,
        "only {within} of {checked} detections within 30px"
    );
    checked
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        fn modulus_is_the_remainder(d in 1u32..=u32::MAX, v in 0u64..1 << 31) {
            let m = Modulus::new(d);
            let d = u64::from(d);
            // a random dividend, the two ends of the range, and both sides
            // of the multiple of `d` nearest the random one
            let (k, max) = (v / d * d, (1 << 31) - 1);
            for v in [v, 0, max, k.saturating_sub(1), k, (k + d - 1).min(max)] {
                prop_assert_eq!(m.rem(v), v % d, "{} % {}", v, d);
            }
        }
    }

    #[test]
    fn modulus_is_exact_for_every_noise_amplitude() {
        // Every modulus `frame` can ask for, over a stride of dividends that
        // is coprime to all of them, plus the top of the 31-bit range.
        for amp in 1..=255u64 {
            let d = 2 * amp + 1;
            let m = Modulus::new(d as u32);
            let top = (1u64 << 31) - 2 * d..1 << 31;
            for v in (0..1u64 << 31).step_by(104_729).chain(top) {
                assert_eq!(m.rem(v), v % d, "{v} % {d}");
            }
        }
    }

    #[test]
    fn lane_jump_is_eight_single_steps() {
        let step = |s: u64| s.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        for s in [0, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let eight = (0..LANES).fold(s, |s, _| step(s));
            assert_eq!(s.wrapping_mul(LCG_JUMP.0).wrapping_add(LCG_JUMP.1), eight);
        }
    }

    #[test]
    #[should_panic(expected = "target index 2 out of range: the scene has 2 targets")]
    fn absence_of_a_target_the_scene_lacks_panics_with_a_message() {
        let _ = SyntheticVideo::two_person_scene(1).with_absence(2, 0, 10);
    }

    #[test]
    #[should_panic(expected = "target index 7 out of range: the scene has 2 targets")]
    fn visibility_of_a_target_the_scene_lacks_panics_with_a_message() {
        let _ = SyntheticVideo::two_person_scene(1).is_visible(7, 0);
    }

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
            if gt.cx > (FRAME_W / 2) as f64 {
                5
            } else {
                FRAME_W - 5
            },
            3usize,
        );
        assert_eq!(f.pixel(far.0, far.1), bg.pixel(far.0, far.1));
    }
}
