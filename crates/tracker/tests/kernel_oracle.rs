//! Differential oracles: the implementations `SyntheticVideo::frame`,
//! `subtract_background`, `build_histogram` and `detect_target` replaced,
//! kept as they were, against the fast ones that ship.
//!
//! The contract is bit identity: `==` on `Frame`, `MotionMask` and
//! `HistModel`, `to_bits()` on every `f32`. `tests/tracker_golden.rs` in the
//! root package pins four frames of one seed in tier-1; this file is the
//! wide net — any seed, frame numbers past 2^32, noise amplitudes that clamp,
//! targets off scene, a lagging histogram, and masks built to sit on every
//! edge of the detector's sampling grid. It is its own test binary so that
//! its CPU-bound cases do not run beside the library's wall-clock tests.

use proptest::prelude::*;
use tracker::kernels::background::DIFF_THRESHOLD;
use tracker::kernels::{build_histogram, detect_target, subtract_background};
use tracker::types::{rgb_bin, FRAME_PIXELS, HIST_BINS, HIST_BINS_PER_AXIS};
use tracker::{
    ColorModel, Frame, HistModel, MotionMask, SyntheticVideo, TargetLocation, FRAME_H, FRAME_W,
};

/// The largest channel difference a pixel can show three times over and
/// stay background: where the block-skipping test of `subtract_background`
/// turns.
const QUIET: u8 = (DIFF_THRESHOLD / 3) as u8;

/// The old implementations, bodies unchanged. What they read that is private
/// to the crate is restated here: the video's seed is passed in, the
/// background pixel, the detector's two constants and the bin quantiser
/// (which the shipping `rgb_bin` now derives from the word-wise one) are
/// copied.
mod reference {
    use super::*;

    const WIN_HALF: usize = 32;
    const MIN_SCORE: f32 = 0.5;

    pub fn rgb_bin(r: u8, g: u8, b: u8) -> u32 {
        let q = |v: u8| (v as usize * HIST_BINS_PER_AXIS) >> 8;
        (q(r) * HIST_BINS_PER_AXIS * HIST_BINS_PER_AXIS + q(g) * HIST_BINS_PER_AXIS + q(b)) as u32
    }

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

    pub fn background_frame() -> Frame {
        let mut rgb = vec![0u8; 3 * FRAME_PIXELS];
        for y in 0..FRAME_H {
            for x in 0..FRAME_W {
                let (r, g, b) = background_pixel(x, y);
                let i = 3 * (y * FRAME_W + x);
                rgb[i] = r;
                rgb[i + 1] = g;
                rgb[i + 2] = b;
            }
        }
        Frame {
            frame_no: u64::MAX,
            rgb,
        }
    }

    /// `SyntheticVideo::frame`: three divisions per background pixel, one
    /// serial LCG chain, a hardware `%` per pixel.
    pub fn frame(v: &SyntheticVideo, seed: u64, frame_no: u64) -> Frame {
        let mut rgb = vec![0u8; 3 * FRAME_PIXELS];
        // Background with cheap deterministic per-pixel noise.
        let mut state = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(frame_no);
        for y in 0..FRAME_H {
            for x in 0..FRAME_W {
                let (r, g, b) = background_pixel(x, y);
                let i = 3 * (y * FRAME_W + x);
                let n = if v.noise_amp > 0 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % (2 * v.noise_amp as u64 + 1)) as i16 - v.noise_amp as i16
                } else {
                    0
                };
                rgb[i] = (r as i16 + n).clamp(0, 255) as u8;
                rgb[i + 1] = (g as i16 + n).clamp(0, 255) as u8;
                rgb[i + 2] = (b as i16 + n).clamp(0, 255) as u8;
            }
        }
        // Paint targets (unless absent from the scene).
        for ti in 0..v.target_count() {
            let t = v.target(ti);
            if !v.is_visible(ti, frame_no) {
                continue;
            }
            let gt = v.ground_truth(ti, frame_no);
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

    /// `subtract_background`: one widened triple sum per pixel.
    pub fn subtract_background(background: &Frame, frame: &Frame) -> MotionMask {
        let mut mask = vec![0u8; FRAME_PIXELS];
        for (p, m) in mask.iter_mut().enumerate() {
            let i = 3 * p;
            let dr = (frame.rgb[i] as i16 - background.rgb[i] as i16).abs();
            let dg = (frame.rgb[i + 1] as i16 - background.rgb[i + 1] as i16).abs();
            let db = (frame.rgb[i + 2] as i16 - background.rgb[i + 2] as i16).abs();
            if dr + dg + db > DIFF_THRESHOLD {
                *m = 255;
            }
        }
        MotionMask {
            frame_no: frame.frame_no,
            mask,
        }
    }

    /// `build_histogram`: zero-filled bin map, `f32` bins stepped by 1.0.
    pub fn build_histogram(frame: &Frame) -> HistModel {
        let mut bins = vec![0.0f32; HIST_BINS];
        let mut pixel_bins = vec![0u32; FRAME_PIXELS];
        for (p, pb) in pixel_bins.iter_mut().enumerate() {
            let i = 3 * p;
            let bin = rgb_bin(frame.rgb[i], frame.rgb[i + 1], frame.rgb[i + 2]);
            *pb = bin;
            bins[bin as usize] += 1.0;
        }
        let total = FRAME_PIXELS as f32;
        for v in &mut bins {
            *v /= total;
        }
        HistModel {
            frame_no: frame.frame_no,
            bins,
            pixel_bins,
        }
    }

    /// `detect_target`: a full weight map, a full `f64` integral image, the
    /// window scan reading it at multiples of 8.
    pub fn detect_target(
        frame: &Frame,
        mask: &MotionMask,
        hist: &HistModel,
        model: &ColorModel,
    ) -> TargetLocation {
        // Back-project: weight map over foreground pixels.
        let mut weights = vec![0.0f32; FRAME_W * FRAME_H];
        for (p, w) in weights.iter_mut().enumerate() {
            if mask.mask[p] != 0 {
                *w = model.weight(hist.pixel_bins[p]);
            }
        }
        // Integral image.
        let mut integral = vec![0.0f64; (FRAME_W + 1) * (FRAME_H + 1)];
        for y in 0..FRAME_H {
            let mut row = 0.0f64;
            for x in 0..FRAME_W {
                row += weights[y * FRAME_W + x] as f64;
                integral[(y + 1) * (FRAME_W + 1) + (x + 1)] =
                    integral[y * (FRAME_W + 1) + (x + 1)] + row;
            }
        }
        let window_sum = |x0: usize, y0: usize, x1: usize, y1: usize| -> f64 {
            let w = FRAME_W + 1;
            integral[y1 * w + x1] - integral[y0 * w + x1] - integral[y1 * w + x0]
                + integral[y0 * w + x0]
        };
        // Scan windows on a coarse grid, then refine with the centroid.
        let step = 8;
        let mut best = (0usize, 0usize, f64::MIN);
        let mut y = 0;
        while y + 2 * WIN_HALF < FRAME_H {
            let mut x = 0;
            while x + 2 * WIN_HALF < FRAME_W {
                let s = window_sum(x, y, x + 2 * WIN_HALF, y + 2 * WIN_HALF);
                if s > best.2 {
                    best = (x, y, s);
                }
                x += step;
            }
            y += step;
        }
        let (bx, by, score) = best;
        if score < MIN_SCORE as f64 {
            return TargetLocation::not_found(mask.frame_no, model.id);
        }
        // Weighted centroid and mean frame color within the best window.
        let (mut sx, mut sy, mut sw, mut support) = (0.0f64, 0.0f64, 0.0f64, 0u32);
        let mut rgb_acc = [0.0f64; 3];
        for y in by..(by + 2 * WIN_HALF).min(FRAME_H) {
            for x in bx..(bx + 2 * WIN_HALF).min(FRAME_W) {
                let w = weights[y * FRAME_W + x] as f64;
                if w > 0.0 {
                    sx += w * x as f64;
                    sy += w * y as f64;
                    sw += w;
                    support += 1;
                    let (r, g, b) = frame.pixel(x, y);
                    rgb_acc[0] += r as f64;
                    rgb_acc[1] += g as f64;
                    rgb_acc[2] += b as f64;
                }
            }
        }
        if sw <= 0.0 {
            return TargetLocation::not_found(mask.frame_no, model.id);
        }
        TargetLocation {
            frame_no: mask.frame_no,
            model_id: model.id,
            found: 1,
            x: (sx / sw) as f32,
            y: (sy / sw) as f32,
            score: score as f32,
            bbox: [
                bx as f32,
                by as f32,
                (bx + 2 * WIN_HALF) as f32,
                (by + 2 * WIN_HALF) as f32,
            ],
            support,
            mean_rgb: [
                (rgb_acc[0] / support as f64) as f32,
                (rgb_acc[1] / support as f64) as f32,
                (rgb_acc[2] / support as f64) as f32,
            ],
            reserved: [0; 8],
        }
    }
}

/// A seed, its scene and a frame number that between them reach every
/// branch of [`SyntheticVideo::frame`] — any seed; frame numbers near 0,
/// around 2^32 and anywhere in `u64`; no noise, the smallest, the shipped
/// amplitude and two that force the clamp (127, 255); neither, either or
/// both targets walked off.
fn scene_and_frame() -> impl Strategy<Value = (u64, SyntheticVideo, u64)> {
    const AMPS: [u8; 5] = [0, 1, 12, 127, 255];
    (
        any::<u64>(),
        (0usize..3, any::<u64>()),
        0..AMPS.len(),
        0u8..4,
    )
        .prop_map(|(seed, (range, n), amp, absent)| {
            let frame_no = match range {
                0 => n % 2_000,
                1 => (1 << 32) - 1_000 + n % 2_000,
                _ => n,
            };
            let mut video = SyntheticVideo::two_person_scene(seed);
            video.noise_amp = AMPS[amp];
            for i in 0..2 {
                if absent & (1 << i) != 0 {
                    video = video.with_absence(
                        i,
                        frame_no.saturating_sub(3),
                        frame_no.saturating_add(1),
                    );
                }
            }
            (seed, video, frame_no)
        })
}

/// Test data only: the next state of a throwaway LCG, whose high bits are
/// what the callers use.
fn next(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
    *s
}

/// `background` with each byte moved up or down by a pseudo-random
/// `0..=spread`, wrapping: with `spread` near `QUIET` most blocks sit
/// right at the skip test and most sums right at the threshold.
fn perturbed(background: &Frame, seed: u64, spread: u8) -> Frame {
    let mut s = seed;
    let rgb = background
        .rgb
        .iter()
        .map(|&b| {
            let s = next(&mut s);
            let delta = ((s >> 33) % (u64::from(spread) + 1)) as u8;
            if s >> 63 == 0 {
                b.wrapping_add(delta)
            } else {
                b.wrapping_sub(delta)
            }
        })
        .collect();
    Frame {
        frame_no: seed,
        rgb,
    }
}

fn same_bits(a: &HistModel, b: &HistModel) -> bool {
    let bits = |h: &HistModel| h.bins.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a == b && bits(a) == bits(b)
}

/// Every field of a record, floats by their bits.
fn bits(d: &TargetLocation) -> (u64, [u32; 3], [u32; 10], [u8; 8]) {
    let floats = [
        d.x,
        d.y,
        d.score,
        d.bbox[0],
        d.bbox[1],
        d.bbox[2],
        d.bbox[3],
        d.mean_rgb[0],
        d.mean_rgb[1],
        d.mean_rgb[2],
    ];
    (
        d.frame_no,
        [d.model_id, d.found, d.support],
        floats.map(f32::to_bits),
        d.reserved,
    )
}

/// The scene's two models, and one that weighs every bin (so that every
/// foreground pixel, target or not, moves the `f64` sums and their order
/// of addition shows).
fn models(video: &SyntheticVideo, seed: u64) -> Vec<ColorModel> {
    let mut s = seed;
    let bins = (0..HIST_BINS)
        .map(|_| (next(&mut s) >> 40) as f32 / (1u64 << 33) as f32)
        .collect();
    let mut models = ColorModel::scene_models(video);
    models.push(ColorModel { id: 2, bins });
    models
}

fn assert_same(frame: &Frame, mask: &MotionMask, hist: &HistModel, models: &[ColorModel]) {
    for model in models {
        let (got, want) = (
            detect_target(frame, mask, hist, model),
            reference::detect_target(frame, mask, hist, model),
        );
        assert_eq!(bits(&got), bits(&want), "model {}", model.id);
    }
}

fn mask_where(frame_no: u64, fg: impl Fn(usize, usize) -> bool) -> MotionMask {
    let mask = (0..FRAME_PIXELS)
        .map(|p| if fg(p % FRAME_W, p / FRAME_W) { 255 } else { 0 })
        .collect();
    MotionMask { frame_no, mask }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn frame_equals_the_reference(scene in scene_and_frame()) {
        let (seed, video, frame_no) = scene;
        prop_assert!(
            video.frame(frame_no) == reference::frame(&video, seed, frame_no),
            "seed {seed} frame {frame_no} amp {}", video.noise_amp
        );
    }

    fn mask_equals_the_reference_on_scenes(scene in scene_and_frame()) {
        let (_, video, frame_no) = scene;
        let (bg, f) = (video.background_frame(), video.frame(frame_no));
        prop_assert!(subtract_background(&bg, &f) == reference::subtract_background(&bg, &f));
    }

    fn mask_equals_the_reference_at_the_threshold(
        seed in any::<u64>(),
        spread in 0u8..=255,
    ) {
        let bg = reference::background_frame();
        for spread in [spread, QUIET - 1, QUIET, QUIET + 1, QUIET + 5] {
            let f = perturbed(&bg, seed, spread);
            prop_assert!(subtract_background(&bg, &f) == reference::subtract_background(&bg, &f));
            // the kernel is not symmetric in which side is brighter
            prop_assert!(subtract_background(&f, &bg) == reference::subtract_background(&f, &bg));
        }
    }

    fn histogram_equals_the_reference_on_scenes(scene in scene_and_frame()) {
        let (_, video, frame_no) = scene;
        let f = video.frame(frame_no);
        prop_assert!(same_bits(&build_histogram(&f), &reference::build_histogram(&f)));
    }

    /// Frames of arbitrary bytes (every bin in use), and frames of one
    /// color (one bin holding all `FRAME_PIXELS` counts).
    fn histogram_equals_the_reference_on_arbitrary_bytes(
        seed in any::<u64>(),
        flat in any::<u32>(),
    ) {
        let mut s = seed;
        let rgb = (0..3 * FRAME_PIXELS)
            .map(|_| (next(&mut s) >> 56) as u8)
            .collect();
        let f = Frame { frame_no: seed, rgb };
        prop_assert!(same_bits(&build_histogram(&f), &reference::build_histogram(&f)));
        let f = Frame { frame_no: seed, rgb: flat.to_le_bytes()[..3].repeat(FRAME_PIXELS) };
        prop_assert!(same_bits(&build_histogram(&f), &reference::build_histogram(&f)));
    }

    /// Real masks, with the frame's own histogram and with one that lags
    /// (what the detector's join hands it when the host stalls).
    fn detection_equals_the_reference_on_scenes(
        scene in scene_and_frame(),
        lag in 1u64..40,
        weights in any::<u64>(),
    ) {
        let (_, video, frame_no) = scene;
        let f = video.frame(frame_no);
        let mask = subtract_background(&video.background_frame(), &f);
        let models = models(&video, weights);
        assert_same(&f, &mask, &build_histogram(&f), &models);
        let stale = build_histogram(&video.frame(frame_no.saturating_sub(lag)));
        assert_same(&f, &mask, &stale, &models);
    }

    /// Masks of scattered foreground at any density, any mask byte
    /// counting as foreground.
    fn detection_equals_the_reference_on_scattered_masks(
        seed in any::<u64>(),
        density in 0u64..=256,
    ) {
        let video = SyntheticVideo::two_person_scene(seed);
        let f = video.frame(seed % 500);
        let hist = build_histogram(&f);
        let mut s = seed;
        let mask = (0..FRAME_PIXELS)
            .map(|_| {
                let s = next(&mut s);
                if (s >> 56) < density { (s >> 48) as u8 | 1 } else { 0 }
            })
            .collect();
        let mask = MotionMask { frame_no: f.frame_no, mask };
        assert_same(&f, &mask, &hist, &models(&video, seed));
    }
}

#[test]
fn rgb_bin_equals_the_reference_for_every_color() {
    for color in 0..1u32 << 24 {
        let [r, g, b, _] = color.to_le_bytes();
        assert_eq!(rgb_bin(r, g, b), reference::rgb_bin(r, g, b), "{r} {g} {b}");
    }
}

#[test]
fn background_frame_equals_the_reference() {
    let video = SyntheticVideo::two_person_scene(1);
    assert!(video.background_frame() == reference::background_frame());
}

/// Foreground placed on every edge of the detector's sampling grid: the
/// integral image is read at x = 0, 8, .., 632 and y = 0, 8, .., 376, and a
/// mask row is walked in 8-byte words.
#[test]
fn detection_equals_the_reference_on_hand_built_masks() {
    let video = SyntheticVideo::two_person_scene(5);
    let f = video.frame(40);
    let hist = build_histogram(&f);
    let models = models(&video, 5);
    let scene = subtract_background(&video.background_frame(), &f);
    const WORD: usize = 8;
    let (last_x, last_y) = (FRAME_W - WORD, FRAME_H - WORD);
    type Region<'a> = (&'a str, &'a dyn Fn(usize, usize) -> bool);
    let masks: [Region; 9] = [
        ("empty", &|_, _| false),
        ("full", &|_, _| true),
        // the margin no window samples
        ("columns past the last sample", &|x, _| x >= last_x),
        ("rows past the last sample", &|_, y| y >= last_y),
        ("both margins", &|x, y| x >= last_x || y >= last_y),
        // the ends of a row's walk
        ("first word of every row", &|x, _| x < WORD),
        ("last sampled word of every row", &|x, _| {
            (last_x - WORD..last_x).contains(&x)
        }),
        ("last byte of a word, first of the next", &|x, y| {
            y % 3 == 0 && (x % WORD == WORD - 1 || x % (2 * WORD) == 0)
        }),
        ("one pixel", &|x, y| (x, y) == (321, 123)),
    ];
    for (name, fg) in masks {
        let alone = mask_where(f.frame_no, fg);
        assert_same(&f, &alone, &hist, &models);
        let with_scene = mask_where(f.frame_no, |x, y| {
            fg(x, y) || scene.mask[y * FRAME_W + x] != 0
        });
        assert_same(&f, &with_scene, &hist, &models);
        // the margins must not have been dropped from the hand-built mask
        assert!(name == "empty" || alone.mask.iter().any(|&m| m != 0));
    }
}
