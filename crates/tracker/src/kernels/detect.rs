//! Histogram back-projection target detection (the paper's Target
//! Detection task — one instance per color model).
//!
//! For every foreground pixel the frame's histogram bin is weighted by the
//! color model; an integral image over the weight map finds the window with
//! the highest model mass; the weighted centroid inside that window is the
//! reported location.
//!
//! The window scan reads the integral image only where both coordinates are
//! multiples of the scan stride, so only those samples are kept (DESIGN.md §2 has
//! the argument that they are the full image's values, bit for bit).

use crate::model::ColorModel;
use crate::types::{Frame, HistModel, MotionMask, TargetLocation, FRAME_H, FRAME_PIXELS, FRAME_W};

/// Detection window half-size (matches the synthetic targets' scale).
const WIN_HALF: usize = 32;
/// Minimum back-projection mass for a positive detection.
const MIN_SCORE: f32 = 0.5;
/// Window scan stride. A mask row is walked in words of this many bytes.
const STEP: usize = 8;
/// Windows per row and per column of the scan: origins `0, STEP, ..` while
/// the window's far edge stays below the frame's.
const SCAN_W: usize = (FRAME_W - 2 * WIN_HALF).div_ceil(STEP);
const SCAN_H: usize = (FRAME_H - 2 * WIN_HALF).div_ceil(STEP);
/// Integral-image samples per row and per column: one per window edge.
const GRID_W: usize = SCAN_W + 2 * WIN_HALF / STEP;
const GRID_H: usize = SCAN_H + 2 * WIN_HALF / STEP;
const _: () = assert!((2 * WIN_HALF).is_multiple_of(STEP) && FRAME_W.is_multiple_of(STEP));
const _: () = assert!((GRID_W - 1) * STEP <= FRAME_W && (GRID_H - 1) * STEP <= FRAME_H);

/// The integral image of the model's back-projection over the mask, sampled
/// at multiples of [`STEP`]: `grid[j][k]` is the sum of the weights of the
/// foreground pixels with `y < j * STEP` and `x < k * STEP`.
///
/// The full image obeys `I[y+1][x] = I[y][x] + prefix_y(x)`, `prefix_y` being
/// the running `f64` sum along row `y`. `column` holds `I[y][k * STEP]` and
/// takes the same additions in the same order. A background pixel adds
/// `+0.0`, which changes no sum that started from `+0.0` (such a sum is
/// never `-0.0`), so all-background words, and the whole row up to its first
/// foreground word, are passed over; pixels at or beyond the last sample in
/// either direction are in no sample and are not read at all.
fn sampled_integral(
    mask: &MotionMask,
    hist: &HistModel,
    model: &ColorModel,
) -> [[f64; GRID_W]; GRID_H] {
    let mut grid = [[0.0f64; GRID_W]; GRID_H];
    let mut column = [0.0f64; GRID_W];
    let rows = mask
        .mask
        .chunks_exact(FRAME_W)
        .zip(hist.pixel_bins.chunks_exact(FRAME_W))
        .take((GRID_H - 1) * STEP);
    for (y, (mask_row, bin_row)) in rows.enumerate() {
        let words = mask_row
            .chunks_exact(STEP)
            .zip(bin_row.chunks_exact(STEP))
            .take(GRID_W - 1);
        let mut prefix = 0.0f64;
        let mut touched = false;
        for (k, (word, bins)) in words.enumerate() {
            let word: &[u8; STEP] = word.try_into().expect("chunks_exact(STEP)");
            if u64::from_ne_bytes(*word) != 0 {
                touched = true;
                for (&m, &bin) in word.iter().zip(bins) {
                    if m != 0 {
                        prefix += model.weight(bin) as f64;
                    }
                }
            }
            if touched {
                column[k + 1] += prefix;
            }
        }
        if (y + 1) % STEP == 0 {
            grid[(y + 1) / STEP] = column;
        }
    }
    grid
}

/// Run detection for one color model on one frame's mask + histogram,
/// sampling the joined video frame to report the detection's mean color.
///
/// # Panics
/// If the frame, the mask or the histogram's bin map is not
/// `FRAME_W x FRAME_H`.
#[must_use]
pub fn detect_target(
    frame: &Frame,
    mask: &MotionMask,
    hist: &HistModel,
    model: &ColorModel,
) -> TargetLocation {
    assert_eq!(
        (frame.rgb.len(), mask.mask.len(), hist.pixel_bins.len()),
        (3 * FRAME_PIXELS, FRAME_PIXELS, FRAME_PIXELS),
        "frame, mask and bin map must all be FRAME_W x FRAME_H"
    );
    // The frame join is exact; the histogram model may legitimately lag
    // (the detector takes the freshest model at or before its mask — the
    // color model evolves slowly).
    debug_assert_eq!(mask.frame_no, frame.frame_no, "frame join mismatch");
    let integral = sampled_integral(mask, hist, model);
    // Scan windows on the coarse grid, then refine with the centroid.
    let side = 2 * WIN_HALF / STEP;
    let mut best = (0usize, 0usize, f64::MIN);
    for j in 0..SCAN_H {
        let (top, bottom) = (&integral[j], &integral[j + side]);
        for k in 0..SCAN_W {
            let s = bottom[k + side] - top[k + side] - bottom[k] + top[k];
            if s > best.2 {
                best = (k * STEP, j * STEP, s);
            }
        }
    }
    let (bx, by, score) = best;
    if score < MIN_SCORE as f64 {
        return TargetLocation::not_found(mask.frame_no, model.id);
    }
    // Weighted centroid and mean frame color within the best window.
    let (mut sx, mut sy, mut sw, mut support) = (0.0f64, 0.0f64, 0.0f64, 0u32);
    let mut rgb_acc = [0.0f64; 3];
    for y in by..by + 2 * WIN_HALF {
        for x in bx..bx + 2 * WIN_HALF {
            let p = y * FRAME_W + x;
            if mask.mask[p] == 0 {
                continue;
            }
            let w = model.weight(hist.pixel_bins[p]) as f64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{build_histogram, subtract_background};
    use crate::video::SyntheticVideo;

    #[test]
    #[should_panic(expected = "must all be FRAME_W x FRAME_H")]
    fn short_mask_is_rejected() {
        let video = SyntheticVideo::two_person_scene(5);
        let f = video.frame(0);
        let hist = build_histogram(&f);
        let mut mask = subtract_background(&video.background_frame(), &f);
        mask.mask.truncate(FRAME_PIXELS - FRAME_W);
        let _ = detect_target(&f, &mask, &hist, &ColorModel::scene_models(&video)[0]);
    }

    fn detect_frame(v: &SyntheticVideo, model_id: usize, frame_no: u64) -> TargetLocation {
        let bg = v.background_frame();
        let f = v.frame(frame_no);
        let mask = subtract_background(&bg, &f);
        let hist = build_histogram(&f);
        let models = ColorModel::scene_models(v);
        detect_target(&f, &mask, &hist, &models[model_id])
    }

    #[test]
    fn finds_target_near_ground_truth() {
        let v = SyntheticVideo::two_person_scene(5);
        for frame_no in [0u64, 40, 123] {
            for model in 0..2usize {
                let det = detect_frame(&v, model, frame_no);
                assert_eq!(det.found, 1, "model {model} frame {frame_no} not found");
                let gt = v.ground_truth(model, frame_no);
                let err = ((det.x as f64 - gt.cx).powi(2) + (det.y as f64 - gt.cy).powi(2)).sqrt();
                assert!(
                    err < 25.0,
                    "model {model} frame {frame_no}: error {err:.1}px (det {},{} vs gt {:.0},{:.0})",
                    det.x,
                    det.y,
                    gt.cx,
                    gt.cy
                );
            }
        }
    }

    #[test]
    fn models_do_not_cross_detect() {
        let v = SyntheticVideo::two_person_scene(5);
        let d0 = detect_frame(&v, 0, 60);
        let d1 = detect_frame(&v, 1, 60);
        let gt0 = v.ground_truth(0, 60);
        let gt1 = v.ground_truth(1, 60);
        let err00 = ((d0.x as f64 - gt0.cx).powi(2) + (d0.y as f64 - gt0.cy).powi(2)).sqrt();
        let err11 = ((d1.x as f64 - gt1.cx).powi(2) + (d1.y as f64 - gt1.cy).powi(2)).sqrt();
        assert!(err00 < 25.0 && err11 < 25.0, "{err00} {err11}");
    }

    #[test]
    fn mean_rgb_matches_target_color() {
        // The mean color sampled from the joined frame must match the
        // model's target color — this validates the exact-timestamp join
        // end-to-end (a mismatched frame would blur toward the background).
        let v = SyntheticVideo::two_person_scene(5);
        for model in 0..2usize {
            let det = detect_frame(&v, model, 33);
            assert_eq!(det.found, 1);
            let c = v.target(model).color;
            let want = [c.0 as f32, c.1 as f32, c.2 as f32];
            for (got, want) in det.mean_rgb.iter().zip(want) {
                assert!(
                    (got - want).abs() < 25.0,
                    "model {model}: mean_rgb {:?} vs target {:?}",
                    det.mean_rgb,
                    want
                );
            }
        }
    }

    #[test]
    fn absent_target_reports_not_found_while_other_tracks() {
        let v = SyntheticVideo::two_person_scene(5).with_absence(0, 0, 1000);
        let bg = v.background_frame();
        let f = v.frame(50);
        let mask = subtract_background(&bg, &f);
        let hist = build_histogram(&f);
        let models = ColorModel::scene_models(&v);
        let d0 = detect_target(&f, &mask, &hist, &models[0]);
        let d1 = detect_target(&f, &mask, &hist, &models[1]);
        assert_eq!(d0.found, 0, "absent target must not be found");
        assert_eq!(d1.found, 1, "present target still tracked");
    }

    #[test]
    fn empty_mask_reports_not_found() {
        let v = SyntheticVideo::two_person_scene(5);
        let f = v.frame(0);
        let hist = build_histogram(&f);
        let empty = MotionMask {
            frame_no: 0,
            mask: vec![0u8; FRAME_W * FRAME_H],
        };
        let models = ColorModel::scene_models(&v);
        let det = detect_target(&f, &empty, &hist, &models[0]);
        assert_eq!(det.found, 0);
    }
}
