//! Color-histogram construction (the paper's Histogram task).

use crate::types::{packed_bin, Frame, HistModel, FRAME_PIXELS, HIST_BINS};

/// Pixels binned together: 12 bytes, read as one 8-byte and one 4-byte word.
const LANES: usize = 4;
const _: () = assert!(FRAME_PIXELS.is_multiple_of(LANES));

/// Build the color-histogram model of a frame: the normalized 512-bin
/// histogram and the per-pixel bin map the detector back-projects through.
///
/// Bins are counted as integers and converted once: every count is at most
/// `FRAME_PIXELS` < 2^24, so `count as f32` is the value that many `+= 1.0`
/// steps reach, exactly. One table per lane keeps neighbouring pixels of the
/// dominant background bin from waiting on each other's store.
///
/// # Panics
/// If the frame is not `3 * FRAME_PIXELS` bytes.
#[must_use]
pub fn build_histogram(frame: &Frame) -> HistModel {
    assert_eq!(
        frame.rgb.len(),
        3 * FRAME_PIXELS,
        "frame must be FRAME_W x FRAME_H RGB"
    );
    let mut counts = [[0u32; HIST_BINS]; LANES];
    let mut pixel_bins = Vec::with_capacity(FRAME_PIXELS);
    for px in frame.rgb.chunks_exact(3 * LANES) {
        let (lo, hi) = px.split_at(8);
        let lo = u64::from_le_bytes(lo.try_into().expect("8 of 12 bytes"));
        let hi = u64::from(u32::from_le_bytes(hi.try_into().expect("4 of 12 bytes")));
        let bins = [
            packed_bin(lo),
            packed_bin(lo >> 24),
            packed_bin(lo >> 48 | hi << 16),
            packed_bin(hi >> 8),
        ];
        for j in 0..LANES {
            counts[j][bins[j] as usize] += 1;
        }
        pixel_bins.extend_from_slice(&bins);
    }
    let total = FRAME_PIXELS as f32;
    let bins = (0..HIST_BINS)
        .map(|bin| counts.iter().map(|table| table[bin]).sum::<u32>() as f32 / total)
        .collect();
    HistModel {
        frame_no: frame.frame_no,
        bins,
        pixel_bins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::rgb_bin;
    use crate::video::SyntheticVideo;

    #[test]
    #[should_panic(expected = "frame must be FRAME_W x FRAME_H RGB")]
    fn short_frame_is_rejected() {
        let mut f = SyntheticVideo::two_person_scene(1).frame(0);
        f.rgb.truncate(3 * FRAME_PIXELS - 3 * LANES);
        let _ = build_histogram(&f);
    }

    #[test]
    fn histogram_is_normalized() {
        let v = SyntheticVideo::two_person_scene(1);
        let h = build_histogram(&v.frame(0));
        let sum: f32 = h.bins.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum {sum}");
        assert_eq!(h.pixel_bins.len(), FRAME_PIXELS);
    }

    #[test]
    fn pixel_bins_consistent_with_frame() {
        let v = SyntheticVideo::two_person_scene(1);
        let f = v.frame(3);
        let h = build_histogram(&f);
        for p in (0..FRAME_PIXELS).step_by(997) {
            let i = 3 * p;
            assert_eq!(
                h.pixel_bins[p],
                rgb_bin(f.rgb[i], f.rgb[i + 1], f.rgb[i + 2])
            );
        }
    }

    #[test]
    fn target_color_bin_has_mass() {
        let v = SyntheticVideo::two_person_scene(1);
        let f = v.frame(10);
        let h = build_histogram(&f);
        let c = v.target(0).color;
        let bin = rgb_bin(c.0, c.1, c.2) as usize;
        assert!(h.bins[bin] > 0.001, "target bin mass {}", h.bins[bin]);
    }
}
