//! Background differencing (the paper's Motion Mask / Background task).

use crate::types::{Frame, MotionMask, FRAME_PIXELS};

/// Summed absolute channel-difference threshold above which a pixel counts
/// as foreground. The synthetic video applies the same noise sample to all
/// three channels (max summed noise 3·12 = 36), so 60 rejects noise while
/// target pixels differ by hundreds.
pub const DIFF_THRESHOLD: i16 = 60;

/// Pixels differenced together: 48 channel bytes, whose absolute differences
/// and their maximum are plain byte operations the compiler vectorises.
const BLOCK: usize = 16;
const _: () = assert!(FRAME_PIXELS.is_multiple_of(BLOCK));
/// The largest single channel difference that cannot, even three times over,
/// exceed [`DIFF_THRESHOLD`].
const QUIET: u8 = (DIFF_THRESHOLD / 3) as u8;

/// Compute the motion mask of `frame` against the static `background`.
///
/// A pixel is foreground when its three absolute channel differences sum
/// above [`DIFF_THRESHOLD`]. No sum in a block of 16 pixels can exceed three
/// times the block's largest single difference, so a block where none
/// exceeds `DIFF_THRESHOLD / 3` is background whole and its mask bytes stay
/// as allocated (zero); only blocks that touch a target take the per-pixel
/// sums.
///
/// # Panics
/// If either frame is not `3 * FRAME_PIXELS` bytes.
#[must_use]
pub fn subtract_background(background: &Frame, frame: &Frame) -> MotionMask {
    assert_eq!(
        (background.rgb.len(), frame.rgb.len()),
        (3 * FRAME_PIXELS, 3 * FRAME_PIXELS),
        "background and frame must both be FRAME_W x FRAME_H RGB"
    );
    let mut mask = vec![0u8; FRAME_PIXELS];
    for (block, m) in mask.chunks_exact_mut(BLOCK).enumerate() {
        let at = 3 * BLOCK * block;
        let (f, b) = (
            &frame.rgb[at..at + 3 * BLOCK],
            &background.rgb[at..at + 3 * BLOCK],
        );
        let mut diff = [0u8; 3 * BLOCK];
        for i in 0..3 * BLOCK {
            diff[i] = f[i].abs_diff(b[i]);
        }
        // What each byte lane's largest difference has above QUIET, then
        // "is any lane non-zero". Written as a lane-wise pass over the three
        // 16-byte thirds and an OR so that both stay byte-vector operations
        // (a 48-wide `max` fold, or comparing the lanes as one integer, is
        // taken apart into scalar code by rustc 1.95 and costs 4-10x).
        let mut over = [0u8; BLOCK];
        for i in 0..BLOCK {
            over[i] = diff[i]
                .max(diff[BLOCK + i])
                .max(diff[2 * BLOCK + i])
                .saturating_sub(QUIET);
        }
        if over.iter().fold(0, |a, &o| a | o) == 0 {
            continue;
        }
        for i in 0..BLOCK {
            let d = &diff[3 * i..3 * i + 3];
            if i16::from(d[0]) + i16::from(d[1]) + i16::from(d[2]) > DIFF_THRESHOLD {
                m[i] = 255;
            }
        }
    }
    MotionMask {
        frame_no: frame.frame_no,
        mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::SyntheticVideo;

    #[test]
    #[should_panic(expected = "must both be FRAME_W x FRAME_H RGB")]
    fn short_frame_is_rejected() {
        let bg = SyntheticVideo::two_person_scene(1).background_frame();
        let mut f = bg.clone();
        f.rgb.truncate(3 * FRAME_PIXELS - 3 * BLOCK);
        let _ = subtract_background(&bg, &f);
    }

    #[test]
    fn mask_covers_targets_not_background() {
        let mut v = SyntheticVideo::two_person_scene(1);
        v.noise_amp = 0;
        let bg = v.background_frame();
        let f = v.frame(20);
        let m = subtract_background(&bg, &f);
        // the two targets cover ~2-4% of the frame
        let ratio = m.foreground_ratio();
        assert!(
            ratio > 0.01 && ratio < 0.10,
            "foreground ratio {ratio} out of range"
        );
        // target center is foreground
        let gt = v.ground_truth(0, 20);
        let idx = gt.cy as usize * crate::types::FRAME_W + gt.cx as usize;
        assert_eq!(m.mask[idx], 255);
        // far corner is background
        assert_eq!(m.mask[3], 0);
    }

    #[test]
    fn noise_is_rejected() {
        let v = SyntheticVideo::two_person_scene(1); // noise_amp = 12
        let bg = v.background_frame();
        let f = v.frame(20);
        let m = subtract_background(&bg, &f);
        assert!(
            m.foreground_ratio() < 0.15,
            "noise leaked into mask: {}",
            m.foreground_ratio()
        );
    }

    #[test]
    fn identical_frames_give_empty_mask() {
        let v = SyntheticVideo::two_person_scene(1);
        let bg = v.background_frame();
        let m = subtract_background(&bg, &bg);
        assert_eq!(m.foreground_ratio(), 0.0);
    }
}
