//! Item types flowing through the tracker pipeline, with the exact sizes
//! the paper reports in §5: "Digitizer 738 kB, Background 246 kB, Histogram
//! 981 kB and Target-Detection 68 Bytes."

use stampede::ItemData;

/// Frame geometry: 640×384 RGB = 737 280 bytes ≈ the paper's 738 kB
/// digitizer items.
pub const FRAME_W: usize = 640;
/// See [`FRAME_W`].
pub const FRAME_H: usize = 384;
/// Pixels per frame.
pub const FRAME_PIXELS: usize = FRAME_W * FRAME_H;

/// A digitized RGB video frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Frame number (the virtual timestamp the digitizer assigns).
    pub frame_no: u64,
    /// Interleaved RGB, row-major, `3 * FRAME_PIXELS` bytes.
    pub rgb: Vec<u8>,
}

impl Frame {
    /// Pixel accessor (r, g, b).
    #[inline]
    #[must_use]
    pub fn pixel(&self, x: usize, y: usize) -> (u8, u8, u8) {
        let i = 3 * (y * FRAME_W + x);
        (self.rgb[i], self.rgb[i + 1], self.rgb[i + 2])
    }
}

impl ItemData for Frame {
    fn size_bytes(&self) -> u64 {
        self.rgb.len() as u64 // 737 280 ≈ paper's 738 kB
    }
}

/// A foreground/motion mask: one byte per pixel (245 760 B ≈ the paper's
/// 246 kB background items). 0 = background; 255 = moving foreground.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionMask {
    pub frame_no: u64,
    pub mask: Vec<u8>,
}

impl MotionMask {
    /// Fraction of pixels marked foreground.
    #[must_use]
    pub fn foreground_ratio(&self) -> f64 {
        let fg = self.mask.iter().filter(|&&m| m != 0).count();
        fg as f64 / self.mask.len() as f64
    }
}

impl ItemData for MotionMask {
    fn size_bytes(&self) -> u64 {
        self.mask.len() as u64 // 245 760 ≈ paper's 246 kB
    }
}

/// Number of RGB histogram bins per axis (8×8×8 = 512 bins).
pub const HIST_BINS_PER_AXIS: usize = 8;
/// Total histogram bins.
pub const HIST_BINS: usize = HIST_BINS_PER_AXIS * HIST_BINS_PER_AXIS * HIST_BINS_PER_AXIS;

/// The color-histogram model of a frame: a normalized 512-bin RGB
/// histogram plus the per-pixel bin map (which is what makes the item
/// 4 B/pixel = 983 040 B ≈ the paper's 981 kB histogram items, and what
/// lets the detector back-project in one pass).
#[derive(Debug, Clone, PartialEq)]
pub struct HistModel {
    pub frame_no: u64,
    /// Normalized bin frequencies.
    pub bins: Vec<f32>,
    /// Per-pixel bin index.
    pub pixel_bins: Vec<u32>,
}

impl ItemData for HistModel {
    fn size_bytes(&self) -> u64 {
        (self.pixel_bins.len() * 4) as u64 // 983 040 ≈ paper's 981 kB
    }
}

/// Map an RGB triple to its histogram bin: the top three bits of each
/// channel, red most significant.
#[inline]
#[must_use]
pub fn rgb_bin(r: u8, g: u8, b: u8) -> u32 {
    packed_bin(u64::from(u32::from_le_bytes([r, g, b, 0])))
}

/// [`rgb_bin`] of the pixel in the low three bytes of `word` (red lowest),
/// whatever the bytes above them hold — so a kernel can bin pixels straight
/// off the words it loads.
///
/// The mask leaves the three kept bits of each channel at bits 5-7, 13-15
/// and 21-23; multiplying by `2^22 + 2^11 + 1` lays copies of all three at
/// three offsets, and the copies that land on bits 27-29, 24-26 and 21-23
/// are red, green and blue in bin order. The other six copies fall on bits
/// 5-7, 13-18, 32-37 and 43-45: no two copies share a bit, so nothing
/// carries into the nine that are kept.
#[inline]
pub(crate) fn packed_bin(word: u64) -> u32 {
    const _: () = assert!(HIST_BINS_PER_AXIS == 8);
    ((((word & 0x00E0_E0E0) * ((1 << 22) | (1 << 11) | 1)) >> 21) & 0x1FF) as u32
}

/// A target-detection result record — exactly 68 bytes, like the paper's
/// Target-Detection items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetLocation {
    /// Frame this detection refers to.
    pub frame_no: u64,
    /// Which color model (0 or 1) produced it.
    pub model_id: u32,
    /// 1 if the target was found with confidence.
    pub found: u32,
    /// Detected centroid.
    pub x: f32,
    pub y: f32,
    /// Back-projection score of the best window.
    pub score: f32,
    /// Best window (x0, y0, x1, y1).
    pub bbox: [f32; 4],
    /// Foreground pixels supporting the detection.
    pub support: u32,
    /// Mean RGB of the supporting pixels, sampled from the joined video
    /// frame (a cheap verification that the detection matches the model).
    pub mean_rgb: [f32; 3],
    /// Padding up to the 68-byte record the paper reports.
    pub reserved: [u8; 8],
}

impl TargetLocation {
    /// An empty (not-found) record.
    #[must_use]
    pub fn not_found(frame_no: u64, model_id: u32) -> Self {
        TargetLocation {
            frame_no,
            model_id,
            found: 0,
            x: 0.0,
            y: 0.0,
            score: 0.0,
            bbox: [0.0; 4],
            support: 0,
            mean_rgb: [0.0; 3],
            reserved: [0; 8],
        }
    }
}

impl ItemData for TargetLocation {
    fn size_bytes(&self) -> u64 {
        68 // the paper's record size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_sizes_match_paper() {
        let frame = Frame {
            frame_no: 0,
            rgb: vec![0; 3 * FRAME_PIXELS],
        };
        assert_eq!(frame.size_bytes(), 737_280); // ≈ 738 kB
        let mask = MotionMask {
            frame_no: 0,
            mask: vec![0; FRAME_PIXELS],
        };
        assert_eq!(mask.size_bytes(), 245_760); // ≈ 246 kB
        let hist = HistModel {
            frame_no: 0,
            bins: vec![0.0; HIST_BINS],
            pixel_bins: vec![0; FRAME_PIXELS],
        };
        assert_eq!(hist.size_bytes(), 983_040); // ≈ 981 kB
        assert_eq!(TargetLocation::not_found(0, 0).size_bytes(), 68);
    }

    #[test]
    fn struct_is_at_least_68_bytes() {
        assert!(std::mem::size_of::<TargetLocation>() >= 68);
    }

    #[test]
    fn rgb_bin_ranges() {
        assert_eq!(rgb_bin(0, 0, 0), 0);
        assert_eq!(rgb_bin(255, 255, 255), (HIST_BINS - 1) as u32);
        for (r, g, b) in [(10u8, 200u8, 30u8), (255, 0, 128), (7, 7, 7)] {
            assert!((rgb_bin(r, g, b) as usize) < HIST_BINS);
        }
    }

    #[test]
    fn bin_is_three_bits_per_channel_red_first() {
        assert_eq!(rgb_bin(0xFF, 0, 0), 7 << 6);
        assert_eq!(rgb_bin(0, 0xFF, 0), 7 << 3);
        assert_eq!(rgb_bin(0, 0, 0xFF), 7);
        assert_eq!(rgb_bin(0x1F, 0x20, 0xDF), (1 << 3) | 6);
        // the bytes above the pixel belong to its neighbours
        let word = 0xA5C3_96F0_7E00_0000 | 0x00DF_201F;
        assert_eq!(packed_bin(word), rgb_bin(0x1F, 0x20, 0xDF));
    }

    #[test]
    fn pixel_accessor() {
        let mut rgb = vec![0u8; 3 * FRAME_PIXELS];
        let i = 3 * (5 * FRAME_W + 7);
        rgb[i] = 1;
        rgb[i + 1] = 2;
        rgb[i + 2] = 3;
        let f = Frame { frame_no: 0, rgb };
        assert_eq!(f.pixel(7, 5), (1, 2, 3));
    }

    #[test]
    fn foreground_ratio() {
        let mut mask = vec![0u8; FRAME_PIXELS];
        for m in mask.iter_mut().take(FRAME_PIXELS / 4) {
            *m = 255;
        }
        let m = MotionMask { frame_no: 0, mask };
        assert!((m.foreground_ratio() - 0.25).abs() < 1e-9);
    }
}
