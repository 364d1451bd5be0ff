//! Golden data path: the real tracker's per-frame values, pinned to constants.
//!
//! `tests/sim_golden.rs` pins the simulator; this file pins what the threaded
//! tracker computes. Frame synthesis and the three vision kernels are pure
//! functions of `(seed, frame_no)`, so "the kernels got faster and changed
//! nothing" is a statement about the bytes they return. Each frame below is
//! taken through the whole chain — digitizer, background differencing,
//! histogram, both detectors — and every stage's output is hashed; a kernel
//! change that is meant to be invisible passes this file unmodified. Tier-1
//! never runs `-p tracker`, where the old implementations live on as
//! differential oracles, so this is the drift alarm it does run.
//! The constants were recorded at 426610d, before `SyntheticVideo::frame`,
//! `subtract_background`, `build_histogram` and `detect_target` were
//! rewritten.

use tracker::kernels::{build_histogram, detect_target, subtract_background};
use tracker::{ColorModel, SyntheticVideo, TargetLocation};

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32s(&mut self, words: impl IntoIterator<Item = u32>) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }
}

fn detection_words(d: &TargetLocation) -> impl Iterator<Item = u32> {
    let floats = [d.x, d.y, d.score]
        .into_iter()
        .chain(d.bbox)
        .chain(d.mean_rgb)
        .map(f32::to_bits);
    [
        d.frame_no as u32,
        (d.frame_no >> 32) as u32,
        d.model_id,
        d.found,
        d.support,
    ]
    .into_iter()
    .chain(floats)
    .chain(d.reserved.map(u32::from))
}

/// What a frame is pinned to: hashes of `frame.rgb`, of the mask, of the
/// histogram model (`pixel_bins`, then the bits of `bins`) and of the two
/// detection records (every field, floats by their bits).
type Golden = (u64, u64, u64, u64);

fn fingerprint(video: &SyntheticVideo, frame_no: u64) -> Golden {
    let background = video.background_frame();
    let models = ColorModel::scene_models(video);
    let frame = video.frame(frame_no);
    assert_eq!(frame.frame_no, frame_no);
    let mask = subtract_background(&background, &frame);
    assert_eq!(mask.frame_no, frame_no);
    let hist = build_histogram(&frame);
    assert_eq!(hist.frame_no, frame_no);
    let (mut f, mut m, mut h, mut d) = (Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new());
    f.bytes(&frame.rgb);
    m.bytes(&mask.mask);
    h.u32s(hist.pixel_bins.iter().copied());
    h.u32s(hist.bins.iter().map(|b| b.to_bits()));
    for model in &models {
        d.u32s(detection_words(&detect_target(&frame, &mask, &hist, model)));
    }
    (f.0, m.0, h.0, d.0)
}

#[test]
fn seed_2005_frames_are_pinned() {
    let video = SyntheticVideo::two_person_scene(2005);
    for (frame_no, want) in GOLDEN {
        assert_eq!(fingerprint(&video, frame_no), want, "frame {frame_no}");
    }
}

const GOLDEN: [(u64, Golden); 4] = [
    (
        0,
        (
            13769596066537863182,
            4705772154427408783,
            7955702466575621236,
            6833983678806173892,
        ),
    ),
    (
        7,
        (
            6991296614397766499,
            5742277244632582173,
            5952358004204532120,
            16007437591047765240,
        ),
    ),
    (
        123,
        (
            9995440794876266744,
            3936347654417950877,
            961824849334911400,
            9523223446464107135,
        ),
    ),
    (
        100_000,
        (
            11076750377706427637,
            17606038413392600355,
            6533006640529514906,
            9458492254019768025,
        ),
    ),
];
