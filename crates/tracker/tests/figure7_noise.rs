//! Figure 7's ARU-min memory waste, decomposed: it is service-time noise
//! fed through the loop, not the start-up transient.
//!
//! The paper reports 4.1 % for ARU-min in configuration 1; the simulator
//! reports about three times that. Two claims pin where the rest comes
//! from, on the exact cells `repro --exp fig7` runs (`SimTrackerParams`
//! defaults: `Direct` law, identity filter, σ = 0.12), averaged over the
//! seeds 2005–2009 the way the figure averages its seeds:
//! - without the noise (σ = 0), less than a fifth of the waste is left;
//! - a run four times as long wastes the same share. A start-up
//!   transient would be diluted by run length.
//!
//! EXPERIMENTS.md's Figure-7 paragraph quotes the numbers these tests
//! print (`cargo test -p tracker --test figure7_noise -- --nocapture`).

use aru_core::AruConfig;
use tracker::app_sim::run_sim;
use tracker::{SimTrackerParams, TrackerConfigId};
use vtime::Micros;

const SEEDS: [u64; 5] = [2005, 2006, 2007, 2008, 2009];

/// ARU-min's configuration-1 memory waste (%) over a run of `secs`
/// virtual seconds, as the mean over [`SEEDS`]; `quiet` sets σ = 0.
fn aru_min_waste(quiet: bool, secs: u64) -> f64 {
    let total: f64 = SEEDS
        .iter()
        .map(|&seed| {
            let mut p = SimTrackerParams::new(AruConfig::aru_min(), TrackerConfigId::OneNode)
                .with_seed(seed)
                .with_duration(Micros::from_secs(secs));
            if quiet {
                p.noise_sigma = 0.0;
            }
            run_sim(&p).analyze().waste.pct_memory_wasted()
        })
        .sum();
    total / SEEDS.len() as f64
}

#[test]
fn without_noise_less_than_a_fifth_of_the_waste_is_left() {
    let (noisy, quiet) = (aru_min_waste(false, 200), aru_min_waste(true, 200));
    println!("ARU-min config-1 memory waste, 200 s: σ = 0.12 {noisy:.2} %, σ = 0 {quiet:.2} %");
    assert!(
        quiet < noisy / 5.0,
        "σ = 0 wastes {quiet:.2} %, σ = 0.12 {noisy:.2} %"
    );
}

#[test]
fn waste_does_not_shrink_with_run_length() {
    let (short, long) = (aru_min_waste(false, 200), aru_min_waste(false, 800));
    println!("ARU-min config-1 memory waste, σ = 0.12: 200 s {short:.2} %, 800 s {long:.2} %");
    assert!(
        (long - short).abs() < 1.0,
        "200 s wastes {short:.2} %, 800 s {long:.2} %"
    );
}
