//! Seqlock cell for the lock-free queue's compressed summary-STP
//! (DESIGN.md §14).
//!
//! [`crate::lfqueue::LfQueue`] is the one user: its control plane
//! publishes a two-word payload (generation counter + encoded summary)
//! through a versioned even/odd counter so every `put` reads it with two
//! or three loads and no lock, and the producer endpoint folds only when
//! the generation moved. The mutex `Channel` and `Queue` read their
//! summary under the state lock they already hold and keep no cell.
//!
//! * **Writer** (serialized externally — callers hold the queue's
//!   control mutex, which is the documented invariant making the
//!   odd-version window single-writer): bump `version` to odd, store the
//!   payload words, bump to the next even value.
//! * **Reader**: load `version`; if even, load the payload and re-load
//!   `version`; identical before/after values mean the words are a
//!   coherent pair. Odd or changed means a write was in flight — retry.
//!
//! The payload words are themselves atomics, so a torn read is a
//! *coherence* problem (caught by the version check), never UB — no
//! `UnsafeCell`, nothing for Miri or TSan to object to.
//!
//! **Every access is `SeqCst`.** Release/acquire alone does not order the
//! reader's second version load after its payload loads without fences,
//! and the vendored loom stand-in models no fences; `SeqCst` makes the
//! protocol a textbook interleaving argument in loom's sequentially-
//! consistent model and costs nothing on the read side on x86 (a `SeqCst`
//! load compiles to a plain `mov`). The writer pays one fenced store per
//! *summary change* — the change-gated deposit path makes that rare.
//!
//! **Reads are bounded-optimistic.** `try_read` retries a handful of
//! times and then gives up, returning `None`; callers fall back to
//! locking the control mutex (whose holder is the only possible writer).
//! An unbounded spin would livelock under the loom scheduler, which may
//! never preempt a runnable thread — the mutex fallback gives the model
//! a blocking edge it can schedule through.

use crate::sync::atomic::{AtomicU64, Ordering};

/// Optimistic read attempts before a reader must fall back to the lock.
const MAX_READ_RETRIES: usize = 8;

/// Two-word seqlock cell. Word 0 is by convention a generation counter
/// (bumped per write), word 1 an encoded value; the cell itself is
/// payload-agnostic.
pub(crate) struct SeqCell {
    version: AtomicU64,
    words: [AtomicU64; 2],
}

impl SeqCell {
    pub(crate) fn new(w0: u64, w1: u64) -> Self {
        SeqCell {
            version: AtomicU64::new(0),
            words: [AtomicU64::new(w0), AtomicU64::new(w1)],
        }
    }

    /// Publish a new payload. **Callers must hold the owning buffer's
    /// control mutex** — that external serialization is what makes the
    /// odd-version window single-writer.
    pub(crate) fn write(&self, w0: u64, w1: u64) {
        let v = self.version.load(Ordering::SeqCst);
        debug_assert!(
            v.is_multiple_of(2),
            "seqlock writer saw an in-flight write; writers must hold the control mutex"
        );
        self.version.store(v + 1, Ordering::SeqCst);
        self.words[0].store(w0, Ordering::SeqCst);
        self.words[1].store(w1, Ordering::SeqCst);
        self.version.store(v + 2, Ordering::SeqCst);
    }

    /// Bounded-optimistic coherent read. `None` after [`MAX_READ_RETRIES`]
    /// collisions with in-flight writes — fall back to the control mutex.
    pub(crate) fn try_read(&self) -> Option<(u64, u64)> {
        for _ in 0..MAX_READ_RETRIES {
            let v1 = self.version.load(Ordering::SeqCst);
            if !v1.is_multiple_of(2) {
                continue; // write in flight
            }
            let w0 = self.words[0].load(Ordering::SeqCst);
            let w1 = self.words[1].load(Ordering::SeqCst);
            if self.version.load(Ordering::SeqCst) == v1 {
                return Some((w0, w1));
            }
        }
        None
    }
}

/// Encode an optional summary period for a [`SeqCell`] word: `0` is
/// "no summary", otherwise micros + 1.
pub(crate) fn encode_summary(s: Option<aru_core::Stp>) -> u64 {
    match s {
        None => 0,
        Some(stp) => stp.as_micros() + 1,
    }
}

/// Inverse of [`encode_summary`].
pub(crate) fn decode_summary(w: u64) -> Option<aru_core::Stp> {
    if w == 0 {
        None
    } else {
        Some(aru_core::Stp::from_micros(w - 1))
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let c = SeqCell::new(0, 0);
        assert_eq!(c.try_read(), Some((0, 0)));
        c.write(1, 42);
        assert_eq!(c.try_read(), Some((1, 42)));
    }

    #[test]
    fn summary_encoding_round_trips() {
        use aru_core::Stp;
        assert_eq!(decode_summary(encode_summary(None)), None);
        let s = Some(Stp::from_micros(0));
        assert_eq!(decode_summary(encode_summary(s)), s);
        let s = Some(Stp::from_micros(1_234_567));
        assert_eq!(decode_summary(encode_summary(s)), s);
    }

    #[test]
    fn concurrent_reads_never_see_a_torn_pair() {
        // Writer publishes (g, g * 3); readers must only ever observe
        // matched pairs.
        let c = std::sync::Arc::new(SeqCell::new(0, 0));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let c = std::sync::Arc::clone(&c);
            let stop = std::sync::Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut coherent = 0u64;
                loop {
                    if let Some((g, v)) = c.try_read() {
                        assert_eq!(v, g * 3, "torn read: ({g}, {v})");
                        coherent += 1;
                    }
                    // Once the writer has stopped (Acquire pairs with its
                    // Release below) the version is stable, so one more
                    // read must succeed — the counter can't be zero, however
                    // the reads above raced the writer.
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        let (g, v) = c.try_read().expect("quiescent cell reads coherently");
                        assert_eq!(v, g * 3, "torn read: ({g}, {v})");
                        coherent += 1;
                        break;
                    }
                }
                coherent
            }));
        }
        for g in 1..50_000u64 {
            c.write(g, g * 3);
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader never got a coherent pair");
        }
    }
}
