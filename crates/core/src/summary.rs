//! Summary-STP computation (paper §3.3.2, the boxed algorithm).
//!
//! ```text
//! • Receive summary-STP from output connection i; backwardSTP[i] ← value
//! • compressed ← min/max(backwardSTP)
//! • if thread:            summary ← max(compressed, current-STP)
//! • else (channel/queue): summary ← compressed
//! • propagate summary upstream
//! ```
//!
//! The buffer rule is the identity, so only the thread rule is a function;
//! `AruController` forwards a buffer's compressed value as is.

use crate::stp::Stp;

/// Summary-STP for a **thread** node: the compressed downstream knowledge
/// combined with the thread's own current-STP via `max` — "this allows a
/// thread with a larger period than its consumers to insert its execution
/// period into the summary-STP".
///
/// `compressed == None` (no feedback yet) yields the thread's own period;
/// `current == None` (no completed iteration yet) yields the compressed
/// value; both `None` yields `None` (nothing known — run unthrottled).
#[must_use]
pub fn summary_for_thread(compressed: Option<Stp>, current: Option<Stp>) -> Option<Stp> {
    match (compressed, current) {
        (Some(c), Some(s)) => Some(c.max(s)),
        (Some(c), None) => Some(c),
        (None, Some(s)) => Some(s),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::BackwardStpVec;
    use crate::compress::CompressOp;

    fn us(v: u64) -> Stp {
        Stp::from_micros(v)
    }

    #[test]
    fn thread_takes_max_of_compressed_and_current() {
        assert_eq!(
            summary_for_thread(Some(us(300)), Some(us(100))),
            Some(us(300))
        );
        assert_eq!(
            summary_for_thread(Some(us(100)), Some(us(300))),
            Some(us(300))
        );
    }

    #[test]
    fn thread_with_no_feedback_uses_own_period() {
        assert_eq!(summary_for_thread(None, Some(us(250))), Some(us(250)));
    }

    #[test]
    fn thread_with_no_iteration_yet_forwards_feedback() {
        assert_eq!(summary_for_thread(Some(us(400)), None), Some(us(400)));
    }

    #[test]
    fn nothing_known_is_none() {
        assert_eq!(summary_for_thread(None, None), None);
    }

    /// End-to-end check of the boxed algorithm on the paper's Figure 3/4
    /// example: node A is a thread with five consumers B–F.
    #[test]
    fn paper_example_end_to_end() {
        let mut bv = BackwardStpVec::new(5);
        for (i, &s) in [337u64, 139, 273, 544, 420].iter().enumerate() {
            bv.update(i, us(s));
        }
        // A's own period is 200us.
        let current = Some(us(200));

        // Conservative pipeline (consumers are endpoints): min → 139, but A
        // itself needs 200, so summary = 200.
        let min_summary = summary_for_thread(bv.compressed(&CompressOp::Min), current).unwrap();
        assert_eq!(min_summary, us(200));

        // Aggressive pipeline (all feed one consumer G): max → 544 > 200.
        let max_summary = summary_for_thread(bv.compressed(&CompressOp::Max), current).unwrap();
        assert_eq!(max_summary, us(544));
    }
}
