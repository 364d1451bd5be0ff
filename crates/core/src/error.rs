//! Typed errors for the fallible edges of the ARU public API.
//!
//! The core algorithms are pure and mostly total, but a handful of entry
//! points can be driven with degenerate inputs — unbalanced meter hooks
//! from a task loop that crashed mid-iteration, filter/law parameters read
//! from an experiment config, an empty backward vector handed to a custom
//! compress operator. A supervised task must be able to survive all of
//! these without panicking (DESIGN.md §13), so every such edge has a
//! `try_*` variant returning [`AruError`]; the original panicking methods
//! remain for callers that treat misuse as a bug.

use std::error::Error;
use std::fmt;

/// Error type for fallible `aru-core` operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AruError {
    /// `block_end` was called with no matching `block_begin`.
    UnbalancedBlockEnd,
    /// `block_begin` was called while already inside a blocking window.
    NestedBlockBegin,
    /// `iteration_end` was called with no matching `iteration_begin`.
    IterationEndWithoutBegin,
    /// `iteration_begin` or `iteration_end` was called while a blocking
    /// window was still open.
    IterationWhileBlocked,
    /// A compression operator was asked to fold an empty backward vector.
    EmptyCompress,
    /// A configuration parameter is outside its valid domain.
    InvalidParam {
        /// Which parameter (e.g. `"ewma.alpha"`, `"pid.kp"`).
        what: &'static str,
        /// Why it was rejected.
        why: &'static str,
    },
}

impl fmt::Display for AruError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AruError::UnbalancedBlockEnd => write!(f, "block_end without block_begin"),
            AruError::NestedBlockBegin => write!(f, "nested block_begin"),
            AruError::IterationEndWithoutBegin => {
                write!(f, "iteration_end without iteration_begin")
            }
            AruError::IterationWhileBlocked => {
                write!(f, "iteration hook crossed an open blocking window")
            }
            AruError::EmptyCompress => write!(f, "compress on empty backward vector"),
            AruError::InvalidParam { what, why } => write!(f, "invalid parameter {what}: {why}"),
        }
    }
}

impl Error for AruError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(
            AruError::UnbalancedBlockEnd.to_string(),
            "block_end without block_begin"
        );
        assert_eq!(
            AruError::InvalidParam {
                what: "ewma.alpha",
                why: "must be in (0, 1]"
            }
            .to_string(),
            "invalid parameter ewma.alpha: must be in (0, 1]"
        );
    }
}
