//! Failure events of the randomized oblivious algorithms.
//!
//! The paper's constructions are allowed a *negligible* failure probability
//! (o(1/n^k) for every k). Where the paper's functionality would silently
//! truncate (ORBA bin overflow) or mis-permute (label collision), this
//! implementation detects the event — with a fixed-pattern check, so
//! detection itself leaks nothing — and the caller retries with fresh
//! randomness. The number of retries is part of the public output
//! distribution, exactly like the failure event in the paper's definition.

use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OblivError {
    /// A bin received more real elements than its capacity `Z` during bin
    /// placement (§C.1 promise violated; probability exp(−Ω(log² n)) at
    /// the paper's parameters).
    BinOverflow,
    /// Two elements drew the same random permutation label (§C.3;
    /// probability ≤ n²/2⁶⁵ with 64-bit labels).
    LabelCollision,
    /// A REC-SORT bin exceeded its capacity (§E.2 overflow analysis).
    PivotOverflow,
    /// An input key is `u128::MAX`, the value that marks a filler slot
    /// (and a filler [`TagCell`](sortnet::TagCell)). Deterministic — a
    /// retry cannot help.
    ReservedKey,
}

impl fmt::Display for OblivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OblivError::BinOverflow => write!(f, "ORBA bin overflow (retry with fresh labels)"),
            OblivError::LabelCollision => write!(f, "random permutation label collision"),
            OblivError::PivotOverflow => {
                write!(f, "REC-SORT bin overflow (retry with fresh pivots)")
            }
            OblivError::ReservedKey => write!(f, "key u128::MAX is reserved for fillers"),
        }
    }
}

impl std::error::Error for OblivError {}

pub type Result<T> = std::result::Result<T, OblivError>;

/// Retry `attempt -> Result` with derived seeds until success, panicking
/// after `limit` consecutive failures (which at sane parameters indicates a
/// bug, not bad luck) or at once on [`OblivError::ReservedKey`] (which
/// fresh coins cannot cure). Returns the value and the attempt count.
pub fn with_retries<T>(limit: u32, mut f: impl FnMut(u32) -> Result<T>) -> (T, u32) {
    for attempt in 0..limit {
        match f(attempt) {
            Ok(v) => return (v, attempt + 1),
            Err(e @ OblivError::ReservedKey) => {
                panic!("oblivious algorithm rejected its input: {e}")
            }
            Err(_) if attempt + 1 < limit => continue,
            Err(e) => panic!("oblivious algorithm failed {limit} consecutive attempts: {e}"),
        }
    }
    unreachable!()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_retries_returns_attempt_count() {
        let (v, attempts) = with_retries(5, |a| {
            if a < 2 {
                Err(OblivError::BinOverflow)
            } else {
                Ok(a * 10)
            }
        });
        assert_eq!(v, 20);
        assert_eq!(attempts, 3);
    }

    #[test]
    #[should_panic(expected = "consecutive attempts")]
    fn with_retries_panics_at_limit() {
        with_retries::<()>(3, |_| Err(OblivError::LabelCollision));
    }
}
