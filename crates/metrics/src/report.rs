//! Cost report produced by a metered run.

use std::fmt;

/// Snapshot of every cost a metered execution accumulates. This is the raw
/// material for the table generators in `dob-bench`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Total operations (the paper's `W`).
    pub work: u64,
    /// Critical-path length of the fork-join DAG (the paper's `T∞`).
    pub span: u64,
    /// Word-block accesses observed by the cache simulator.
    pub cache_accesses: u64,
    /// Cache misses under LRU with the configured `(M, B)` (the paper's `Q`).
    pub cache_misses: u64,
    /// Comparator evaluations.
    pub comparisons: u64,
    /// Element moves.
    pub moves: u64,
    /// Complete sorting-subroutine invocations.
    pub sorts: u64,
    /// Randomized retries (overflow, label collision).
    pub retries: u64,
    /// Running hash of the adversary-visible access trace.
    pub trace_hash: u64,
    /// Number of trace events.
    pub trace_len: u64,
    /// Cache size in words used for this run.
    pub m_words: u64,
    /// Block size in words used for this run.
    pub b_words: u64,
}

impl CostReport {
    /// Average parallelism `W / T∞`.
    pub fn parallelism(&self) -> f64 {
        if self.span == 0 {
            return 0.0;
        }
        self.work as f64 / self.span as f64
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "work={} span={} par={:.1} Q={} (of {} accesses, M={},B={}) cmp={} trace={}ev/0x{:016x}",
            self.work,
            self.span,
            self.parallelism(),
            self.cache_misses,
            self.cache_accesses,
            self.m_words,
            self.b_words,
            self.comparisons,
            self.trace_len,
            self.trace_hash,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_work_over_span() {
        let r = CostReport {
            work: 1000,
            span: 10,
            ..Default::default()
        };
        assert!((r.parallelism() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_span_is_not_a_division_error() {
        let r = CostReport::default();
        assert_eq!(r.parallelism(), 0.0);
    }
}
