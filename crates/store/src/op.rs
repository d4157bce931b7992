//! Client operations and results of the oblivious store.
//!
//! An [`Op`]'s *kind* and *contents* (keys, values) are secret: inside an
//! epoch every operation flows through the same fixed-pattern pipeline, so
//! the adversary learns only how many operations the epoch carried — and
//! that only after padding to a public size class ([`size_class`]).

/// One client operation submitted to an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read the value stored under `key`.
    Get { key: u64 },
    /// Store `val` under `key`, returning the previous value.
    /// Values must be `< u64::MAX` (the ORAM path encodes presence as
    /// `val + 1`).
    Put { key: u64, val: u64 },
    /// Remove `key`, returning the previous value.
    Delete { key: u64 },
    /// Read the store-wide analytics snapshot (record count and value sum)
    /// as of the last merge epoch.
    Aggregate,
}

/// Result of one [`Op`], in submission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// `Get`/`Put`/`Delete`: the value stored under the key *before* this
    /// op ran (sequential within-epoch semantics: earlier ops of the same
    /// epoch are visible).
    Value(Option<u64>),
    /// `Aggregate`: the analytics snapshot.
    Stats(StoreStats),
}

impl OpResult {
    /// The previous value, for `Value` results (panics on `Stats`).
    pub fn value(&self) -> Option<u64> {
        match *self {
            OpResult::Value(v) => v,
            OpResult::Stats(_) => panic!("aggregate result has no single value"),
        }
    }
}

/// Store-wide analytics snapshot, refreshed at each merge epoch.
///
/// **Overflow policy:** both fields wrap mod 2⁶⁴, everywhere they are
/// folded — per-record reduces inside a merge and cross-shard folds alike
/// ([`StoreStats::merged`] is the one sanctioned combiner). `sum` can
/// overflow legitimately (it adds arbitrary `u64` client values); `count`
/// cannot in practice, but it gets the same wrapping treatment so debug
/// and release builds, and 1-shard and n-shard stores, agree bit-for-bit
/// instead of debug-panicking on one path and wrapping on another.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of present records (wrapping; see overflow policy above).
    pub count: u64,
    /// Wrapping sum of all present values.
    pub sum: u64,
}

impl StoreStats {
    /// Fold another snapshot into this one under the store's wrapping
    /// overflow policy (both fields wrap mod 2⁶⁴).
    pub fn merged(self, other: StoreStats) -> StoreStats {
        StoreStats {
            count: self.count.wrapping_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
        }
    }
}

/// Which pipeline an epoch takes — a *public* function of batch size and
/// the (public) pending-log length, never of the operations themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochPath {
    /// Sub-threshold batch: per-op tree-ORAM point lookups (§4.2).
    Oram,
    /// Batched §F merge against the resident table.
    Merge,
}

/// Internal op kinds, including the padding element.
pub(crate) mod kind {
    pub const GET: u8 = 0;
    pub const PUT: u8 = 1;
    pub const DELETE: u8 = 2;
    pub const AGG: u8 = 3;
    pub const DUMMY: u8 = 4;
}

/// Flat, `Copy` encoding of an op (internal; also the pending-log entry).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FlatOp {
    pub kind: u8,
    pub key: u64,
    pub val: u64,
}

impl FlatOp {
    pub fn of(op: &Op) -> Self {
        match *op {
            Op::Get { key } => FlatOp {
                kind: kind::GET,
                key,
                val: 0,
            },
            Op::Put { key, val } => FlatOp {
                kind: kind::PUT,
                key,
                val,
            },
            Op::Delete { key } => FlatOp {
                kind: kind::DELETE,
                key,
                val: 0,
            },
            Op::Aggregate => FlatOp {
                kind: kind::AGG,
                key: 0,
                val: 0,
            },
        }
    }

    pub fn dummy() -> Self {
        FlatOp {
            kind: kind::DUMMY,
            key: 0,
            val: 0,
        }
    }
}

/// Smallest padded batch the store accepts.
pub const MIN_CLASS: usize = 8;

/// Pad `n` up to its public size class: the next power of two, at least
/// [`MIN_CLASS`]. Every client-visible length in the store is a size class,
/// so the trace reveals batch sizes only up to this granularity.
pub fn size_class(n: usize) -> usize {
    n.max(MIN_CLASS).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_are_powers_of_two_with_floor() {
        assert_eq!(size_class(0), MIN_CLASS);
        assert_eq!(size_class(1), MIN_CLASS);
        assert_eq!(size_class(8), 8);
        assert_eq!(size_class(9), 16);
        assert_eq!(size_class(1000), 1024);
    }

    #[test]
    fn stats_fold_wraps_both_fields_near_u64_max() {
        // Regression: the cross-shard fold used debug-panicking `+` for
        // `count` but `wrapping_add` for `sum`. Both must wrap.
        let a = StoreStats {
            count: u64::MAX - 1,
            sum: u64::MAX - 2,
        };
        let b = StoreStats { count: 3, sum: 7 };
        let m = a.merged(b);
        assert_eq!(m.count, 1);
        assert_eq!(m.sum, 4);
        // Identity and symmetry of the fold.
        assert_eq!(a.merged(StoreStats::default()), a);
        assert_eq!(a.merged(b), b.merged(a));
    }

    #[test]
    fn flat_op_roundtrips_kinds() {
        assert_eq!(FlatOp::of(&Op::Get { key: 7 }).kind, kind::GET);
        assert_eq!(FlatOp::of(&Op::Put { key: 7, val: 9 }).val, 9);
        assert_eq!(FlatOp::of(&Op::Delete { key: 7 }).kind, kind::DELETE);
        assert_eq!(FlatOp::of(&Op::Aggregate).key, 0);
        assert_eq!(FlatOp::dummy().kind, kind::DUMMY);
    }
}
