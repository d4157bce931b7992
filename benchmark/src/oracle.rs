//! The reference the store's answers are checked against: a `HashMap`
//! replaying every epoch with the store's stated semantics — ops of one
//! epoch apply in submission order, each `Get`/`Put`/`Delete` answers the
//! value stored before it, and an `Aggregate` answers the analytics
//! snapshot of the most recent merge-epoch close strictly before its own
//! epoch. Checks run outside the timed span and feed `fail_ratio`.

use crate::api::{Op, OpResult, StoreStats};
use std::collections::HashMap;

#[derive(Clone, Debug, Default)]
pub struct Oracle {
    map: HashMap<u64, u64>,
    /// Wrapping sum of the live values, kept incrementally.
    sum: u64,
    /// Analytics snapshot as of the last merge-epoch close.
    merged: StoreStats,
    pub checked: u64,
    pub mismatches: u64,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle::default()
    }

    fn write(&mut self, key: u64, val: Option<u64>) -> Option<u64> {
        let prev = match val {
            Some(v) => self.map.insert(key, v),
            None => self.map.remove(&key),
        };
        self.sum = self
            .sum
            .wrapping_sub(prev.unwrap_or(0))
            .wrapping_add(val.unwrap_or(0));
        prev
    }

    /// What the store must answer to `op` now; applies the op.
    fn expect(&mut self, op: &Op) -> OpResult {
        match *op {
            Op::Get { key } => OpResult::Value(self.map.get(&key).copied()),
            Op::Put { key, val } => OpResult::Value(self.write(key, Some(val))),
            Op::Delete { key } => OpResult::Value(self.write(key, None)),
            Op::Aggregate => OpResult::Stats(self.merged),
        }
    }

    /// Replay one epoch and compare every answer. `merged` says the
    /// epoch closed a merge (public: the store's `last_path`), which is
    /// when the analytics snapshot refreshes. Returns this epoch's
    /// mismatches.
    pub fn check_epoch(&mut self, ops: &[Op], results: &[OpResult], merged: bool) -> u64 {
        let mut bad = ops.len().abs_diff(results.len()) as u64;
        for (op, got) in ops.iter().zip(results) {
            if self.expect(op) != *got {
                bad += 1;
            }
        }
        if merged {
            self.close_merge();
        }
        self.checked += ops.len() as u64;
        self.mismatches += bad;
        bad
    }

    /// Replay an epoch whose answers are not available (a bulk load, an
    /// epoch acknowledged before a crash).
    pub fn apply_epoch(&mut self, ops: &[Op], merged: bool) {
        for op in ops {
            self.expect(op);
        }
        if merged {
            self.close_merge();
        }
    }

    fn close_merge(&mut self) {
        self.merged = StoreStats {
            count: self.map.len() as u64,
            sum: self.sum,
        };
    }

    pub fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }

    /// Compare a full-table read-back (`values[i]` read for `keys[i]`)
    /// against the oracle; returns the mismatches.
    pub fn check_table(&mut self, keys: &[u64], values: &[Option<u64>]) -> u64 {
        let mut bad = keys.len().abs_diff(values.len()) as u64;
        for (&key, &got) in keys.iter().zip(values) {
            if self.get(key) != got {
                bad += 1;
            }
        }
        self.checked += keys.len() as u64;
        self.mismatches += bad;
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch() -> (Vec<Op>, Vec<OpResult>) {
        let ops = vec![
            Op::Aggregate,
            Op::Put { key: 1, val: 10 },
            Op::Get { key: 1 },
            Op::Put { key: 1, val: 11 },
            Op::Delete { key: 1 },
            Op::Get { key: 1 },
            Op::Put { key: 2, val: 20 },
        ];
        let results = vec![
            OpResult::Stats(StoreStats::default()),
            OpResult::Value(None),
            OpResult::Value(Some(10)),
            OpResult::Value(Some(10)),
            OpResult::Value(Some(11)),
            OpResult::Value(None),
            OpResult::Value(None),
        ];
        (ops, results)
    }

    #[test]
    fn a_correct_store_has_no_mismatches() {
        let (ops, results) = epoch();
        let mut o = Oracle::new();
        assert_eq!(o.check_epoch(&ops, &results, true), 0);
        // The next epoch's aggregate sees the merge that just closed.
        let next = o.check_epoch(
            &[Op::Aggregate],
            &[OpResult::Stats(StoreStats { count: 1, sum: 20 })],
            true,
        );
        assert_eq!(next, 0);
        assert_eq!((o.checked, o.mismatches), (8, 0));
        assert_eq!(o.check_table(&[1, 2], &[None, Some(20)]), 0);
    }

    #[test]
    fn aggregates_lag_behind_oram_path_epochs() {
        let mut o = Oracle::new();
        o.apply_epoch(&[Op::Put { key: 1, val: 5 }], true);
        // An epoch that did not merge leaves the snapshot where it was.
        o.apply_epoch(&[Op::Put { key: 2, val: 6 }], false);
        let stale = OpResult::Stats(StoreStats { count: 1, sum: 5 });
        assert_eq!(o.check_epoch(&[Op::Aggregate], &[stale], false), 0);
    }

    /// The check can fail: a deliberately wrong oracle (one that missed a
    /// put the store applied) and a deliberately wrong store both drive
    /// the mismatch count — hence `fail_ratio` — above zero.
    #[test]
    fn a_wrong_oracle_or_a_wrong_store_is_caught() {
        let (ops, results) = epoch();

        let mut wrong_oracle = Oracle::new();
        wrong_oracle.write(1, Some(999)); // state the store never had
        assert!(wrong_oracle.check_epoch(&ops, &results, true) > 0);
        assert!(wrong_oracle.mismatches as f64 / wrong_oracle.checked as f64 > 0.0);

        let mut o = Oracle::new();
        let mut lying = results.clone();
        lying[2] = OpResult::Value(Some(12345));
        assert_eq!(o.check_epoch(&ops, &lying, true), 1);

        let mut o = Oracle::new();
        assert_eq!(o.check_epoch(&ops, &results[..5], true), 2, "short answer");

        let mut o = Oracle::new();
        o.apply_epoch(&ops, true);
        assert_eq!(o.check_table(&[1, 2], &[Some(11), Some(20)]), 1);
    }
}
