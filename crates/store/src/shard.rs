//! One shard of the epoch engine: the resident table, pending log,
//! optional tree-ORAM mirror and analytics snapshot for a slice of the key
//! space, plus the per-shard epoch pipelines.
//!
//! A [`Shard`] is the unit of commit parallelism: `ShardedStore` sorts
//! every epoch's operations once and then commits all shards concurrently
//! on the fork-join pool — each shard's task takes its own ops out of that
//! order ([`crate::router::shard_lane`]), and its
//! [`merge_epoch`](crate::merge) takes the shard's table by `&mut`, leases
//! its scratch from the shared (thread-safe) [`ScratchPool`], and touches
//! no state outside the shard, so commits are fully independent. A
//! 1-shard store ([`crate::Store`]) hands its whole padded batch to its
//! one shard. Both reach the one merge core, [`Shard::merge`].

use crate::merge::{self, answer_cell, cell_key, cell_val, read_answers, sorted_ops, ENGINE};
use crate::op::{kind, size_class, EpochPath, FlatOp, StoreStats};
use crate::store::{first_breach, StoreConfig};
use fj::Ctx;
use metrics::{ScratchGuard, ScratchPool, Tracked};
use obliv_core::TagCell;
use pram::Opram;
use std::io;

/// Table/pending/ORAM/analytics state for one slice of the key space.
pub(crate) struct Shard {
    cfg: StoreConfig,
    /// Resident record cells, key-sorted, padded with fillers to
    /// `size_class(live_upper)`.
    table: Vec<TagCell>,
    /// Public upper bound on the number of distinct present keys.
    live_upper: usize,
    /// Ops applied to the ORAM mirror but not yet merged into the table.
    pending: Vec<FlatOp>,
    oram: Option<Opram>,
    stats: StoreStats,
    merges: u64,
}

impl Shard {
    /// `salt` decorrelates the ORAM position-map coins of sibling shards.
    pub fn new(cfg: StoreConfig, salt: u64) -> Self {
        let oram = cfg.oram_key_space.map(|s| {
            let seed = cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Opram::new(s.max(1), cfg.oram, ENGINE, seed)
        });
        Shard {
            cfg,
            table: vec![TagCell::filler(); size_class(0)],
            live_upper: 0,
            pending: Vec::new(),
            oram,
            stats: StoreStats::default(),
            merges: 0,
        }
    }

    /// Rebuild a shard from a durable snapshot: the table cells plus the
    /// public counters, with the ORAM mirror (when configured) rebuilt by
    /// one fixed-pattern access per public table slot. Snapshots are only
    /// taken at merge closes, where the pending log is empty and the
    /// mirror equals the table — so table + counters is the whole state.
    ///
    /// A record no client put could have left — a key outside the ORAM
    /// key space, a value of `u64::MAX` ([`first_breach`]) — is refused as
    /// `InvalidData` before the mirror sees it, checksum or not.
    pub fn from_snapshot<C: Ctx>(
        c: &C,
        cfg: StoreConfig,
        salt: u64,
        table: Vec<TagCell>,
        live_upper: usize,
        merges: u64,
        stats: StoreStats,
    ) -> io::Result<Self> {
        let puts: Vec<FlatOp> = table
            .iter()
            .filter(|r| !r.is_filler())
            .map(|r| FlatOp {
                kind: kind::PUT,
                key: cell_key(r),
                val: cell_val(r),
            })
            .collect();
        if let Some((index, reason)) = first_breach(&cfg, &puts) {
            let what = format!("record {index}: {reason}");
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        }
        let mut shard = Shard::new(cfg, salt);
        if let Some(oram) = shard.oram.as_mut() {
            // One access per slot, real or filler (fillers walk key 0):
            // the rebuild trace is a function of the public capacity only.
            for r in &table {
                let (key, write) = if r.is_filler() {
                    (0, None)
                } else {
                    (cell_key(r), Some(cell_val(r) + 1))
                };
                oram.access(c, key, write);
            }
        }
        shard.table = table;
        shard.live_upper = live_upper;
        shard.merges = merges;
        shard.stats = stats;
        Ok(shard)
    }

    /// The path a padded batch of class `b` would take right now — a public
    /// function of the class and the (public) pending-log length.
    pub fn epoch_path(&self, b: usize) -> EpochPath {
        match self.oram {
            None => EpochPath::Merge,
            Some(_)
                if b >= self.cfg.oram_threshold
                    || self.pending.len() + b > self.cfg.pending_limit =>
            {
                EpochPath::Merge
            }
            Some(_) => EpochPath::Oram,
        }
    }

    /// Run one epoch over an already padded `batch` (real ops leading) on
    /// the given (publicly selected) path. Returns one answer cell per
    /// batch slot, tagged by the slot ([`crate::merge::answer_cell`]).
    pub fn execute<C: Ctx>(
        &mut self,
        c: &C,
        scratch: &ScratchPool,
        batch: &[FlatOp],
        path: EpochPath,
    ) -> Vec<TagCell> {
        if path == EpochPath::Oram {
            return self.oram_epoch(c, batch);
        }
        // Merge path: sort `pending ++ batch` into one op lane and merge.
        let b = batch.len();
        let ops = sorted_ops(c, scratch, &self.pending, batch);
        let answers = self.merge(c, scratch, ops, b, |t| read_answers(c, t, b));
        // Keep the ORAM mirror consistent: replay the batch (pending ops
        // were applied at their own epochs). Results are discarded — the
        // merge already produced them.
        if let Some(oram) = self.oram.as_mut() {
            for f in batch {
                oram.access(c, f.key, f.oram_write());
            }
        }
        answers
    }

    /// Sub-threshold path: one fixed-pattern tree-ORAM access per padded
    /// slot (dummies walk key 0), giving sequential semantics at
    /// `O(b · polylog s)` instead of a full `O((cap + b) log² )` merge.
    /// The answer cells are the merge path's, built host-side.
    fn oram_epoch<C: Ctx>(&mut self, c: &C, batch: &[FlatOp]) -> Vec<TagCell> {
        let oram = self.oram.as_mut().expect("ORAM path requires a mirror");
        let answers = (0..)
            .zip(batch)
            .map(|(slot, f)| {
                // Presence is stored as `val + 1`; 0 is absent.
                let prev = oram.access(c, f.key, f.oram_write());
                answer_cell(slot, f.kind, prev != 0, prev.saturating_sub(1))
            })
            .collect();
        // The padded batch (dummies included: public length) joins the
        // pending log for the next merge.
        self.pending.extend_from_slice(batch);
        answers
    }

    /// The merge core of [`Shard::execute`] and of a sharded commit: grow
    /// the public live-key bound, apply the shrink schedule, and run
    /// [`merge::merge_epoch`] on the sorted `ops` at the new capacity.
    pub fn merge<C: Ctx, R>(
        &mut self,
        c: &C,
        scratch: &ScratchPool,
        ops: ScratchGuard<'_, TagCell>,
        b: usize,
        readout: impl FnOnce(&Tracked<'_, TagCell>) -> R,
    ) -> R {
        let p = self.pending.len();
        // Every pending/batch op could be a put of a fresh key, so the
        // public live-key bound grows by their count (clamped to the key
        // space when one is configured).
        let mut live_upper = self.live_upper + p + b;
        if let Some(space) = self.cfg.oram_key_space {
            live_upper = live_upper.min(space.max(1));
        }
        // Public shrink schedule: every `every`-th merge compacts the
        // table back to the configured live-key bound, so capacity is no
        // longer monotone. The schedule reads only the merge counter and
        // the policy — never the data; the client promises the bound holds
        // (violations are caught by `merge_epoch`'s candidate-count
        // assert, the same contract style as the key-space assert).
        if let Some(pol) = self.cfg.shrink {
            if pol.every > 0 && (self.merges + 1).is_multiple_of(pol.every) {
                live_upper = live_upper.min(pol.live_bound.max(1));
            }
        }
        let cap_new = size_class(live_upper);

        let (answers, stats) = merge::merge_epoch(
            c,
            scratch,
            &mut self.table,
            cap_new,
            ops,
            (p, b),
            self.cfg.shrink.is_some(),
            readout,
        );
        self.live_upper = live_upper;
        self.stats = stats;
        self.pending.clear();
        self.merges += 1;
        answers
    }

    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    pub fn capacity(&self) -> usize {
        self.table.len()
    }

    pub fn live_upper(&self) -> usize {
        self.live_upper
    }

    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// The resident table: record cells key-sorted and leading, fillers
    /// padding it to the public capacity. Public length; contents stay
    /// host-side until a snapshot writes them out or a pipelined consult
    /// merges its queries into a copy under tracked kernels.
    pub fn records(&self) -> &[TagCell] {
        &self.table
    }

    /// The pending log (ops applied to the ORAM mirror but not yet
    /// merged). Public length: it is a concatenation of padded batches.
    pub fn pending_ops(&self) -> &[FlatOp] {
        &self.pending
    }
}
