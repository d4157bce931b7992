//! One shard of the epoch engine: the resident table, pending log,
//! optional tree-ORAM mirror and analytics snapshot for a slice of the key
//! space, plus the per-shard epoch pipelines.
//!
//! A [`Shard`] is the unit of commit parallelism: `ShardedStore` sorts
//! every epoch's operations once and then commits all shards concurrently
//! on the fork-join pool — each shard's task takes its own ops out of that
//! order ([`crate::router::shard_lane`]), and its
//! [`merge_epoch`](crate::merge) takes the shard's table and merge lanes
//! by `&mut`, leases the rest of its scratch from the shared (thread-safe)
//! [`ScratchPool`], and touches no state outside the shard, so commits
//! are fully independent. A
//! 1-shard store ([`crate::Store`]) hands its whole padded batch to its
//! one shard. Both reach the one merge core, [`Shard::merge`].

use crate::merge::{
    self, answer_cell, cell_key, cell_kind, cell_seq, cell_val, read_answers, sorted_ops, ENGINE,
};
use crate::op::{kind, size_class, EpochPath, FlatOp, StoreStats, MIN_CLASS};
use crate::store::{first_breach, StoreConfig};
use fj::Ctx;
use metrics::{ScratchGuard, ScratchPool, Tracked};
use obliv_core::{select_cell, select_u64, TagCell};
use pram::Opram;
use std::io;

/// The most ops a merge's write-through or a snapshot rebuild applies to
/// the ORAM mirror in one step: the store's smallest class, a public
/// constant, so their steps are a function of the batch class or the
/// capacity and the mirror's staging stays sized for the ORAM path's own
/// steps.
const MIRROR_STEP: usize = MIN_CLASS;

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
    mirror: Option<Mirror>,
    stats: StoreStats,
    merges: u64,
    /// The merge path's lanes, kept across epochs ([`merge::Lanes`]).
    lanes: merge::Lanes,
}

impl Shard {
    /// `salt` decorrelates the ORAM position-map coins of sibling shards.
    pub fn new(cfg: StoreConfig, salt: u64) -> Self {
        let mirror = cfg.oram_key_space.map(|s| {
            let seed = cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Mirror {
                oram: Opram::new(s.max(1), cfg.oram, ENGINE, seed),
                ops: Vec::new(),
                reqs: Vec::new(),
            }
        });
        Shard {
            cfg,
            table: vec![TagCell::filler(); size_class(0)],
            live_upper: 0,
            pending: Vec::new(),
            mirror,
            stats: StoreStats::default(),
            merges: 0,
            lanes: merge::Lanes::default(),
        }
    }

    /// Rebuild a shard from a durable snapshot: the table cells plus the
    /// public counters, with the ORAM mirror (when configured) rebuilt by
    /// [`Mirror::step`]s of [`MIRROR_STEP`] public table slots, a filler
    /// slot a dummy op. Snapshots are only
    /// taken at merge closes, where the pending log is empty and the
    /// mirror equals the table — so table + counters is the whole state.
    ///
    /// A record no client put could have left — a key outside the ORAM
    /// key space, a value of `u64::MAX` ([`first_breach`]) — is refused as
    /// `InvalidData` before the mirror sees it, checksum or not.
    #[allow(clippy::too_many_arguments)]
    pub fn from_snapshot<C: Ctx>(
        c: &C,
        scratch: &ScratchPool,
        cfg: StoreConfig,
        salt: u64,
        table: Vec<TagCell>,
        live_upper: usize,
        merges: u64,
        stats: StoreStats,
    ) -> io::Result<Self> {
        let puts: Vec<FlatOp> = table
            .iter()
            .map(|r| {
                if r.is_filler() {
                    FlatOp::dummy()
                } else {
                    FlatOp {
                        kind: kind::PUT,
                        key: cell_key(r),
                        val: cell_val(r),
                    }
                }
            })
            .collect();
        if let Some((index, reason)) = first_breach(&cfg, &puts) {
            let what = format!("record {index}: {reason}");
            return Err(io::Error::new(io::ErrorKind::InvalidData, what));
        }
        let mut shard = Shard::new(cfg, salt);
        if let Some(mirror) = shard.mirror.as_mut() {
            for step in puts.chunks(MIRROR_STEP) {
                mirror.step(c, scratch, step);
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
        match self.mirror {
            None => EpochPath::Merge,
            Some(_) if self.pending.len() + b > self.cfg.pending_limit => EpochPath::Merge,
            Some(_) => EpochPath::Oram,
        }
    }

    /// Run one epoch over an already padded `batch` (real ops leading) on
    /// the given (publicly selected) path. Returns one answer word per
    /// batch slot ([`read_answers`]).
    pub fn execute<C: Ctx>(
        &mut self,
        c: &C,
        scratch: &ScratchPool,
        batch: &[FlatOp],
        path: EpochPath,
    ) -> Vec<u128> {
        if path == EpochPath::Oram {
            return self.oram_epoch(c, scratch, batch);
        }
        // Merge path: sort `pending ++ batch` into one op lane and merge.
        let b = batch.len();
        let ops = sorted_ops(c, scratch, &self.pending, batch);
        let answers = self.merge(c, scratch, ops, b, |t| read_answers(c, scratch, t));
        // Keep the ORAM mirror consistent: apply the batch, in steps of
        // `MIRROR_STEP` ops in submission order (pending ops were applied at
        // their own epochs). Its values are discarded — the merge already
        // answered.
        if let Some(mirror) = self.mirror.as_mut() {
            for step in batch.chunks(MIRROR_STEP) {
                mirror.step(c, scratch, step);
            }
        }
        answers
    }

    /// ORAM path: the padded class as one OPRAM step
    /// ([`Mirror::step`]), giving sequential semantics at `O(b · polylog
    /// s)` instead of a full `O((cap + b) log²)` merge. Each op's answer is
    /// its run's pre-step value moved on by the earlier writes of its run;
    /// the answer cells are the merge path's, sorted back to slot order.
    fn oram_epoch<C: Ctx>(&mut self, c: &C, scratch: &ScratchPool, batch: &[FlatOp]) -> Vec<u128> {
        let mirror = self.mirror.as_mut().expect("ORAM path requires a mirror");
        let ops = mirror.step(c, scratch, batch);
        let b = ops.len();
        let mut answers = scratch.lease(b, TagCell::filler());
        let mut t = Tracked::new(c, &mut answers);
        let mut state = 0;
        for (i, &(op, head, before)) in ops.iter().enumerate() {
            // Presence is stored as `val + 1`; 0 is absent.
            state = select_u64(head, state, before);
            let slot = cell_seq(&op).wrapping_sub(1);
            let answer = answer_cell(slot, cell_kind(&op), state != 0, state.saturating_sub(1));
            t.set(c, i, select_cell(op.is_filler(), answer, TagCell::filler()));
            let (writes, val) = write_of(&op);
            state = select_u64(writes, state, val);
        }
        let answers = read_answers(c, scratch, &mut t);
        // The padded batch (dummies included: public length) joins the
        // pending log for the next merge.
        self.pending.extend_from_slice(batch);
        answers
    }

    /// The merge core of [`Shard::execute`] and of a sharded commit: grow
    /// the public live-key bound, apply the shrink schedule, and run
    /// [`merge::merge_epoch`] on the sorted `ops` at the new capacity.
    /// `readout` gets the answer window in key order, not yet sorted.
    pub fn merge<C: Ctx, R>(
        &mut self,
        c: &C,
        scratch: &ScratchPool,
        ops: ScratchGuard<'_, TagCell>,
        b: usize,
        readout: impl FnOnce(&mut Tracked<'_, TagCell>) -> R,
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
            &mut self.lanes,
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

    /// The merge path's lanes, for a test to dirty or drop them.
    #[cfg(test)]
    pub(crate) fn lanes_mut(&mut self) -> &mut merge::Lanes {
        &mut self.lanes
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

/// The ORAM-mirror write of an op cell, under the presence-as-`val + 1`
/// encoding (0 = absent): whether it writes, and what — the one source of
/// truth for the ORAM path, the merge path's write-through and the rebuild.
fn write_of(op: &TagCell) -> (bool, u64) {
    let k = cell_kind(op);
    let put = k == kind::PUT;
    (
        put | (k == kind::DELETE),
        select_u64(put, 0, cell_val(op).wrapping_add(1)),
    )
}

/// The tree-ORAM mirror of a shard's table, with the private staging its
/// steps reuse, so a steady ORAM epoch leaves nothing on the heap.
struct Mirror {
    oram: Opram,
    /// The last step's sorted op cells, each with whether it heads its
    /// key's run and the value its key held before the step.
    ops: Vec<(TagCell, bool, u64)>,
    /// The last step's requests, one per op.
    reqs: Vec<(u64, Option<u64>)>,
}

impl Mirror {
    /// Apply a padded class as one [`Opram::step`], with the store's
    /// sequential semantics. The class is sorted by `(key, seq)`
    /// ([`sorted_ops`], dummies last); each run of one key makes one
    /// request carrying the run's last write, or none, and every later op
    /// of the run a dummy walk (a dummy op joins the run before it).
    /// Returns the sorted op cells, each with whether it heads its run and
    /// the value its key held before the step (`val + 1`, 0 absent).
    fn step<C: Ctx>(
        &mut self,
        c: &C,
        scratch: &ScratchPool,
        batch: &[FlatOp],
    ) -> &[(TagCell, bool, u64)] {
        let Mirror { oram, ops, reqs } = self;
        let mut sorted = sorted_ops(c, scratch, &[], batch);
        let t = Tracked::new(c, &mut sorted);
        let b = t.len();
        ops.clear();
        reqs.clear();
        let mut key = 0;
        for i in 0..b {
            let op = t.get(c, i);
            key = select_u64(op.is_filler(), cell_key(&op), key);
            ops.push((op, false, 0));
            reqs.push((key, None));
        }
        // Backward, segmented: the last write of each run rides on its head.
        let (mut has, mut val) = (false, 0);
        for i in (0..b).rev() {
            let end = i + 1 == b || reqs[i + 1].0 != reqs[i].0;
            has &= !end;
            let (writes, w) = write_of(&ops[i].0);
            val = select_u64(!has & writes, val, w);
            has |= writes;
            reqs[i].1 = has.then_some(val);
        }
        let pre = oram.step(c, reqs);
        for (i, (op, &before)) in ops.iter_mut().zip(pre).enumerate() {
            *op = (op.0, i == 0 || reqs[i - 1].0 != reqs[i].0, before);
        }
        ops
    }
}
