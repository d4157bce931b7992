//! Oblivious op→shard routing and the result return trip.
//!
//! Keys are assigned to shards by a **public hash** of the (private) key
//! ([`shard_of`]): the mapping is a fixed, data-independent function, but
//! *which* shard a given op lands on still depends on its secret key — so
//! the routing itself must be oblivious. [`route_ops`] realizes it on
//! [`obliv_core::oblivious_scatter`] (the §F send-receive pattern): every
//! shard's sub-batch is padded to the same public class `zcap`
//! ([`shard_class`]), so the adversary trace of the whole routing step is
//! a function of `(batch class, shard count, zcap)` only. The scatter is
//! *stable* (reals keep submission order inside each sub-batch), which is
//! what preserves the store's sequential within-epoch semantics: two ops
//! on the same key always share a shard and arrive in submission order.
//!
//! [`gather_results`] is the send-receive return trip: the shards' answer
//! cells (DESIGN.md §10), re-tagged with their submission index, arrive as
//! one ascending run per shard (the scatter was stable) and are merged
//! back to submission order — the engine's sort-from-runs, the same merge
//! of sorted runs ORBA's placements use, not a sort — followed by a
//! fixed-prefix readout of the whole padded batch.

use crate::merge::{read_answers, ENGINE};
use crate::op::{kind, FlatOp, MIN_CLASS};
use fj::Ctx;
use metrics::{ScratchPool, Tracked};
use obliv_core::scatter::oblivious_scatter;
use obliv_core::{Item, Result, Slot, TagCell};

/// The public shard-assignment hash: a fixed multiplicative hash of the
/// key, taking the top `log2(shards)` bits. Deterministic and publicly
/// known — the secrecy of the routing comes from the oblivious scatter,
/// not from the hash.
pub fn shard_of(key: u64, shards: usize) -> usize {
    debug_assert!(shards.is_power_of_two());
    if shards <= 1 {
        return 0;
    }
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - shards.trailing_zeros())) as usize
}

/// Public per-shard sub-batch class for a batch of (padded) class `b`:
/// `slack = 0` provisions every shard for the full batch (`zcap = b`,
/// routing can never overflow); `slack = k ≥ 1` provisions
/// `size_class(k · b / shards)`, trading a public overflow-fallback signal
/// on heavily skewed epochs for `shards/k`-fold smaller routed arrays.
pub fn shard_class(b: usize, shards: usize, slack: usize) -> usize {
    debug_assert!(b >= MIN_CLASS && b.is_power_of_two());
    if slack == 0 || shards <= 1 {
        return b;
    }
    crate::op::size_class((b * slack).div_ceil(shards).min(b))
}

/// One shard's routed sub-batch: `zcap` padded slots with the reals (in
/// submission order) leading, each real's submission index alongside.
pub(crate) struct SubBatch {
    pub batch: Vec<FlatOp>,
    /// Submission index per slot; `u64::MAX` for padding.
    pub idx: Vec<u64>,
}

/// Obliviously scatter a padded batch into `shards` sub-batches of `zcap`
/// slots each. Fails with `BinOverflow` (after completing its fixed-trace
/// pass) when more than `zcap` ops hash to one shard; `zcap = b` never
/// fails.
pub(crate) fn route_ops<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    batch: &[FlatOp],
    shards: usize,
    zcap: usize,
) -> Result<Vec<SubBatch>> {
    // Dummies become fillers (they consume no shard capacity); every input
    // slot is written exactly once either way. `item.key` carries the
    // submission index — the scatter's stability tiebreak and the gather's
    // routing key.
    let slots: Vec<Slot<FlatOp>> = batch
        .iter()
        .enumerate()
        .map(|(j, f)| {
            if f.kind == kind::DUMMY {
                Slot::filler()
            } else {
                Slot::real(Item::new(j as u128, *f), shard_of(f.key, shards) as u64)
            }
        })
        .collect();
    c.charge_par(batch.len() as u64);

    let routed = oblivious_scatter(c, scratch, &slots, shards, zcap, ENGINE)?;
    Ok(routed
        .chunks(zcap)
        .map(|chunk| {
            // Reals are packed in front of each chunk (scatter contract),
            // so the sub-batch keeps the merge path's reals-lead-the-batch
            // shape.
            let (batch, idx) = chunk
                .iter()
                .map(|s| {
                    if s.is_real() {
                        (s.item.val, s.item.key as u64)
                    } else {
                        (FlatOp::dummy(), u64::MAX)
                    }
                })
                .unzip();
            SubBatch { batch, idx }
        })
        .collect())
}

/// Route per-shard answer cells back to submission order. `entries` is the
/// concatenation of the shards' answer runs, `zcap` cells each (public
/// length `shards · zcap`, both powers of two), every answer tagged by its
/// submission index and every padding slot a filler.
///
/// **Input contract:** every run is ascending by tag with its fillers
/// last. [`route_ops`] scatters stably and a shard answers its sub-batch
/// slot for slot, so the runs `commit_split` hands over always are. Sorted
/// runs are merged, not re-sorted
/// ([`obliv_core::Engine::sort_cells_from_runs`]: `log₂ shards` rounds of
/// bitonic merges, `O(n log n)` comparators in total against the
/// `O(n log² n)` of a sort), then [`read_answers`] reads out the whole
/// padded batch class `b`.
pub(crate) fn gather_results<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    entries: &[TagCell],
    zcap: usize,
    b: usize,
) -> Vec<TagCell> {
    let n = entries.len();
    debug_assert!(n >= b && zcap.is_power_of_two() && n.is_power_of_two() && zcap <= n);
    debug_assert!(
        entries.chunks(zcap).all(|run| run
            .windows(2)
            .all(|w| w[0].tag < w[1].tag || w[1].is_filler())),
        "gather runs must ascend by submission index, padding last"
    );
    let mut cells = scratch.lease(n, TagCell::filler());
    cells.copy_from_slice(entries);
    c.charge_par(n as u64);

    let mut t = Tracked::new(c, &mut cells);
    ENGINE.sort_cells_from_runs(c, scratch, &mut t, zcap);
    read_answers(c, &t, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::answer_cell;
    use crate::op::{Op, StoreStats};
    use crate::store::decode;
    use fj::SeqCtx;

    /// Real ops lead a sub-batch; padding is indexed `u64::MAX`.
    fn n_real(sub: &SubBatch) -> usize {
        sub.idx.iter().take_while(|&&i| i != u64::MAX).count()
    }

    #[test]
    fn shard_hash_is_total_and_stable() {
        for shards in [1usize, 2, 4, 8] {
            for key in (0..1000u64).chain([u64::MAX, u64::MAX - 7]) {
                let s = shard_of(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(key, shards), "hash must be a function");
            }
        }
        assert_eq!(shard_of(12345, 1), 0);
    }

    #[test]
    fn shard_classes_are_public_and_clamped() {
        // slack 0: always the full batch class.
        assert_eq!(shard_class(64, 4, 0), 64);
        // scaled: size class of slack*b/shards, floored at MIN_CLASS…
        assert_eq!(shard_class(64, 4, 2), 32);
        assert_eq!(shard_class(8, 8, 2), MIN_CLASS);
        // …and clamped to the batch class itself.
        assert_eq!(shard_class(64, 2, 2), 64);
        assert_eq!(shard_class(64, 1, 3), 64);
    }

    #[test]
    fn routing_preserves_submission_order_within_shards() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let ops: Vec<FlatOp> = (0..13u64)
            .map(|i| FlatOp::of(&Op::Put { key: i % 5, val: i }))
            .chain(std::iter::repeat_with(FlatOp::dummy))
            .take(16)
            .collect();
        let subs = route_ops(&c, &sp, &ops, 4, 16).unwrap();
        assert_eq!(subs.len(), 4);
        let mut seen = 0;
        for (s, sub) in subs.iter().enumerate() {
            assert_eq!(sub.batch.len(), 16);
            // Each real op landed on its hash shard, in ascending
            // submission order, ahead of the padding.
            let n_real = n_real(sub);
            assert!(sub.idx[n_real..].iter().all(|&i| i == u64::MAX));
            let idxs: Vec<u64> = sub.idx[..n_real].to_vec();
            assert!(idxs.windows(2).all(|w| w[0] < w[1]), "shard {s}: {idxs:?}");
            for (z, f) in sub.batch[..n_real].iter().enumerate() {
                assert_eq!(shard_of(f.key, 4), s);
                assert_eq!(f.val, idxs[z], "payload rides along");
            }
            seen += n_real;
        }
        assert_eq!(seen, 13, "every real op routed exactly once");
    }

    #[test]
    fn routing_never_overflows_at_full_provisioning() {
        // `zcap = b` and every op on one key: the scatter sorts only the
        // `b`-slot prefix of the `shards · b` array, and one bin takes it
        // all, in submission order.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let ops: Vec<FlatOp> = (0..16u64)
            .map(|i| FlatOp::of(&Op::Put { key: 7, val: i }))
            .collect();
        let subs = route_ops(&c, &sp, &ops, 4, 16).unwrap();
        let home = shard_of(7, 4);
        for (s, sub) in subs.iter().enumerate() {
            assert_eq!(n_real(sub), if s == home { 16 } else { 0 });
        }
        assert_eq!(subs[home].idx, (0..16).collect::<Vec<u64>>());
        let vals: Vec<u64> = subs[home].batch.iter().map(|f| f.val).collect();
        assert_eq!(vals, (0..16).collect::<Vec<u64>>());
    }

    /// `zcap`-cell runs answering the given submission indices
    /// (ascending), padded with fillers — the shape `commit_split`
    /// produces.
    fn runs(zcap: usize, idx: &[&[u64]]) -> Vec<TagCell> {
        idx.iter()
            .flat_map(|run| {
                assert!(run.len() <= zcap && run.windows(2).all(|w| w[0] < w[1]));
                let real = run.iter().map(|&i| answer_cell(i, kind::GET, true, i * 10));
                let pad = std::iter::repeat(TagCell::filler());
                real.chain(pad).take(zcap).collect::<Vec<_>>()
            })
            .collect()
    }

    /// The gathered answers as the store decodes them.
    fn values(out: &[TagCell]) -> Vec<Option<u64>> {
        let snapshot = StoreStats::default();
        out.iter().map(|a| decode(a, snapshot).value()).collect()
    }

    #[test]
    fn gather_returns_submission_order() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        // 2 shards × 4 slots, 5 real results between them.
        let entries = runs(4, &[&[0, 3], &[1, 2, 4]]);
        let out = gather_results(&c, &sp, &entries, 4, 8);
        let want: Vec<Option<u64>> = (0..8).map(|j| (j < 5).then_some(j * 10)).collect();
        assert_eq!(values(&out), want);
        assert!(out.iter().enumerate().all(|(j, a)| a.tag == j as u128));
    }

    #[test]
    fn gather_merges_empty_full_and_ragged_runs() {
        // 4 shards × 4 slots: an empty run, a full one and two ragged
        // ones.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let entries = runs(4, &[&[], &[1, 2, 5, 7], &[0], &[3, 4, 6]]);
        let out = gather_results(&c, &sp, &entries, 4, 8);
        let want: Vec<Option<u64>> = (0..8).map(|j| Some(j * 10)).collect();
        assert_eq!(values(&out), want);
        // Eight runs: three merge rounds over leaves of both directions.
        let idx: Vec<Vec<u64>> = (0..8u64)
            .map(|s| (0..32).filter(|j| j % 11 % 8 == s).collect())
            .collect();
        let idx: Vec<&[u64]> = idx.iter().map(Vec::as_slice).collect();
        let out = gather_results(&c, &sp, &runs(16, &idx), 16, 32);
        let want: Vec<Option<u64>> = (0..32).map(|j| Some(j * 10)).collect();
        assert_eq!(values(&out), want);
    }
}
