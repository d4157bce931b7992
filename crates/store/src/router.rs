//! Oblivious op→shard routing and the result return trip.
//!
//! Keys are assigned to shards by a **public hash** of the (private) key
//! ([`shard_of`]): the mapping is a fixed, data-independent function, but
//! *which* shard a given op lands on still depends on its secret key — so
//! the routing itself must be oblivious. It is §F's send-receive: the
//! store sorts the padded batch once, as `(key ‖ seq)` op cells, and
//! [`shard_lane`] gives each shard its own ops by masking the others' to
//! fillers and stably compacting. Every shard merges the first `zcap`
//! cells of its lane ([`shard_class`]); under scaled provisioning a
//! fixed-pattern count ([`overflows`]) first checks that they fit. The
//! trace is a function of `(batch class, shard count, zcap)` only, and two
//! ops on the same key share a shard in `seq` (submission) order, which
//! preserves the store's sequential within-epoch semantics.
//!
//! [`gather_results`] is the send-receive return trip, and the one place a
//! sharded epoch sorts its answers: the shards' answer cells (DESIGN.md
//! §10), tagged with their submission index, arrive as one `zcap`-cell
//! window per shard, in the key order the shard's merge left them. One
//! oblivious compaction of the concatenated windows brings the at most
//! `b` answers to the front, and one `b`-cell sort by submission index
//! puts them back in order for a fixed-prefix readout of the whole padded
//! batch.

use crate::merge::{cell_key, read_answers};
use crate::op::MIN_CLASS;
use fj::{grain_for, par_reduce, Ctx};
use metrics::{par_fill, ScratchGuard, ScratchPool, Tracked};
use obliv_core::{compact_cells, select_u128, TagCell};

/// The public shard-assignment hash: a fixed multiplicative hash of the
/// key, taking the top `log2(shards)` bits. Deterministic and publicly
/// known — the secrecy of the routing comes from the oblivious lanes,
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
/// on heavily skewed epochs for each shard merging `cap + zcap` cells
/// instead of `cap + b`.
pub fn shard_class(b: usize, shards: usize, slack: usize) -> usize {
    debug_assert!(b >= MIN_CLASS && b.is_power_of_two());
    if slack == 0 || shards <= 1 {
        return b;
    }
    crate::op::size_class((b * slack).div_ceil(shards).min(b))
}

/// Whether `cell` is a real op of shard `s`. Branch-free: filler-ness and
/// the key are secret.
#[inline]
fn owned(cell: &TagCell, s: usize, shards: usize) -> bool {
    !cell.is_filler() & (shard_of(cell_key(cell), shards) == s)
}

/// Whether some shard owns more than `zcap` of the op cells in `ops`: a
/// fixed-pattern count per shard over the whole lane, `shards · |ops|`
/// reads whatever the keys. The verdict is the one public bit scaled
/// provisioning reveals.
pub(crate) fn overflows<C: Ctx>(
    c: &C,
    ops: &Tracked<'_, TagCell>,
    shards: usize,
    zcap: usize,
) -> bool {
    let load = |c: &C, s: usize| {
        let own = |c: &C, i: usize| owned(&ops.get(c, i), s, shards) as usize;
        par_reduce(c, 0, ops.len(), grain_for(c), &own, &|a, b| a + b).unwrap_or(0)
    };
    par_reduce(c, 0, shards, 1, &load, &usize::max).unwrap_or(0) > zcap
}

/// Shard `s`'s lane of the sorted op cells `ops`: one fixed map turns
/// every op another shard owns into a filler, and one stable
/// [`compact_cells`] brings the shard's own ops to the front, still in
/// `(key, seq)` order, fillers after. Public length `|ops|`.
pub(crate) fn shard_lane<'s, C: Ctx>(
    c: &C,
    scratch: &'s ScratchPool,
    ops: &Tracked<'_, TagCell>,
    s: usize,
    shards: usize,
) -> ScratchGuard<'s, TagCell> {
    let mut lane = scratch.lease(ops.len(), TagCell::filler());
    let mut t = Tracked::new(c, &mut lane);
    par_fill(c, &mut t, &|c, i| {
        let cell = ops.get(c, i);
        let mine = owned(&cell, s, shards);
        TagCell {
            tag: select_u128(mine, u128::MAX, cell.tag),
            aux: select_u128(mine, 0, cell.aux),
        }
    });
    compact_cells(c, scratch, &mut t);
    lane
}

/// Route the shards' answer windows back to submission order. `entries`
/// is their concatenation, `zcap` cells each (public length `shards ·
/// zcap`, at least the padded batch class `b`): every answer cell tagged
/// by its submission index, every other cell a filler, at most `b`
/// answers in all.
///
/// **Input contract:** nothing about order. A shard hands its window over
/// as [`crate::merge::merge_epoch`] step 6 leaves it — answers in key
/// order, fillers last — but any arrangement gathers alike: one
/// [`compact_cells`] of all of `entries` brings the answers to the front
/// in place, and [`read_answers`] sorts the first `b` cells by submission
/// index and reads out the answer words of the whole padded class.
pub(crate) fn gather_results<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    entries: &mut Tracked<'_, TagCell>,
    b: usize,
) -> Vec<u128> {
    debug_assert!(entries.len() >= b);
    debug_assert!(
        entries.raw().iter().filter(|x| !x.is_filler()).count() <= b,
        "the shards answer at most the batch"
    );
    compact_cells(c, scratch, entries);
    read_answers(c, scratch, &mut entries.range(0, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{answer_cell, sorted_ops};
    use crate::op::{kind, FlatOp, Op, StoreStats};
    use crate::store::decode;
    use fj::SeqCtx;

    /// Every lane of a 4-shard split of `ops` (padded to 16 slots), each
    /// as `(key, submission index)` of its real cells, after checking that
    /// the lane has the public length and its fillers trail.
    fn lanes(ops: &[Op]) -> Vec<Vec<(u64, u64)>> {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let batch: Vec<FlatOp> = ops
            .iter()
            .map(FlatOp::of)
            .chain(std::iter::repeat_with(FlatOp::dummy))
            .take(16)
            .collect();
        let mut sorted = sorted_ops(&c, &sp, &[], &batch);
        let sorted = Tracked::new(&c, &mut sorted);
        (0..4)
            .map(|s| {
                let lane = shard_lane(&c, &sp, &sorted, s, 4);
                assert_eq!(lane.len(), 16, "shard {s}: public lane length");
                let n_real = lane.iter().take_while(|x| !x.is_filler()).count();
                assert!(lane[n_real..].iter().all(TagCell::is_filler));
                lane[..n_real]
                    .iter()
                    .map(|x| (cell_key(x), x.tag as u64 - 1))
                    .collect()
            })
            .collect()
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
    fn shard_lanes_hold_their_shards_ops_in_key_then_submission_order() {
        let ops: Vec<Op> = (0..13u64).map(|i| Op::Put { key: i % 5, val: i }).collect();
        let mut seen = 0;
        for (s, lane) in lanes(&ops).iter().enumerate() {
            // Exactly the ops shard `s` owns, by key and then submission.
            let mut want: Vec<(u64, u64)> = (0..13u64)
                .map(|i| (i % 5, i))
                .filter(|&(key, _)| shard_of(key, 4) == s)
                .collect();
            want.sort_unstable();
            assert_eq!(*lane, want, "shard {s}");
            seen += lane.len();
        }
        assert_eq!(seen, 13, "every real op lands in exactly one lane");
    }

    #[test]
    fn one_shard_can_fill_its_lane() {
        // Every op on one key: its shard's lane is full, in submission
        // order, and the count flags any class below the batch.
        let ops: Vec<Op> = (0..16u64).map(|i| Op::Put { key: 7, val: i }).collect();
        let home = shard_of(7, 4);
        for (s, lane) in lanes(&ops).iter().enumerate() {
            let want: Vec<(u64, u64)> = match s == home {
                true => (0..16).map(|i| (7, i)).collect(),
                false => Vec::new(),
            };
            assert_eq!(*lane, want, "shard {s}");
        }
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let batch: Vec<FlatOp> = ops.iter().map(FlatOp::of).collect();
        let mut sorted = sorted_ops(&c, &sp, &[], &batch);
        let sorted = Tracked::new(&c, &mut sorted);
        assert!(overflows(&c, &sorted, 4, 8));
        assert!(!overflows(&c, &sorted, 4, 16));
    }

    /// `zcap`-cell windows answering the given submission indices, each
    /// in the order listed and padded with fillers — the shape
    /// `commit_split` hands over, whatever order a window's answers take.
    fn windows(zcap: usize, idx: &[&[u64]]) -> Vec<TagCell> {
        idx.iter()
            .flat_map(|win| {
                assert!(win.len() <= zcap);
                let real = win.iter().map(|&i| answer_cell(i, kind::GET, true, i * 10));
                let pad = std::iter::repeat(TagCell::filler());
                real.chain(pad).take(zcap).collect::<Vec<_>>()
            })
            .collect()
    }

    /// Gather [`windows`] for a padded batch of class `b`: the answers as
    /// the store decodes them.
    fn gather(zcap: usize, b: usize, idx: &[&[u64]]) -> Vec<Option<u64>> {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut entries = windows(zcap, idx);
        let out = gather_results(&c, &sp, &mut Tracked::new(&c, &mut entries), b);
        let snapshot = StoreStats::default();
        out.iter().map(|&a| decode(a, snapshot).value()).collect()
    }

    /// What a class-`b` batch whose first `r` slots are real reads back.
    fn answered(r: u64, b: u64) -> Vec<Option<u64>> {
        (0..b).map(|j| (j < r).then_some(j * 10)).collect()
    }

    #[test]
    fn gather_puts_key_ordered_answers_in_submission_order() {
        // 2 shards × 8 slots, 7 real ops: each window lists its answers by
        // key, which is no order of their slots.
        assert_eq!(gather(8, 8, &[&[5, 0, 3], &[6, 1, 2, 4]]), answered(7, 8));
    }

    #[test]
    fn gather_takes_unequal_shard_loads() {
        let idx: [&[u64]; 4] = [&[2], &[7, 0, 5, 1, 6], &[], &[4, 3]];
        assert_eq!(gather(8, 8, &idx), answered(8, 8));
        // A part-full batch: two slots are padding.
        let idx: [&[u64]; 4] = [&[], &[5, 0], &[3, 1, 4], &[2]];
        assert_eq!(gather(8, 8, &idx), answered(6, 8));
    }

    #[test]
    fn gather_takes_one_full_window_beside_three_empty_ones() {
        let full: &[u64] = &[6, 3, 0, 7, 1, 4, 2, 5];
        for home in 0..4 {
            let mut idx: [&[u64]; 4] = [&[]; 4];
            idx[home] = full;
            assert_eq!(
                gather(8, 8, &idx),
                answered(8, 8),
                "answers on shard {home}"
            );
        }
    }

    #[test]
    fn gather_reads_the_batch_out_of_wider_provisioning() {
        // Slack 2 over 4 shards: `zcap = 8` for a batch of 16, so the
        // windows hold twice the batch, and the answers come from all of
        // them.
        assert_eq!(shard_class(16, 4, 2), 8);
        let idx: [&[u64]; 4] = [
            &[9, 2, 14],
            &[0, 11, 5, 7, 12, 1],
            &[3, 15, 8],
            &[10, 4, 13, 6],
        ];
        assert_eq!(gather(8, 16, &idx), answered(16, 16));
        let idx: [&[u64]; 4] = [&[], &[8, 2], &[0, 10, 5, 7, 1], &[9, 3, 6, 4]];
        assert_eq!(gather(8, 16, &idx), answered(11, 16));
    }

    #[test]
    fn gather_takes_windows_whose_tags_descend() {
        assert_eq!(
            gather(4, 8, &[&[7, 5, 3, 1], &[6, 4, 2, 0]]),
            answered(8, 8)
        );
        // Eight descending windows of 16 slots, 32 real ops.
        let idx: Vec<Vec<u64>> = (0..8u64)
            .map(|s| (0..32).rev().filter(|j| j % 11 % 8 == s).collect())
            .collect();
        let idx: Vec<&[u64]> = idx.iter().map(Vec::as_slice).collect();
        assert_eq!(gather(16, 32, &idx), answered(32, 32));
    }
}
