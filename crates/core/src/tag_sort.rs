//! Tag-sort: oblivious sorting and routing of packed key–value cells.
//!
//! The store's hot paths (and any caller whose records are key–value
//! shaped) do not need the full ORP + REC-SORT pipeline of
//! [`crate::oblivious_sort`]: a comparator network is *unconditionally*
//! oblivious, and once the record is packed into a 32-byte [`TagCell`]
//! (16-byte `key ‖ tiebreak` tag, 16-byte payload lane) the network moves
//! 3× less data per compare-exchange than the `Slot`-wrapped
//! representation. This module is the public face of that fast path:
//!
//! * [`oblivious_sort_kv`] — stable oblivious sort of `(u64 key, u64 val)`
//!   records via one cell network. The tag packs the submission index as a
//!   tiebreak ([`composite_key`]), so equal keys keep their input order
//!   and every comparison is strict.
//! * [`compact_cells`] — stable oblivious tight compaction of a cell
//!   array: all non-filler cells move to the front, in order, through the
//!   order-preserving offset-compaction butterfly — a rank scan, then
//!   `(n/2) log n` index-driven conditional swaps evaluated as a
//!   depth-first recursion (`O(n log n)` work, `O(log² n)` span,
//!   `Q = O((n/B) log(n/M))`, in place, no comparators). Cheaper than
//!   compacting with a sort, and the routing half of the tag-sort trick:
//!   sort the dense tags, then move each wide lane exactly once.
//!
//! Obliviousness: the cell networks touch a fixed comparator schedule, and
//! the compaction reads and writes both cells of every pair of every
//! level whatever its (secret, rank-derived) swap verdict — for a fixed
//! length the adversary trace is bit-identical across inputs (no
//! distributional argument needed, unlike the post-ORP phases; see
//! `obliv_check`'s tag-sort rows). Every step is a swap, so the array is
//! permuted, never overwritten, and the offsets make each pair's verdict
//! unambiguous — the compaction needs no collision argument, where its
//! top-down mirror [`crate::expand()`] has to show that no pair holds two
//! reals bound for the same half.

use crate::engine::Engine;
use crate::scan::{prefix_sum_in, Schedule};
use crate::slot::composite_key;
use fj::{base_for, grain_for, par_for, Ctx};
use metrics::{par_fill, RawTracked, ScratchPool, Tracked};
use sortnet::{active_backend, select_cell, TagCell, TILE_RUN_BYTES};
use std::mem::size_of;

/// Stable, data-oblivious sort of `(key, val)` records ascending by key:
/// one branchless cell network over `(key ‖ index, val)` tags.
///
/// With the comparator-network engines (`BitonicRec`/`BitonicFlat`/
/// `OddEven` — every store configuration) the access pattern is a fixed
/// function of `data.len()` alone: no coins, no retries, and sortedness
/// is guaranteed by the network. `Engine::Shellsort` is the exception it
/// inherits from [`Engine::sort_cells`]: randomized Shellsort draws
/// seeded public coins (trace fixed per `(seed, n)`) and sorts w.h.p.
/// without a retry wrapper — same contract as `Engine::sort_slots`, so
/// don't feed its output to anything that *requires* sorted input (e.g.
/// a bitonic merge) without checking.
///
/// This is the tag-sort fast path the store's merge pipeline is built on;
/// prefer it over [`crate::oblivious_sort`] whenever the payload fits the
/// 16-byte aux lane (the general pipeline remains the asymptotically
/// better choice for wide records and huge `n`).
pub fn oblivious_sort_kv<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    data: &mut [(u64, u64)],
    engine: Engine,
) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut cells = scratch.lease(n, TagCell::filler());
    let mut t = Tracked::new(c, &mut cells);
    let input: &[(u64, u64)] = data;
    par_fill(c, &mut t, &|_, i| {
        let (k, v) = input[i];
        TagCell::new(composite_key(k, i as u64), v as u128)
    });
    engine.sort_cells(c, scratch, &mut t);
    par_fill(c, &mut Tracked::new(c, data), &|c, i| {
        let cell = t.get(c, i);
        ((cell.tag >> 64) as u64, cell.aux as u64)
    });
}

/// Stable oblivious tight compaction of a cell array of any length: every
/// non-filler cell moves to the front, preserving order; the suffix is
/// canonical fillers (whatever the input fillers carried in `aux`).
///
/// The network is the order-preserving offset-compaction butterfly
/// (ORCompact): a marking pass canonicalizes the fillers and an exclusive
/// scan ranks the reals; then, bottom-up, every aligned block
/// `[lo, lo + n)` gathers its reals — in order, cyclically — from
/// position `rank[lo] mod n` of the block onwards. A block's halves are
/// already gathered at their own offsets, so pair `(lo + i, lo + n/2 + i)`
/// holds at most one real bound for each side and one conditional swap
/// settles it; whether the pairs below or from `t = rank[lo + n/2] mod n/2`
/// swap is one bit `s` per block. The top block's offset is `rank[0] = 0`:
/// the reals end up in front. Correctness needs no collision argument —
/// every step permutes the array.
///
/// A length `m` that is not a power of two is split as ORCompact splits
/// it: `m₁` the largest power of two below `m`, `m₂ = m − m₁`. The prefix
/// `[0, m₂)` is compacted (recursively, so its `k` reals lead it), and the
/// suffix `[m₂, m)` — a power-of-two block — is gathered at offset
/// `rank[m₂] + m₁ − m₂ mod m₁`, its ranks shifted by the public `m₁ − m₂`.
/// Its reals then sit at their final positions `k, k + 1, …` where those
/// are `≥ m₂`, and exactly `m₁` above them where they are not — across
/// from a prefix filler. One swap level over the pairs `(i, i + m₁)`,
/// `i < m₂`, swapping iff `i ≥ k`, brings them down. `k` and the shift
/// feed only swap masks; a power-of-two `m` is the plain butterfly.
///
/// `(m/2) log m` swaps at most, `O(m log m)` work, in place (one leased
/// rank lane). The recursion is depth-first down to [`base_for`]-sized
/// blocks, which run their levels flat, so a block is finished while it is
/// cache-resident: `Q = O((m/B) log(m/M))`; span `O(log² m)` (a `par_for`
/// per level of the recursion spine).
///
/// Obliviousness: `s`, `t`, `k` and the ranks are secret, and feed nothing
/// but the swap verdict of a pair whose two cells are both read and both
/// written regardless — addresses, loop bounds and the fork tree depend on
/// `m` alone.
pub fn compact_cells<C: Ctx>(c: &C, scratch: &ScratchPool, t: &mut Tracked<'_, TagCell>) {
    let m = t.len();
    if m == 0 {
        return;
    }

    let mut rank_store = scratch.lease(m, 0u64);
    let mut rank = Tracked::new(c, &mut rank_store);
    {
        // Rank lane first, then the cell: the one two-lane order the
        // combinators do not write, so the raw view.
        let (rr, tr) = (rank.as_raw(), t.as_raw());
        par_for(c, 0, m, grain_for(c), &|c, i| unsafe {
            // SAFETY: each index read and written once, by this task.
            let cell = tr.get(c, i);
            let real = !cell.is_filler();
            rr.set(c, i, real as u64);
            tr.set(c, i, select_cell(real, TagCell::filler(), cell));
        });
    }
    prefix_sum_in(c, scratch, &mut rank, false, Schedule::Tree);
    compact_ranked(c, t, &mut rank, base_for(c, size_of::<TagCell>()));
}

/// Compact `t` given the exclusive ranks of its reals, `rank[0] = 0`: the
/// power-of-two butterfly, or the split of [`compact_cells`] — prefix and
/// suffix in parallel, then the swap level across them.
fn compact_ranked<C: Ctx>(
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    rank: &mut Tracked<'_, u64>,
    base: usize,
) {
    let m = t.len();
    let m1 = 1 << m.ilog2();
    let m2 = m - m1;
    if m2 == 0 {
        return gather(c, &t.as_raw(), rank, 0, m, base, 0);
    }
    let k = rank.get(c, m2) as usize;
    {
        let (mut t_lo, mut t_hi) = t.split_at_mut(m2);
        let (mut r_lo, r_hi) = rank.split_at_mut(m2);
        c.join(
            move |c| compact_ranked(c, &mut t_lo, &mut r_lo, base),
            move |c| gather(c, &t_hi.as_raw(), &r_hi, 0, m1, base, (m1 - m2) as u64),
        );
    }
    swap_pairs(c, &t.as_raw(), 0, m2, m1, k, false);
}

/// Gather the reals of the aligned block `[lo, lo + n)` cyclically from
/// position `rank[lo] + shift mod n`: both halves first (in parallel above
/// `base`, level by level below it), then one swap level across them.
fn gather<C: Ctx>(
    c: &C,
    t: &RawTracked<TagCell>,
    rank: &Tracked<'_, u64>,
    lo: usize,
    n: usize,
    base: usize,
    shift: u64,
) {
    if n <= base {
        let mut w = 2;
        while w <= n {
            swap_level(c, t, rank, lo, n, w, shift);
            w *= 2;
        }
        return;
    }
    c.join(
        |c| gather(c, t, rank, lo, n / 2, base, shift),
        |c| gather(c, t, rank, lo + n / 2, n / 2, base, shift),
    );
    swap_level(c, t, rank, lo, n, n, shift);
}

/// One swap level over `[lo, lo + n)`: every aligned block of width `w`
/// in it, its halves already gathered, gathers itself. With
/// `z = rank[block] mod w` the block's offset and `cnt` the reals of its
/// left half, the right half's reals start at `t = (z + cnt) mod w/2`, and
/// pair `i` swaps iff `s ⊕ (i ≥ t)`, where `s` says whether the left
/// half's run `[z mod w/2, z mod w/2 + cnt)` wraps exactly when `z` itself
/// lies in the upper half. Every rank is read `+ shift`.
///
/// A block's pairs go through the cell gate's
/// [`swap_slab`](sortnet::Backend::swap_slab), a grain at a time. On a host
/// (`!c.is_metered()`) a level whose runs are shorter than one tile run
/// ([`TILE_RUN_BYTES`]) — one to sixteen pairs a block — is instead one
/// `par_for` over grains of the level's pairs, a grain one
/// [`swap_level`](sortnet::Backend::swap_level) call with the block's
/// split inlined into the verdict: the pairs and the cells they leave are
/// the same, only the calls are fewer. Metered contexts keep the block
/// loop, whose fork tree and `work` the model counts.
fn swap_level<C: Ctx>(
    c: &C,
    t: &RawTracked<TagCell>,
    rank: &Tracked<'_, u64>,
    lo: usize,
    n: usize,
    w: usize,
    shift: u64,
) {
    let h = w / 2;
    let grain = grain_for(c);
    if !c.is_metered() && h * size_of::<TagCell>() < TILE_RUN_BYTES {
        // `lo` is a multiple of `n`, hence of `w`: `lo / 2` pairs precede it.
        let (first, end) = (lo / 2, (lo + n) / 2);
        let gate = active_backend();
        par_for(c, 0, (n / 2).div_ceil(grain), 1, &|c, k| {
            let pairs = first + k * grain..end.min(first + (k + 1) * grain);
            // Pairs come block by block: the split is taken once a block.
            let (mut at, mut cur) = (usize::MAX, (0, false));
            let verdict = |i: usize, _, _| {
                let b = i & !(w - 1);
                if b != at {
                    (at, cur) = (b, split(c, rank, b, w, shift));
                }
                cur.1 ^ (i & (h - 1) >= cur.0)
            };
            // SAFETY: the caller owns `[lo, lo + n)` of the cells, and the
            // grains are disjoint runs of the level's pairs in it.
            unsafe { gate.swap_level(c, t, h, pairs, verdict) };
        });
        return;
    }
    par_for(c, 0, n / w, (grain / h).max(1), &|c, b| {
        let lo = lo + b * w;
        let (pivot, s) = split(c, rank, lo, w, shift);
        swap_pairs(c, t, lo, h, h, pivot, s);
    });
}

/// The pairs `(lo + i, lo + i + stride)`, `i < pairs`, pair `i` swapping
/// iff `s ⊕ (i ≥ pivot)`: the cell gate's
/// [`swap_slab`](sortnet::Backend::swap_slab), a grain at a time.
fn swap_pairs<C: Ctx>(
    c: &C,
    t: &RawTracked<TagCell>,
    lo: usize,
    pairs: usize,
    stride: usize,
    pivot: usize,
    s: bool,
) {
    let grain = grain_for(c);
    let gate = active_backend();
    par_for(c, 0, pairs.div_ceil(grain), 1, &|c, k| {
        let from = k * grain;
        let run = lo + from..lo + pairs.min(from + grain);
        // SAFETY: the caller owns both runs of the pairs, `pairs ≤ stride`
        // apart, and the grains are disjoint.
        unsafe { gate.swap_slab(c, t, run, stride, pivot as i64 - from as i64, s) };
    });
}

/// The split of the `w`-block at `lo`, whose halves are gathered: pair
/// `i` of the block swaps iff `s ⊕ (i ≥ pivot)` (see [`swap_level`]).
#[inline(always)]
fn split<C: Ctx>(c: &C, rank: &Tracked<'_, u64>, lo: usize, w: usize, shift: u64) -> (usize, bool) {
    let h = w / 2;
    let (r_lo, r_mid) = (rank.get(c, lo) + shift, rank.get(c, lo + h) + shift);
    c.work(1);
    let z = r_lo & (w as u64 - 1);
    let wraps = (z & (h as u64 - 1)) + (r_mid - r_lo) >= h as u64;
    ((r_mid & (h as u64 - 1)) as usize, wraps ^ (z >= h as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osort::{oblivious_sort, OSortParams};
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;

    #[test]
    fn kv_sort_matches_std_stable_sort() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [0usize, 1, 2, 3, 100, 1000, 4096] {
            let mut data: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (i.wrapping_mul(0x9E3779B9) % 64, i))
                .collect();
            let mut expect = data.clone();
            expect.sort_by_key(|&(k, _)| k); // stable
            oblivious_sort_kv(&c, &sp, &mut data, Engine::BitonicRec);
            assert_eq!(data, expect, "n = {n}");
        }
    }

    #[test]
    fn kv_sort_under_every_engine() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let input: Vec<(u64, u64)> = (0..500u64).map(|i| (i.wrapping_mul(31) % 97, i)).collect();
        let mut expect = input.clone();
        expect.sort_by_key(|&(k, _)| k);
        for engine in [
            Engine::BitonicRec,
            Engine::BitonicFlat,
            Engine::OddEven,
            Engine::Shellsort { seed: 5 },
        ] {
            let mut data = input.clone();
            oblivious_sort_kv(&c, &sp, &mut data, engine);
            assert_eq!(data, expect, "engine {engine:?}");
        }
    }

    #[test]
    fn kv_sort_trace_is_input_independent() {
        // Unconditional Definition-1 equality: unlike the post-ORP phases
        // of the general sort, the cell network needs no distributional
        // argument — duplicate keys included.
        let n = 1200usize;
        let run = |keys: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                let mut data: Vec<(u64, u64)> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k, i as u64))
                    .collect();
                oblivious_sort_kv(c, &sp, &mut data, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..n as u64).collect());
        let b = run((0..n as u64).rev().collect());
        let z = run(vec![7; n]);
        assert_eq!(a, b);
        assert_eq!(a, z);
    }

    #[test]
    fn kv_sort_parallel_matches() {
        let pool = Pool::new(4);
        let sp = ScratchPool::new();
        let mut data: Vec<(u64, u64)> = (0..20_000u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 20, i))
            .collect();
        let mut expect = data.clone();
        expect.sort_by_key(|&(k, _)| k);
        pool.run(|c| oblivious_sort_kv(c, &sp, &mut data, Engine::BitonicRec));
        assert_eq!(data, expect);
    }

    fn compact_oracle(cells: &[TagCell]) -> Vec<TagCell> {
        let mut out: Vec<TagCell> = cells.iter().copied().filter(|x| !x.is_filler()).collect();
        out.resize(cells.len(), TagCell::filler());
        out
    }

    fn run_compact(cells: &mut Vec<TagCell>) {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut t = Tracked::new(&c, cells.as_mut_slice());
        compact_cells(&c, &sp, &mut t);
    }

    #[test]
    fn compact_exhaustive_small_patterns() {
        // Every flag pattern of every length up to m = 16 (four swap
        // levels, every offset and wrap case of the butterfly, every split
        // of a length that is not a power of two), with the non-canonical
        // fillers `merge_epoch`'s results lane really produces
        // (`tag = MAX`, `aux ≠ 0`): the output suffix must be canonical.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for m in 1u32..=16 {
            for mask in 0u32..1 << m {
                let mut cells: Vec<TagCell> = (0..m as u128)
                    .map(|i| {
                        if (mask >> i) & 1 == 1 {
                            TagCell::new(i * 10, i + 100)
                        } else {
                            TagCell::new(u128::MAX, i + 1)
                        }
                    })
                    .collect();
                let expect = compact_oracle(&cells);
                compact_cells(&c, &sp, &mut Tracked::new(&c, &mut cells));
                assert_eq!(cells, expect, "m {m} mask {mask:016b}");
            }
        }
    }

    #[test]
    fn compact_preserves_order_and_lanes() {
        let mut cells: Vec<TagCell> = (0..1024u128)
            .map(|i| {
                if i % 3 == 0 {
                    TagCell::new(i.wrapping_mul(0x9E37) & (u128::MAX >> 1), i)
                } else {
                    TagCell::filler()
                }
            })
            .collect();
        let expect = compact_oracle(&cells);
        run_compact(&mut cells);
        assert_eq!(cells, expect);
    }

    /// Meter one compaction of `m` cells, position `i` real iff `real(i)`.
    fn metered_compact(m: usize, real: impl Fn(usize) -> bool) -> metrics::CostReport {
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let sp = ScratchPool::new();
            let mut cells: Vec<TagCell> = (0..m)
                .map(|i| {
                    if real(i) {
                        TagCell::new(i as u128, 1)
                    } else {
                        TagCell::filler()
                    }
                })
                .collect();
            let mut t = Tracked::new(c, &mut cells);
            compact_cells(c, &sp, &mut t);
        });
        rep
    }

    #[test]
    fn compact_trace_independent_of_flag_positions() {
        // m = 4096 crosses the metered `base_for` cut: joined recursion
        // above 32-cell blocks, flat levels inside them. 1091 = 1024 + 64 +
        // 2 + 1 splits four times, and the pivot of every split level is
        // secret.
        for m in [4096usize, 1091] {
            let trace = |rep: metrics::CostReport| (rep.trace_hash, rep.trace_len);
            let alternating = trace(metered_compact(m, |i| i % 2 == 0));
            let front = trace(metered_compact(m, |i| i < m / 2));
            let back = trace(metered_compact(m, |i| i >= m / 2));
            let empty = trace(metered_compact(m, |_| false));
            let full = trace(metered_compact(m, |_| true));
            assert_eq!(
                alternating, front,
                "m {m}: flag positions leaked into the trace"
            );
            assert_eq!(
                alternating, back,
                "m {m}: flag positions leaked into the trace"
            );
            assert_eq!(
                alternating, empty,
                "m {m}: flag count leaked into the trace"
            );
            assert_eq!(alternating, full, "m {m}: flag count leaked into the trace");
        }
    }

    #[test]
    fn compact_golden_counters_at_4096() {
        // `[work, span, cache_misses, trace_len]` of the butterfly at the
        // default cache geometry.
        let r = metered_compact(4096, |i| i % 3 == 0);
        assert_eq!(
            [r.work, r.span, r.cache_misses, r.trace_len],
            [256751, 412, 3459, 147448]
        );
    }

    #[test]
    fn compact_parallel_matches() {
        // m = 65536 crosses the host `base_for` cut and every `par_for`
        // grain: the pool's forked recursion must land every cell where
        // the sequential walk does.
        let pool = Pool::pinned(4);
        let sp = ScratchPool::new();
        let input: Vec<TagCell> = (0..65536u128)
            .map(|i| {
                if i.wrapping_mul(0x9E37_79B9) % 7 < 3 {
                    TagCell::new(i, i * 2)
                } else {
                    TagCell::new(u128::MAX, i)
                }
            })
            .collect();
        let expect = compact_oracle(&input);
        let mut seq = input.clone();
        run_compact(&mut seq);
        assert_eq!(seq, expect);
        let mut par = input;
        pool.run(|c| {
            let mut t = Tracked::new(c, &mut par);
            compact_cells(c, &sp, &mut t);
        });
        assert_eq!(par, expect);
    }

    #[test]
    fn host_compaction_leaves_the_metered_cells() {
        // On a host the narrow levels are level-wide `swap_level` calls;
        // under the meter every level is the per-block `swap_slab` loop.
        // Same pairs, same verdicts, so the same cells — from one pair to
        // past the host base case (2¹⁶ joins its recursion above it), and
        // at `2^k + 2^j`, whose suffix blocks start off the power-of-two
        // grid, on a sequential and a 4-worker executor, fillers
        // non-canonical.
        let pool = Pool::new(4);
        let sp = ScratchPool::new();
        let random = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0;
        let split = [
            (1, 0),
            (3, 1),
            (5, 4),
            (6, 0),
            (9, 5),
            (12, 3),
            (14, 13),
            (16, 15),
        ];
        let lengths = (1..=16)
            .map(|lg| 1usize << lg)
            .chain(split.map(|(k, j)| (1usize << k) + (1 << j)));
        for m in lengths {
            let patterns: [(&str, &dyn Fn(usize) -> bool); 6] = [
                ("none", &|_| false),
                ("all", &|_| true),
                ("alternating", &|i| i % 2 == 0),
                ("front", &|i| i < m / 2),
                ("back", &|i| i >= m / 2),
                ("random", &random),
            ];
            for (name, real) in patterns {
                let input: Vec<TagCell> = (0..m as u128)
                    .map(|i| match real(i as usize) {
                        true => TagCell::new(i * 3, i),
                        false => TagCell::new(u128::MAX, i),
                    })
                    .collect();
                let mut metered = input.clone();
                measure(CacheConfig::default(), TraceMode::Off, |c| {
                    compact_cells(c, &sp, &mut Tracked::new(c, &mut metered))
                });
                assert_eq!(metered, compact_oracle(&input), "m {m} {name}");
                let mut seq = input.clone();
                run_compact(&mut seq);
                assert!(seq == metered, "m {m} {name}: SeqCtx");
                let mut par = input;
                pool.run(|c| compact_cells(c, &sp, &mut Tracked::new(c, &mut par)));
                assert!(par == metered, "m {m} {name}: pool");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The tag-sort fast path and the full §3.3/§3.4 pipeline agree on
        /// arbitrary wide records (both are stable sorts by key).
        #[test]
        fn prop_kv_sort_matches_oblivious_sort(
            pairs in proptest::collection::vec((any::<u64>(), 0u64..u64::MAX), 0..400),
        ) {
            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let mut tag_path = pairs.clone();
            oblivious_sort_kv(&c, &sp, &mut tag_path, Engine::BitonicRec);
            let mut record_path = pairs;
            let params = OSortParams::practical(record_path.len());
            oblivious_sort(&c, &sp, &mut record_path, params, 17);
            prop_assert_eq!(tag_path, record_path);
        }

        #[test]
        fn prop_compact_matches_filter(flags in proptest::collection::vec(any::<bool>(), 1..300)) {
            let mut cells: Vec<TagCell> = flags
                .iter()
                .enumerate()
                .map(|(i, &f)| {
                    if f { TagCell::new(i as u128, i as u128 ^ 0x55) } else { TagCell::filler() }
                })
                .collect();
            let expect = compact_oracle(&cells);
            run_compact(&mut cells);
            prop_assert_eq!(cells, expect);
        }
    }
}
