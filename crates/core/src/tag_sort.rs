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
//! * [`compact_bounded`] — the same butterfly when a public bound limits
//!   how far the reals travel: at most `k` of them, or none moving left by
//!   more than `d`. Given the caller's ranks it gathers aligned blocks of
//!   about the bound's size (`log` of the bound levels) and makes one pass
//!   into the caller's output — the merge epoch's two compactions.
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
use metrics::{par_fill, par_tracked_chunks, RawTracked, ScratchPool, Tracked};
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

/// The exclusive ranks a compaction reads: a whole `u64` lane, or one
/// 32-bit half of it, so that two compactions can be ranked by one packed
/// lane.
#[derive(Clone, Copy)]
pub struct Ranks<'r, 'a> {
    lane: &'r Tracked<'a, u64>,
    shift: u32,
    mask: u64,
}

impl<'r, 'a> Ranks<'r, 'a> {
    /// Every word of `lane` is a rank.
    pub fn of(lane: &'r Tracked<'a, u64>) -> Self {
        Ranks {
            lane,
            shift: 0,
            mask: u64::MAX,
        }
    }

    /// The low 32 bits of every word.
    pub fn low(lane: &'r Tracked<'a, u64>) -> Self {
        Ranks {
            lane,
            shift: 0,
            mask: u32::MAX as u64,
        }
    }

    /// The high 32 bits of every word.
    pub fn high(lane: &'r Tracked<'a, u64>) -> Self {
        Ranks {
            lane,
            shift: 32,
            mask: u32::MAX as u64,
        }
    }

    #[inline(always)]
    fn get<C: Ctx>(&self, c: &C, i: usize) -> u64 {
        (self.lane.get(c, i) >> self.shift) & self.mask
    }

    /// Rank `i`, unaccounted: for the debug-build contract checks only.
    fn peek(&self, i: usize) -> u64 {
        (self.lane.raw()[i] >> self.shift) & self.mask
    }
}

/// A public bound on how far a compaction's reals travel — what lets
/// [`compact_bounded`] run fewer levels than [`compact_cells`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// At most `k` reals.
    Count(usize),
    /// No real moves left by more than `d` positions: a real at `i` has
    /// rank `≥ i − d`.
    Shift(usize),
}

/// Stable oblivious compaction of `t` into `out` under a public [`Bound`],
/// given the exclusive ranks of `t`'s reals (`ranks[i]` = the reals before
/// `i`). `out[r]` receives the real of rank `r` for every `r < out.len()`,
/// the rest of `out` canonical fillers; `t` is left permuted.
///
/// `t` is cut into aligned power-of-two blocks: `w`-blocks — `w` the
/// largest power of two within both the bound and `n` — up to the last
/// whole one, then the tail's binary digits, largest first. Every block
/// gathers its reals in place with the butterfly of [`compact_cells`],
/// cyclically from offset `rank mod size` — `log w` levels instead of
/// `log n`. A block then holds the reals of ranks `first..end` (its first
/// rank to the next block's), the one of rank `r` at offset `r mod size`.
///
/// * `Count(k)`: ranks stay below `k`. One pass picks, for every `x < k`,
///   the cell at `x`'s offset of whichever block's ranks span `x`,
///   visiting every block; when `k ≤ w`, a whole block's cell at `x` is
///   that real if it is real at all.
/// * `Shift(d)`: the real of rank `x` lies in `[x, x + d]`, so in one of
///   the blocks from `x`'s own up to the one at `x + d` — at most three
///   whole blocks, as `w > d/2` — and one pass picks it from those.
///
/// Work `O(n log w)`, in place; span `O(log² w + n/w)` for `Count`,
/// whose pass visits every block, `O(log² w)` for `Shift`.
/// Obliviousness: as for [`compact_cells`], the ranks and the reals'
/// places feed only swap verdicts and selects, and every address is a
/// function of `n`, the bound and `out.len()`. Debug builds check the
/// contract: exact ranks, and the bound.
pub fn compact_bounded<C: Ctx>(
    c: &C,
    t: &mut Tracked<'_, TagCell>,
    ranks: Ranks<'_, '_>,
    bound: Bound,
    out: &mut Tracked<'_, TagCell>,
) {
    let n = t.len();
    assert_eq!(ranks.lane.len(), n, "one rank per cell");
    if cfg!(debug_assertions) {
        check_contract(t.raw(), ranks, bound);
    }
    if n == 0 {
        return par_fill(c, out, &|_, _| TagCell::filler());
    }
    let reach = match bound {
        Bound::Count(k) | Bound::Shift(k) => k,
    };
    let w = 1 << reach.clamp(1, n).ilog2();
    let full = n - n % w;
    let tail = n - full;
    let total = ranks.get(c, n - 1) + !t.get(c, n - 1).is_filler() as u64;
    let base = base_for(c, size_of::<TagCell>());
    {
        let tr = t.as_raw();
        c.join(
            |c| {
                par_for(c, 0, full / w, 1, &|c, j| {
                    gather(c, &tr, ranks, j * w, w, base, 0)
                })
            },
            |c| {
                for (lo, size) in digits(full, tail) {
                    gather(c, &tr, ranks, lo, size, base, 0);
                }
            },
        );
    }
    // The block holding position `i`: a whole `w`-block, or the tail's
    // digit at the highest bit where the tail's length and `i`'s offset
    // into the tail differ.
    let block = |i: usize| {
        if i < full {
            (i & !(w - 1), w)
        } else {
            let k = ((i - full) ^ tail).ilog2();
            (full + (tail & !((2 << k) - 1)), 1 << k)
        }
    };
    let first = |c: &C, lo: usize| if lo < n { ranks.get(c, lo) } else { total };
    // The cell at `x`'s offset in block `[lo, lo + size)` if the block holds
    // rank `x`, else a filler.
    let holds = |c: &C, (lo, size): (usize, usize), x: usize| {
        let x64 = x as u64;
        let spans = (first(c, lo) <= x64) & (x64 < first(c, lo + size));
        select_cell(spans, TagCell::filler(), t.get(c, lo + (x & (size - 1))))
    };
    let either = |a: TagCell, b: TagCell| select_cell(!b.is_filler(), a, b);
    match bound {
        Bound::Count(k) => {
            let limit = k.min(n);
            // Ranks stay below `limit`: at most `w`, so a whole block's
            // cell at `x` has rank `x` if it is real at all.
            let exact = limit <= w;
            par_fill(c, out, &|c, x| {
                let mut acc = TagCell::filler();
                if x < limit {
                    for lo in (0..full).step_by(w) {
                        let s = if exact {
                            t.get(c, lo + x)
                        } else {
                            holds(c, (lo, w), x)
                        };
                        acc = either(acc, s);
                    }
                    for digit in digits(full, tail) {
                        acc = either(acc, holds(c, digit, x));
                    }
                }
                acc
            })
        }
        Bound::Shift(d) => {
            // Every block from `x`'s own up to the one at `x + d`.
            let pick = |c: &C, x: usize| {
                let mut acc = TagCell::filler();
                let mut at = block(x);
                loop {
                    acc = either(acc, holds(c, at, x));
                    let next = at.0 + at.1;
                    if next >= n || next > x + d {
                        return acc;
                    }
                    at = block(next);
                }
            };
            // Whole blocks a `w`-chunk of `out` at a time, the blocks they
            // draw on — those starting before `lo + w + d`: at most three
            // whole ones and the tail's digits — and their ranks read
            // once; the rest a position at a time.
            let whole = out.len().min(full) & !(w - 1);
            let (chunks, mut rest) = out.borrow_mut().split(whole);
            par_tracked_chunks(c, chunks, w, &|c, j, mut chunk| {
                let lo = j * w;
                let mut drawn = [(0, 0, 0, 0); 3 + usize::BITS as usize];
                let (mut count, mut at) = (0, lo);
                while at < n && at < lo + w + d {
                    let (start, size) = block(at);
                    drawn[count] = (start, size, first(c, start), first(c, start + size));
                    (count, at) = (count + 1, start + size);
                }
                par_fill(c, &mut chunk, &|c, o| {
                    let x = (lo + o) as u64;
                    let mut acc = TagCell::filler();
                    for &(start, size, first, end) in &drawn[..count] {
                        let s = t.get(c, start + (o & (size - 1)));
                        acc = select_cell((first <= x) & (x < end), acc, s);
                    }
                    acc
                });
            });
            par_fill(c, &mut rest, &|c, i| {
                let x = whole + i;
                if x >= n {
                    return TagCell::filler();
                }
                pick(c, x)
            });
        }
    }
}

/// The tail's blocks `(lo, size)`: `tail`'s binary digits from `from` on,
/// largest first, each aligned to its size.
fn digits(from: usize, tail: usize) -> impl Iterator<Item = (usize, usize)> {
    let top = if tail == 0 { 0 } else { tail.ilog2() + 1 };
    (0..top)
        .rev()
        .filter(move |k| tail >> k & 1 == 1)
        .map(move |k| {
            let size = 1 << k;
            (from + (tail & !((2 << k) - 1)), size)
        })
}

/// The caller's side of [`compact_bounded`]: `ranks` are the exact
/// exclusive ranks of `cells`' reals, which the bound holds for.
fn check_contract(cells: &[TagCell], ranks: Ranks<'_, '_>, bound: Bound) {
    let mut reals = 0u64;
    for (i, s) in cells.iter().enumerate() {
        assert_eq!(ranks.peek(i), reals, "rank {i} is not the reals before it");
        if !s.is_filler() {
            if let Bound::Shift(d) = bound {
                assert!(
                    i as u64 - reals <= d as u64,
                    "the real at {i} moves {} > {d}",
                    i as u64 - reals
                );
            }
            reals += 1;
        }
    }
    if let Bound::Count(k) = bound {
        assert!(reals <= k as u64, "{reals} reals exceed the bound {k}");
    }
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
        return gather(c, &t.as_raw(), Ranks::of(rank), 0, m, base, 0);
    }
    let k = rank.get(c, m2) as usize;
    {
        let (mut t_lo, mut t_hi) = t.split_at_mut(m2);
        let (mut r_lo, r_hi) = rank.split_at_mut(m2);
        c.join(
            move |c| compact_ranked(c, &mut t_lo, &mut r_lo, base),
            move |c| {
                gather(
                    c,
                    &t_hi.as_raw(),
                    Ranks::of(&r_hi),
                    0,
                    m1,
                    base,
                    (m1 - m2) as u64,
                )
            },
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
    rank: Ranks<'_, '_>,
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
    rank: Ranks<'_, '_>,
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
fn split<C: Ctx>(c: &C, rank: Ranks<'_, '_>, lo: usize, w: usize, shift: u64) -> (usize, bool) {
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

    /// `compact_bounded` of `cells` into an `out_len`-cell lane, the
    /// exclusive ranks computed host-side and packed into the high half of
    /// a word whose low half is noise (the merge epoch's layout).
    fn bounded<C: Ctx>(c: &C, cells: &[TagCell], bound: Bound, out_len: usize) -> Vec<TagCell> {
        let mut reals = 0u64;
        let mut ranks: Vec<u64> = cells
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let packed = (reals << 32) | ((i as u64 * 0x9E37) & 0xFFFF_FFFF);
                reals += !s.is_filler() as u64;
                packed
            })
            .collect();
        let mut cells = cells.to_vec();
        let mut out = vec![TagCell::new(7, 7); out_len];
        let lane = Tracked::new(c, &mut ranks);
        compact_bounded(
            c,
            &mut Tracked::new(c, &mut cells),
            Ranks::high(&lane),
            bound,
            &mut Tracked::new(c, &mut out),
        );
        out
    }

    /// What `compact_cells` leaves in the first `out_len` cells (fillers
    /// past its length).
    fn compact_prefix(cells: &[TagCell], out_len: usize) -> Vec<TagCell> {
        let mut all = cells.to_vec();
        run_compact(&mut all);
        all.resize(out_len.max(all.len()), TagCell::filler());
        all.truncate(out_len);
        all
    }

    /// Cells real where `real(i)`, fillers non-canonical.
    fn flagged(n: usize, real: impl Fn(usize) -> bool) -> Vec<TagCell> {
        (0..n as u128)
            .map(|i| match real(i as usize) {
                true => TagCell::new(i * 5, i + 11),
                false => TagCell::new(u128::MAX, i + 1),
            })
            .collect()
    }

    /// The tightest bounds `cells` meet: its real count and the longest
    /// move left.
    fn tight(cells: &[TagCell]) -> (usize, usize) {
        let mut reals = 0;
        let mut shift = 0;
        for (i, s) in cells.iter().enumerate() {
            if !s.is_filler() {
                shift = shift.max(i - reals);
                reals += 1;
            }
        }
        (reals, shift)
    }

    #[test]
    fn bounded_exhaustive_small_patterns() {
        // Every flag pattern up to 12 cells, at the tight bounds and one
        // past them: lengths that are and are not multiples of `w`, `w`
        // at or past the length, and outputs shorter, equal and longer.
        let c = SeqCtx::new();
        for n in 0..=12usize {
            for mask in 0u32..1 << n {
                let cells = flagged(n, |i| (mask >> i) & 1 == 1);
                let (k, d) = tight(&cells);
                for out_len in [n, n.saturating_sub(2), n + 3] {
                    let expect = compact_prefix(&cells, out_len);
                    for bound in [
                        Bound::Count(k),
                        Bound::Count(k + 1),
                        Bound::Shift(d),
                        Bound::Shift(d + 2),
                    ] {
                        let got = bounded(&c, &cells, bound, out_len);
                        assert_eq!(got, expect, "n {n} mask {mask:b} {bound:?} out {out_len}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_at_the_extremes() {
        // Zero reals, exactly `k` reals, displacement exactly `d`; `m` not
        // a multiple of `w`, and `w` past the length.
        let c = SeqCtx::new();
        let m = 1091;
        let cases: [(&str, Vec<TagCell>, Bound); 7] = [
            ("no reals, count", flagged(m, |_| false), Bound::Count(64)),
            ("no reals, shift", flagged(m, |_| false), Bound::Shift(64)),
            (
                "exactly k",
                flagged(m, |i| i % 17 == 3 && i < 17 * 64),
                Bound::Count(64),
            ),
            (
                "k trailing",
                flagged(m, |i| i >= m - 100),
                Bound::Count(100),
            ),
            (
                "shift exactly d",
                flagged(m, |i| !(200..456).contains(&i)),
                Bound::Shift(256),
            ),
            ("shift 0", flagged(m, |i| i < 700), Bound::Shift(0)),
            (
                "w past the length",
                flagged(m, |i| i % 3 == 0),
                Bound::Count(5000),
            ),
        ];
        for (name, cells, bound) in cases {
            let out_len = match bound {
                Bound::Count(k) => k.min(m),
                Bound::Shift(_) => m,
            };
            assert_eq!(
                bounded(&c, &cells, bound, out_len),
                compact_prefix(&cells, out_len),
                "{name}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceed the bound")]
    fn bounded_count_checks_its_contract() {
        bounded(
            &SeqCtx::new(),
            &flagged(40, |i| i % 2 == 0),
            Bound::Count(19),
            19,
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "moves")]
    fn bounded_shift_checks_its_contract() {
        bounded(
            &SeqCtx::new(),
            &flagged(40, |i| i >= 9),
            Bound::Shift(8),
            40,
        );
    }

    #[test]
    fn bounded_host_pool_and_meter_agree() {
        // Past the host base case (blocks of `w = 2¹³` join their
        // recursion), with a short last block, on every executor.
        let pool = Pool::new(4);
        let m = (1 << 16) + 1000;
        let cells = flagged(m, |i| {
            (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 != 0 || i < 5000
        });
        let (k, d) = tight(&cells);
        for (bound, out_len) in [(Bound::Shift(d), m), (Bound::Count(k), k)] {
            let expect = compact_prefix(&cells, out_len);
            assert!(
                bounded(&SeqCtx::new(), &cells, bound, out_len) == expect,
                "{bound:?}: SeqCtx"
            );
            assert!(
                pool.run(|c| bounded(c, &cells, bound, out_len)) == expect,
                "{bound:?}: pool"
            );
            let (metered, _) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                bounded(c, &cells, bound, out_len)
            });
            assert!(metered == expect, "{bound:?}: metered");
        }
    }

    #[test]
    fn bounded_trace_independent_of_the_reals() {
        // Same shape, same bound: 0 vs `k` reals, leading vs trailing,
        // displacement 0 vs `d`.
        let m = 1091;
        let trace = |cells: Vec<TagCell>, bound: Bound, out_len: usize| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                bounded(c, &cells, bound, out_len)
            });
            (rep.trace_hash, rep.trace_len, rep.work)
        };
        let count = |real: &dyn Fn(usize) -> bool| trace(flagged(m, real), Bound::Count(64), 64);
        let none = count(&|_| false);
        assert_eq!(none, count(&|i| i < 64), "k leading reals");
        assert_eq!(none, count(&|i| i >= m - 64), "k trailing reals");
        let shift = |real: &dyn Fn(usize) -> bool| trace(flagged(m, real), Bound::Shift(256), m);
        let still = shift(&|i| i < 500);
        assert_eq!(
            still,
            shift(&|i| !(300..556).contains(&i)),
            "displacement d"
        );
        assert_eq!(still, shift(&|_| false), "no reals");
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

        /// Both bounds against `compact_cells` on random lanes, at the
        /// tight bound or past it, whatever the length's residue mod `w`.
        #[test]
        fn prop_bounded_matches_compact_cells(
            flags in proptest::collection::vec(any::<bool>(), 0..300),
            slack in 0usize..3,
            out_extra in 0usize..4,
        ) {
            let c = SeqCtx::new();
            let cells = flagged(flags.len(), |i| flags[i]);
            let (k, d) = tight(&cells);
            let out_len = flags.len() + out_extra;
            prop_assert_eq!(
                bounded(&c, &cells, Bound::Shift(d + slack), out_len),
                compact_prefix(&cells, out_len)
            );
            prop_assert_eq!(
                bounded(&c, &cells, Bound::Count(k + slack), out_len),
                compact_prefix(&cells, out_len)
            );
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
