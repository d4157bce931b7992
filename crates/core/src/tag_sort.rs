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
//! unambiguous — the compaction needs no collision argument. Nor does its
//! top-down mirror, bin placement's expansion
//! ([`crate::expand_by_loads`]): the same butterfly run backwards over any
//! [`Swap`] record, its ranks read off per-bin loads.

use crate::engine::Engine;
use crate::scan::{prefix_sum_in, Schedule};
use crate::slot::{composite_key, Slot, Val};
use fj::{base_for, grain_for, par_for, Access, Ctx};
use metrics::{par_fill, par_tracked_chunks, RawTracked, ScratchPool, Tracked};
use sortnet::{active_backend, block_slabs, select_cell, TagCell, TILE_RUN_BYTES};
use std::mem::size_of;
use std::ops::Range;

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
        let rank = |c: &C, i| ranks.get(c, i);
        c.join(
            |c| {
                par_for(c, 0, full / w, 1, &|c, j| {
                    gather(c, &tr, &rank, j * w, w, base, false)
                })
            },
            |c| {
                for (lo, size) in digits(full, tail) {
                    gather(c, &tr, &rank, lo, size, base, false);
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
        let ranks = Ranks::of(rank);
        return gather(c, &t.as_raw(), &|c, i| ranks.get(c, i), 0, m, base, false);
    }
    let k = rank.get(c, m2) as usize;
    {
        let (mut t_lo, mut t_hi) = t.split_at_mut(m2);
        let (mut r_lo, r_hi) = rank.split_at_mut(m2);
        let shift = (m1 - m2) as u64;
        c.join(
            move |c| compact_ranked(c, &mut t_lo, &mut r_lo, base),
            move |c| {
                let rank = |c: &C, i| r_hi.get(c, i) + shift;
                gather(c, &t_hi.as_raw(), &rank, 0, m1, base, false)
            },
        );
    }
    swap_pairs(c, &t.as_raw(), 0, m2, m1, k, false);
}

/// A record the compaction butterfly moves: a [`TagCell`], a bare `u128`
/// key, or a slot. Both records of every pair are read and written whatever
/// the verdict, which only ever picks between them.
pub trait Swap: Copy + Send + Sync {
    /// The pairs `(i, i + stride)` for `i` in `run`, the `k`-th swapping
    /// iff `flip ⊕ (k ≥ pivot)` — a block's slab, inside one aligned
    /// `2·stride`-block: two reads, a unit of work and two writes a pair,
    /// the accounting of [`sortnet::Backend::swap_slab`], which cells run.
    ///
    /// # Safety
    /// Every pair must be in bounds, and no concurrent task may access a
    /// record of one.
    #[inline]
    unsafe fn swap_slab<C: Ctx>(
        c: &C,
        t: &RawTracked<Self>,
        run: Range<usize>,
        stride: usize,
        pivot: i64,
        flip: bool,
    ) {
        for (k, i) in run.enumerate() {
            let (a, b) = (t.get(c, i), t.get(c, i + stride));
            c.work(1);
            let (x, y) = if flip ^ (k as i64 >= pivot) {
                (b, a)
            } else {
                (a, b)
            };
            t.set(c, i, x);
            t.set(c, i + stride, y);
        }
    }

    /// Every narrow level of one aligned block, block-major: widths
    /// `2 → len`, or `len → 2` when `spread`, in the order of
    /// [`sortnet::block_slabs`], the sub-block at `b` a slab whose
    /// `(pivot, flip)` is `split(b, w)` — what
    /// [`sortnet::Backend::swap_block`] runs for cells and keys, one kernel
    /// entry a block. The compaction butterfly's host entry: it does no
    /// accounting, so a metered butterfly never calls it. The default is
    /// the per-pair loop.
    #[inline]
    fn swap_block(
        block: &mut [Self],
        spread: bool,
        split: impl FnMut(usize, usize) -> (usize, bool),
    ) {
        block_slabs(block, spread, split, |lo, hi, pivot, flip| {
            for (k, (a, b)) in lo.iter_mut().zip(hi).enumerate() {
                (*a, *b) = if flip ^ (k >= pivot) {
                    (*b, *a)
                } else {
                    (*a, *b)
                };
            }
        })
    }
}

/// Whole cells through the cell gate: 256-bit exchanges where the hardware
/// has them, the same trace and counters either way.
impl Swap for TagCell {
    #[inline]
    unsafe fn swap_slab<C: Ctx>(
        c: &C,
        t: &RawTracked<Self>,
        run: Range<usize>,
        stride: usize,
        pivot: i64,
        flip: bool,
    ) {
        active_backend().swap_slab(c, t, run, stride, pivot, flip)
    }

    #[inline]
    fn swap_block(
        block: &mut [Self],
        spread: bool,
        split: impl FnMut(usize, usize) -> (usize, bool),
    ) {
        active_backend().swap_block(block, spread, split)
    }
}

/// A bare key — ORP's `label ‖ key` cells — as two 64-bit words, each a
/// masked xor-swap: a loop the compiler vectorizes where a `u128` select
/// does not. The per-pair loop's accounting is replayed first (free off
/// the meter), then the words move: the trace and the counters are the
/// per-pair loop's.
impl Swap for u128 {
    #[inline]
    unsafe fn swap_slab<C: Ctx>(
        c: &C,
        t: &RawTracked<Self>,
        run: Range<usize>,
        stride: usize,
        pivot: i64,
        flip: bool,
    ) {
        let (buf, off, wpe) = (t.buf(), t.off(), t.wpe());
        for i in run.clone() {
            for (at, kind) in [(i, Access::Read), (i + stride, Access::Read)] {
                c.touch(buf, off + at as u64 * wpe, wpe, kind);
                c.work(1);
            }
            c.work(1);
            for at in [i, i + stride] {
                c.touch(buf, off + at as u64 * wpe, wpe, Access::Write);
                c.work(1);
            }
        }
        // A mask made from a `bool` compiles to a branch that skips the
        // swap: `k − pivot` shifted right by a `black_box`ed 63 is all ones
        // iff `k < pivot`, as in the cell gate's scalar block slab.
        let shift = std::hint::black_box(63);
        let keep = ((flip as i64) << 63 >> shift) as u64;
        let words = t.as_mut_ptr().cast::<u64>();
        let a = words.add(2 * run.start);
        let b = a.add(2 * stride);
        for k in 0..run.len() {
            let mask = !(((k as i64).wrapping_sub(pivot) >> shift) as u64 ^ keep);
            for j in [2 * k, 2 * k + 1] {
                let d = (*a.add(j) ^ *b.add(j)) & mask;
                *a.add(j) ^= d;
                *b.add(j) ^= d;
            }
        }
    }

    #[inline]
    fn swap_block(
        block: &mut [Self],
        spread: bool,
        split: impl FnMut(usize, usize) -> (usize, bool),
    ) {
        active_backend().swap_block(block, spread, split)
    }
}

/// A slot of any payload, through the per-pair loop. A unit-payload slot
/// is laid out like a [`TagCell`]: callers move it as one
/// (`slot::as_lanes`).
impl<V: Val> Swap for Slot<V> {}

/// The ranks a narrow block reads, at most.
const RANKS: usize = 64;

/// The widest narrow level for records of `E`, at most [`RANKS`]: the
/// largest `w` whose runs of `w/2` records are shorter than a tile run
/// ([`TILE_RUN_BYTES`]) — 32 cells, or 64 bare keys.
fn narrow_width<E>() -> usize {
    let h = (TILE_RUN_BYTES - 1) / size_of::<E>();
    if h == 0 {
        1
    } else {
        (2 << h.ilog2()).min(RANKS)
    }
}

/// Gather the reals of the aligned block `[lo, lo + n)` cyclically from
/// position `rank(lo) mod n`: both halves first (in parallel above `base`,
/// level by level below it), then one swap level across them.
///
/// On a host the narrow levels — runs shorter than a tile run, widths up
/// to `f` = [`narrow_width`], 32 cells or 64 keys — go block-major: one
/// [`Swap::swap_block`] an aligned `f`-block reads the block's `f` ranks
/// once and takes it through widths `2 → f` (`f → 2` when spreading)
/// while it sits in L1; the wider levels then run as under the meter.
/// The blocks are independent, so this leaves what level-major order
/// does. The entry reads and writes both records of every pair of every
/// level whatever the ranks, which feed only its swap masks, so the
/// addresses it touches are a function of `n` alone. It does no
/// accounting: metered contexts run every level block by block through
/// [`swap_level`], whose fork tree, work and trace the model counts.
///
/// `spread` runs the same levels in the opposite order — the swap level
/// first, then the halves — so it undoes the gathering: every level's
/// swaps are their own inverse, and their verdicts read the ranks, never
/// the records. Given what gathering would leave, spreading puts every
/// record back where the ranks say it stood ([`crate::expand_by_loads`]).
pub(crate) fn gather<C: Ctx, E: Swap>(
    c: &C,
    t: &RawTracked<E>,
    rank: &(impl Fn(&C, usize) -> u64 + Sync),
    lo: usize,
    n: usize,
    base: usize,
    spread: bool,
) {
    if n <= base {
        let f = match c.is_metered() {
            true => 1,
            false => narrow_width::<E>().min(n),
        };
        let wide = (f.trailing_zeros() + 1..=n.trailing_zeros()).map(|k| 1 << k);
        let mut level = |w| swap_level(c, t, rank, lo, n, w);
        match spread {
            false => {
                swap_blocks(c, t, rank, lo, n, f, false);
                wide.for_each(&mut level);
            }
            true => {
                wide.rev().for_each(&mut level);
                swap_blocks(c, t, rank, lo, n, f, true);
            }
        }
        return;
    }
    if spread {
        swap_level(c, t, rank, lo, n, n);
    }
    c.join(
        |c| gather(c, t, rank, lo, n / 2, base, spread),
        |c| gather(c, t, rank, lo + n / 2, n / 2, base, spread),
    );
    if !spread {
        swap_level(c, t, rank, lo, n, n);
    }
}

/// The narrow levels of `[lo, lo + n)`, widths `2 → f` (`f → 2` when
/// `spread`): one [`Swap::swap_block`] a `f`-block, a grain of blocks a
/// task. A block's `f` ranks are read once, into a local array its splits
/// read. Nothing when `f` is 1.
fn swap_blocks<C: Ctx, E: Swap>(
    c: &C,
    t: &RawTracked<E>,
    rank: &(impl Fn(&C, usize) -> u64 + Sync),
    lo: usize,
    n: usize,
    f: usize,
    spread: bool,
) {
    if f == 1 {
        return;
    }
    par_for(c, 0, n / f, (grain_for(c) / f).max(1), &|c, j| {
        let lo = lo + j * f;
        let mut ranks = [0u64; RANKS];
        for (i, r) in ranks[..f].iter_mut().enumerate() {
            *r = rank(c, lo + i);
        }
        // `b + w/2 < f ≤ RANKS`: the masks only spare the kernel a bounds
        // check.
        let split = |b: usize, w: usize| {
            let at = |i: usize| ranks[i & (RANKS - 1)];
            split_of(at(b), at(b + w / 2), w)
        };
        // SAFETY: the caller owns `[lo, lo + n)` of the records, and the
        // blocks are disjoint.
        let block = unsafe { std::slice::from_raw_parts_mut(t.as_mut_ptr().add(lo), f) };
        E::swap_block(block, spread, split);
    });
}

/// One swap level over `[lo, lo + n)`: every aligned block of width `w`
/// in it, its halves already gathered, gathers itself. With
/// `z = rank(block) mod w` the block's offset and `cnt` the reals of its
/// left half, the right half's reals start at `t = (z + cnt) mod w/2`, and
/// pair `i` swaps iff `s ⊕ (i ≥ t)`, where `s` says whether the left
/// half's run `[z mod w/2, z mod w/2 + cnt)` wraps exactly when `z` itself
/// lies in the upper half. A block's pairs go through [`Swap::swap_slab`],
/// a grain at a time.
fn swap_level<C: Ctx, E: Swap>(
    c: &C,
    t: &RawTracked<E>,
    rank: &(impl Fn(&C, usize) -> u64 + Sync),
    lo: usize,
    n: usize,
    w: usize,
) {
    let h = w / 2;
    par_for(c, 0, n / w, (grain_for(c) / h).max(1), &|c, b| {
        let lo = lo + b * w;
        let (pivot, s) = split(c, rank, lo, w);
        swap_pairs(c, t, lo, h, h, pivot, s);
    });
}

/// The pairs `(lo + i, lo + i + stride)`, `i < pairs`, pair `i` swapping
/// iff `s ⊕ (i ≥ pivot)`: [`Swap::swap_slab`], a grain at a time.
fn swap_pairs<C: Ctx, E: Swap>(
    c: &C,
    t: &RawTracked<E>,
    lo: usize,
    pairs: usize,
    stride: usize,
    pivot: usize,
    s: bool,
) {
    let grain = grain_for(c);
    par_for(c, 0, pairs.div_ceil(grain), 1, &|c, k| {
        let from = k * grain;
        let run = lo + from..lo + pairs.min(from + grain);
        // SAFETY: the caller owns both runs of the pairs, `pairs ≤ stride`
        // apart, and the grains are disjoint.
        unsafe { E::swap_slab(c, t, run, stride, pivot as i64 - from as i64, s) };
    });
}

/// The split of the `w`-block at `lo`, whose halves are gathered: pair
/// `i` of the block swaps iff `s ⊕ (i ≥ pivot)` (see [`swap_level`]).
#[inline(always)]
fn split<C: Ctx>(c: &C, rank: &impl Fn(&C, usize) -> u64, lo: usize, w: usize) -> (usize, bool) {
    let (r_lo, r_mid) = (rank(c, lo), rank(c, lo + w / 2));
    c.work(1);
    split_of(r_lo, r_mid, w)
}

/// [`split`] from the block's ranks at its start and its middle.
#[inline(always)]
fn split_of(r_lo: u64, r_mid: u64, w: usize) -> (usize, bool) {
    let h = w as u64 / 2;
    let z = r_lo & (w as u64 - 1);
    let wraps = (z & (h - 1)) + (r_mid - r_lo) >= h;
    ((r_mid & (h - 1)) as usize, wraps ^ (z >= h))
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
        // On a host the narrow levels run block-major, one `swap_block`
        // entry a 32-cell block; under the meter every level is the
        // per-block `swap_slab` loop. Same pairs, same verdicts, so the
        // same cells — from one pair to
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

    #[test]
    fn host_bounded_compaction_leaves_the_metered_cells() {
        // `compact_bounded` on a host — narrow levels a 32-cell block at a
        // time — against the metered per-block loop, on a sequential and a
        // 4-worker executor: both bounds, with a reach below, at and above
        // the 32-cell block (blocks of 4, 32 and 64 cells: all narrow, the
        // narrow levels exactly, one wide level over them), at lengths
        // `2^k + 2^j` and at whole blocks plus a tail of 1 to 31 cells,
        // whose digits are blocks of every narrow size.
        let pool = Pool::new(4);
        let hash = |i: usize, salt: u64| {
            ((i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize
        };
        let lengths = [33usize, 96, 136, 1025, 4608, 12288, 159, 113, 2081, 1055];
        for n in lengths {
            for reach in [5usize, 32, 100] {
                // At most `reach` reals, anywhere.
                let count = flagged(n, |i| hash(i, 1) % n < reach.min(n) / 2 + 1);
                // At most `reach` fillers before any real, at random.
                let fillers = std::cell::Cell::new(0);
                let shift = flagged(n, |i| {
                    let filler = fillers.get() < reach && hash(i, 2) % 3 == 0;
                    fillers.set(fillers.get() + filler as usize);
                    !filler
                });
                let (k, _) = tight(&count);
                let (_, d) = tight(&shift);
                assert!(k <= reach && d <= reach);
                for (cells, bound, out_len) in [
                    (&count, Bound::Count(reach), reach.min(n)),
                    (&shift, Bound::Shift(reach), n),
                ] {
                    let what = format!("n {n} {bound:?}");
                    let (metered, _) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                        bounded(c, cells, bound, out_len)
                    });
                    assert_eq!(metered, compact_prefix(cells, out_len), "{what}");
                    let seq = bounded(&SeqCtx::new(), cells, bound, out_len);
                    assert!(seq == metered, "{what}: SeqCtx");
                    let par = pool.run(|c| bounded(c, cells, bound, out_len));
                    assert!(par == metered, "{what}: pool");
                }
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
