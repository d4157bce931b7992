//! The branchless cell gate: [`Backend`] is the [`Gate`] for packed
//! [`TagCell`]s and for bare `u128` keys, with runtime-dispatched AVX2
//! forms of the comparator run and of a whole bitonic stage for both, of
//! the compaction butterfly's index-driven swap slab
//! ([`Backend::swap_slab`]) and its host block entry, every narrow level
//! of one block ([`Backend::swap_block`]) — run bottom-up to compact,
//! top-down to expand — plus the whole-cell select the rewrite loops
//! route through.
//!
//! # Dispatch model
//!
//! [`Backend::Scalar`] is the gate's default per-pair loop over
//! `select_u128` lanes; [`Backend::Avx2`] overrides the two batched
//! entries, [`Gate::run`] (a tile row) and [`Gate::stage`] (every level of
//! a sequential network's stage, one kernel entry): the accounting replay
//! below, then the 256-bit kernel — one 32-byte cell a `ymm` with a scalar
//! verdict, or two 16-byte keys a `ymm` with the verdict computed in-lane.
//! The process-wide
//! choice ([`active_backend`]) is made **once**: AVX2 when
//! `is_x86_feature_detected!("avx2")` says the hardware has it and
//! `DOB_NO_SIMD` is unset, scalar otherwise — a public *hardware* fact,
//! like the cache-line size or the core count, so dispatching on it leaks
//! nothing under Definition 1.
//!
//! Tests and benches pass either variant to the networks to compare the
//! two bit for bit, so safe code can name `Avx2` on a machine without it.
//! A run therefore goes to the kernel only when `resolve` of the request
//! against that cached detection says so, and the scalar gate otherwise;
//! under `DOB_NO_SIMD=1` every request runs exactly what hardware without
//! AVX2 executes.
//!
//! # Why the trace cannot change
//!
//! An AVX2 run differs from the per-pair loop only in ALU width. It
//! first replays, pair by pair in the same order, the exact
//! [`fj::Ctx::touch`]/[`fj::Ctx::work`]/[`fj::Ctx::count`] sequence
//! [`cex`] (or the scalar swap loop) emits (free on non-metering
//! executors — the `Ctx` methods are inlined no-ops there), and only then
//! moves the data with a branchless
//! verdict + 256-bit masked xor-swap. Same addresses in the
//! same order, same work and comparator counters, no data-dependent
//! branch: the adversary-visible trace and the gated cost model are
//! *identical* across backends, on every input. DESIGN.md §14 gives the
//! full argument and the per-kernel coverage table.

use crate::bitonic::level_index;
use crate::cx::{cex, select_u128, stage_by_slabs, Gate};
use crate::tag::TagCell;
use fj::Ctx;
use metrics::{RawTracked, Tracked};
use std::mem::size_of;
use std::ops::Range;
use std::sync::OnceLock;

/// The compare-exchange gate for [`TagCell`]s and for bare `u128` keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Per-pair `select_u128` masks — the portable branchless gate.
    Scalar,
    /// Scalar tag verdict + 256-bit masked xor-swap of whole cells, four
    /// pairs per unrolled iteration; for keys, two a `ymm` with the
    /// verdict computed in-lane. `Scalar` where AVX2 was not detected.
    Avx2,
}

impl Backend {
    /// Short name for bench rows and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

fn detect() -> Backend {
    if std::env::var_os("DOB_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0") {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return Backend::Avx2;
    }
    Backend::Scalar
}

/// The process-wide backend, detected once: AVX2 where the hardware has
/// it, scalar otherwise or under `DOB_NO_SIMD=1`. A public hardware
/// fact — see the module docs for why dispatching on it is oblivious.
///
/// `#[inline]` because the cell gate consults it once per slab, and a slab
/// can be a single pair: as a cross-crate call it cost ~7 % of
/// `kv-sharded-pipelined`; inlined it is two loads and a compare.
#[inline]
pub fn active_backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

/// The backend a slab actually runs: `Avx2` only when it was both
/// requested and detected.
fn resolve(requested: Backend, detected: Backend) -> Backend {
    match (requested, detected) {
        (Backend::Avx2, Backend::Avx2) => Backend::Avx2,
        _ => Backend::Scalar,
    }
}

impl Backend {
    /// Conditionally exchange the cell pairs `(i, i + stride)` for `i` in
    /// `run`: the `k`-th pair swaps iff `flip ^ (k >= pivot)` — a block of
    /// a swap level of `obliv_core::compact_cells`, or of bin placement's
    /// expansion (the same butterfly run top-down), whose verdict is an index
    /// compare against a secret pivot rather than a tag compare. Both
    /// cells of every pair are read and written whatever the verdict;
    /// `pivot` and `flip` only ever feed the select mask.
    ///
    /// # Safety
    /// `run.end + stride <= t.len()`, `run.end <= run.start + stride`, and
    /// no concurrent task may access either run.
    #[inline]
    pub unsafe fn swap_slab<C: Ctx>(
        self,
        c: &C,
        t: &RawTracked<TagCell>,
        run: Range<usize>,
        stride: usize,
        pivot: i64,
        flip: bool,
    ) {
        debug_assert!(run.end + stride <= t.len() && run.end <= run.start + stride);
        if resolve(self, active_backend()) == Backend::Avx2 {
            #[cfg(target_arch = "x86_64")]
            {
                for i in run.clone() {
                    avx2::account_pair(c, t, i, i + stride);
                }
                // SAFETY: AVX2 was detected (see `run_avx2`); bounds and
                // exclusivity are this function's own contract.
                return avx2::swap_slab(t.as_mut_ptr(), run, stride, pivot, flip);
            }
        }
        for (k, i) in run.enumerate() {
            let (a, b) = (t.get(c, i), t.get(c, i + stride));
            c.work(1);
            let (lo, hi) = self.route(flip ^ (k as i64 >= pivot), a, b);
            t.set(c, i, lo);
            t.set(c, i + stride, hi);
        }
    }

    /// Every narrow level of one aligned block of the compaction butterfly
    /// (`obliv_core`'s `gather`), block-major ([`block_slabs`]): `block` (a
    /// power of two long) through widths `2 → len` — `len → 2` when
    /// `spread`, bin placement's expansion — a width `w` as the block's
    /// aligned `w`-sub-blocks in order. In the sub-block at `b`, pair
    /// `(b + k, b + k + w/2)` swaps iff `flip ⊕ (k ≥ pivot)`, where
    /// `(pivot, flip) = split(b, w)`. The block stays in L1 through all its
    /// levels and costs one kernel entry, however few pairs a sub-block
    /// has.
    ///
    /// Data movement only, with no accounting: this is the host entry, and
    /// a metered butterfly runs [`Backend::swap_slab`] per sub-block. Both
    /// records of every pair are loaded and stored whatever the verdict,
    /// as whole words under a mask, so the addresses touched are a function
    /// of the block's length alone and `split` feeds only the masks.
    #[inline]
    pub fn swap_block<E: Words>(
        self,
        block: &mut [E],
        spread: bool,
        split: impl FnMut(usize, usize) -> (usize, bool),
    ) {
        debug_assert!(block.len().is_power_of_two());
        if resolve(self, active_backend()) == Backend::Avx2 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 was detected (see `run_avx2`).
            return unsafe { avx2::swap_block(block, spread, split) };
        }
        scalar_block(block, spread, split)
    }
}

/// A record [`Backend::swap_block`] moves as whole 64-bit words, with no
/// padding: a [`TagCell`] (four words) or a bare `u128` key (two).
pub trait Words: Copy + sealed::Plain {}

impl Words for TagCell {}
impl Words for u128 {}

mod sealed {
    /// Only the gate's own records are [`super::Words`].
    pub trait Plain {}
    impl Plain for super::TagCell {}
    impl Plain for u128 {}
}

/// [`Backend::swap_block`] without AVX2: one entry a block, as with it.
#[inline(never)]
fn scalar_block<E: Words>(
    block: &mut [E],
    spread: bool,
    split: impl FnMut(usize, usize) -> (usize, bool),
) {
    block_slabs(block, spread, split, swap_words)
}

/// The order of one aligned block's narrow levels in the compaction
/// butterfly: widths `2 → len` (`len → 2` when `spread`), a width `w` as
/// the block's aligned `w`-sub-blocks in order, each handed to
/// `slab(lo, hi, pivot, flip)` as its two halves, with
/// `(pivot, flip) = split(b, w)` for the sub-block at `b`. Pair
/// `(lo[k], hi[k])` is to swap iff `flip ⊕ (k ≥ pivot)`. Widths and
/// sub-blocks are loop control on the block's length. The loop of
/// [`Backend::swap_block`] and of any other record's block entry.
#[inline(always)]
pub fn block_slabs<E>(
    block: &mut [E],
    spread: bool,
    mut split: impl FnMut(usize, usize) -> (usize, bool),
    mut slab: impl FnMut(&mut [E], &mut [E], usize, bool),
) {
    let top = block.len().trailing_zeros();
    for l in 1..=top {
        let w = 1usize << if spread { top + 1 - l } else { l };
        for (j, sub) in block.chunks_exact_mut(w).enumerate() {
            let (pivot, flip) = split(j * w, w);
            let (lo, hi) = sub.split_at_mut(w / 2);
            slab(lo, hi, pivot, flip);
        }
    }
}

/// The scalar slab of [`Backend::swap_block`]: every word of both records
/// of a pair read and written, under a mask. LLVM reads a mask made from a
/// `bool` as a select, and turns it back into a branch that skips the
/// swap. So the masks are arithmetic shifts by an amount passed through
/// `black_box`: `k − pivot` shifted right by 63 is all ones iff
/// `k < pivot`, and `flip` shifted into the sign bit and back is all ones
/// iff `flip`.
#[inline(always)]
fn swap_words<E: Words>(lo: &mut [E], hi: &mut [E], pivot: usize, flip: bool) {
    let shift = std::hint::black_box(63);
    let keep = ((flip as i64) << 63 >> shift) as u64;
    let (a, b) = (lo.as_mut_ptr().cast::<u64>(), hi.as_mut_ptr().cast::<u64>());
    let words = size_of::<E>() / 8;
    for k in 0..lo.len().min(hi.len()) {
        let below = ((k as i64).wrapping_sub(pivot as i64) >> shift) as u64;
        let mask = !(below ^ keep);
        for j in k * words..(k + 1) * words {
            // SAFETY: records `k` of both halves are in bounds, and a
            // `Words` record is `words` initialized 64-bit words, aligned
            // to at least 8 bytes.
            unsafe {
                let d = (*a.add(j) ^ *b.add(j)) & mask;
                *a.add(j) ^= d;
                *b.add(j) ^= d;
            }
        }
    }
}

impl Gate<TagCell> for Backend {
    #[inline]
    fn key(&self, cell: &TagCell) -> u128 {
        cell.tag
    }

    /// Both lanes of both outputs go through [`select_u128`] masks: four
    /// selects, no data-dependent branch.
    #[inline]
    fn route(&self, swap: bool, a: TagCell, b: TagCell) -> (TagCell, TagCell) {
        (select_cell(swap, a, b), select_cell(swap, b, a))
    }

    /// The AVX2 override — the per-pair loop's accounting replayed, then
    /// one kernel entry for the data; every other request runs the default
    /// loop.
    ///
    /// # Safety
    /// As [`Gate::run`] — the kernel writes through raw pointers with no
    /// further check.
    #[inline]
    unsafe fn run<C: Ctx>(
        &self,
        c: &C,
        t: &RawTracked<TagCell>,
        a: usize,
        b: usize,
        len: usize,
        up: bool,
    ) {
        debug_assert!(a.max(b) + len <= t.len() && a.abs_diff(b) >= len);
        // `detect` never reports Avx2 off x86_64, so there the branch is
        // empty and dead.
        if resolve(*self, active_backend()) == Backend::Avx2 {
            #[cfg(target_arch = "x86_64")]
            return run_avx2(c, t, a, b, len, up);
        }
        for k in 0..len {
            cex(c, t, self, a + k, b + k, up);
        }
    }

    /// The AVX2 override — the slab loop's accounting replayed level by
    /// level, then one kernel entry that takes each aligned `k`-block
    /// through all of its levels while it sits in L1; every other request
    /// runs [`stage_by_slabs`].
    #[inline]
    fn stage<C: Ctx>(&self, c: &C, t: &mut Tracked<'_, TagCell>, k: usize, up: bool) {
        if resolve(*self, active_backend()) == Backend::Avx2 {
            #[cfg(target_arch = "x86_64")]
            return stage_avx2(c, t, k, up);
        }
        stage_by_slabs(c, t, self, k, up)
    }
}

/// The gate over bare 16-byte keys — a record that *is* its sort key, such
/// as the `label ‖ key` cells of ORP's placements: the same network as any
/// other gate's, with the pair routed through [`select_u128`] and, on AVX2,
/// two keys a `ymm` whose verdict is computed in-lane (module docs).
/// `u128::MAX` is the filler, as for cells.
impl Gate<u128> for Backend {
    #[inline]
    fn key(&self, x: &u128) -> u128 {
        *x
    }

    #[inline]
    fn route(&self, swap: bool, a: u128, b: u128) -> (u128, u128) {
        (select_u128(swap, a, b), select_u128(swap, b, a))
    }

    /// As the cell gate's: the AVX2 override, or the default loop.
    ///
    /// # Safety
    /// As [`Gate::run`].
    #[inline]
    unsafe fn run<C: Ctx>(
        &self,
        c: &C,
        t: &RawTracked<u128>,
        a: usize,
        b: usize,
        len: usize,
        up: bool,
    ) {
        debug_assert!(a.max(b) + len <= t.len() && a.abs_diff(b) >= len);
        if resolve(*self, active_backend()) == Backend::Avx2 {
            #[cfg(target_arch = "x86_64")]
            return run_avx2(c, t, a, b, len, up);
        }
        for k in 0..len {
            cex(c, t, self, a + k, b + k, up);
        }
    }

    /// As the cell gate's: the AVX2 override, or [`stage_by_slabs`].
    #[inline]
    fn stage<C: Ctx>(&self, c: &C, t: &mut Tracked<'_, u128>, k: usize, up: bool) {
        if resolve(*self, active_backend()) == Backend::Avx2 {
            #[cfg(target_arch = "x86_64")]
            return stage_avx2(c, t, k, up);
        }
        stage_by_slabs(c, t, self, k, up)
    }
}

/// [`Gate::run`] on the AVX2 kernel: the per-pair loop's accounting
/// replayed, then one kernel entry for the data.
///
/// # Safety
/// As [`Gate::run`], and AVX2 must have been detected (`resolve`).
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn run_avx2<C: Ctx, E: avx2::Pairs>(
    c: &C,
    t: &RawTracked<E>,
    a: usize,
    b: usize,
    len: usize,
    up: bool,
) {
    for k in 0..len {
        avx2::account_cex(c, t, a + k, b + k);
    }
    let ptr = t.as_mut_ptr();
    // AVX2 is available: `resolve` returns Avx2 only if `active_backend()`
    // did, i.e. only after `is_x86_feature_detected!("avx2")` succeeded in
    // this process, whichever variant the caller named. Bounds,
    // disjointness and exclusivity of the two runs are the caller's
    // contract.
    avx2::cex_run(ptr.add(a), ptr.add(b), len, up)
}

/// [`Gate::stage`] on the AVX2 kernel: the slab loop's accounting replayed
/// level by level, then one kernel entry that takes each aligned `k`-block
/// through all of its levels while it sits in L1. Blocks are independent,
/// so block-major order leaves what level-major does. Only called once
/// `resolve` said AVX2.
#[cfg(target_arch = "x86_64")]
#[inline]
fn stage_avx2<C: Ctx, E: avx2::Pairs>(c: &C, t: &mut Tracked<'_, E>, k: usize, up: bool) {
    let n = t.len();
    debug_assert!(k >= 2 && k.is_power_of_two() && n.is_multiple_of(k));
    let raw = t.as_raw();
    let mut j = k / 2;
    while j >= 1 {
        for i in (0..n / 2).map(|p| level_index(p, j)) {
            avx2::account_cex(c, &raw, i, i + j);
        }
        j /= 2;
    }
    // SAFETY: AVX2 was detected (see `run_avx2`); `&mut t` owns all `n`
    // elements.
    unsafe { avx2::stage(raw.as_mut_ptr(), n, k, up) }
}

/// Compare-exchange one bitonic-level slab of cells — the `stride` pairs
/// `(s + k, s + k + stride)` — through the process-wide gate:
/// [`Gate::run`] on [`active_backend`].
///
/// # Safety
/// As [`Gate::run`]: `s + 2 * stride <= t.len()`, and no concurrent task
/// may access `s..s + 2 * stride`.
#[inline]
pub unsafe fn cex_cells_slab<C: Ctx>(
    c: &C,
    t: &RawTracked<TagCell>,
    s: usize,
    stride: usize,
    up: bool,
) {
    active_backend().run(c, t, s, s + stride, stride, up)
}

/// Branchless whole-cell select: `b` if `cond` else `a`. Both lanes go
/// through [`select_u128`] masks, which the compiler lowers to vector
/// selects on SSE2+ targets — the cell gate and the rewrite loops
/// (compaction marking, merge fix-up, LWW projection) route every cell
/// choice through here so no secret-dependent branch reappears at a call
/// site.
#[inline(always)]
pub fn select_cell(cond: bool, a: TagCell, b: TagCell) -> TagCell {
    TagCell {
        tag: select_u128(cond, a.tag, b.tag),
        aux: select_u128(cond, a.aux, b.aux),
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::TagCell;
    use crate::cx::select_u128;
    use core::arch::x86_64::*;
    use fj::{counters, Access, Ctx};
    use metrics::RawTracked;
    use std::mem::size_of;
    use std::ops::Range;

    /// Replay the accounting of one scalar pair exchange on `(i, j)`
    /// without touching the data: two reads, the verdict's unit of work,
    /// two writes. The AVX2 slabs call this per pair, in slab order,
    /// before the vector data movement.
    #[inline(always)]
    pub fn account_pair<C: Ctx, T: Copy>(c: &C, t: &RawTracked<T>, i: usize, j: usize) {
        let (buf, off, wpe) = (t.buf(), t.off(), t.wpe());
        c.touch(buf, off + i as u64 * wpe, wpe, Access::Read);
        c.work(1);
        c.touch(buf, off + j as u64 * wpe, wpe, Access::Read);
        c.work(1);
        c.work(1);
        c.touch(buf, off + i as u64 * wpe, wpe, Access::Write);
        c.work(1);
        c.touch(buf, off + j as u64 * wpe, wpe, Access::Write);
        c.work(1);
    }

    /// [`account_pair`] plus the comparator count of a
    /// [`cex`](crate::cx::cex).
    #[inline(always)]
    pub fn account_cex<C: Ctx, T: Copy>(c: &C, t: &RawTracked<T>, i: usize, j: usize) {
        account_pair(c, t, i, j);
        c.count(counters::COMPARISONS, 1);
    }

    /// An element the compare-exchange kernels move: `cex_runs` is the
    /// per-type inner loop of [`cex_run`] and [`stage`] — pairs
    /// `(lo + k, hi + k)`, `k in 0..len`, smaller key first iff `up`, each
    /// pair's two elements loaded and stored whatever the verdict.
    pub trait Pairs: Copy {
        /// # Safety
        /// AVX2 must be available; `lo[..len]` and `hi[..len]` must be
        /// valid, disjoint and exclusively owned by the caller.
        unsafe fn cex_runs(lo: *mut Self, hi: *mut Self, len: usize, up: bool);
    }

    /// One branchless conditional exchange: `*pa`/`*pb` are 32-byte cells
    /// handled as one 256-bit vector each, swapped iff `verdict(k, tag of
    /// *pa, tag of *pb)` — two loads and two stores whatever it says,
    /// exactly like the scalar gate. The verdict is computed on the scalar
    /// side — for a compare-exchange a u128 compare is one `cmp`/`sbb` pair
    /// and `-(swap as i64)` a flag materialization, all branchless — then
    /// broadcast and applied as a vector masked xor-swap. Keeping the
    /// verdict off the vector unit beats an all-SIMD compare chain: the
    /// cross-lane verdict broadcast it needs is a latency-3, port-5-only
    /// permute, while the scalar compare runs on the ports the swap leaves
    /// idle. A verdict that ignores the tags costs no tag load.
    ///
    /// # Safety
    /// AVX2 must be available; `pa`/`pb` must be valid, disjoint cells.
    #[inline(always)]
    unsafe fn swap1(
        pa: *mut TagCell,
        pb: *mut TagCell,
        k: usize,
        verdict: &mut impl FnMut(usize, u128, u128) -> bool,
    ) {
        let ta = (pa as *const u128).read_unaligned();
        let tb = (pb as *const u128).read_unaligned();
        let m = _mm256_set1_epi64x(-(verdict(k, ta, tb) as i64));
        let a = _mm256_loadu_si256(pa as *const __m256i);
        let b = _mm256_loadu_si256(pb as *const __m256i);
        let diff = _mm256_and_si256(_mm256_xor_si256(a, b), m);
        _mm256_storeu_si256(pa as *mut __m256i, _mm256_xor_si256(a, diff));
        _mm256_storeu_si256(pb as *mut __m256i, _mm256_xor_si256(b, diff));
    }

    /// The one data-movement loop, inlined into the entry points
    /// below, verdict and all: pairs `(lo + k, hi + k)`, `k in 0..len`,
    /// four independent pairs per unrolled iteration (the pairs of a
    /// butterfly level never overlap, so the CPU pipelines them freely).
    ///
    /// # Safety
    /// AVX2 must be available; `lo[..len]` and `hi[..len]` must be valid,
    /// disjoint and exclusively owned by the caller.
    #[inline(always)]
    unsafe fn swap_runs(
        lo: *mut TagCell,
        hi: *mut TagCell,
        len: usize,
        mut verdict: impl FnMut(usize, u128, u128) -> bool,
    ) {
        let mut k = 0;
        while k + 4 <= len {
            swap1(lo.add(k), hi.add(k), k, &mut verdict);
            swap1(lo.add(k + 1), hi.add(k + 1), k + 1, &mut verdict);
            swap1(lo.add(k + 2), hi.add(k + 2), k + 2, &mut verdict);
            swap1(lo.add(k + 3), hi.add(k + 3), k + 3, &mut verdict);
            k += 4;
        }
        while k < len {
            swap1(lo.add(k), hi.add(k), k, &mut verdict);
            k += 1;
        }
    }

    /// A cell a `ymm`, its verdict from the scalar tag compare ([`swap1`]).
    impl Pairs for TagCell {
        #[inline(always)]
        unsafe fn cex_runs(lo: *mut Self, hi: *mut Self, len: usize, up: bool) {
            swap_runs(lo, hi, len, |_, ta, tb| (ta > tb) == up)
        }
    }

    /// Two keys a `ymm`, their verdicts computed in-lane. A key is two
    /// 64-bit lanes, low then high. `cmpgt_epi64` on sign-flipped lanes is
    /// the unsigned `gt` of each half and `cmpeq_epi64` the `eq`;
    /// `bslli_epi128(gt, 8)` moves each key's low `gt` under its high lane,
    /// where `gt_hi | (eq_hi & gt_lo)` is the 128-bit `a > b`, and
    /// `shuffle_epi32(0xEE)` copies that lane over both halves of its key:
    /// a whole-key mask with no cross-lane permute. XORed with the
    /// direction it is the swap mask of a masked xor-swap. An odd pair
    /// left over — a slab of one, level 1 of every stage — goes through
    /// [`select_u128`] on the scalar side.
    impl Pairs for u128 {
        #[inline(always)]
        unsafe fn cex_runs(lo: *mut Self, hi: *mut Self, len: usize, up: bool) {
            let sign = _mm256_set1_epi64x(i64::MIN);
            let flip = _mm256_set1_epi64x(-i64::from(!up));
            let mut k = 0;
            while k + 2 <= len {
                let (pa, pb) = (lo.add(k).cast::<__m256i>(), hi.add(k).cast::<__m256i>());
                let a = _mm256_loadu_si256(pa);
                let b = _mm256_loadu_si256(pb);
                let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign));
                let eq = _mm256_cmpeq_epi64(a, b);
                let v = _mm256_or_si256(gt, _mm256_and_si256(eq, _mm256_bslli_epi128::<8>(gt)));
                let m = _mm256_xor_si256(_mm256_shuffle_epi32::<0xEE>(v), flip);
                let diff = _mm256_and_si256(_mm256_xor_si256(a, b), m);
                _mm256_storeu_si256(pa, _mm256_xor_si256(a, diff));
                _mm256_storeu_si256(pb, _mm256_xor_si256(b, diff));
                k += 2;
            }
            if k < len {
                let (pa, pb) = (lo.add(k), hi.add(k));
                let (a, b) = (pa.read(), pb.read());
                let swap = (a > b) == up;
                pa.write(select_u128(swap, a, b));
                pb.write(select_u128(swap, b, a));
            }
        }
    }

    /// The data movement of [`Gate::run`](crate::cx::Gate::run): pairs
    /// `(lo + k, hi + k)`, `k in 0..len`, direction `up`.
    ///
    /// # Safety
    /// As [`Pairs::cex_runs`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn cex_run<E: Pairs>(lo: *mut E, hi: *mut E, len: usize, up: bool) {
        E::cex_runs(lo, hi, len, up)
    }

    /// The data movement of [`Gate::stage`](crate::cx::Gate::stage) over
    /// `n` elements: block-major — each aligned `k`-block through levels
    /// `k/2 … 1`, a level as its slabs of `j` pairs — so the levels of a
    /// block up to an L1's worth run while it is resident, and the one-
    /// to four-pair slabs of the low levels cost a loop trip, not a call.
    ///
    /// # Safety
    /// AVX2 must be available; `ptr[..n]` must be valid and exclusively
    /// owned by the caller, and `k` a power of two dividing `n`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn stage<E: Pairs>(ptr: *mut E, n: usize, k: usize, up: bool) {
        for b in (0..n).step_by(k) {
            let up = ((b & k) == 0) == up;
            let mut j = k / 2;
            while j >= 1 {
                for s in (b..b + k).step_by(2 * j) {
                    E::cex_runs(ptr.add(s), ptr.add(s + j), j, up);
                }
                j /= 2;
            }
        }
    }

    /// The data movement of [`Backend::swap_slab`](super::Backend::swap_slab):
    /// the `k`-th pair `(run.start + k, run.start + k + stride)` swaps iff
    /// `flip ^ (k >= pivot)`.
    ///
    /// # Safety
    /// AVX2 must be available; both runs must be valid, disjoint and
    /// exclusively owned by the caller.
    #[target_feature(enable = "avx2")]
    pub unsafe fn swap_slab(
        ptr: *mut TagCell,
        run: Range<usize>,
        stride: usize,
        pivot: i64,
        flip: bool,
    ) {
        let lo = ptr.add(run.start);
        swap_runs(lo, lo.add(stride), run.len(), |k, _, _| {
            flip ^ (k as i64 >= pivot)
        })
    }

    /// [`Backend::swap_block`](super::Backend::swap_block) compiled for
    /// AVX2. A cell is one `ymm`, and its slab computes the masks in-lane:
    /// `pivot` and `flip` broadcast once, then per pair a compare of the
    /// pair number against `pivot` xored with `¬flip`, and a masked
    /// xor-swap — no verdict on the scalar side. A key goes through the
    /// scalar slab.
    #[target_feature(enable = "avx2")]
    pub fn swap_block<E: super::Words>(
        block: &mut [E],
        spread: bool,
        split: impl FnMut(usize, usize) -> (usize, bool),
    ) {
        if size_of::<E>() != size_of::<TagCell>() {
            return super::block_slabs(block, spread, split, super::swap_words);
        }
        super::block_slabs(block, spread, split, |lo, hi, pivot, flip| {
            let h = lo.len().min(hi.len());
            let (lo, hi) = (
                lo.as_mut_ptr().cast::<__m256i>(),
                hi.as_mut_ptr().cast::<__m256i>(),
            );
            let (one, pivot) = (_mm256_set1_epi64x(1), _mm256_set1_epi64x(pivot as i64));
            let not_flip = _mm256_set1_epi64x(flip as i64 - 1);
            let mut k = _mm256_setzero_si256();
            for j in 0..h {
                let m = _mm256_xor_si256(_mm256_cmpgt_epi64(pivot, k), not_flip);
                // SAFETY: records `j` of both halves are in bounds, and a
                // record is a cell: one 32-byte vector.
                unsafe {
                    let (pa, pb) = (lo.add(j), hi.add(j));
                    let (a, b) = (_mm256_loadu_si256(pa), _mm256_loadu_si256(pb));
                    let d = _mm256_and_si256(_mm256_xor_si256(a, b), m);
                    _mm256_storeu_si256(pa, _mm256_xor_si256(a, d));
                    _mm256_storeu_si256(pb, _mm256_xor_si256(b, d));
                }
                k = _mm256_add_epi64(k, one);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::SeqCtx;
    use metrics::Tracked;
    use proptest::prelude::*;

    /// Stage `2·stride` over `2·stride` cells: one block, levels
    /// `stride … 1` — a slab of `stride` pairs, then ever shorter ones.
    fn run_stage<T: Copy>(backend: Backend, cells: &mut [T], stride: usize, up: bool)
    where
        Backend: Gate<T>,
    {
        let c = SeqCtx::new();
        backend.stage(&c, &mut Tracked::new(&c, cells), 2 * stride, up);
    }

    #[test]
    fn backends_agree_on_fixed_patterns() {
        for stride in [1usize, 2, 4, 8, 16] {
            for up in [true, false] {
                let mk = |salt: u128| -> Vec<TagCell> {
                    (0..2 * stride as u128)
                        .map(|i| {
                            TagCell::new((i * 0x9E37_79B9 + salt) % 7, i.wrapping_mul(salt | 1))
                        })
                        .collect()
                };
                for salt in [0u128, 1, u128::MAX >> 1, 42] {
                    let mut a = mk(salt);
                    let mut b = a.clone();
                    run_stage(Backend::Scalar, &mut a, stride, up);
                    run_stage(Backend::Avx2, &mut b, stride, up);
                    assert_eq!(a, b, "stride {stride} up {up} salt {salt}");
                }
            }
        }
    }

    #[test]
    fn filler_tags_compare_like_scalar() {
        // u128::MAX tags (fillers) exercise the sign-biased unsigned
        // compare at its edge.
        for up in [true, false] {
            let mut a = vec![
                TagCell::filler(),
                TagCell::new(3, 30),
                TagCell::new(u128::MAX - 1, 1),
                TagCell::filler(),
                TagCell::new(0, 0),
                TagCell::new(1 << 64, 2),
                TagCell::filler(),
                TagCell::new(1, 10),
            ];
            let mut b = a.clone();
            run_stage(Backend::Scalar, &mut a, 4, up);
            run_stage(Backend::Avx2, &mut b, 4, up);
            assert_eq!(a, b, "up {up}");
        }
    }

    #[test]
    fn swap_slab_follows_the_index_verdict_on_both_backends() {
        let c = SeqCtx::new();
        for len in [1usize, 3, 4, 7, 16] {
            for stride in [len, len + 5] {
                for pivot in [-2i64, 0, 1, len as i64 / 2, len as i64, len as i64 + 3] {
                    for flip in [false, true] {
                        let input: Vec<TagCell> = (0..(stride + len) as u128)
                            .map(|i| TagCell::new(i, !i))
                            .collect();
                        let mut expect = input.clone();
                        for k in 0..len {
                            if flip ^ (k as i64 >= pivot) {
                                expect.swap(k, k + stride);
                            }
                        }
                        for backend in [Backend::Scalar, Backend::Avx2] {
                            let mut cells = input.clone();
                            let mut t = Tracked::new(&c, &mut cells);
                            // SAFETY: `0..len` and `stride..stride + len`
                            // are in bounds and disjoint; nothing else runs.
                            unsafe {
                                backend.swap_slab(&c, &t.as_raw(), 0..len, stride, pivot, flip)
                            };
                            assert_eq!(
                                cells, expect,
                                "{backend:?} len {len} stride {stride} pivot {pivot} flip {flip}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The measured costs of one swap slab over 64 cells.
    fn swap_slab_costs(backend: Backend) -> (u64, u64, u64, u64, u64) {
        use metrics::{measure, CacheConfig, TraceMode};
        let (_, r) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let mut cells = vec![TagCell::new(1, 2); 64];
            let t = Tracked::new(c, &mut cells).as_raw();
            // SAFETY: 0..24 and 32..56 are in bounds and disjoint.
            unsafe { backend.swap_slab(c, &t, 0..24, 32, 5, true) }
        });
        (r.trace_hash, r.trace_len, r.work, r.span, r.cache_misses)
    }

    #[test]
    fn swap_slab_accounting_is_backend_independent() {
        assert_eq!(
            swap_slab_costs(Backend::Scalar),
            swap_slab_costs(Backend::Avx2)
        );
    }

    #[test]
    fn stage_entry_matches_the_slab_loop() {
        // `Gate::stage` on the AVX2 gate — the replay, then one block-major
        // kernel entry — against the default slab loop on both gates, for
        // every stage of a 4096-cell array (2 … 2048 blocks), both
        // directions. Tags are duplicate-heavy in both 64-bit halves; the
        // payload lane tells equal tags apart, so a swapped tie shows.
        use metrics::{measure, CacheConfig, MeterCtx, TraceMode};
        let input: Vec<TagCell> = (0..4096u128)
            .map(|i| TagCell::new(((i * 0x9E37_79B9 % 5) << 64) | (i % 3), i))
            .collect();
        type Stage<'a> = &'a dyn Fn(&MeterCtx, &mut Tracked<'_, TagCell>);
        let run = |stage: Stage| {
            let mut cells = input.clone();
            let (_, r) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                stage(c, &mut Tracked::new(c, &mut cells))
            });
            let costs = [r.trace_hash, r.trace_len, r.work, r.span, r.cache_misses];
            (cells, costs, r.comparisons)
        };
        for k in (1..=11).map(|e| 1usize << e) {
            for up in [true, false] {
                let entry = run(&|c, t| Backend::Avx2.stage(c, t, k, up));
                assert!(entry.0 != input, "k {k}: the stage moved nothing");
                assert_eq!(entry.2, 2048 * k.ilog2() as u64);
                let slabs: [(&str, Stage); 2] = [
                    ("avx2 slabs", &|c, t| {
                        stage_by_slabs(c, t, &Backend::Avx2, k, up)
                    }),
                    ("scalar", &|c, t| Backend::Scalar.stage(c, t, k, up)),
                ];
                for (name, slabs) in slabs {
                    assert!(run(slabs) == entry, "k {k} up {up}: {name}");
                }
            }
        }
    }

    /// 4096 duplicate-heavy keys whose halves sit on the sign-flip edges:
    /// each half is one of `0, 1, 2⁶³ − 1, 2⁶³, u64::MAX − 1, u64::MAX`, so
    /// `u128::MAX` (the filler), `u64::MAX` halves and equal-high ties all
    /// occur many times.
    fn edge_keys() -> Vec<u128> {
        const HALVES: [u64; 6] = [0, 1, i64::MAX as u64, 1 << 63, u64::MAX - 1, u64::MAX];
        (0..4096u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                let (hi, lo) = (HALVES[(h % 6) as usize], HALVES[(h / 6 % 6) as usize]);
                ((hi as u128) << 64) | lo as u128
            })
            .collect()
    }

    #[test]
    fn key_gate_matches_the_per_pair_loop() {
        // `Gate<u128>` on AVX2 — the stage entry, and its `run` kernel one
        // slab at a time — against the per-pair loop of the scalar gate
        // and of the closure gate `|x| *x`, for every stage of 4096 keys
        // (2 … 2048 blocks), both directions: the keys, trace hash and
        // length, work, span, misses and comparisons. The slabs run every
        // length from one pair (the scalar tail) to 2048.
        use metrics::{measure, CacheConfig, MeterCtx, TraceMode};
        let input = edge_keys();
        type Stage<'a> = &'a dyn Fn(&MeterCtx, &mut Tracked<'_, u128>);
        let run = |stage: Stage| {
            let mut keys = input.clone();
            let (_, r) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                stage(c, &mut Tracked::new(c, &mut keys))
            });
            let costs = [r.trace_hash, r.trace_len, r.work, r.span, r.cache_misses];
            (keys, costs, r.comparisons)
        };
        let by_key = |x: &u128| *x;
        for k in (1..=12).map(|e| 1usize << e) {
            for up in [true, false] {
                let entry = run(&|c, t| Backend::Avx2.stage(c, t, k, up));
                assert!(entry.0 != input, "k {k}: the stage moved nothing");
                assert_eq!(entry.2, 2048 * k.ilog2() as u64);
                let others: [(&str, Stage); 3] = [
                    ("avx2 slabs", &|c, t| {
                        stage_by_slabs(c, t, &Backend::Avx2, k, up)
                    }),
                    ("scalar", &|c, t| Backend::Scalar.stage(c, t, k, up)),
                    ("closure", &|c, t| stage_by_slabs(c, t, &by_key, k, up)),
                ];
                for (name, other) in others {
                    assert!(run(other) == entry, "k {k} up {up}: {name}");
                }
            }
        }
    }

    #[test]
    fn key_gate_sorts_through_the_recursive_network() {
        // The whole §E.1 driver on keys: host tiles (2¹⁴ keys are eight
        // L1 bases of 16-byte elements) on both gates against `sort`.
        let c = SeqCtx::new();
        let mut input = edge_keys();
        input.extend(edge_keys().iter().map(|k| k.rotate_left(7)));
        input.resize(1 << 14, u128::MAX);
        let mut expect = input.clone();
        expect.sort_unstable();
        for backend in [Backend::Scalar, Backend::Avx2] {
            let mut keys = input.clone();
            crate::sort_slice_rec(&c, &mut keys, &backend, true);
            assert!(keys == expect, "{backend:?}");
        }
    }

    /// What [`Backend::swap_block`] leaves, pair by pair on a copy: widths
    /// `2 → len` (`len → 2` spreading), sub-blocks in order.
    fn block_oracle<T: Copy>(
        input: &[T],
        lo: usize,
        len: usize,
        spread: bool,
        split: impl Fn(usize, usize) -> (usize, bool),
    ) -> Vec<T> {
        let mut out = input.to_vec();
        let mut widths: Vec<usize> = (1..=len.trailing_zeros()).map(|k| 1 << k).collect();
        if spread {
            widths.reverse();
        }
        for w in widths {
            for b in (0..len).step_by(w) {
                let (pivot, flip) = split(b, w);
                for k in 0..w / 2 {
                    if flip ^ (k >= pivot) {
                        out.swap(lo + b + k, lo + b + k + w / 2);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn swap_block_follows_the_split_on_both_backends() {
        // Cells and bare keys, blocks of one pair up to 64 records, both
        // directions, at an offset into the array, with splits that vary
        // by sub-block and level: every pivot from 0 to `w/2`, both flips.
        for len in [2usize, 4, 8, 32, 64] {
            for spread in [false, true] {
                for salt in [0usize, 1, 7] {
                    let split = |b: usize, w: usize| {
                        let mix = (b * 31 + w * 7 + salt) * 0x9E37;
                        ((mix >> 3) % (w / 2 + 1), mix & 1 == 1)
                    };
                    let lo = 3;
                    let cells: Vec<TagCell> = (0..(len + 5) as u128)
                        .map(|i| TagCell::new(i * 0x1_0000_0001, !i))
                        .collect();
                    let keys: Vec<u128> = cells.iter().map(|x| x.tag ^ x.aux << 7).collect();
                    let expect = block_oracle(&cells, lo, len, spread, split);
                    let expect_keys = block_oracle(&keys, lo, len, spread, split);
                    for backend in [Backend::Scalar, Backend::Avx2] {
                        let what = format!("{backend:?} len {len} spread {spread} salt {salt}");
                        let mut got = cells.clone();
                        let mut got_keys = keys.clone();
                        backend.swap_block(&mut got[lo..lo + len], spread, split);
                        backend.swap_block(&mut got_keys[lo..lo + len], spread, split);
                        assert_eq!(got, expect, "cells: {what}");
                        assert_eq!(got_keys, expect_keys, "keys: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn active_backend_is_stable() {
        assert_eq!(active_backend(), active_backend());
    }

    #[test]
    fn avx2_runs_only_when_requested_and_detected() {
        use Backend::{Avx2, Scalar};
        assert_eq!(resolve(Scalar, Scalar), Scalar);
        assert_eq!(resolve(Scalar, Avx2), Scalar);
        assert_eq!(resolve(Avx2, Scalar), Scalar, "no kernel without detection");
        assert_eq!(resolve(Avx2, Avx2), Avx2);
    }

    #[test]
    fn select_cell_routes_both_lanes() {
        let a = TagCell::new(1, 2);
        let b = TagCell::new(3, 4);
        assert_eq!(select_cell(false, a, b), a);
        assert_eq!(select_cell(true, a, b), b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_backends_bit_identical(
            his in proptest::collection::vec(any::<u64>(), 32),
            los in proptest::collection::vec(any::<u64>(), 32),
            sel in any::<u64>(),
        ) {
            let up = sel & 1 == 0;
            for stride in [4usize, 8, 16] {
                let mut a: Vec<TagCell> = his[..2 * stride]
                    .iter()
                    .zip(&los)
                    .map(|(&h, &l)| {
                        // Collapse some high lanes to force equal-high ties
                        // through the (hi_eq & lo_gt) path.
                        let h = if sel & 2 == 0 { h % 3 } else { h };
                        TagCell::new(
                            ((h as u128) << 64) | l as u128,
                            ((l as u128) << 64) | h as u128,
                        )
                    })
                    .collect();
                let mut b = a.clone();
                // The same tags as bare keys, on the key gate.
                let mut ka: Vec<u128> = a.iter().map(|cell| cell.tag).collect();
                let mut kb = ka.clone();
                run_stage(Backend::Scalar, &mut a, stride, up);
                run_stage(Backend::Avx2, &mut b, stride, up);
                prop_assert_eq!(&a, &b);
                run_stage(Backend::Scalar, &mut ka, stride, up);
                run_stage(Backend::Avx2, &mut kb, stride, up);
                prop_assert_eq!(&ka, &kb);
            }
        }
    }
}
