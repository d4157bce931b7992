//! The branchless cell gate: [`Backend`] is the [`Gate`] for packed
//! [`TagCell`]s, with runtime-dispatched AVX2 forms of the comparator
//! slab and of compaction's index-driven swap slab
//! ([`Backend::swap_slab`]), plus the whole-cell select the rewrite loops
//! route through.
//!
//! # Dispatch model
//!
//! [`Backend::Scalar`] is the gate's default per-pair loop over
//! `select_u128` lanes; [`Backend::Avx2`] overrides [`Gate::slab`] only:
//! the accounting replay below, then the 256-bit kernel. The process-wide
//! choice ([`active_backend`]) is made **once**: AVX2 when
//! `is_x86_feature_detected!("avx2")` says the hardware has it and
//! `DOB_NO_SIMD` is unset, scalar otherwise — a public *hardware* fact,
//! like the cache-line size or the core count, so dispatching on it leaks
//! nothing under Definition 1.
//!
//! Tests and benches pass either variant to the networks to compare the
//! two bit for bit, so safe code can name `Avx2` on a machine without it.
//! The slab therefore runs the kernel only when `resolve` of the request
//! against that cached detection says so, and the scalar gate otherwise;
//! under `DOB_NO_SIMD=1` every request runs exactly what hardware without
//! AVX2 executes.
//!
//! # Why the trace cannot change
//!
//! An AVX2 slab differs from the per-pair loop only in ALU width. It
//! first replays, pair by pair in the same order, the exact
//! [`fj::Ctx::touch`]/[`fj::Ctx::work`]/[`fj::Ctx::count`] sequence
//! [`cex`] (or the scalar swap loop) emits (free on non-metering
//! executors — the `Ctx` methods are inlined no-ops there), and only then
//! moves the data with a branchless
//! scalar verdict + 256-bit masked xor-swap. Same addresses in the
//! same order, same work and comparator counters, no data-dependent
//! branch: the adversary-visible trace and the gated cost model are
//! *identical* across backends, on every input. DESIGN.md §14 gives the
//! full argument and the per-kernel coverage table.

use crate::cx::{cex, select_u128, Gate};
use crate::tag::TagCell;
use fj::Ctx;
use metrics::RawTracked;
use std::ops::Range;
use std::sync::OnceLock;

/// The compare-exchange gate for [`TagCell`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Per-pair `select_u128` masks — the portable branchless gate.
    Scalar,
    /// Scalar tag verdict + 256-bit masked xor-swap of whole cells, four
    /// pairs per unrolled iteration; `Scalar` where AVX2 was not detected.
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
    /// `run`: the `k`-th pair swaps iff `flip ^ (k >= pivot)` — the swap
    /// level of `obliv_core::compact_cells`, whose verdict is an index
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
                // SAFETY: AVX2 was detected (see `slab`); bounds and
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

    /// The AVX2 override; every other request runs the default loop.
    ///
    /// # Safety
    /// As [`Gate::slab`]: `s + 2 * stride <= t.len()` — the kernel writes
    /// through a raw pointer with no further check — and no concurrent
    /// task may access `s..s + 2 * stride`.
    #[inline]
    unsafe fn slab<C: Ctx>(
        &self,
        c: &C,
        t: &RawTracked<TagCell>,
        s: usize,
        stride: usize,
        up: bool,
    ) {
        debug_assert!(s + 2 * stride <= t.len());
        // `detect` never reports Avx2 off x86_64, so there the branch is
        // empty and dead.
        if resolve(*self, active_backend()) == Backend::Avx2 {
            #[cfg(target_arch = "x86_64")]
            {
                for k in 0..stride {
                    avx2::account_cex(c, t, s + k, s + k + stride);
                }
                // SAFETY: AVX2 is available — `resolve` returns Avx2 only
                // if `active_backend()` did, i.e. only after
                // `is_x86_feature_detected!("avx2")` succeeded in this
                // process, whichever variant the caller named. Bounds and
                // exclusivity of `s..s + 2*stride` are this function's own
                // contract.
                return avx2::cex_slab(t.as_mut_ptr(), s, stride, up);
            }
        }
        for k in 0..stride {
            cex(c, t, self, s + k, s + k + stride, up);
        }
    }
}

/// Compare-exchange one slab of cells through the process-wide gate:
/// [`Gate::slab`] on [`active_backend`].
///
/// # Safety
/// As [`Gate::slab`]: `s + 2 * stride <= t.len()`, and no concurrent task
/// may access `s..s + 2 * stride`.
#[inline]
pub unsafe fn cex_cells_slab<C: Ctx>(
    c: &C,
    t: &RawTracked<TagCell>,
    s: usize,
    stride: usize,
    up: bool,
) {
    active_backend().slab(c, t, s, stride, up)
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
    use core::arch::x86_64::*;
    use fj::{counters, Access, Ctx};
    use metrics::RawTracked;
    use std::ops::Range;

    /// Replay the accounting of one scalar pair exchange on `(i, j)`
    /// without touching the data: two reads, the verdict's unit of work,
    /// two writes. The AVX2 slabs call this per pair, in slab order,
    /// before the vector data movement.
    #[inline(always)]
    pub fn account_pair<C: Ctx>(c: &C, t: &RawTracked<TagCell>, i: usize, j: usize) {
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
    pub fn account_cex<C: Ctx>(c: &C, t: &RawTracked<TagCell>, i: usize, j: usize) {
        account_pair(c, t, i, j);
        c.count(counters::COMPARISONS, 1);
    }

    /// Masked xor-swap of two 32-byte cells, each one 256-bit vector: two
    /// loads and two stores whatever `swap` is, exactly like the scalar
    /// gate.
    ///
    /// # Safety
    /// AVX2 must be available; `pa`/`pb` must be valid, disjoint cells.
    #[inline(always)]
    unsafe fn swap1(pa: *mut TagCell, pb: *mut TagCell, swap: bool) {
        let m = _mm256_set1_epi64x(-(swap as i64));
        let a = _mm256_loadu_si256(pa as *const __m256i);
        let b = _mm256_loadu_si256(pb as *const __m256i);
        let diff = _mm256_and_si256(_mm256_xor_si256(a, b), m);
        _mm256_storeu_si256(pa as *mut __m256i, _mm256_xor_si256(a, diff));
        _mm256_storeu_si256(pb as *mut __m256i, _mm256_xor_si256(b, diff));
    }

    /// One branchless compare-exchange: `*pa`/`*pb` are 32-byte cells
    /// handled as one 256-bit vector each. The tag verdict is computed
    /// on the scalar side — a u128 compare is one `cmp`/`sbb` pair and
    /// `-(swap as i64)` a flag materialization, all branchless — then
    /// broadcast and applied as a vector masked xor-swap. Keeping the
    /// verdict off the vector unit beats an all-SIMD compare chain: the
    /// cross-lane verdict broadcast it needs is a latency-3,
    /// port-5-only permute, while the scalar compare runs on the ports
    /// the swap leaves idle.
    ///
    /// # Safety
    /// As [`swap1`].
    #[inline(always)]
    unsafe fn cex1(pa: *mut TagCell, pb: *mut TagCell, up: bool) {
        let ta = (pa as *const u128).read_unaligned();
        let tb = (pb as *const u128).read_unaligned();
        swap1(pa, pb, (ta > tb) == up);
    }

    /// The slab data movement: pairs `(s+k, s+k+stride)`, `k in
    /// 0..stride`, direction `up`, four independent pairs per unrolled
    /// iteration (the pairs of a bitonic level never overlap, so the CPU
    /// pipelines them freely).
    ///
    /// # Safety
    /// AVX2 must be available; `ptr[s..s + 2*stride]` must be valid and
    /// exclusively owned by the caller.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cex_slab(ptr: *mut TagCell, s: usize, stride: usize, up: bool) {
        let lo = ptr.add(s);
        let hi = ptr.add(s + stride);
        let mut k = 0;
        while k + 4 <= stride {
            cex1(lo.add(k), hi.add(k), up);
            cex1(lo.add(k + 1), hi.add(k + 1), up);
            cex1(lo.add(k + 2), hi.add(k + 2), up);
            cex1(lo.add(k + 3), hi.add(k + 3), up);
            k += 4;
        }
        while k < stride {
            cex1(lo.add(k), hi.add(k), up);
            k += 1;
        }
    }

    /// The data movement of [`Backend::swap_slab`](super::Backend::swap_slab):
    /// the `k`-th pair `(run.start + k, run.start + k + stride)` swaps iff
    /// `flip ^ (k >= pivot)`, four independent pairs per unrolled
    /// iteration.
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
        let hi = lo.add(stride);
        let len = run.len();
        let verdict = |k: usize| flip ^ (k as i64 >= pivot);
        let mut k = 0;
        while k + 4 <= len {
            swap1(lo.add(k), hi.add(k), verdict(k));
            swap1(lo.add(k + 1), hi.add(k + 1), verdict(k + 1));
            swap1(lo.add(k + 2), hi.add(k + 2), verdict(k + 2));
            swap1(lo.add(k + 3), hi.add(k + 3), verdict(k + 3));
            k += 4;
        }
        while k < len {
            swap1(lo.add(k), hi.add(k), verdict(k));
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::SeqCtx;
    use metrics::Tracked;
    use proptest::prelude::*;

    fn run_slab(backend: Backend, cells: &mut [TagCell], stride: usize, up: bool) {
        let c = SeqCtx::new();
        let mut t = Tracked::new(&c, cells);
        let raw = t.as_raw();
        // SAFETY: exclusive access, sequential; every caller passes
        // 2 * stride cells.
        unsafe { backend.slab(&c, &raw, 0, stride, up) };
        let _ = t;
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
                    run_slab(Backend::Scalar, &mut a, stride, up);
                    run_slab(Backend::Avx2, &mut b, stride, up);
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
            run_slab(Backend::Scalar, &mut a, 4, up);
            run_slab(Backend::Avx2, &mut b, 4, up);
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

    #[test]
    fn swap_slab_accounting_is_backend_independent() {
        use metrics::{measure, CacheConfig, TraceMode};
        let run = |backend: Backend| {
            let (_, r) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut cells = vec![TagCell::new(1, 2); 64];
                let mut t = Tracked::new(c, &mut cells);
                // SAFETY: 0..24 and 32..56 are in bounds and disjoint.
                unsafe { backend.swap_slab(c, &t.as_raw(), 0..24, 32, 5, true) };
            });
            (r.trace_hash, r.trace_len, r.work, r.span, r.cache_misses)
        };
        assert_eq!(run(Backend::Scalar), run(Backend::Avx2));
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
                run_slab(Backend::Scalar, &mut a, stride, up);
                run_slab(Backend::Avx2, &mut b, stride, up);
                prop_assert_eq!(&a, &b);
            }
        }
    }
}
