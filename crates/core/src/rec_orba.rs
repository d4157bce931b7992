//! REC-ORBA: recursive, cache-agnostic oblivious random bin assignment
//! (§3.2, §D.1).
//!
//! META-ORBA's γ-way butterfly is evaluated recursively: a problem over `β`
//! bins splits into `β₁ = 2^⌈k/2⌉` partitions of `β₂ = 2^⌊k/2⌋` consecutive
//! bins routed by the *high* half of the unconsumed label window, a matrix
//! transposition of the `β₁ × β₂` bin matrix, and `β₂` subproblems of `β₁`
//! bins routed by the *low* half. Base-case subproblems (≤ γ bins) are one
//! oblivious bin placement each. Costs (Lemma 3.1, at `Z = Θ(log² n)`,
//! `γ = Θ(log n)`):
//!
//! * work `O(n log n)` (with the bitonic engine: `O(n log n log log n)`),
//! * span `O(log n · log log n)` (practical engine: one extra `log log`),
//! * cache complexity `O((n/B) · log_M n)`, cache-agnostically.
//!
//! **Labels and the one sort.** An element's label is one uniform `u64`;
//! its bin is the label's top `log₂ β` bits and the rest is a
//! random tiebreak that ORP reads as the order inside the bin. Stage 1 runs
//! first and routes the high window, recursively, so label bits are
//! consumed **most significant first in time**: when a placement routes the
//! window `[s, s + w)`, every element of its subproblem already agrees on
//! the bits above it. A placement leaves each bin ascending by full label
//! with the reals in front; with the bits above the window equal, that *is*
//! ascending by `(window ‖ label)` — the next placement's sort order. So
//! only the placements that read the initial layout sort at all, and they
//! sort half their slots (the layout packs a first-level group's `G·Z/2`
//! input positions into the front half of the group: [`Input::Prefix`]);
//! every later placement gets `Z`-slot sorted runs and merges them
//! ([`Input::Runs`]). After the last level the concatenated bins are the
//! input in label order.
//!
//! Obliviousness: every step is a bin placement (oblivious), a transpose,
//! or a bulk copy — the access pattern depends only on `(n, Z, γ)`, never
//! on data or labels. Bin overflow is detected inside bin placement, the
//! pass always runs to completion, and the caller retries with fresh
//! labels ([`crate::error::with_retries`]). An overflow voids the attempt:
//! the placements downstream of it receive runs in no particular order, run
//! their fixed trace all the same, and are told so (`Input::Runs::void`).

use crate::binplace::{bin_place_from, Input};
use crate::engine::Engine;
use crate::error::{OblivError, Result};
use crate::slot::{Item, Slot, Val};
use fj::Ctx;
use metrics::{par_fill, par_tracked_chunks, ScratchGuard, ScratchPool, Tracked};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sortnet::{par_rows2, transpose};
use std::sync::atomic::{AtomicBool, Ordering};

/// Tuning parameters for ORBA and the sorting pipelines built on it.
#[derive(Clone, Copy, Debug)]
pub struct OrbaParams {
    /// Bin capacity `Z` (power of two). The paper uses `Θ(log² n)`.
    pub z: usize,
    /// Butterfly branching factor `γ` (power of two). The paper uses
    /// `Θ(log n)`.
    pub gamma: usize,
    /// Oblivious network for the poly-log-sized sorts.
    pub engine: Engine,
}

impl OrbaParams {
    /// The paper's parameter regime for input size `n`:
    /// `Z = next_pow2(log² n)`, `γ = next_pow2(log n)`.
    pub fn for_n(n: usize) -> Self {
        // The bit length ⌊log₂ n⌋ + 1, not ⌈log₂ n⌉: 17 at n = 2¹⁶, hence
        // Z = 512 there.
        let lg = (usize::BITS - n.max(2).leading_zeros()) as usize;
        OrbaParams {
            z: (lg * lg).next_power_of_two().max(16),
            gamma: lg.next_power_of_two().max(4),
            engine: Engine::default(),
        }
    }

    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

/// Output of ORBA: `nbins` bins of exactly `z` slots each, concatenated.
/// Every real element sits in the bin named by the top `log₂ nbins` bits of
/// its label, reals in front of the bin in ascending label order.
pub struct BinLayout<V> {
    pub slots: Vec<Slot<V>>,
    pub nbins: usize,
    pub z: usize,
}

impl<V: Val> BinLayout<V> {
    /// Real-element loads per bin (public after ORP's final reveal; used by
    /// tests and the overflow experiments).
    pub fn loads(&self) -> Vec<usize> {
        self.slots
            .chunks(self.z)
            .map(|bin| bin.iter().filter(|s| s.is_real()).count())
            .collect()
    }
}

/// Number of bins for `n` elements at bin capacity `z`: the smallest power
/// of two with `β · z/2 ≥ n`.
pub fn bins_for(n: usize, z: usize) -> usize {
    (2 * n).div_ceil(z).next_power_of_two().max(1)
}

/// One attempt of REC-ORBA: assign each of `items` to a uniformly random
/// bin, obliviously. Fails with [`OblivError::BinOverflow`] with negligible
/// probability (at the paper's parameters).
pub fn rec_orba<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    p: OrbaParams,
    seed: u64,
) -> Result<BinLayout<V>> {
    let nbins = bins_for(items.len(), p.z);
    let mut slots = vec![Slot::<V>::filler(); nbins * p.z];
    rec_orba_into(c, scratch, items, p, seed, &mut slots)?;
    Ok(BinLayout {
        slots,
        nbins,
        z: p.z,
    })
}

/// [`rec_orba`] writing the bin layout into caller-provided storage of
/// `bins_for(n, z) · z` slots (typically a [`ScratchPool`] lease), so the
/// hot pipelines allocate nothing per attempt. `slots` must arrive filled
/// with fillers — both `vec![Slot::filler(); _]` and a filler-filled lease
/// satisfy this.
pub fn rec_orba_into<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    p: OrbaParams,
    seed: u64,
    slots: &mut [Slot<V>],
) -> Result<()> {
    let labels = draw_labels(scratch, items.len(), seed);
    rec_orba_with_labels(c, scratch, items, &labels, p, slots)
}

/// One uniform 64-bit label per element. The draw order is fixed
/// (sequential), so the stream — and with it the whole execution — depends
/// only on `(n, seed)`.
///
/// A draw of `u64::MAX` is taken as `u64::MAX − 1`, so that a real's
/// `label ‖ key` placement cell never reads as the filler (`bin_place_from`)
/// whatever its key. That is an event of probability `2⁻⁶⁴` a label: the
/// labels stay i.i.d., so their rank vector stays uniform, and the one
/// value it doubles is a collision of the kind ORP already retries.
pub(crate) fn draw_labels(scratch: &ScratchPool, n: usize, seed: u64) -> ScratchGuard<'_, u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut labels = scratch.lease(n, 0u64);
    for l in labels.iter_mut() {
        *l = rng.gen::<u64>().min(u64::MAX - 1);
    }
    labels
}

/// Position of the lowest of the `log₂ nbins` label bits that name a bin —
/// the top ones. A butterfly level routing bits `[s, s + w)` of the bin
/// index passes `bin_shift(nbins) + s` to [`crate::bin_place`]. 64 at
/// `nbins = 1`.
pub(crate) fn bin_shift(nbins: usize) -> u32 {
    u64::BITS - nbins.trailing_zeros()
}

/// The bin `label` names among `nbins` (a power of two).
#[cfg(test)]
pub(crate) fn bin_of(label: u64, nbins: usize) -> usize {
    label.checked_shr(bin_shift(nbins)).unwrap_or(0) as usize
}

/// Bin count `G` of the placements that read the initial layout: what the
/// stage-1 chain of [`rec`] bottoms out at (each stage 1 keeps the high
/// `⌊k/2⌋` bits of a `k`-bit window). The leaves of that chain are the
/// consecutive groups of `G` bins.
pub(crate) fn first_group(nbins: usize, gamma: usize) -> usize {
    let mut k = nbins.trailing_zeros();
    while 1usize << k > gamma {
        k /= 2;
    }
    1 << k
}

/// [`rec_orba_into`] on given labels (one per item).
pub(crate) fn rec_orba_with_labels<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    labels: &[u64],
    p: OrbaParams,
    slots: &mut [Slot<V>],
) -> Result<()> {
    let nbins = bins_for(items.len(), p.z);
    assert!(p.z >= 2, "a bin holds its Z/2 input positions");
    assert_eq!(slots.len(), nbins * p.z, "ORBA layout shape mismatch");
    build_layout(c, items, labels, first_group(nbins, p.gamma) * p.z, slots);
    let mut t = Tracked::new(c, slots);
    let mut scratch_store = scratch.lease(t.len(), Slot::<V>::filler());
    let mut tmp = Tracked::new(c, &mut scratch_store);
    let attempt = Attempt {
        pool: scratch,
        p,
        overflow: AtomicBool::new(false),
    };
    rec(
        c,
        &attempt,
        t.borrow_mut(),
        tmp.borrow_mut(),
        nbins,
        bin_shift(nbins),
        true,
    );
    if attempt.overflow.into_inner() {
        return Err(OblivError::BinOverflow);
    }
    Ok(())
}

/// Initial layout: β bins of Z slots holding, on average, Z/2 input
/// positions (real or filler) each (§C.2) — packed per first-level group:
/// the front half of every `group` consecutive slots takes the group's
/// `group/2` input positions, so the first placement's reals sit in a
/// public prefix. `slots` arrives filler-filled; only the front halves are
/// (re)written.
pub(crate) fn build_layout<C: Ctx, V: Val>(
    c: &C,
    items: &[Item<V>],
    labels: &[u64],
    group: usize,
    slots: &mut [Slot<V>],
) {
    let half = group / 2;
    let t = Tracked::new(c, slots);
    par_tracked_chunks(c, t, group, &|c, g, mut grp| {
        par_fill(c, &mut grp.range(0, half), &|_, i| {
            let idx = g * half + i;
            if idx < items.len() {
                Slot::real(items[idx], labels[idx])
            } else {
                Slot::filler()
            }
        });
    });
}

/// What every node of one attempt's recursion shares.
struct Attempt<'a> {
    pool: &'a ScratchPool,
    p: OrbaParams,
    /// Some placement of this attempt has overflowed.
    overflow: AtomicBool,
}

/// Recursive butterfly: route every real element in `slots` (β bins × Z) to
/// the local bin named by label bits `[shift, shift + log₂ β)`. All reals
/// agree on the bits above that window. `first`: `slots` is still the
/// initial layout; otherwise every bin is an earlier placement's output.
fn rec<C: Ctx, V: Val>(
    c: &C,
    a: &Attempt<'_>,
    mut slots: Tracked<'_, Slot<V>>,
    mut scratch: Tracked<'_, Slot<V>>,
    nbins: usize,
    shift: u32,
    first: bool,
) {
    let z = a.p.z;
    if nbins <= a.p.gamma {
        let input = if first {
            Input::Prefix(nbins * z / 2)
        } else {
            // Whatever voided this placement's input finished before it
            // started, so the flag is up by now.
            let void = a.overflow.load(Ordering::Relaxed);
            Input::Runs { run: z, void }
        };
        if bin_place_from(c, a.pool, &mut slots, input, nbins, z, shift, a.p.engine).is_err() {
            a.overflow.store(true, Ordering::Relaxed);
        }
        return;
    }
    let k = nbins.trailing_zeros();
    let k1 = k.div_ceil(2); // low-bit window (stage 2): β₁ = 2^k1 partitions
    let k2 = k - k1; // high-bit window (stage 1): β₂ = 2^k2 bins each
    let b1 = 1usize << k1;
    let b2 = 1usize << k2;

    // Stage 1: each of the β₁ partitions (β₂ consecutive bins) routes its
    // elements by the high window bits.
    par_rows2(
        c,
        slots.borrow_mut(),
        scratch.borrow_mut(),
        b1,
        b2 * z,
        0,
        &|c, _, s, tmp| {
            rec(c, a, s, tmp, b2, shift + k1, first);
        },
    );

    // Transpose the β₁ × β₂ matrix of bins so the β₂ bins that agree on the
    // high window become contiguous.
    transpose(c, &mut slots, &mut scratch, b1, b2, z);

    // Stage 2: each of the β₂ rows (β₁ bins) routes by the low window bits.
    // Its bins are stage 1's output bins, whole: sorted runs.
    par_rows2(
        c,
        scratch.borrow_mut(),
        slots.borrow_mut(),
        b2,
        b1 * z,
        0,
        &|c, _, s, tmp| {
            rec(c, a, s, tmp, b1, shift, false);
        },
    );

    // Result currently lives in `scratch`; copy back (scan-bound).
    par_tracked_chunks(c, slots, z, &|c, b, mut bin| {
        bin.copy_from(c, &scratch, b * z, 0, z);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::with_retries;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};

    fn items(n: usize) -> Vec<Item<u64>> {
        (0..n as u64).map(|i| Item::new(i as u128, i * 7)).collect()
    }

    fn small_params() -> OrbaParams {
        OrbaParams {
            z: 16,
            gamma: 4,
            engine: Engine::BitonicRec,
        }
    }

    fn orba_retrying(n: usize, p: OrbaParams, seed: u64) -> BinLayout<u64> {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let its = items(n);
        let (layout, _) = with_retries(64, |a| rec_orba(&c, &sp, &its, p, seed + 1000 * a as u64));
        layout
    }

    #[test]
    fn every_element_lands_in_its_label_bin() {
        let p = small_params();
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let its = items(100);
        let (layout, _) = with_retries(64, |a| rec_orba(&c, &sp, &its, p, 42 + a as u64));
        // Each bin holds ≤ Z reals, all reals present.
        let mut seen: Vec<u64> = layout
            .slots
            .iter()
            .filter(|s| s.is_real())
            .map(|s| s.item.val)
            .collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..100u64).map(|i| i * 7).collect();
        assert_eq!(seen, expect, "no element lost or duplicated");
        for (b, bin) in layout.slots.chunks(layout.z).enumerate() {
            assert_eq!(bin.len(), layout.z);
            // Every real sits in the bin its label's top bits name, reals
            // in front, ascending by label.
            let load = bin.iter().take_while(|s| s.is_real()).count();
            assert!(bin[load..].iter().all(Slot::is_filler), "bin {b} packing");
            assert!(bin[..load].is_sorted_by_key(|s| s.label()), "bin {b} order");
            for s in &bin[..load] {
                assert_eq!(bin_of(s.label(), layout.nbins), b, "element in wrong bin");
            }
        }
    }

    #[test]
    fn label_format_and_first_group() {
        assert_eq!(bin_shift(1), 64);
        assert_eq!(bin_of(u64::MAX, 1), 0);
        assert_eq!(bin_of(u64::MAX, 16), 15);
        assert_eq!(bin_of(1 << 60, 16), 1);
        // The stage-1 chain halves the window (rounding down) until it
        // fits γ: 2⁸ → 2⁴ → 2² at γ = 4, 2⁵ → 2² at γ = 8.
        assert_eq!(first_group(256, 4), 4);
        assert_eq!(first_group(32, 8), 4);
        assert_eq!(first_group(8, 8), 8);
        assert_eq!(first_group(1, 4), 1);
    }

    #[test]
    fn a_single_bin_routes_on_no_bits() {
        // n ≤ Z/2: β = 1, the window is empty and sits at shift 64.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [0usize, 1, 5, 8] {
            let layout = rec_orba(&c, &sp, &items(n), small_params(), 11).unwrap();
            assert_eq!((layout.nbins, layout.slots.len()), (1, 16));
            assert_eq!(layout.loads(), vec![n]);
            assert!(layout.slots[..n].is_sorted_by_key(|s| s.label()));
        }
    }

    /// 128 labels for β = 16 at Z = 16, γ = 4 — two levels, first-level
    /// groups of 32 positions: 8 per bin, low bits distinct.
    fn even_labels() -> Vec<u64> {
        (0..128u64).map(|i| ((i % 16) << 60) | (i * 977)).collect()
    }

    fn orba_with_labels(labels: &[u64]) -> (Result<()>, Vec<Slot<u64>>) {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut slots = vec![Slot::<u64>::filler(); 16 * 16];
        let r = rec_orba_with_labels(&c, &sp, &items(128), labels, small_params(), &mut slots);
        (r, slots)
    }

    #[test]
    fn every_bin_comes_back_ascending_by_label_with_reals_in_front() {
        let (r, slots) = orba_with_labels(&even_labels());
        assert_eq!(r, Ok(()));
        for (b, bin) in slots.chunks(16).enumerate() {
            assert!(bin[..8]
                .iter()
                .all(|s| s.is_real() && bin_of(s.label(), 16) == b));
            assert!(bin[..8].is_sorted_by_key(|s| s.label()), "bin {b}");
            assert!(bin[8..].iter().all(Slot::is_filler));
        }
    }

    #[test]
    fn an_overflow_in_stage_one_voids_the_attempt_without_panicking() {
        // Of the first group's 32 positions 24 draw top bits 00 and 8 draw
        // 01: stage 1 sends 24 > Z reals to bin 0, whose last 8 targets are
        // bin 1's own, and the expansion collides. Stage 2 then receives
        // runs in no order and must neither trip a debug assertion nor
        // lose the verdict — in the dev profile, where the contract checks
        // are on.
        let mut labels = even_labels();
        labels[..24].iter_mut().for_each(|l| *l &= u64::MAX >> 2);
        labels[24..32]
            .iter_mut()
            .for_each(|l| *l = *l & (u64::MAX >> 2) | 1 << 62);
        let (r, slots) = orba_with_labels(&labels);
        assert_eq!(r, Err(OblivError::BinOverflow));
        assert_eq!(slots.iter().filter(|s| s.is_real()).count(), 128);
    }

    #[test]
    fn larger_instance_with_paper_params() {
        let n = 4096;
        let p = OrbaParams::for_n(n);
        let layout = orba_retrying(n, p, 7);
        assert_eq!(layout.nbins, bins_for(n, p.z));
        let total: usize = layout.loads().iter().sum();
        assert_eq!(total, n);
    }

    #[test]
    fn loads_concentrate_around_mean() {
        let n = 8192;
        let p = OrbaParams::for_n(n);
        let layout = orba_retrying(n, p, 3);
        let mean = n as f64 / layout.nbins as f64;
        let max = *layout.loads().iter().max().unwrap() as f64;
        assert!(max <= 3.0 * mean + 8.0, "max load {max} vs mean {mean}");
    }

    #[test]
    fn parallel_matches_functionality() {
        let pool = Pool::new(4);
        let p = small_params();
        let its = items(200);
        let sp = ScratchPool::new();
        let layout = pool.run(|c| {
            let (l, _) = with_retries(64, |a| rec_orba(c, &sp, &its, p, 99 + a as u64));
            l
        });
        let total: usize = layout.loads().iter().sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn trace_depends_only_on_length_and_seed() {
        let p = small_params();
        let run = |vals: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                let its: Vec<Item<u64>> = vals.iter().map(|&v| Item::new(v as u128, v)).collect();
                let _ = rec_orba(c, &sp, &its, p, 1234);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..150).collect());
        let b = run(vec![9; 150]);
        assert_eq!(a, b, "ORBA trace must not depend on element values");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = small_params();
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let its = items(64);
        let l1 = rec_orba(&c, &sp, &its, p, 5).map(|l| l.loads());
        let l2 = rec_orba(&c, &sp, &its, p, 5).map(|l| l.loads());
        assert_eq!(l1.ok(), l2.ok());
    }
}
