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
//! Obliviousness: every step is a bin placement (oblivious), a transpose,
//! or a bulk copy — the access pattern depends only on `(n, Z, γ)`, never
//! on data or labels. Bin overflow is detected inside bin placement, the
//! pass always runs to completion, and the caller retries with fresh
//! labels ([`crate::error::with_retries`]).

use crate::binplace::bin_place;
use crate::engine::Engine;
use crate::error::{OblivError, Result};
use crate::slot::{Item, Slot, Val};
use fj::{grain_for, par_for, Ctx};
use metrics::{par_tracked_chunks, ScratchPool, Tracked};
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
        let lg = (usize::BITS - n.max(2).leading_zeros()) as usize; // ⌈log2⌉
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
/// Every real element sits in the bin named by its label.
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
    let n = items.len();
    let nbins = bins_for(n, p.z);
    assert_eq!(slots.len(), nbins * p.z, "ORBA layout shape mismatch");
    let mut rng = StdRng::seed_from_u64(seed);
    // Label draw order is fixed (sequential), so the RNG stream — and with
    // it the whole execution — depends only on (n, seed).
    let mut labels = scratch.lease(n, 0u64);
    for l in labels.iter_mut() {
        *l = rng.gen_range(0..nbins as u64);
    }

    build_layout(c, items, &labels, nbins, p.z, slots);
    let mut t = Tracked::new(c, slots);
    let mut scratch_store = scratch.lease(t.len(), Slot::<V>::filler());
    let mut tmp = Tracked::new(c, &mut scratch_store);
    let overflow = AtomicBool::new(false);
    rec(
        c,
        scratch,
        t.borrow_mut(),
        tmp.borrow_mut(),
        nbins,
        p.z,
        0,
        &p,
        &overflow,
    );
    if overflow.load(Ordering::Relaxed) {
        return Err(OblivError::BinOverflow);
    }
    Ok(())
}

/// Initial layout: β bins of Z slots, each bin holding Z/2 input positions
/// (real or filler) and Z/2 fillers (§C.2). `slots` arrives filler-filled;
/// only the first half of each bin is (re)written.
fn build_layout<C: Ctx, V: Val>(
    c: &C,
    items: &[Item<V>],
    labels: &[u64],
    nbins: usize,
    z: usize,
    slots: &mut [Slot<V>],
) {
    // The front half of every bin: a strided write, so the raw view.
    let half = z / 2;
    let mut t = Tracked::new(c, slots);
    let tr = t.as_raw();
    par_for(c, 0, nbins * half, grain_for(c), &|c, idx| {
        let (b, i) = (idx / half, idx % half);
        let slot = if idx < items.len() {
            Slot::real(items[idx], labels[idx])
        } else {
            Slot::filler()
        };
        // SAFETY: each (b, i) writes a distinct slot.
        unsafe { tr.set(c, b * z + i, slot) };
    });
}

/// Recursive butterfly: route every real element in `slots` (β bins × Z) to
/// the local bin named by label bits `[shift, shift + log₂ β)`.
#[allow(clippy::too_many_arguments)]
fn rec<C: Ctx, V: Val>(
    c: &C,
    pool: &ScratchPool,
    mut slots: Tracked<'_, Slot<V>>,
    mut scratch: Tracked<'_, Slot<V>>,
    nbins: usize,
    z: usize,
    shift: u32,
    p: &OrbaParams,
    overflow: &AtomicBool,
) {
    if nbins <= p.gamma {
        if bin_place(c, pool, &mut slots, nbins, z, shift, p.engine).is_err() {
            overflow.store(true, Ordering::Relaxed);
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
            rec(c, pool, s, tmp, b2, z, shift + k1, p, overflow);
        },
    );

    // Transpose the β₁ × β₂ matrix of bins so the β₂ bins that agree on the
    // high window become contiguous.
    transpose(c, &mut slots, &mut scratch, b1, b2, z);

    // Stage 2: each of the β₂ rows (β₁ bins) routes by the low window bits.
    par_rows2(
        c,
        scratch.borrow_mut(),
        slots.borrow_mut(),
        b2,
        b1 * z,
        0,
        &|c, _, s, tmp| {
            rec(c, pool, s, tmp, b1, z, shift, p, overflow);
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
        // Rebuild the label assignment from the same seed logic is not
        // possible here (labels are internal), so check the defining
        // property instead: each bin holds ≤ Z reals, all reals present.
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
            // All reals in a bin share the same label (= bin index).
            for s in bin.iter().filter(|s| s.is_real()) {
                assert_eq!(s.label() as usize, b, "element in wrong bin");
            }
        }
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
