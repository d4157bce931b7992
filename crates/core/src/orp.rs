//! Oblivious random permutation (§C.3, §D.2).
//!
//! ORBA, then the fillers are removed — and nothing in between. §C.3 gives
//! every element a fresh label after ORBA and sorts each bin by it; here
//! the label ORBA routes on is one uniform 64-bit draw whose top `log₂ β`
//! bits are the bin and whose remaining bits are that tiebreak
//! ([`mod@crate::rec_orba`]). Every placement orders a bin by full label, so
//! after the last one the concatenated bins are the input **sorted by its
//! random label**: for distinct labels the rank vector of `n` i.i.d. draws
//! is a uniform permutation, and it is independent of the label *multiset*
//! — hence of the bin loads the removal reveals and of whether two labels
//! collided, which the multiset determines. (A bin overflow depends on
//! where labels sit, not only on which there are; conditioning on its
//! absence costs its probability in statistical distance, as it does for
//! ORBA's bin assignment in the paper. DESIGN.md §4 row 7.)
//!
//! The final removal is allowed to be non-oblivious: the revealed per-bin
//! loads are simulatable from `(n, Z)` alone, as argued in
//! [CGLS18, ACN+20] (the loads are a balls-into-bins pattern independent of
//! the input *values*).
//!
//! Two equal labels would tie the order to the input order; they are
//! detected with a fixed-pattern scan over adjacent slots (equal labels
//! share a bin and sort next to each other) and surface as
//! [`OblivError::LabelCollision`] — a public retry of probability at most
//! `n²/2⁶⁵ ≤ β²Z²/2⁶⁵` per attempt.

use crate::error::{with_retries, OblivError, Result};
use crate::rec_orba::{bins_for, draw_labels, rec_orba_with_labels, OrbaParams};
use crate::scan::{prefix_sum_in, Schedule};
use crate::slot::{Item, Slot, Val};
use fj::{grain_for, par_for, Ctx};
use metrics::{par_fill, ScratchGuard, ScratchPool, Tracked};
use std::sync::atomic::{AtomicBool, Ordering};

/// One attempt at an oblivious random permutation of `items`.
pub fn orp_once<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    p: OrbaParams,
    seed: u64,
) -> Result<Vec<Item<V>>> {
    let mut out = vec![Item::<V>::default(); items.len()];
    orp_once_into(c, scratch, items, p, seed, &mut out)?;
    Ok(out)
}

/// [`orp_once`] writing the permuted items into caller-provided storage
/// (typically a [`ScratchPool`] lease); every intermediate — the labels,
/// the bin layout, butterfly scratch, loads — is leased, so a warm pool
/// makes the whole attempt allocation-free.
pub fn orp_once_into<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    p: OrbaParams,
    seed: u64,
    out: &mut [Item<V>],
) -> Result<()> {
    let labels = draw_labels(scratch, items.len(), seed);
    orp_once_with_labels(c, scratch, items, &labels, p, out)
}

/// The attempt on given labels: `out` is `items` in ascending label order,
/// or an error if a bin overflows or two labels are equal.
fn orp_once_with_labels<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    labels: &[u64],
    p: OrbaParams,
    out: &mut [Item<V>],
) -> Result<()> {
    assert_eq!(out.len(), items.len());
    let nbins = bins_for(items.len(), p.z);
    let z = p.z;
    let mut slots = scratch.lease(nbins * z, Slot::<V>::filler());
    rec_orba_with_labels(c, scratch, items, labels, p, &mut slots)?;
    let t = Tracked::new(c, &mut slots);

    // Detect equal labels among adjacent reals (fixed-pattern scan).
    let collision = AtomicBool::new(false);
    par_for(c, 0, t.len(), grain_for(c), &|c, i| {
        if i % z == 0 {
            return;
        }
        let (a, b) = (t.get(c, i - 1), t.get(c, i));
        c.work(1);
        if a.is_real() && b.is_real() && a.label() == b.label() {
            collision.store(true, Ordering::Relaxed);
        }
    });
    if collision.load(Ordering::Relaxed) {
        return Err(OblivError::LabelCollision);
    }

    // Remove fillers. This step may be non-oblivious: per-bin loads are
    // public. Loads -> exclusive prefix sum -> parallel bin copy-out.
    let mut loads = scratch.lease(nbins, 0u64);
    {
        let mut lt = Tracked::new(c, &mut loads);
        par_fill(c, &mut lt, &|c, b| {
            (0..z)
                .map(|i| u64::from(t.get(c, b * z + i).is_real()))
                .sum()
        });
    }
    let total: u64 = loads.iter().sum();
    debug_assert_eq!(total as usize, items.len());
    {
        let mut offsets = Tracked::new(c, &mut loads);
        prefix_sum_in(c, scratch, &mut offsets, false, Schedule::Tree);
    }
    let offsets = &*loads;

    {
        // Variable-length output runs: a scatter, so the raw view.
        let mut out_t = Tracked::new(c, out);
        let or = out_t.as_raw();
        par_for(c, 0, nbins, grain_for(c), &|c, b| {
            let mut at = offsets[b] as usize;
            for i in 0..z {
                let s = t.get(c, b * z + i);
                if s.is_real() {
                    // SAFETY: bins write disjoint output ranges
                    // [offsets[b], offsets[b] + load_b).
                    unsafe { or.set(c, at, s.item) };
                    at += 1;
                }
            }
        });
    }
    Ok(())
}

/// Oblivious random permutation with the retry loop: returns the permuted
/// items and the number of attempts (1 in essentially every run at the
/// paper's parameters).
pub fn orp<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    p: OrbaParams,
    seed: u64,
) -> (Vec<Item<V>>, u32) {
    let mut out = vec![Item::<V>::default(); items.len()];
    let attempts = orp_into(c, scratch, items, p, seed, &mut out);
    (out, attempts)
}

/// [`orp`] writing into caller-provided storage; retries share one output
/// buffer, so the retry loop itself allocates nothing. Returns the number
/// of attempts.
pub fn orp_into<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    p: OrbaParams,
    seed: u64,
    out: &mut [Item<V>],
) -> u32 {
    orp_retrying(c, scratch, items, p, out, |attempt| {
        let seed = seed.wrapping_add(0x9E37_79B9 * attempt as u64);
        draw_labels(scratch, items.len(), seed)
    })
}

/// The retry loop over a source of labels (fresh ones per attempt).
fn orp_retrying<'s, C: Ctx, V: Val>(
    c: &C,
    scratch: &'s ScratchPool,
    items: &[Item<V>],
    p: OrbaParams,
    out: &mut [Item<V>],
    mut labels_for: impl FnMut(u32) -> ScratchGuard<'s, u64>,
) -> u32 {
    let ((), attempts) = with_retries(64, |attempt| {
        if attempt > 0 {
            c.count(fj::counters::RETRIES, 1);
        }
        orp_once_with_labels(c, scratch, items, &labels_for(attempt), p, out)
    });
    attempts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use std::collections::HashMap;

    fn small_params() -> OrbaParams {
        OrbaParams {
            z: 16,
            gamma: 4,
            engine: Engine::BitonicRec,
        }
    }

    fn items(n: usize) -> Vec<Item<u64>> {
        (0..n as u64).map(|i| Item::new(i as u128, i)).collect()
    }

    #[test]
    fn output_is_a_permutation() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [1usize, 2, 10, 100, 500] {
            let (out, _) = orp(&c, &sp, &items(n), small_params(), 77);
            assert_eq!(out.len(), n);
            let mut vals: Vec<u64> = out.iter().map(|i| i.val).collect();
            vals.sort_unstable();
            assert_eq!(vals, (0..n as u64).collect::<Vec<_>>(), "n = {n}");
        }
    }

    #[test]
    fn different_seeds_give_different_permutations() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let its = items(64);
        let (a, _) = orp(&c, &sp, &its, small_params(), 1);
        let (b, _) = orp(&c, &sp, &its, small_params(), 2);
        assert_ne!(
            a.iter().map(|i| i.val).collect::<Vec<_>>(),
            b.iter().map(|i| i.val).collect::<Vec<_>>()
        );
    }

    #[test]
    fn permutation_is_roughly_uniform() {
        // Element 0's final position should be close to uniform over [0, n).
        // χ²-style sanity check with generous tolerance.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let n = 16;
        let trials = 2000;
        let its = items(n);
        let mut counts = vec![0usize; n];
        for s in 0..trials {
            let (out, _) = orp(&c, &sp, &its, small_params(), 10_000 + s as u64);
            let pos = out.iter().position(|i| i.val == 0).unwrap();
            counts[pos] += 1;
        }
        let expect = trials as f64 / n as f64; // 125
        for (pos, &ct) in counts.iter().enumerate() {
            assert!(
                (ct as f64) > 0.4 * expect && (ct as f64) < 1.8 * expect,
                "position {pos} hit {ct} times (expected ≈{expect})"
            );
        }
    }

    #[test]
    fn every_one_of_the_24_orders_of_four_is_equally_likely() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let its = items(4);
        let trials = 4800;
        let mut counts: HashMap<Vec<u64>, usize> = HashMap::new();
        for s in 0..trials {
            let (out, _) = orp(&c, &sp, &its, small_params(), 77_000 + s);
            *counts
                .entry(out.iter().map(|i| i.val).collect())
                .or_default() += 1;
        }
        assert_eq!(counts.len(), 24, "every order occurs");
        let expect = trials as f64 / 24.0;
        let chi2: f64 = counts
            .values()
            .map(|&ct| (ct as f64 - expect).powi(2) / expect)
            .sum();
        // 23 degrees of freedom: mean 23, and 60 is beyond the 99.99th
        // percentile — a biased tiebreak lands far above it.
        assert!(chi2 < 60.0, "χ² = {chi2} over {counts:?}");
    }

    /// 300 distinct labels spread over the 64 bins of `small_params`.
    fn spread_labels() -> Vec<u64> {
        (0..300u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }

    #[test]
    fn output_is_the_input_in_label_order() {
        // The defining property: whatever the labels are, one attempt
        // returns the items sorted by them.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let its = items(300);
        let labels = spread_labels();
        let mut out = vec![Item::default(); 300];
        orp_once_with_labels(&c, &sp, &its, &labels, small_params(), &mut out).unwrap();
        let mut expect = its.clone();
        expect.sort_by_key(|i| labels[i.val as usize]);
        assert_eq!(out, expect);
    }

    #[test]
    fn equal_labels_are_a_collision_and_the_retry_recovers() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let its = items(300);
        let mut tied = spread_labels();
        tied[17] = tied[203];
        let mut out = vec![Item::default(); 300];
        assert_eq!(
            orp_once_with_labels(&c, &sp, &its, &tied, small_params(), &mut out),
            Err(OblivError::LabelCollision)
        );
        // Labels that differ only below the bin field still collide on
        // nothing: same bin, distinct tiebreaks.
        let mut close = spread_labels();
        close[17] = close[203] ^ 1;
        orp_once_with_labels(&c, &sp, &its, &close, small_params(), &mut out).unwrap();

        // `orp_into`'s loop: a tied draw, then a clean one.
        let attempts = orp_retrying(&c, &sp, &its, small_params(), &mut out, |attempt| {
            let mut lease = sp.lease(300, 0u64);
            lease.copy_from_slice(if attempt == 0 { &tied } else { &close });
            lease
        });
        assert_eq!(attempts, 2);
        let mut expect = its.clone();
        expect.sort_by_key(|i| close[i.val as usize]);
        assert_eq!(out, expect);
    }

    #[test]
    fn trace_depends_only_on_length_and_seed() {
        // Definition 1 check: for fixed coins, inputs of equal length are
        // indistinguishable by access pattern (values never influence it).
        let run = |vals: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let its: Vec<Item<u64>> = vals.iter().map(|&v| Item::new(v as u128, v)).collect();
                let sp = ScratchPool::new();
                let _ = orp_once(c, &sp, &its, small_params(), 4242);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..300).collect());
        let b = run((0..300).rev().collect());
        let z = run(vec![0; 300]);
        assert_eq!(a, b);
        assert_eq!(a, z);
    }

    #[test]
    fn parallel_orp_is_a_permutation() {
        let pool = Pool::new(4);
        let its = items(300);
        let sp = ScratchPool::new();
        let (out, _) = pool.run(|c| orp(c, &sp, &its, small_params(), 5));
        let mut vals: Vec<u64> = out.iter().map(|i| i.val).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn no_duplicate_outputs_across_bins() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let (out, _) = orp(&c, &sp, &items(200), small_params(), 31);
        let mut seen = HashMap::new();
        for i in &out {
            *seen.entry(i.val).or_insert(0) += 1;
        }
        assert!(seen.values().all(|&ct| ct == 1));
    }
}
