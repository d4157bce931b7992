//! Oblivious random permutation (§C.3, §D.2).
//!
//! ORBA followed by a per-bin shake-out: every slot (real or filler) draws
//! a fresh 64-bit label, which takes the high half of a real's `sk` while a
//! filler's `sk` stays `u128::MAX`, each bin is sorted by `sk` with the
//! oblivious engine, and the fillers are removed.
//! The final removal is allowed to be non-oblivious: the revealed per-bin
//! loads are simulatable from `(n, Z)` alone, as argued in
//! [CGLS18, ACN+20] (the loads are a balls-into-bins pattern independent of
//! the input *values*).
//!
//! Label collisions between reals in one bin would bias the permutation;
//! they are detected with a fixed-pattern scan and surface as
//! [`OblivError::LabelCollision`] (probability ≤ Z²·β/2⁶⁴ — negligible).

use crate::error::{with_retries, OblivError, Result};
use crate::rec_orba::{bins_for, rec_orba_into, OrbaParams};
use crate::scan::{prefix_sum_in, Schedule};
use crate::slot::{Item, Slot, Val};
use fj::{grain_for, par_for, Ctx};
use metrics::{par_fill, par_tracked_chunks, par_update, ScratchPool, Tracked};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

const PERM_SALT: u64 = 0x5bd1_e995_7b93_babd;

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
/// (typically a [`ScratchPool`] lease); every intermediate — the bin
/// layout, butterfly scratch, permutation labels, loads — is leased, so a
/// warm pool makes the whole attempt allocation-free.
pub fn orp_once_into<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Item<V>],
    p: OrbaParams,
    seed: u64,
    out: &mut [Item<V>],
) -> Result<()> {
    assert_eq!(out.len(), items.len());
    let nbins = bins_for(items.len(), p.z);
    let z = p.z;
    let mut slots = scratch.lease(nbins * z, Slot::<V>::filler());
    rec_orba_into(c, scratch, items, p, seed, &mut slots)?;

    // Fresh permutation labels for every slot; the draw order is fixed, so
    // the stream depends only on (n, seed).
    let mut rng = StdRng::seed_from_u64(seed ^ PERM_SALT);
    let mut perm_labels = scratch.lease(nbins * z, 0u64);
    for l in perm_labels.iter_mut() {
        *l = rng.gen();
    }
    // One sweep: a real's `sk` becomes `permutation label ‖ bin label`, a
    // filler stays `MAX`.
    let mut t = Tracked::new(c, &mut slots);
    {
        let perm_labels = &*perm_labels;
        par_update(c, &mut t, &|_, i, s| {
            if s.is_real() {
                s.with_phase_key(perm_labels[i])
            } else {
                s
            }
        });
    }

    // Sort each bin by permutation label (fillers sink to the end).
    let engine = p.engine;
    par_tracked_chunks(c, t.borrow_mut(), z, &|c, _, mut bin| {
        engine.sort_slots(c, scratch, &mut bin);
    });

    // Detect label collisions among adjacent reals (fixed-pattern scan).
    let collision = AtomicBool::new(false);
    par_for(c, 0, t.len(), grain_for(c), &|c, i| {
        if i % z == 0 {
            return;
        }
        let (a, b) = (t.get(c, i - 1), t.get(c, i));
        c.work(1);
        if a.is_real() && b.is_real() && a.phase_key() == b.phase_key() {
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
    let ((), attempts) = with_retries(64, |attempt| {
        if attempt > 0 {
            c.count(fj::counters::RETRIES, 1);
        }
        orp_once_into(
            c,
            scratch,
            items,
            p,
            seed.wrapping_add(0x9E37_79B9 * attempt as u64),
            out,
        )
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
