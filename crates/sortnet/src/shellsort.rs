//! Randomized Shellsort (Goodrich, SODA 2010) — a data-oblivious sorting
//! *algorithm* (randomized network) with `O(n log n)` comparisons that
//! sorts with very high probability.
//!
//! ## Role in this reproduction
//!
//! The paper's asymptotically optimal variants invoke the AKS network
//! \[AKS83\] on poly-log-sized instances. AKS has galactic constants and has
//! never been practically implemented; the paper itself swaps it for
//! bitonic sort in the practical variant (§3.4). We provide randomized
//! Shellsort as an honest `O(n log n)`-comparison oblivious alternative:
//! its comparator sequence is chosen by public coins *independent of the
//! data*, so its access pattern is trivially simulatable, exactly like AKS.
//! Callers that need certainty verify sortedness (a fixed-pattern scan) and
//! re-run with fresh coins on failure — the same negligible-failure retry
//! contract as ORBA overflow.

use crate::cx::{cex, Gate};
use fj::{counters, grain_for, par_for, Ctx};
use metrics::{ScratchPool, Tracked};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Number of random matchings per region compare (Goodrich uses c = 1 with
/// extra passes; we use 4 for a comfortably low failure rate at small n).
const MATCHINGS: usize = 4;

/// Compare-exchange a random matching between regions `[a, a+len)` and
/// `[b, b+len)`, repeated [`MATCHINGS`] times. The comparators of one
/// matching are wire-disjoint, so they evaluate as one parallel layer.
/// `perm` is caller-provided scratch for the matching (length `len`).
#[allow(clippy::too_many_arguments)]
fn compare_regions<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    rng: &mut StdRng,
    a: usize,
    b: usize,
    len: usize,
    perm: &mut [usize],
) {
    let perm = &mut perm[..len];
    for (k, p) in perm.iter_mut().enumerate() {
        *p = k;
    }
    let raw = t.as_raw();
    for _ in 0..MATCHINGS {
        perm.shuffle(rng);
        let perm_ref = &*perm;
        par_for(c, 0, len, grain_for(c), &|c, k| {
            // SAFETY: π is a permutation, so the pairs (a+k, b+π(k)) are
            // pairwise disjoint within a matching.
            unsafe { cex(c, &raw, gate, a + k, b + perm_ref[k], true) };
        });
    }
}

/// One pass of randomized Shellsort. Sorts `t` (power-of-two length) with
/// all but very small probability; returns nothing — use
/// [`randomized_shellsort`] for the verified retry loop.
fn shellsort_pass<C: Ctx, T: Copy + Send>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    rng: &mut StdRng,
) {
    let n = t.len();
    // One lease covers every matching in the pass (gap never exceeds n/2).
    let mut perm = scratch.lease((n / 2).max(1), 0usize);
    let mut gap = n / 2;
    while gap >= 1 {
        let regions = n / gap;
        // Shaker pass: left-to-right then right-to-left over neighbours.
        for i in 0..regions.saturating_sub(1) {
            compare_regions(c, t, gate, rng, i * gap, (i + 1) * gap, gap, &mut perm);
        }
        for i in (0..regions.saturating_sub(1)).rev() {
            compare_regions(c, t, gate, rng, i * gap, (i + 1) * gap, gap, &mut perm);
        }
        // Extended brick passes: distances 3 and 2.
        for d in [3usize, 2] {
            for i in 0..regions.saturating_sub(d) {
                compare_regions(c, t, gate, rng, i * gap, (i + d) * gap, gap, &mut perm);
            }
        }
        // Odd-even passes over neighbours.
        for parity in [1usize, 0] {
            let mut i = parity;
            while i + 1 < regions {
                compare_regions(c, t, gate, rng, i * gap, (i + 1) * gap, gap, &mut perm);
                i += 2;
            }
        }
        gap /= 2;
    }
}

/// Oblivious check that `t` is sorted ascending (fixed access pattern).
fn is_sorted_oblivious<C: Ctx, T: Copy + Send>(
    c: &C,
    t: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
) -> bool {
    let mut ok = true;
    for i in 1..t.len() {
        let a = t.get(c, i - 1);
        let b = t.get(c, i);
        c.work(1);
        // Accumulate without branching so the scan stays fixed-pattern.
        ok &= gate.key(&a) <= gate.key(&b);
    }
    ok
}

/// Randomized Shellsort with verified retry: sorts `t` (power-of-two
/// length) using `O(n log n)` comparisons per attempt. Returns the number
/// of attempts used (1 in essentially every run).
pub fn randomized_shellsort<C: Ctx, T: Copy + Send>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, T>,
    gate: &impl Gate<T>,
    seed: u64,
) -> usize {
    let n = t.len();
    if n <= 1 {
        return 1;
    }
    assert!(
        n.is_power_of_two(),
        "randomized shellsort requires power-of-two length"
    );
    c.count(counters::SORTS, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    for attempt in 1..=64 {
        shellsort_pass(c, scratch, t, gate, &mut rng);
        if is_sorted_oblivious(c, t, gate) {
            return attempt;
        }
        c.count(counters::RETRIES, 1);
        // Fresh coins for the retry.
        rng = StdRng::seed_from_u64(rng.gen());
    }
    panic!("randomized shellsort failed 64 consecutive attempts; input length {n}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::SeqCtx;
    use metrics::{measure, CacheConfig, TraceMode};

    fn key64(x: &u64) -> u128 {
        *x as u128
    }

    #[test]
    fn sorts_scrambled_inputs() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [2usize, 8, 64, 256, 1024] {
            let mut v: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 13)
                .collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            let mut t = Tracked::new(&c, &mut v);
            let attempts = randomized_shellsort(&c, &sp, &mut t, &key64, 42);
            assert_eq!(v, expect, "n = {n}");
            assert_eq!(attempts, 1, "n = {n} needed retries");
        }
    }

    #[test]
    fn sorts_adversarial_patterns() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let n = 512;
        let patterns: Vec<Vec<u64>> = vec![
            (0..n as u64).rev().collect(),
            (0..n as u64).map(|i| i % 2).collect(),
            vec![7; n],
            (0..n as u64)
                .map(|i| if i < (n / 2) as u64 { i + 1000 } else { i })
                .collect(),
        ];
        for (k, p) in patterns.into_iter().enumerate() {
            let mut v = p;
            let mut expect = v.clone();
            expect.sort_unstable();
            let mut t = Tracked::new(&c, &mut v);
            randomized_shellsort(&c, &sp, &mut t, &key64, 7 + k as u64);
            assert_eq!(v, expect, "pattern {k}");
        }
    }

    #[test]
    fn comparison_count_is_n_log_n() {
        // O(n log n) with the constant from MATCHINGS and the pass count:
        // ~8 region passes per gap level, MATCHINGS matchings each.
        let n = 1 << 12;
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Off, |c| {
            let mut v: Vec<u64> = (0..n as u64).rev().collect();
            let sp = ScratchPool::new();
            let mut t = Tracked::new(c, &mut v);
            randomized_shellsort(c, &sp, &mut t, &key64, 3);
        });
        let nlogn = (n as f64) * (n as f64).log2();
        let cmp = rep.comparisons as f64;
        assert!(
            cmp < 40.0 * nlogn,
            "comparisons {cmp} not O(n log n) ({nlogn})"
        );
        assert!(cmp > nlogn, "suspiciously few comparisons {cmp}");
    }

    #[test]
    fn trace_depends_only_on_seed_and_length() {
        let n = 256;
        let run = |data: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut v = data.clone();
                let sp = ScratchPool::new();
                let mut t = Tracked::new(c, &mut v);
                randomized_shellsort(c, &sp, &mut t, &key64, 99);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..n as u64).rev().collect());
        let b = run(vec![5u64; n]);
        assert_eq!(a, b, "same seed + length must give identical traces");
    }
}
