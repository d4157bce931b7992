//! Padded multi-way oblivious scatter — the §F routing step as a
//! reusable kernel.
//!
//! Functionality: given up to `nbins · Z` slots whose real elements carry
//! a destination bin in their label (`0..nbins`), produce the concatenation
//! of `nbins` bins of exactly `Z` slots, with every real element in its bin,
//! reals packed in front, and fillers padding each bin to `Z`. Unlike
//! [`crate::bin_place`], the placement is **stable**: within a bin, reals
//! appear in ascending `item.key` order (callers use the input position as
//! the key), so a bin keeps its elements' submission order.
//!
//! The algorithm is bin placement's sort + loads + expansion kernel
//! ([`crate::binplace`]) — the sort and the loads pass over the
//! `pow2(|items|)` leading slots only, since the padding behind them is
//! fillers already — with the low 64 bits of `item.key` as the sort's
//! tiebreak. It takes the label's place in the low half of `sk`, so the
//! label is consumed: on return a real's `sk` is `bin ‖ tiebreak`, and
//! fillers are moved, never rewritten. Every step is an oblivious sort, a
//! fixed-pattern pass, or the expansion butterfly
//! ([`crate::expand_by_loads`]), whose per-bin loads feed only its swap
//! verdicts, so the adversary trace is a function of `(|items|, nbins, Z)`
//! only — in particular it does not depend on how full each bin is (the
//! send-receive routing guarantee of §F).
//!
//! The kernel's cost and its `nbins·Z < 2³²` cap are [`crate::bin_place`]'s:
//! the loads pass reads the sorted prefix once for every 32 bins.
//!
//! A bin wanted by more than `Z` elements voids the placement; the pass
//! still completes with its fixed trace and reports
//! [`crate::OblivError::BinOverflow`]. Callers either provision `Z` so
//! overflow is impossible (`Z ≥ |items|`) or treat the
//! retry-with-larger-`Z` as a deliberate public signal.

use crate::binplace::{place, Input};
use crate::engine::Engine;
use crate::error::Result;
use crate::slot::{Slot, Val};
use fj::Ctx;
use metrics::{ScratchPool, Tracked};

/// Padded multi-way oblivious scatter over `items` (at most `nbins · zcap`
/// slots; `nbins` and `zcap` powers of two). Returns the `nbins · zcap`
/// output array: bin `g` occupies `[g·zcap, (g+1)·zcap)`, reals first in
/// ascending `item.key` order, fillers after.
pub fn oblivious_scatter<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    items: &[Slot<V>],
    nbins: usize,
    zcap: usize,
    engine: Engine,
) -> Result<Vec<Slot<V>>> {
    assert!(
        items.len() <= nbins * zcap,
        "scatter input exceeds nbins * zcap"
    );
    // `items.len()` is public; every slot is written exactly once.
    let mut out = metrics::par_collect(c, nbins * zcap, &|_, i| {
        items.get(i).copied().unwrap_or_else(Slot::filler)
    });
    let mask = nbins as u64 - 1;
    let key = |s: &Slot<V>| (s.label() & mask, s.item.key as u64);
    // Only the `items.len()` leading slots can be real: the sort and the
    // loads pass cover their (public) class, not all `nbins · zcap` slots.
    place(
        c,
        scratch,
        &mut Tracked::new(c, &mut out),
        Input::Prefix(items.len().next_power_of_two()),
        nbins,
        zcap,
        engine,
        &key,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OblivError;
    use crate::slot::{composite_key, Item};
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};

    /// Slots for the given (bin, value) pairs, keyed by input position.
    fn input(elems: &[(u64, u64)]) -> Vec<Slot<u64>> {
        elems
            .iter()
            .enumerate()
            .map(|(i, &(g, v))| Slot::real(Item::new(i as u128, v), g))
            .collect()
    }

    fn run(nbins: usize, zcap: usize, elems: &[(u64, u64)]) -> Result<Vec<Slot<u64>>> {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        oblivious_scatter(&c, &sp, &input(elems), nbins, zcap, Engine::BitonicRec)
    }

    #[test]
    fn routes_to_bins_preserving_input_order() {
        let elems: Vec<(u64, u64)> = vec![(3, 30), (1, 10), (0, 100), (1, 11), (1, 12), (0, 101)];
        let out = run(4, 4, &elems).unwrap();
        let bin = |b: usize| -> Vec<u64> {
            out[b * 4..(b + 1) * 4]
                .iter()
                .filter(|s| s.is_real())
                .map(|s| s.item.val)
                .collect()
        };
        // Within each bin, values appear in submission order — not sorted,
        // not shuffled.
        assert_eq!(bin(0), vec![100, 101]);
        assert_eq!(bin(1), vec![10, 11, 12]);
        assert_eq!(bin(2), Vec::<u64>::new());
        assert_eq!(bin(3), vec![30]);
        // Reals packed before fillers in every bin.
        for b in 0..4 {
            let slots = &out[b * 4..(b + 1) * 4];
            let first_filler = slots.iter().position(|s| !s.is_real()).unwrap_or(4);
            assert!(slots[first_filler..].iter().all(|s| s.is_filler()));
        }
    }

    #[test]
    fn fillers_in_input_consume_no_capacity() {
        // 4 reals for bin 0 (exactly Z) plus interleaved fillers: fits.
        let mut items = input(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        items.insert(1, Slot::filler());
        items.push(Slot::filler());
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let out = oblivious_scatter(&c, &sp, &items, 2, 4, Engine::BitonicRec).unwrap();
        let vals: Vec<u64> = out[0..4].iter().map(|s| s.item.val).collect();
        assert_eq!(vals, vec![1, 2, 3, 4]);
    }

    #[test]
    fn overflow_is_detected() {
        let elems: Vec<(u64, u64)> = (0..5).map(|v| (0, v)).collect();
        assert_eq!(run(2, 4, &elems).unwrap_err(), OblivError::BinOverflow);
    }

    #[test]
    fn zcap_equal_to_input_len_never_overflows() {
        // All elements to one bin with Z = |items|: the safe provisioning.
        let elems: Vec<(u64, u64)> = (0..8).map(|v| (3, v)).collect();
        let out = run(4, 8, &elems).unwrap();
        let vals: Vec<u64> = out[24..32]
            .iter()
            .filter(|s| s.is_real())
            .map(|s| s.item.val)
            .collect();
        assert_eq!(vals, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn output_holds_only_reals_and_canonical_fillers() {
        // The stated `sk` contract: bin ‖ tiebreak in a real (the tiebreak
        // is the input index `item.key`), `⊥` everywhere else.
        let out = run(4, 4, &[(0, 1), (3, 2)]).unwrap();
        for (pos, s) in out.iter().enumerate() {
            if s.is_real() {
                assert_eq!(s.sk, composite_key(pos as u64 / 4, s.item.key as u64));
            } else {
                assert_eq!(*s, Slot::filler());
            }
        }
        assert_eq!(out.iter().filter(|s| s.is_real()).count(), 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let elems: Vec<(u64, u64)> = (0..300).map(|v| (v % 8, v * 7)).collect();
        let seq = run(8, 64, &elems).unwrap();
        let pool = Pool::new(4);
        let sp = ScratchPool::new();
        let par = pool
            .run(|c| oblivious_scatter(c, &sp, &input(&elems), 8, 64, Engine::BitonicRec))
            .unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!((a.is_real(), a.item.val), (b.is_real(), b.item.val));
        }
    }

    #[test]
    fn trace_is_input_independent() {
        let run_trace = |elems: Vec<(u64, u64)>, n_items: usize| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                let mut items = input(&elems);
                items.resize(n_items, Slot::filler());
                let _ = oblivious_scatter(c, &sp, &items, 8, 8, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let spread = run_trace((0..32).map(|i| (i % 8, i)).collect(), 32);
        let skewed = run_trace((0..32).map(|i| (0, i * 3)).collect(), 32);
        let sparse = run_trace(vec![(7, 1)], 32);
        assert_eq!(spread, skewed, "bin loads leaked into the scatter trace");
        assert_eq!(spread, sparse, "real count leaked into the scatter trace");
    }
}
