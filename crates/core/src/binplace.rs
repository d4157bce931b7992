//! Oblivious bin placement (§C.1).
//!
//! Functionality: given an array of `nbins · Z` slots in which every real
//! element wants to go to bin `g = (label >> shift) & (nbins-1)`, and the
//! promise that no bin is wanted by more than `Z` elements, move every real
//! element into its bin and pad each bin to exactly `Z` slots with fillers.
//! Output is the concatenation of the `nbins` bins, in place, reals packed
//! in front of each bin in ascending label order.
//!
//! The algorithm is sort + loads + expansion (`place`, shared with
//! [`crate::oblivious_scatter`]; DESIGN.md §4 row 6 records it as a
//! substitution for Chan–Shi's two-sort placement). **One** oblivious sort
//! by `group ‖ low half`, fillers last, packs the reals in front, bin by
//! bin. One fixed-pattern pass reads every bin's load off the sorted
//! prefix. Then the compaction butterfly runs backwards
//! ([`expand_by_loads`]) and spreads the packed run into the bins, steered
//! by those loads alone: nothing is stored per element, and no real
//! carries a target.
//!
//! How much of that one sort is left to do is a **public fact about the
//! input** that the caller states ([`Input`]), never a setting: reals
//! confined to a public prefix ([`Input::Prefix`] — the scatter, ORBA's
//! first placement) sort only the prefix; an input that is already
//! `Z`-slot runs in sort order ([`Input::Runs`] — every later placement of
//! the ORBA butterfly, whose input bins are earlier placements' output
//! bins) is merged, not sorted.
//! A caller that wants the placement's order and not its bins — ORP's last
//! level, which reads each group's reals in label order — runs the sort
//! alone (`Placed::order`): the reals come back packed in front, with no
//! loads and no expansion, so nothing can overflow.
//! Every step is an oblivious sort, a fixed-pattern pass, or the
//! butterfly: the access pattern depends only on `(nbins, Z)` and the
//! input form, and the loads feed nothing but swap verdicts.
//!
//! The records are slots, whose `sk` carries the sort key — except for
//! `oblivious_sort_u64`'s bare keys, which stay 16-byte `label ‖ key` cells
//! from ORBA's layout to ORP's removal (`Placed`; DESIGN.md §10). A cell
//! is its own sort key.
//!
//! A load above `Z` means the §C.1 promise was violated (bin overflow): the
//! expansion runs on the loads clamped to `Z`, finishes on its fixed trace
//! with the reals permuted arbitrarily (none is lost), and the caller gets
//! [`OblivError::BinOverflow`] to retry with fresh labels.

use crate::engine::Engine;
use crate::error::{OblivError, Result};
use crate::expand::expand_by_loads;
use crate::slot::{as_lanes, composite_key, is_bare, Item, Slot, Val};
use crate::tag_sort::Swap;
use fj::{grain_for, par_reduce, Ctx};
use metrics::{par_tracked_chunks, par_update, ScratchPool, Tracked};
use sortnet::select_u64;
use std::sync::atomic::{AtomicBool, Ordering};

/// What a placement's caller knows — publicly, from the shape of the
/// computation that produced the array — about where its reals sit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// Reals anywhere in the first `prefix` slots (a power of two); every
    /// slot behind them is a canonical filler. The sort and the loads pass
    /// run over the prefix only — sorted, it is the whole array's sorted
    /// order. `Prefix(len)` promises nothing.
    Prefix(usize),
    /// The array is aligned runs of `run` slots (a power of two), each
    /// already in the placement's sort order — ascending by
    /// `(bin ‖ order key)`, fillers last. The sort becomes a merge of the
    /// runs ([`Engine::sort_slots_from_runs`]).
    ///
    /// `void` is the one way out of the contract: an earlier placement of
    /// the same attempt has already overflowed, so the attempt's result is
    /// discarded whatever happens here and the runs may be in any order.
    /// The network runs its fixed trace and loses no element; the
    /// debug-build checks of the contract are off.
    Runs { run: usize, void: bool },
}

/// Oblivious bin placement over `io` (whose length must be `nbins · zcap`,
/// with `nbins` and `zcap` powers of two) by label bits
/// `[shift, shift + log₂ nbins)`, reals anywhere in `io`. Within a bin the
/// reals come back packed in front, ascending by full label — so a bin is
/// a sorted run for any later placement that routes on lower label bits.
/// Labels are preserved; on return the high half of a real's `sk` holds
/// its bin. Fillers are moved, never rewritten.
///
/// Cost beyond the sort: the loads pass reads the prefix once for every
/// 32 bins, `O(nbins·zcap·⌈nbins/32⌉)` work for the whole array, and the
/// expansion's `(m/2) log m` swaps, `m = nbins·zcap`; span `O(log² m)`
/// after the sort. `m` must stay below `2³²`: a load word packs two ranks.
pub fn bin_place<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    io: &mut Tracked<'_, Slot<V>>,
    nbins: usize,
    zcap: usize,
    shift: u32,
    engine: Engine,
) -> Result<()> {
    bin_place_from(
        c,
        scratch,
        io,
        Input::Prefix(io.len()),
        nbins,
        zcap,
        shift,
        engine,
    )
}

/// [`bin_place`] of an input whose form the caller can state.
#[allow(clippy::too_many_arguments)]
pub fn bin_place_from<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    io: &mut Tracked<'_, Slot<V>>,
    input: Input,
    nbins: usize,
    zcap: usize,
    shift: u32,
    engine: Engine,
) -> Result<()> {
    let group = window(nbins, shift);
    place(c, scratch, io, input, nbins, zcap, engine, &|s| {
        (group(s.label()), s.label())
    })
}

/// The bin a label names among `nbins` by its bits from `shift` up;
/// `shift = 64` is the single bin that routes on no bits at all.
fn window(nbins: usize, shift: u32) -> impl Fn(u64) -> u64 + Sync {
    let mask = nbins as u64 - 1;
    move |label| label.checked_shr(shift).unwrap_or(0) & mask
}

/// A record the ORBA butterfly lays out, places and reads back: a slot, or
/// a bare key's 16-byte `label ‖ key` cell ([`crate::slot::BareKey`]). ORP
/// picks the record by the payload *type* (`is_bare`), never by the data.
pub(crate) trait Placed<V: Val>: Swap + 'static {
    /// The filler: a slot's `⊥`, a cell's `u128::MAX`.
    fn filler() -> Self;

    /// Whether the record is a real, not the filler.
    fn is_real(&self) -> bool;

    /// The label a real is routed by.
    fn label(&self) -> u64;

    /// A real carrying `item`, routed by `label`.
    fn real(item: Item<V>, label: u64) -> Self;

    /// The item a real carries.
    fn item(&self) -> Item<V>;

    /// [`bin_place_from`] on these records.
    #[allow(clippy::too_many_arguments)]
    fn place<C: Ctx>(
        c: &C,
        scratch: &ScratchPool,
        w: &mut Tracked<'_, Self>,
        input: Input,
        nbins: usize,
        zcap: usize,
        shift: u32,
        engine: Engine,
    ) -> Result<()>;

    /// The placement's sort alone, for a caller that wants its order and
    /// not its bins (ORP's last level): every real comes back packed in
    /// front, ascending by label — the placement's `(group ‖ label)` order,
    /// as its reals agree on the bits above the window (module docs of
    /// [`crate::rec_orba`]) — fillers behind. There are no loads and no
    /// expansion, so no bin can overflow.
    fn order<C: Ctx>(
        c: &C,
        scratch: &ScratchPool,
        w: &mut Tracked<'_, Self>,
        input: Input,
        nbins: usize,
        zcap: usize,
        engine: Engine,
    );
}

impl<V: Val> Placed<V> for Slot<V> {
    #[inline]
    fn filler() -> Self {
        Slot::filler()
    }

    #[inline]
    fn is_real(&self) -> bool {
        self.sk != u128::MAX
    }

    #[inline]
    fn label(&self) -> u64 {
        self.sk as u64
    }

    #[inline]
    fn real(item: Item<V>, label: u64) -> Self {
        Slot::real(item, label)
    }

    #[inline]
    fn item(&self) -> Item<V> {
        self.item
    }

    fn place<C: Ctx>(
        c: &C,
        scratch: &ScratchPool,
        w: &mut Tracked<'_, Self>,
        input: Input,
        nbins: usize,
        zcap: usize,
        shift: u32,
        engine: Engine,
    ) -> Result<()> {
        bin_place_from(c, scratch, w, input, nbins, zcap, shift, engine)
    }

    fn order<C: Ctx>(
        c: &C,
        scratch: &ScratchPool,
        w: &mut Tracked<'_, Self>,
        input: Input,
        nbins: usize,
        zcap: usize,
        engine: Engine,
    ) {
        let form = form(w, input, nbins, zcap);
        let key = |s: &Slot<V>| (0, s.label());
        sort_slots(
            c,
            scratch,
            &mut w.range(0, form.prefix),
            &form,
            engine,
            &key,
        );
    }
}

/// A bare key and its label as one `label ‖ key` cell, sorted on the key
/// gate. Label order is the placement's `(group ‖ label)` order: every real
/// of a placement agrees on the label bits above its window, so the group
/// *is* the highest bits that differ. A real cannot be the filler: ORBA's
/// labels stay below `u64::MAX`.
impl<V: Val> Placed<V> for u128 {
    #[inline]
    fn filler() -> Self {
        u128::MAX
    }

    #[inline]
    fn is_real(&self) -> bool {
        *self != u128::MAX
    }

    #[inline]
    fn label(&self) -> u64 {
        (*self >> 64) as u64
    }

    #[inline]
    fn real(item: Item<V>, label: u64) -> Self {
        debug_assert!(is_bare::<V>() && label < u64::MAX && item.key >> 64 == 0);
        composite_key(label, item.key as u64)
    }

    #[inline]
    fn item(&self) -> Item<V> {
        Item::new(*self as u64 as u128, V::default())
    }

    fn place<C: Ctx>(
        c: &C,
        scratch: &ScratchPool,
        w: &mut Tracked<'_, Self>,
        input: Input,
        nbins: usize,
        zcap: usize,
        shift: u32,
        engine: Engine,
    ) -> Result<()> {
        let form = form::<V, _>(w, input, nbins, zcap);
        sort_cells(c, scratch, &mut w.range(0, form.prefix), &form, engine);
        let group = window(nbins, shift);
        let (real, label) = (<Self as Placed<V>>::is_real, <Self as Placed<V>>::label);
        let bin = |cell: &u128| select_u64(real(cell), u64::MAX, group(label(cell)));
        let mut lane = scratch.lease(nbins, 0u64);
        let mut loads = Tracked::new(c, &mut lane);
        let overflow = count_loads(c, &w.range(0, form.prefix), zcap, &mut loads, &bin);
        expand_by_loads(c, scratch, w, &mut loads, zcap);
        verdict(overflow)
    }

    fn order<C: Ctx>(
        c: &C,
        scratch: &ScratchPool,
        w: &mut Tracked<'_, Self>,
        input: Input,
        nbins: usize,
        zcap: usize,
        engine: Engine,
    ) {
        let form = form::<V, _>(w, input, nbins, zcap);
        sort_cells(c, scratch, &mut w.range(0, form.prefix), &form, engine);
    }
}

/// Where the reals of a placement's input can be (`prefix`), the run
/// length its sort may assume, and whether the attempt is already void —
/// the [`Input`] against the shape, checked.
fn form<V: Val, E: Placed<V>>(w: &Tracked<'_, E>, input: Input, nbins: usize, zcap: usize) -> Form {
    let n_io = w.len();
    assert_eq!(n_io, nbins * zcap, "bin placement shape mismatch");
    assert!(nbins.is_power_of_two() && zcap.is_power_of_two());
    let (prefix, run, void) = match input {
        Input::Prefix(prefix) => (prefix, 1, false),
        Input::Runs { run, void } => (n_io, run, void),
    };
    assert!(prefix.is_power_of_two() && prefix <= n_io);
    assert!(run.is_power_of_two() && run <= n_io);
    debug_assert!(w.raw()[prefix..].iter().all(|e| !e.is_real()));
    Form { prefix, run, void }
}

struct Form {
    prefix: usize,
    run: usize,
    void: bool,
}

/// The placement kernel on slots: move every real of `w` (`nbins · zcap`
/// slots, both powers of two) into the bin named by `key(slot).0`, in
/// ascending order of `key(slot).1` within the bin; on return a real's
/// `sk` is `key(slot).0 ‖ key(slot).1`. `key` is only asked about reals
/// and must return a bin below `nbins`. `input` states the form `w`
/// arrives in.
#[allow(clippy::too_many_arguments)]
pub(crate) fn place<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    w: &mut Tracked<'_, Slot<V>>,
    input: Input,
    nbins: usize,
    zcap: usize,
    engine: Engine,
    key: &(impl Fn(&Slot<V>) -> (u64, u64) + Sync),
) -> Result<()> {
    let form = form(w, input, nbins, zcap);
    sort_slots(c, scratch, &mut w.range(0, form.prefix), &form, engine, key);
    // The group rides in the high half of `sk`; a filler's reads as
    // `u64::MAX`, the past-the-end group.
    let mut lane = scratch.lease(nbins, 0u64);
    let mut loads = Tracked::new(c, &mut lane);
    let bin = |s: &Slot<V>| s.phase_key();
    let overflow = count_loads(c, &w.range(0, form.prefix), zcap, &mut loads, &bin);
    match as_lanes(w) {
        Some(mut cells) => expand_by_loads(c, scratch, &mut cells, &mut loads, zcap),
        None => expand_by_loads(c, scratch, w, &mut loads, zcap),
    }
    verdict(overflow)
}

fn verdict(overflow: bool) -> Result<()> {
    if overflow {
        Err(OblivError::BinOverflow)
    } else {
        Ok(())
    }
}

/// Step 1 on slots: sort the prefix `w` by (group ‖ low half), fillers
/// last. The group rides in the high half of `sk`, where the loads pass
/// reads it back.
fn sort_slots<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    w: &mut Tracked<'_, Slot<V>>,
    form: &Form,
    engine: Engine,
    key: &(impl Fn(&Slot<V>) -> (u64, u64) + Sync),
) {
    set_keys(c, w, &|s| {
        if s.is_real() {
            let (g, low) = key(s);
            composite_key(g, low)
        } else {
            u128::MAX
        }
    });
    debug_assert!(
        form.void
            || w.raw()
                .chunks(form.run)
                .all(|r| r.is_sorted_by_key(|s| s.sk)),
        "placement input is not {}-slot runs in sort order",
        form.run
    );
    engine.sort_slots_from_runs(c, scratch, w, form.run);
}

/// Step 1 on cells: sort the prefix `w` of `label ‖ key` cells, or merge
/// its runs, on the key gate.
fn sort_cells<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    w: &mut Tracked<'_, u128>,
    form: &Form,
    engine: Engine,
) {
    debug_assert!(
        form.void || w.raw().chunks(form.run).all(|r| r.is_sorted()),
        "placement input is not {}-slot runs in sort order",
        form.run
    );
    engine.sort_keys_from_runs(c, scratch, w, form.run);
}

/// Step 2: every bin's load, read off the sorted prefix `w` in one
/// fixed-pattern pass into `loads` (one word a bin), clamped to `zcap`.
/// `bin(record)` is the record's bin, `u64::MAX` for a filler. The bins
/// are counted `LANES` at a time, the groups in parallel: a chunk of
/// records is read once into a byte per record — its bin, or `LANES` for
/// one outside the group — and every bin's lane counts the bytes equal to
/// it: a compare, never an address. So the work is `O(n·⌈nbins/LANES⌉)`,
/// one read of the prefix for placements of up to `LANES` bins (every
/// ORBA and ORP level), and the span `O(log n + log nbins + chunk)`.
/// Returns whether a load exceeded `zcap`: the placement's overflow, a
/// public verdict.
fn count_loads<C: Ctx, E: Copy + Sync>(
    c: &C,
    w: &Tracked<'_, E>,
    zcap: usize,
    loads: &mut Tracked<'_, u64>,
    bin: &(impl Fn(&E) -> u64 + Sync),
) -> bool {
    const LANES: usize = 32;
    const CHUNK: usize = 1024;
    let (n, chunk) = (w.len(), grain_for(c).min(CHUNK));
    let lanes = loads.len().min(LANES);
    let overflow = AtomicBool::new(false);
    par_tracked_chunks(c, loads.borrow_mut(), lanes, &|c, k, mut group| {
        let base = (k * LANES) as u64;
        let count = |c: &C, k: usize| -> [u32; LANES] {
            let mut bins = [0u8; CHUNK];
            let at = k * chunk..n.min((k + 1) * chunk);
            for (b, i) in bins.iter_mut().zip(at.clone()) {
                *b = bin(&w.get(c, i)).wrapping_sub(base).min(LANES as u64) as u8;
            }
            let bins = &bins[..at.len()];
            std::array::from_fn(|l| bins.iter().map(|&b| (b == l as u8) as u32).sum())
        };
        let sum = |a: [u32; LANES], b: [u32; LANES]| std::array::from_fn(|l| a[l] + b[l]);
        let counts = par_reduce(c, 0, n.div_ceil(chunk), 1, &count, &sum).unwrap_or([0; LANES]);
        for (l, &count) in counts.iter().enumerate().take(lanes) {
            if count as usize > zcap {
                overflow.store(true, Ordering::Relaxed);
            }
            group.set(c, l, (count as u64).min(zcap as u64));
        }
    });
    overflow.into_inner()
}

/// Recompute every slot's scratch sort key in one fixed-pattern parallel
/// pass — the standard prelude to each [`crate::engine::Engine::sort_slots`]
/// call. Public because downstream subsystems (e.g. `dob-store`) drive the
/// same sort-then-scan pipelines the core kernels use.
///
/// `sk == u128::MAX` is what makes a slot a filler, so an `f` that returns
/// `MAX` for a real demotes it to one (its record stays in `item`, but
/// `is_real` is false from then on).
pub fn set_keys<C: Ctx, V: Val>(
    c: &C,
    t: &mut Tracked<'_, Slot<V>>,
    f: &(impl Fn(&Slot<V>) -> u128 + Sync),
) {
    par_update(c, t, &|_, _, mut s| {
        s.sk = f(&s);
        s
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::Item;
    use fj::SeqCtx;
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;

    /// Build an input of `nbins` bins of `zcap` slots with the given
    /// (bin-choice, value) pairs packed from the front.
    fn input(nbins: usize, zcap: usize, elems: &[(u64, u64)]) -> Vec<Slot<u64>> {
        let mut v = vec![Slot::<u64>::filler(); nbins * zcap];
        assert!(elems.len() <= v.len());
        for (i, &(g, val)) in elems.iter().enumerate() {
            v[i] = Slot::real(Item::new(val as u128, val), g);
        }
        v
    }

    fn run(nbins: usize, zcap: usize, elems: &[(u64, u64)]) -> Result<Vec<Slot<u64>>> {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut v = input(nbins, zcap, elems);
        let mut t = Tracked::new(&c, &mut v);
        bin_place(&c, &sp, &mut t, nbins, zcap, 0, Engine::BitonicRec)?;
        Ok(v)
    }

    #[test]
    fn places_elements_into_their_bins() {
        let elems: Vec<(u64, u64)> = vec![(3, 30), (1, 10), (0, 100), (1, 11), (2, 20), (0, 101)];
        let out = run(4, 4, &elems).unwrap();
        for b in 0..4u64 {
            let bin = &out[(b as usize) * 4..(b as usize + 1) * 4];
            let got: Vec<u64> = bin
                .iter()
                .filter(|s| s.is_real())
                .map(|s| s.item.val)
                .collect();
            let mut expect: Vec<u64> = elems
                .iter()
                .filter(|&&(g, _)| g == b)
                .map(|&(_, v)| v)
                .collect();
            expect.sort_unstable();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            assert_eq!(got_sorted, expect, "bin {b}");
            // Reals are packed before fillers.
            let first_filler = bin.iter().position(|s| !s.is_real()).unwrap_or(4);
            assert!(bin[first_filler..].iter().all(|s| s.is_filler()));
        }
    }

    #[test]
    fn full_bins_are_accepted() {
        let elems: Vec<(u64, u64)> = (0..8).map(|i| (i % 2, i)).collect(); // 4 per bin
        let out = run(2, 4, &elems).unwrap();
        assert_eq!(out.iter().filter(|s| s.is_real()).count(), 8);
    }

    #[test]
    fn overflow_is_detected() {
        // 5 elements want bin 0 but Z = 4.
        let elems: Vec<(u64, u64)> = (0..5).map(|v| (0, v)).collect();
        assert_eq!(run(2, 4, &elems).unwrap_err(), OblivError::BinOverflow);
    }

    #[test]
    fn output_holds_only_reals_and_canonical_fillers() {
        // The stated `sk` contract: a real keeps its label in the low half
        // and holds its bin in the high half; fillers are `⊥`.
        let out = run(4, 4, &[(0, 1), (3, 2)]).unwrap();
        for (pos, s) in out.iter().enumerate() {
            if s.is_real() {
                assert_eq!(s.phase_key(), pos as u64 / 4, "bin not left in sk");
                assert_eq!(s.label(), pos as u64 / 4, "label lost");
            } else {
                assert_eq!(*s, Slot::filler());
            }
        }
        assert_eq!(out.iter().filter(|s| s.is_real()).count(), 2);
    }

    #[test]
    fn costs_exactly_one_sorting_network() {
        // One sort of the nbins·Z input slots and nothing else that
        // compares: the rank scan and the expansion are comparator-free.
        for (nbins, zcap) in [(4usize, 16usize), (16, 64)] {
            let elems: Vec<(u64, u64)> = (0..(nbins * zcap / 2) as u64)
                .map(|v| (v % nbins as u64, v))
                .collect();
            let (_, placed) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                let sp = ScratchPool::new();
                let mut v = input(nbins, zcap, &elems);
                bin_place(
                    c,
                    &sp,
                    &mut Tracked::new(c, &mut v),
                    nbins,
                    zcap,
                    0,
                    Engine::BitonicRec,
                )
                .unwrap();
            });
            let (_, network) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                let mut v = vec![0u64; nbins * zcap];
                sortnet::sort_slice_rec(c, &mut v, &|x: &u64| *x as u128, true);
            });
            assert_eq!(placed.comparisons, network.comparisons, "{nbins}×{zcap}");
        }
    }

    #[test]
    fn respects_shift() {
        let c = SeqCtx::new();
        // Labels 0b10 and 0b00; with shift=1 groups are 1 and 0.
        let mut v = input(2, 4, &[]);
        v[0] = Slot::real(Item::new(1, 1u64), 0b10);
        v[1] = Slot::real(Item::new(2, 2u64), 0b00);
        let sp = ScratchPool::new();
        let mut t = Tracked::new(&c, &mut v);
        bin_place(&c, &sp, &mut t, 2, 4, 1, Engine::BitonicRec).unwrap();
        assert!(v[0..4].iter().any(|s| s.is_real() && s.item.val == 2));
        assert!(v[4..8].iter().any(|s| s.is_real() && s.item.val == 1));
    }

    #[test]
    fn degenerate_inputs_empty_one_and_two_elements() {
        // n = 0 real elements: all fillers in, all fillers out.
        let out = run(4, 4, &[]).unwrap();
        assert!(out.iter().all(|s| s.is_filler()));
        // n = 1.
        let out = run(4, 4, &[(2, 99)]).unwrap();
        let reals: Vec<(usize, u64)> = out
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_real())
            .map(|(i, s)| (i / 4, s.item.val))
            .collect();
        assert_eq!(reals, vec![(2, 99)], "single element lands in bin 2");
        // n = 2 colliding on one bin.
        let out = run(2, 4, &[(1, 5), (1, 6)]).unwrap();
        let mut in_bin1: Vec<u64> = out[4..8]
            .iter()
            .filter(|s| s.is_real())
            .map(|s| s.item.val)
            .collect();
        in_bin1.sort_unstable();
        assert_eq!(in_bin1, vec![5, 6]);
        assert!(out[0..4].iter().all(|s| s.is_filler()));
    }

    #[test]
    fn large_instance_preserves_multiset_per_bin() {
        // 1000 elements (non-power-of-two count) into 16 bins of 64: round-
        // robin labels load each bin with 62-63 ≤ Z elements.
        let elems: Vec<(u64, u64)> = (0..1000).map(|v| (v % 16, v)).collect();
        let out = run(16, 64, &elems).unwrap();
        let mut seen: Vec<u64> = Vec::new();
        for (b, bin) in out.chunks(64).enumerate() {
            let reals: Vec<u64> = bin
                .iter()
                .filter(|s| s.is_real())
                .map(|s| s.item.val)
                .collect();
            // Everything in bin b wanted bin b.
            assert!(reals.iter().all(|&v| v % 16 == b as u64), "bin {b}");
            // Reals are packed in front of the fillers.
            let first_filler = bin.iter().position(|s| !s.is_real()).unwrap_or(64);
            assert!(
                bin[first_filler..].iter().all(|s| s.is_filler()),
                "bin {b} packing"
            );
            seen.extend(reals);
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..1000).collect::<Vec<u64>>(),
            "no element lost or duplicated"
        );
    }

    #[test]
    fn output_length_is_always_nbins_times_z() {
        for (nbins, zcap, elems) in [(1usize, 16usize, 10u64), (2, 8, 9), (8, 8, 40)] {
            let elems: Vec<(u64, u64)> = (0..elems).map(|v| (v % nbins as u64, v)).collect();
            let out = run(nbins, zcap, &elems).unwrap();
            assert_eq!(out.len(), nbins * zcap);
            assert_eq!(
                out.iter().filter(|s| s.is_real()).count(),
                elems.len(),
                "nbins={nbins} zcap={zcap}"
            );
        }
    }

    #[test]
    fn trace_is_input_independent() {
        let run_trace = |elems: Vec<(u64, u64)>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut v = input(8, 8, &elems);
                let sp = ScratchPool::new();
                let mut t = Tracked::new(c, &mut v);
                let _ = bin_place(c, &sp, &mut t, 8, 8, 0, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run_trace((0..32).map(|i| (i % 8, i)).collect());
        let b = run_trace((0..32).map(|i| (7 - i % 8, i * 3)).collect());
        let empty = run_trace(vec![]);
        assert_eq!(a, b);
        assert_eq!(a, empty, "even load pattern must not alter the trace");
    }

    #[test]
    fn overflowing_and_ok_inputs_have_identical_traces() {
        // Overflow detection must not branch the access pattern.
        let run_trace = |elems: Vec<(u64, u64)>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut v = input(4, 4, &elems);
                let sp = ScratchPool::new();
                let mut t = Tracked::new(c, &mut v);
                let _ = bin_place(c, &sp, &mut t, 4, 4, 0, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let ok = run_trace((0..8).map(|i| (i % 4, i)).collect());
        let over = run_trace((0..8).map(|i| (0, i)).collect());
        assert_eq!(ok, over);
    }

    /// `nbins` runs of `zcap` slots for the runs form at `shift = 0`: run
    /// `r` holds the given labels (value = label) in sort order — by
    /// `(label mod nbins ‖ label)` — and is padded with fillers.
    fn runs_input(nbins: usize, zcap: usize, runs: &[Vec<u64>]) -> Vec<Slot<u64>> {
        assert_eq!(runs.len(), nbins);
        let mut v = vec![Slot::<u64>::filler(); nbins * zcap];
        for (r, labels) in runs.iter().enumerate() {
            let mut labels = labels.clone();
            labels.sort_unstable_by_key(|&l| (l % nbins as u64, l));
            for (i, &l) in labels.iter().enumerate() {
                v[r * zcap + i] = Slot::real(Item::new(l as u128, l), l);
            }
        }
        v
    }

    fn place_from(
        c: &impl Ctx,
        v: &mut [Slot<u64>],
        input: Input,
        nbins: usize,
        zcap: usize,
    ) -> Result<()> {
        let sp = ScratchPool::new();
        let mut t = Tracked::new(c, v);
        bin_place_from(c, &sp, &mut t, input, nbins, zcap, 0, Engine::BitonicRec)
    }

    /// Run `r` of 8 holds the labels `13·j + r`, `per_run` of them.
    fn spread_runs(per_run: u64) -> Vec<Vec<u64>> {
        (0..8u64)
            .map(|r| (0..per_run).map(|j| j * 13 + r).collect())
            .collect()
    }

    #[test]
    fn runs_form_and_prefix_form_give_the_same_bins() {
        let c = SeqCtx::new();
        let (nbins, zcap) = (8, 16);
        let runs = spread_runs(7);
        let mut from_runs = runs_input(nbins, zcap, &runs);
        // The same multiset, run order forgotten, in the front half.
        let mut from_prefix = vec![Slot::<u64>::filler(); nbins * zcap];
        for (i, &l) in runs.iter().flatten().rev().enumerate() {
            from_prefix[i] = Slot::real(Item::new(l as u128, l), l);
        }
        let runs_form = Input::Runs {
            run: zcap,
            void: false,
        };
        place_from(&c, &mut from_runs, runs_form, nbins, zcap).unwrap();
        place_from(&c, &mut from_prefix, Input::Prefix(64), nbins, zcap).unwrap();
        assert!(from_runs == from_prefix);
        for (b, bin) in from_runs.chunks(zcap).enumerate() {
            let load = bin.iter().take_while(|s| s.is_real()).count();
            assert_eq!(load, 7);
            assert!(bin[load..].iter().all(Slot::is_filler));
            assert!(bin[..load].iter().all(|s| s.label() % 8 == b as u64));
            assert!(bin[..load].is_sorted_by_key(|s| s.label()), "bin {b}");
        }
    }

    #[test]
    fn runs_form_has_one_trace_for_clean_and_overflowing_inputs() {
        let (nbins, zcap) = (8, 16);
        let run_trace = |runs: Vec<Vec<u64>>, void: bool| {
            let mut v = runs_input(nbins, zcap, &runs);
            let mut verdict = Ok(());
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                verdict = place_from(c, &mut v, Input::Runs { run: zcap, void }, nbins, zcap);
            });
            (verdict, (rep.trace_hash, rep.trace_len))
        };
        let (clean, clean_trace) = run_trace(spread_runs(7), false);
        // Every run sends three labels to bin 0: 24 > 16.
        let over: Vec<Vec<u64>> = (0..8u64)
            .map(|r| {
                (0..7)
                    .map(|j| if j < 3 { 8 * (8 * j + r) } else { j * 13 + r })
                    .collect()
            })
            .collect();
        let (overflowed, over_trace) = run_trace(over, false);
        let (empty, empty_trace) = run_trace(vec![Vec::new(); 8], false);
        // A void attempt: the same shape, nothing promised about the runs.
        let (_, void_trace) = run_trace(spread_runs(7), true);
        assert_eq!(clean, Ok(()));
        assert_eq!(empty, Ok(()));
        assert_eq!(overflowed, Err(OblivError::BinOverflow));
        assert_eq!(clean_trace, over_trace);
        assert_eq!(clean_trace, empty_trace);
        assert_eq!(clean_trace, void_trace);
    }

    /// Runs that are *not* in sort order: each holds its labels descending.
    fn unsorted_runs(nbins: usize, zcap: usize) -> Vec<Slot<u64>> {
        let mut v = runs_input(nbins, zcap, &spread_runs(7));
        v.chunks_mut(zcap).for_each(|run| run[..7].reverse());
        v
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "runs in sort order")]
    fn a_violated_runs_contract_panics_in_debug() {
        let mut v = unsorted_runs(8, 16);
        let runs_form = Input::Runs {
            run: 16,
            void: false,
        };
        let _ = place_from(&SeqCtx::new(), &mut v, runs_form, 8, 16);
    }

    #[test]
    fn a_void_attempt_may_pass_unsorted_runs_and_loses_nothing() {
        let mut v = unsorted_runs(8, 16);
        let void = Input::Runs {
            run: 16,
            void: true,
        };
        let _ = place_from(&SeqCtx::new(), &mut v, void, 8, 16);
        let mut seen: Vec<u64> = v
            .iter()
            .filter(|s| s.is_real())
            .map(|s| s.item.val)
            .collect();
        seen.sort_unstable();
        let mut expect: Vec<u64> = spread_runs(7).concat();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    /// A placement's verdict and every position's `(label, key)`, `None` a
    /// filler.
    type Outcome = (Result<()>, Vec<Option<(u64, u64)>>);

    /// Place `(label, key)` reals through both routes — as bare keys'
    /// 16-byte `label ‖ key` cells and as slots, 48-byte and unit-payload
    /// (the cell gate's 32-byte route) — in `nbins` bins of `zcap`,
    /// routing on the top label bits as ORBA's first level does; run `r`
    /// of `zcap` positions starts with `runs[r]`.
    fn routes(input: Input, nbins: usize, zcap: usize, runs: &[Vec<(u64, u64)>]) -> [Outcome; 3] {
        let shape = (nbins, zcap, 64 - nbins.trailing_zeros());
        let mut cells = vec![u128::MAX; nbins * zcap];
        for (r, reals) in runs.iter().enumerate() {
            for (j, &(label, key)) in reals.iter().enumerate() {
                cells[r * zcap + j] = composite_key(label, key);
            }
        }
        fn go<E: Placed<V>, V: Val>(
            cells: &[u128],
            input: Input,
            (nbins, zcap, shift): (usize, usize, u32),
            to: impl Fn(u128) -> E,
            from: impl Fn(&E) -> u128,
        ) -> Outcome {
            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let mut v: Vec<E> = cells.iter().map(|&cell| to(cell)).collect();
            let mut t = Tracked::new(&c, &mut v);
            let engine = Engine::BitonicRec;
            let r = E::place(&c, &sp, &mut t, input, nbins, zcap, shift, engine);
            let of = |cell: u128| (cell != u128::MAX).then_some(((cell >> 64) as u64, cell as u64));
            (r, v.iter().map(|e| of(from(e))).collect())
        }
        fn slot<V: Val>(cell: u128) -> Slot<V> {
            match cell != u128::MAX {
                true => Slot::real(
                    Item::new(cell as u64 as u128, V::default()),
                    (cell >> 64) as u64,
                ),
                false => Slot::filler(),
            }
        }
        fn cell<V: Val>(s: &Slot<V>) -> u128 {
            match s.is_real() {
                true => composite_key(s.label(), s.item.key as u64),
                false => u128::MAX,
            }
        }
        [
            go::<u128, crate::slot::BareKey>(&cells, input, shape, |x| x, |&x| x),
            go(&cells, input, shape, slot::<u64>, cell),
            go(&cells, input, shape, slot::<()>, cell),
        ]
    }

    /// The host-side oracle: the reals of `runs` stably sorted by
    /// `(bin, label)`, each at `bin·Z + rank` — `None` if a bin overflows.
    fn oracle(
        nbins: usize,
        zcap: usize,
        runs: &[Vec<(u64, u64)>],
    ) -> Option<Vec<Option<(u64, u64)>>> {
        let shift = 64 - nbins.trailing_zeros();
        let bin = |label: u64| label.checked_shr(shift).unwrap_or(0) as usize;
        let mut reals: Vec<(u64, u64)> = runs.concat();
        reals.sort_by_key(|&(label, _)| (bin(label), label));
        let mut out = vec![None; nbins * zcap];
        let mut rank = vec![0usize; nbins];
        for (label, key) in reals {
            let g = bin(label);
            if rank[g] == zcap {
                return None;
            }
            out[g * zcap + rank[g]] = Some((label, key));
            rank[g] += 1;
        }
        Some(out)
    }

    /// `loads[g]` reals for every bin `g` of `nbins`, distinct labels drawn
    /// from `seed`, keys duplicate-heavy and at both ends of their range;
    /// dealt round-robin into `runs` runs, each ascending by label (the
    /// runs form) — or, `prefix`, all into the first.
    fn dealt(nbins: usize, loads: &[usize], runs: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
        let shift = 64 - nbins.trailing_zeros();
        let mut reals = Vec::new();
        for (g, &load) in loads.iter().enumerate() {
            for j in 0..load as u64 {
                let low = (seed ^ (g as u64 * 1000 + j)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let low = if shift == 64 {
                    low >> 1
                } else {
                    low >> (64 - shift)
                };
                let label = ((g as u64).checked_shl(shift).unwrap_or(0) | low).min(u64::MAX - 1);
                reals.push((label, [0, u64::MAX, j % 3][(j % 3) as usize]));
            }
        }
        reals.sort_by_key(|&(l, _)| l.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut out = vec![Vec::new(); runs];
        for (i, r) in reals.into_iter().enumerate() {
            out[i % runs].push(r);
        }
        out.iter_mut().for_each(|run| run.sort_unstable());
        out
    }

    #[test]
    fn both_routes_match_the_oracle() {
        // One bin, G = γ = 4, 16 and 32 bins; no reals, a full bin
        // (load = Z), uneven loads, and empty and full bins alternating;
        // the runs form and, where the reals fit the front half, the
        // prefix form. Every route leaves exactly the oracle's bins.
        for (nbins, zcap) in [(1usize, 16usize), (4, 16), (16, 8), (32, 4)] {
            let mut full = vec![0; nbins];
            full[nbins / 2] = zcap;
            let uneven = (0..nbins).map(|g| (g * 7 + 3) % (zcap + 1)).collect();
            let alternating = (0..nbins).map(|g| zcap * (g % 2)).collect();
            for loads in [vec![0; nbins], full, uneven, alternating] {
                let runs = dealt(nbins, &loads, nbins, 7);
                let expect = oracle(nbins, zcap, &runs).expect("fits");
                let check = |name: &str, input: Input, reals: &[Vec<(u64, u64)>]| {
                    let placed = routes(input, nbins, zcap, reals);
                    for (route, (verdict, placed)) in placed.into_iter().enumerate() {
                        let at = format!("{name}, route {route}, {nbins} × {zcap}, {loads:?}");
                        assert_eq!(verdict, Ok(()), "{at}");
                        assert_eq!(placed, expect, "{at}");
                    }
                };
                let runs_form = Input::Runs {
                    run: zcap,
                    void: false,
                };
                check("runs", runs_form, &runs);
                // The same reals in no order, packed into the front half.
                let half = nbins * zcap / 2;
                if loads.iter().sum::<usize>() <= half {
                    let mut reals = runs.concat();
                    reals.reverse();
                    let front: Vec<_> = reals.chunks(zcap).map(<[_]>::to_vec).collect();
                    check("prefix", Input::Prefix(half), &front);
                }
            }
        }
    }

    #[test]
    fn a_load_past_z_overflows_and_loses_nothing() {
        // One bin asked for Z + 1: every route reports the overflow on the
        // clamped loads, and leaves a permutation of its input.
        let (nbins, zcap) = (16usize, 8usize);
        let mut loads: Vec<usize> = (0..nbins).map(|g| g % 4).collect();
        loads[3] = zcap + 1;
        let runs = dealt(nbins, &loads, nbins, 11);
        assert!(oracle(nbins, zcap, &runs).is_none());
        let mut expect: Vec<(u64, u64)> = runs.concat();
        expect.sort_unstable();
        let form = Input::Runs {
            run: zcap,
            void: false,
        };
        for (verdict, placed) in routes(form, nbins, zcap, &runs) {
            assert_eq!(verdict, Err(OblivError::BinOverflow));
            let mut got: Vec<(u64, u64)> = placed.into_iter().flatten().collect();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn key_cells_and_slots_leave_the_same_bins() {
        // Overflowing and void inputs too: the same verdict and the same
        // records from every route.
        let runs = Input::Runs {
            run: 16,
            void: false,
        };
        let void = Input::Runs {
            run: 16,
            void: true,
        };
        let mut hot = vec![0; 16];
        hot[0] = 64;
        let mut unsorted = dealt(16, &[7; 16], 16, 3);
        unsorted.iter_mut().for_each(|run| run.reverse());
        let cases = [
            (
                "overflow",
                runs,
                dealt(16, &hot, 16, 5),
                Err(OblivError::BinOverflow),
            ),
            ("void", void, unsorted, Ok(())),
        ];
        for (name, input, reals, verdict) in cases {
            let [cells, wide, unit] = routes(input, 16, 16, &reals);
            assert_eq!(cells.0, verdict, "{name}");
            assert!(cells == wide && cells == unit, "{name}: the routes differ");
        }
    }

    #[test]
    fn a_real_at_the_largest_label_and_key_is_not_a_filler() {
        // `u64::MAX − 1` is the largest label ORBA draws; with key
        // `u64::MAX` the cell is `u128::MAX − 2⁶⁴`, one below the filler.
        let top = (u64::MAX - 1, u64::MAX);
        for (r, placed) in routes(Input::Prefix(128), 16, 16, &[vec![top]]) {
            r.unwrap();
            assert_eq!(placed[240], Some(top));
            assert_eq!(placed.iter().flatten().count(), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both faces of the kernel against a `Vec<Vec<_>>` reference:
        /// `bin_place` (unordered within a bin) and `oblivious_scatter`
        /// (stable), reals and fillers interleaved, overflow included.
        #[test]
        fn prop_placement_matches_reference(
            lg_bins in 0u32..4,
            lg_z in 0u32..5,
            picks in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..128),
        ) {
            let (nbins, zcap) = (1usize << lg_bins, 1usize << lg_z);
            let picks = &picks[..picks.len().min(nbins * zcap)];
            // Input position j holds a real for bin `g` valued j, or a filler.
            let items: Vec<Slot<u64>> = picks
                .iter()
                .enumerate()
                .map(|(j, &(real, g))| {
                    if real {
                        Slot::real(Item::new(j as u128, j as u64), g % nbins as u64)
                    } else {
                        Slot::filler()
                    }
                })
                .collect();
            let mut reference = vec![Vec::new(); nbins];
            for s in items.iter().filter(|s| s.is_real()) {
                reference[s.label() as usize].push(s.item.val);
            }
            let fits = reference.iter().all(|bin| bin.len() <= zcap);
            let bins_of = |out: &[Slot<u64>]| -> Vec<Vec<u64>> {
                out.chunks(zcap)
                    .map(|bin| {
                        let load = bin.iter().take_while(|s| s.is_real()).count();
                        assert!(bin[load..].iter().all(|s| s.is_filler()), "reals not packed");
                        bin[..load].iter().map(|s| s.item.val).collect()
                    })
                    .collect()
            };

            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let stable = crate::oblivious_scatter(&c, &sp, &items, nbins, zcap, Engine::BitonicRec);
            let mut io = items.clone();
            io.resize(nbins * zcap, Slot::filler());
            let unordered =
                bin_place(&c, &sp, &mut Tracked::new(&c, &mut io), nbins, zcap, 0, Engine::BitonicRec);
            prop_assert_eq!(stable.is_ok(), fits);
            prop_assert_eq!(unordered.is_ok(), fits);
            if fits {
                prop_assert_eq!(bins_of(&stable.unwrap()), reference.clone());
                let mut got = bins_of(&io);
                got.iter_mut().for_each(|bin| bin.sort_unstable());
                prop_assert_eq!(got, reference);
            }
        }
    }
}
