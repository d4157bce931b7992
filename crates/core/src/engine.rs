//! The small-sort engine: which oblivious network sorts the
//! poly-log-sized subproblems.
//!
//! The paper's theory variant invokes the AKS network here; its practical
//! variant (§3.4) uses bitonic sort, paying a `log log n` work factor. We
//! offer both trade-offs (see DESIGN.md §4 for the AKS substitution):
//!
//! * [`Engine::BitonicRec`] — the cache-agnostic recursive bitonic sort of
//!   §E.1 (the paper's practical choice, and our default);
//! * [`Engine::BitonicFlat`] — naive layer-parallel bitonic (strawman);
//! * [`Engine::OddEven`] — Batcher's odd-even mergesort;
//! * [`Engine::Shellsort`] — Goodrich's randomized Shellsort with
//!   `O(n log n)` comparisons, the honest stand-in for AKS.

use crate::slot::{as_lanes, sk_of, Slot, Val};
use fj::{grain_for, par_for, Ctx};
use metrics::{ScratchPool, Tracked};
use sortnet::{
    active_backend, bitonic_sort_flat_par, bitonic_sort_rec_from_runs, cells_merge_rec,
    oddeven_sort, randomized_shellsort, Gate, TagCell,
};

/// Selects the data-oblivious network used for small sorts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Engine {
    /// Cache-agnostic recursive bitonic (§E.1) — the practical default.
    #[default]
    BitonicRec,
    /// Layer-by-layer parallel bitonic — the naive baseline.
    BitonicFlat,
    /// Batcher's odd-even mergesort.
    OddEven,
    /// Randomized Shellsort with the given public coin seed (AKS stand-in,
    /// `O(n log n)` comparisons).
    Shellsort { seed: u64 },
}

impl Engine {
    /// Sort `t` ascending through `gate` with this engine's network, given
    /// that `t` is aligned ascending runs of `run` slots (`run = 1`: no
    /// promise, the plain sort). The recursive bitonic engine merges the
    /// runs ([`bitonic_sort_rec_from_runs`]); the engines without a merge
    /// primitive publicly fall back to their full sort, which is correct on
    /// any input.
    ///
    /// Merge scratch is leased from `scratch` rather than allocated; lease
    /// contents start dirty at the byte level but are filled (with
    /// `filler`) before use, and the networks write every scratch position
    /// before reading it.
    fn sort_through<C: Ctx, T: Copy + Send>(
        &self,
        c: &C,
        scratch: &ScratchPool,
        t: &mut Tracked<'_, T>,
        filler: T,
        gate: &impl Gate<T>,
        run: usize,
    ) {
        match *self {
            Engine::BitonicRec => {
                let mut lease = scratch.lease(t.len(), filler);
                let mut tmp = Tracked::new(c, &mut lease);
                bitonic_sort_rec_from_runs(c, t, &mut tmp, gate, true, run);
            }
            Engine::BitonicFlat => bitonic_sort_flat_par(c, t, gate, true),
            Engine::OddEven => oddeven_sort(c, t, gate),
            Engine::Shellsort { seed } => {
                // Mix in the length so different call sites draw different
                // coins while staying deterministic per (seed, n).
                let seed = seed ^ (t.len() as u64).wrapping_mul(0x9E37);
                randomized_shellsort(c, scratch, t, gate, seed);
            }
        }
    }

    /// Sort `t` ascending by the slots' scratch key `sk`. Length must be a
    /// power of two (callers pad with [`Slot::filler`], whose `sk` is
    /// `u128::MAX`).
    pub fn sort_slots<C: Ctx, V: Val>(
        &self,
        c: &C,
        scratch: &ScratchPool,
        t: &mut Tracked<'_, Slot<V>>,
    ) {
        self.sort_slots_from_runs(c, scratch, t, 1)
    }

    /// [`Engine::sort_slots`] of aligned runs of `run` slots (a power of
    /// two), each ascending by `sk` already — fillers last within a run.
    ///
    /// A slot with a zero-sized payload is laid out like a [`TagCell`]
    /// (`sk` = `tag`, `item.key` = `aux`) and is sorted as one, through
    /// the cell gate: the same network, trace and counters, AVX2 slabs
    /// where the hardware has them (DESIGN.md §14 has the pairs that
    /// justify the cast).
    pub fn sort_slots_from_runs<C: Ctx, V: Val>(
        &self,
        c: &C,
        scratch: &ScratchPool,
        t: &mut Tracked<'_, Slot<V>>,
        run: usize,
    ) {
        if let Some(mut cells) = as_lanes(t) {
            return self.sort_cells_from_runs(c, scratch, &mut cells, run);
        }
        self.sort_through(c, scratch, t, Slot::filler(), &sk_of, run);
    }

    /// Sort packed [`TagCell`]s ascending by tag (the tag-sort fast path).
    /// Length must be a power of two; callers pad with [`TagCell::filler`]
    /// (tag `u128::MAX`, sorts last).
    ///
    /// Every engine runs the same network it runs for slots, through the
    /// branchless cell gate (32-byte elements, `select_u128` exchanges,
    /// AVX2 slabs under the bitonic base case where the hardware has
    /// them), so the trace is the engine's fixed function of `n`.
    pub fn sort_cells<C: Ctx>(&self, c: &C, scratch: &ScratchPool, t: &mut Tracked<'_, TagCell>) {
        self.sort_cells_from_runs(c, scratch, t, 1)
    }

    /// [`Engine::sort_cells`] of aligned runs of `run` cells (a power of
    /// two), each ascending by tag already — the one "merge sorted runs" of
    /// the workspace (ORBA's placements, the store's gather).
    pub fn sort_cells_from_runs<C: Ctx>(
        &self,
        c: &C,
        scratch: &ScratchPool,
        t: &mut Tracked<'_, TagCell>,
        run: usize,
    ) {
        self.sort_through(c, scratch, t, TagCell::filler(), &active_backend(), run);
    }

    /// Sort bare `u128` keys ascending — records that are their own sort
    /// key, such as ORP's `label ‖ key` placement cells or REC-SORT's
    /// unit-payload items. Length must be a power of two; callers pad with
    /// `u128::MAX`, which sorts last.
    ///
    /// Every engine runs the same network it runs for cells and slots,
    /// through the cell gate's 16-byte form (`Gate<u128>`: `select_u128`
    /// exchanges, two keys a `ymm` on AVX2), so the comparators and the
    /// trace shape are the engine's fixed function of `n`, and a key moves
    /// half a cell's bytes.
    pub fn sort_keys<C: Ctx>(&self, c: &C, scratch: &ScratchPool, t: &mut Tracked<'_, u128>) {
        self.sort_keys_from_runs(c, scratch, t, 1)
    }

    /// [`Engine::sort_keys`] of aligned ascending runs of `run` keys (a
    /// power of two), as [`Engine::sort_cells_from_runs`] is for cells.
    pub fn sort_keys_from_runs<C: Ctx>(
        &self,
        c: &C,
        scratch: &ScratchPool,
        t: &mut Tracked<'_, u128>,
        run: usize,
    ) {
        self.sort_through(c, scratch, t, u128::MAX, &active_backend(), run);
    }

    /// Merge a cell sequence of any length into ascending order, given that
    /// `t` followed by fillers up to the next power of two is *bitonic*
    /// (e.g. a descending sorted run followed by an ascending one, fillers
    /// at either end). With the recursive bitonic engine a power-of-two
    /// piece is one cache-blocked merge butterfly — `O(n log n)`
    /// comparators instead of a full `O(n log² n)` sort; the engines
    /// without a merge primitive publicly fall back to a full
    /// [`Engine::sort_cells`] of each piece.
    ///
    /// Any other length `n` is Lang's bitonic merge for `n` not a power of
    /// two: with `h` the largest power of two below `n`, the first level of
    /// the `2h`-cell merge pairs `(i, i + h)` — but a partner at or past `n`
    /// is a virtual filler, which never moves, so only the `n − h` pairs
    /// below `n` run. Every cell of `[0, h)` then sorts below every cell of
    /// `[h, n)`, both halves (with their virtual fillers) are bitonic, and
    /// they merge independently. The pieces are a function of `n` alone.
    pub fn merge_cells<C: Ctx>(&self, c: &C, scratch: &ScratchPool, t: &mut Tracked<'_, TagCell>) {
        let n = t.len();
        if n <= 1 || n.is_power_of_two() {
            match *self {
                Engine::BitonicRec => {
                    let mut lease = scratch.lease(n, TagCell::filler());
                    let mut tmp = Tracked::new(c, &mut lease);
                    cells_merge_rec(c, t, &mut tmp, true);
                }
                _ => self.sort_cells(c, scratch, t),
            }
            return;
        }
        let h = 1 << n.ilog2();
        let (gate, grain, raw) = (active_backend(), grain_for(c), t.as_raw());
        par_for(c, 0, (n - h).div_ceil(grain), 1, &|c, k| {
            let from = k * grain;
            // SAFETY: the runs at `from` and `from + h` are at most
            // `n − h < h` long and end by `n`; the grains are disjoint and
            // `&mut t` is held until the `par_for` joins.
            unsafe { gate.run(c, &raw, from, from + h, grain.min(n - h - from), true) };
        });
        let (mut lo, mut hi) = t.split_at_mut(h);
        c.join(
            move |c| self.merge_cells(c, scratch, &mut lo),
            move |c| self.merge_cells(c, scratch, &mut hi),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::Item;
    use fj::SeqCtx;

    fn slots_with_keys(keys: &[u64]) -> Vec<Slot<u64>> {
        keys.iter()
            .map(|&k| {
                let mut s = Slot::real(Item::new(k as u128, k), 0);
                s.sk = k as u128;
                s
            })
            .collect()
    }

    #[test]
    fn all_engines_sort_cells_by_tag() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let keys: Vec<u64> = (0..256u64)
            .map(|i| i.wrapping_mul(2654435761) % 509)
            .collect();
        let mut expect: Vec<u64> = keys.clone();
        expect.sort_unstable();
        for engine in [
            Engine::BitonicRec,
            Engine::BitonicFlat,
            Engine::OddEven,
            Engine::Shellsort { seed: 11 },
        ] {
            let mut cells: Vec<TagCell> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| TagCell::new(((k as u128) << 64) | i as u128, k as u128))
                .collect();
            let mut t = Tracked::new(&c, &mut cells);
            engine.sort_cells(&c, &sp, &mut t);
            let got: Vec<u64> = cells.iter().map(|cell| (cell.tag >> 64) as u64).collect();
            assert_eq!(got, expect, "engine {engine:?}");
            // Payload lanes travel with their tags.
            assert!(cells.iter().all(|cell| cell.aux == (cell.tag >> 64)));
        }
    }

    const ENGINES: [Engine; 4] = [
        Engine::BitonicRec,
        Engine::BitonicFlat,
        Engine::OddEven,
        Engine::Shellsort { seed: 3 },
    ];

    /// `[desc | asc]`: `down` descending then `up` ascending, the layout
    /// of the store's merge array.
    fn v_cells(down: &[u128], up: &[u128]) -> Vec<TagCell> {
        let mut desc = down.to_vec();
        desc.sort_unstable_by(|a, b| b.cmp(a));
        let mut asc = up.to_vec();
        asc.sort_unstable();
        (desc.into_iter().chain(asc))
            .enumerate()
            .map(|(i, k)| TagCell::new(k, i as u128))
            .collect()
    }

    fn merged(engine: Engine, mut cells: Vec<TagCell>) -> Vec<TagCell> {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        engine.merge_cells(&c, &sp, &mut Tracked::new(&c, &mut cells));
        cells
    }

    #[test]
    fn all_engines_merge_bitonic_cells() {
        for engine in ENGINES {
            let cells: Vec<TagCell> = (0..64u128)
                .chain((0..64u128).rev())
                .map(|k| TagCell::new(k, k))
                .collect();
            let cells = merged(engine, cells);
            assert!(
                cells.windows(2).all(|w| w[0].tag <= w[1].tag),
                "engine {engine:?}"
            );
        }
        // Any length: `[desc b | asc c]` with `b ≠ c`, fillers at both
        // ends as the store lays them out, and each cell's payload lane
        // riding with its tag.
        let keys = |n: usize, salt: u128| -> Vec<u128> {
            (0..n as u128)
                .map(|i| match (i * 7 + salt) % 11 {
                    0 => u128::MAX,
                    r => (i * 0x9E37 + salt) % 97 + r,
                })
                .collect()
        };
        for engine in ENGINES {
            for (b, c) in [(1, 2), (3, 8), (64, 1024), (1024, 64), (100, 37), (5, 300)] {
                let input = v_cells(&keys(b, 1), &keys(c, 2));
                let mut expect = input.clone();
                expect.sort_by_key(|cell| cell.tag);
                let got = merged(engine, input);
                let tags = |v: &[TagCell]| v.iter().map(|x| x.tag).collect::<Vec<_>>();
                assert_eq!(tags(&got), tags(&expect), "engine {engine:?} b {b} c {c}");
                let mut lanes: Vec<_> = got.iter().map(|x| (x.aux, x.tag)).collect();
                lanes.sort_unstable();
                let mut want: Vec<_> = expect.iter().map(|x| (x.aux, x.tag)).collect();
                want.sort_unstable();
                assert_eq!(
                    lanes, want,
                    "engine {engine:?} b {b} c {c}: a lane left its tag"
                );
            }
        }
    }

    #[test]
    fn merge_zero_one_exhaustive_any_length() {
        // 0-1 principle over every `[desc b | asc c]` input, b, c ≤ 8:
        // each side is `ones ‖ zeros` read toward the middle.
        for engine in ENGINES {
            for b in 0..=8usize {
                for c in 0..=8usize {
                    for x in 0..=b {
                        for y in 0..=c {
                            let down: Vec<u128> = (0..b).map(|i| (i < x) as u128).collect();
                            let up: Vec<u128> = (0..c).map(|i| (i < y) as u128).collect();
                            let got = merged(engine, v_cells(&down, &up));
                            assert!(
                                got.windows(2).all(|w| w[0].tag <= w[1].tag),
                                "engine {engine:?} b {b} c {c} ones {x} {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn any_length_merge_trace_is_input_independent() {
        // n = 1091 = 1024 + 64 + 2 + 1: four pair levels before the
        // power-of-two pieces merge.
        use metrics::{measure, CacheConfig, TraceMode};
        let run = |down: Vec<u128>, up: Vec<u128>| {
            let mut cells = v_cells(&down, &up);
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                Engine::BitonicRec.merge_cells(c, &sp, &mut Tracked::new(c, &mut cells));
            });
            assert!(cells.windows(2).all(|w| w[0].tag <= w[1].tag));
            (rep.trace_hash, rep.trace_len, rep.comparisons)
        };
        let a = run((0..67).collect(), (0..1024).collect());
        let z = run(vec![5; 67], vec![5; 1024]);
        let f = run(vec![u128::MAX; 67], (2000..3024).collect());
        assert_eq!(a, z);
        assert_eq!(a, f);
    }

    #[test]
    fn all_engines_sort_from_runs() {
        // Four ascending runs of 32 with their fillers last: the bitonic
        // engine merges them, the others fall back to their full sort.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for engine in [
            Engine::BitonicRec,
            Engine::BitonicFlat,
            Engine::OddEven,
            Engine::Shellsort { seed: 3 },
        ] {
            let mut slots: Vec<Slot<u64>> = (0..128u64)
                .map(|i| match (i / 32, i % 32) {
                    (run, j) if j < 20 + run => Slot::keyed(Item::new((j * 4 + run) as u128, i)),
                    _ => Slot::filler(),
                })
                .collect();
            let mut t = Tracked::new(&c, &mut slots);
            engine.sort_slots_from_runs(&c, &sp, &mut t, 32);
            assert!(slots.is_sorted_by_key(|s| s.sk), "engine {engine:?}");
            assert_eq!(slots.iter().filter(|s| s.is_real()).count(), 86);
        }
    }

    #[test]
    fn unit_slots_sort_as_cells_on_the_closure_gates_trace() {
        // `Slot<()>` takes the cell gate; the network, the trace and every
        // counter must be the closure gate's, fillers and payload lane
        // (`item.key`) included.
        use metrics::{measure, CacheConfig, TraceMode};
        let input: Vec<Slot<()>> = (0..4096u64)
            .map(|i| match i % 5 {
                0 => Slot::filler(),
                _ => Slot::keyed(Item::new((i.wrapping_mul(2654435761) % 1021) as u128, ())),
            })
            .collect();
        let run = |as_cells: bool| {
            let mut slots = input.clone();
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                let mut t = Tracked::new(c, &mut slots);
                if as_cells {
                    Engine::BitonicRec.sort_slots(c, &sp, &mut t);
                } else {
                    Engine::BitonicRec.sort_through(c, &sp, &mut t, Slot::filler(), &sk_of, 1);
                }
            });
            (
                slots,
                [
                    rep.trace_hash,
                    rep.trace_len,
                    rep.work,
                    rep.span,
                    rep.comparisons,
                ],
            )
        };
        let (cells, cell_costs) = run(true);
        let (closure, closure_costs) = run(false);
        assert!(cells == closure);
        assert_eq!(cell_costs, closure_costs);
        assert!(cells.windows(2).all(|w| w[0].sk <= w[1].sk));
        assert!(cells.iter().all(|s| s.is_filler() || s.item.key == s.sk));
    }

    #[test]
    fn all_engines_sort_by_sk() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let keys: Vec<u64> = (0..128u64)
            .map(|i| i.wrapping_mul(2654435761) % 251)
            .collect();
        let mut expect: Vec<u64> = keys.clone();
        expect.sort_unstable();
        for engine in [
            Engine::BitonicRec,
            Engine::BitonicFlat,
            Engine::OddEven,
            Engine::Shellsort { seed: 11 },
        ] {
            let mut slots = slots_with_keys(&keys);
            let mut t = Tracked::new(&c, &mut slots);
            engine.sort_slots(&c, &sp, &mut t);
            let got: Vec<u64> = slots.iter().map(|s| s.sk as u64).collect();
            assert_eq!(got, expect, "engine {engine:?}");
        }
    }
}
