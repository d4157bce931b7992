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
//!
//! Every sort and merge takes any length, so no caller pads; what is
//! compared, copied or leased is a function of `n` alone, and a power of
//! two runs the network unchanged.

use crate::slot::{as_lanes, sk_of, Slot, Val};
use fj::{grain_for, par_for, Ctx};
use metrics::{par_fill, ScratchPool, Tracked};
use sortnet::{
    active_backend, bitonic_merge_rec, bitonic_sort_flat_par, bitonic_sort_rec_from_runs,
    bitonic_stage_flat_par, oddeven_sort, randomized_shellsort, Gate, TagCell,
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
    /// Sort `t` through `gate`, ascending iff `up`, given aligned ascending
    /// runs of `run` (`run = 1`: the plain sort; `run > 1`: a power-of-two
    /// length). A power of two is the engine's network; the recursive
    /// bitonic engine merges the runs, the others sort. Any other `n` is
    /// Lang's sort on the bitonic engines: with `h` the largest power of
    /// two below `n`, sort `[0, n − h)` the other way beside `[n − h, n)`
    /// this way, then [`Engine::merge`] — `[desc | asc]` then `+∞` fillers
    /// is bitonic, as is `[asc | desc]` then `−∞`. Odd-even and Shellsort
    /// (only ever ascending) sort a `next_pow2(n)` copy. `tmp`, the merge
    /// scratch, is leased once (the network writes it before reading it)
    /// and split with `t`.
    #[allow(clippy::too_many_arguments)]
    fn sort<C: Ctx, T: Copy + Send + Sync>(
        self,
        c: &C,
        scratch: &ScratchPool,
        t: &mut Tracked<'_, T>,
        mut tmp: Option<Tracked<'_, T>>,
        filler: T,
        gate: &impl Gate<T>,
        up: bool,
        run: usize,
    ) {
        let n = t.len();
        let pow2 = run > 1 || n <= 1 || n.is_power_of_two();
        match (self, &mut tmp) {
            (Engine::BitonicRec, None) => {
                let mut lease = scratch.lease(n, filler);
                let tmp = Some(Tracked::new(c, &mut lease));
                self.sort(c, scratch, t, tmp, filler, gate, up, run);
            }
            (Engine::BitonicRec, Some(tmp)) if pow2 => {
                bitonic_sort_rec_from_runs(c, t, tmp, gate, up, run)
            }
            (Engine::BitonicFlat, _) if pow2 => bitonic_sort_flat_par(c, t, gate, up),
            (Engine::OddEven, _) if pow2 => oddeven_sort(c, t, gate),
            (Engine::Shellsort { seed }, _) if pow2 => {
                // Mix in the length so different call sites draw different
                // coins while staying deterministic per (seed, n).
                let seed = seed ^ (n as u64).wrapping_mul(0x9E37);
                randomized_shellsort(c, scratch, t, gate, seed);
            }
            (Engine::OddEven | Engine::Shellsort { .. }, _) => {
                let mut lease = scratch.lease(n.next_power_of_two(), filler);
                let mut padded = Tracked::new(c, &mut lease);
                par_fill(c, &mut padded.range(0, n), &|c, i| t.get(c, i));
                self.sort(c, scratch, &mut padded, None, filler, gate, up, 1);
                par_fill(c, t, &|c, i| padded.get(c, i));
            }
            _ => {
                let h = 1 << n.ilog2();
                let (mut lo, mut hi) = t.split_at_mut(n - h);
                let (s_lo, s_hi) = tmp.as_mut().map(|s| s.split_at_mut(n - h)).unzip();
                c.join(
                    move |c| self.sort(c, scratch, &mut lo, s_lo, filler, gate, !up, 1),
                    move |c| self.sort(c, scratch, &mut hi, s_hi, filler, gate, up, 1),
                );
                self.merge(c, scratch, t, tmp, filler, gate, up);
            }
        }
    }

    /// Lang's bitonic merge, ascending iff `up`, of a `t` that is bitonic
    /// followed by virtual fillers up to `next_pow2(n)` (`+∞` ascending,
    /// `−∞` descending). With `h` the largest power of two below `n`, the
    /// first level pairs `(i, i + h)`; a virtual partner never moves, so
    /// only the `n − h` pairs below `n` run, a [`Gate::run`] a grain. Then
    /// `[0, h)` lies below `[h, n)`, and both merge on their own. A
    /// power-of-two piece is the engine's merge (on `tmp`, or a lease of
    /// its own); odd-even and Shellsort sort it.
    #[allow(clippy::too_many_arguments)]
    fn merge<C: Ctx, T: Copy + Send + Sync>(
        self,
        c: &C,
        scratch: &ScratchPool,
        t: &mut Tracked<'_, T>,
        mut tmp: Option<Tracked<'_, T>>,
        filler: T,
        gate: &impl Gate<T>,
        up: bool,
    ) {
        let n = t.len();
        if n <= 1 || n.is_power_of_two() {
            return match (self, tmp) {
                (Engine::BitonicRec, Some(mut tmp)) => bitonic_merge_rec(c, t, &mut tmp, gate, up),
                (Engine::BitonicRec, None) => {
                    let mut lease = scratch.lease(n, filler);
                    bitonic_merge_rec(c, t, &mut Tracked::new(c, &mut lease), gate, up)
                }
                (Engine::BitonicFlat, _) => bitonic_stage_flat_par(c, t, gate, n, up),
                (_, tmp) => self.sort(c, scratch, t, tmp, filler, gate, up, 1),
            };
        }
        let (h, grain, raw) = (1 << n.ilog2(), grain_for(c), t.as_raw());
        par_for(c, 0, (n - h).div_ceil(grain), 1, &|c, k| {
            let (from, len) = (k * grain, grain.min(n - h - k * grain));
            // SAFETY: the runs at `from` and `from + h` are at most
            // `n − h < h` long and end by `n`; the grains are disjoint and
            // `&mut t` is held until the `par_for` joins.
            unsafe { gate.run(c, &raw, from, from + h, len, up) };
        });
        let (mut lo, mut hi) = t.split_at_mut(h);
        let (s_lo, s_hi) = tmp.as_mut().map(|s| s.split_at_mut(h)).unzip();
        c.join(
            move |c| self.merge(c, scratch, &mut lo, s_lo, filler, gate, up),
            move |c| self.merge(c, scratch, &mut hi, s_hi, filler, gate, up),
        );
    }

    /// Sort `t` ascending by the slots' scratch key `sk`, any length.
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
        self.sort(c, scratch, t, None, Slot::filler(), &sk_of, true, run);
    }

    /// Sort packed [`TagCell`]s ascending by tag (the tag-sort fast path),
    /// any length. Fillers ([`TagCell::filler`], tag `u128::MAX`) sort
    /// last.
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
        let gate = active_backend();
        self.sort(c, scratch, t, None, TagCell::filler(), &gate, true, run);
    }

    /// Sort bare `u128` keys ascending, any length — records that are
    /// their own sort key, such as ORP's `label ‖ key` placement cells or
    /// REC-SORT's unit-payload items. `u128::MAX` is the filler.
    ///
    /// Every engine runs the same network it runs for cells and slots,
    /// through the cell gate's 16-byte form (`Gate<u128>`: `select_u128`
    /// exchanges, two keys a `ymm` on AVX2), so the comparators and the
    /// trace shape are the engine's fixed function of `n`, and a key moves
    /// half a cell's bytes.
    pub fn sort_keys<C: Ctx>(&self, c: &C, scratch: &ScratchPool, t: &mut Tracked<'_, u128>) {
        self.sort_keys_from_runs(c, scratch, t, 1)
    }

    /// [`Engine::sort_keys`] of aligned ascending runs of `run` keys, as
    /// [`Engine::sort_cells_from_runs`] is for cells.
    pub fn sort_keys_from_runs<C: Ctx>(
        &self,
        c: &C,
        scratch: &ScratchPool,
        t: &mut Tracked<'_, u128>,
        run: usize,
    ) {
        self.sort(c, scratch, t, None, u128::MAX, &active_backend(), true, run);
    }

    /// Merge a cell sequence of any length into ascending order, given that
    /// `t` followed by fillers up to the next power of two is *bitonic*
    /// (e.g. a descending sorted run followed by an ascending one, fillers
    /// at either end): Lang's merge, whose pieces are a function of `n`
    /// alone. With the bitonic engines a power-of-two piece is one merge
    /// butterfly — `O(n log n)` comparators instead of a full `O(n log² n)`
    /// sort; the engines without a merge primitive sort each piece.
    pub fn merge_cells<C: Ctx>(&self, c: &C, scratch: &ScratchPool, t: &mut Tracked<'_, TagCell>) {
        let gate = active_backend();
        self.merge(c, scratch, t, None, TagCell::filler(), &gate, true);
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
    fn sort_zero_one_exhaustive_any_length() {
        // 0-1 principle at every n ≤ 16, every engine, every entry: all
        // 2ⁿ bit vectors come out sorted, and each cell's (each slot's)
        // payload lane — its input position — still names its own bit.
        let (c, sp) = (SeqCtx::new(), ScratchPool::new());
        for engine in ENGINES {
            for n in 0..=16usize {
                for mask in 0u32..1 << n {
                    let bit = |i: usize| ((mask >> i) & 1) as u128;
                    let mut cells: Vec<TagCell> =
                        (0..n).map(|i| TagCell::new(bit(i), i as u128)).collect();
                    engine.sort_cells(&c, &sp, &mut Tracked::new(&c, &mut cells));
                    let mut keys: Vec<u128> = (0..n).map(bit).collect();
                    engine.sort_keys(&c, &sp, &mut Tracked::new(&c, &mut keys));
                    let mut slots: Vec<Slot<u64>> = (0..n)
                        .map(|i| {
                            let mut s = Slot::real(Item::new(bit(i), i as u64), 0);
                            s.sk = bit(i);
                            s
                        })
                        .collect();
                    engine.sort_slots(&c, &sp, &mut Tracked::new(&c, &mut slots));
                    let ones = mask.count_ones() as usize;
                    let want = |i: usize| (i >= n - ones) as u128;
                    let at = format!("engine {engine:?} n {n} mask {mask:#b}");
                    assert!(
                        cells.iter().enumerate().all(|(i, x)| x.tag == want(i)),
                        "{at}"
                    );
                    assert!(keys.iter().enumerate().all(|(i, &k)| k == want(i)), "{at}");
                    assert!(
                        slots.iter().enumerate().all(|(i, s)| s.sk == want(i)),
                        "{at}"
                    );
                    let mut seen = 0u32;
                    for (x, s) in cells.iter().zip(&slots) {
                        assert_eq!(x.tag, bit(x.aux as usize), "{at}: a cell left its lane");
                        assert_eq!(s.sk, bit(s.item.val as usize), "{at}: a slot left its lane");
                        seen |= 1 << x.aux;
                    }
                    assert_eq!(seen as u64, (1u64 << n) - 1, "{at}: not a permutation");
                }
            }
        }
    }

    /// Comparators of Lang's sort (`sort`) and merge (`merge`) of `n`, and
    /// of the power-of-two bitonic sort.
    fn lang_comparisons(n: u64) -> (u64, u64) {
        fn pow2_sort(n: u64) -> u64 {
            let lg = n.max(1).ilog2() as u64;
            n * lg * (lg + 1) / 4
        }
        fn merge(n: u64) -> u64 {
            match n {
                0 | 1 => 0,
                _ if n.is_power_of_two() => n / 2 * n.ilog2() as u64,
                _ => {
                    let h = 1 << n.ilog2();
                    (n - h) + merge(h) + merge(n - h)
                }
            }
        }
        fn sort(n: u64) -> u64 {
            match n {
                0 | 1 => 0,
                _ if n.is_power_of_two() => pow2_sort(n),
                _ => {
                    let h = 1 << n.ilog2();
                    sort(n - h) + pow2_sort(h) + merge(n)
                }
            }
        }
        (sort(n), pow2_sort(n.next_power_of_two()))
    }

    #[test]
    fn any_length_sort_never_runs_more_comparators_than_the_padded_network() {
        // Closed form at every n < 2¹⁷; the engines' own counters at a few.
        for n in 0..1u64 << 17 {
            let (lang, padded) = lang_comparisons(n);
            assert!(lang <= padded, "n {n}: {lang} > {padded}");
        }
        use metrics::{measure, CacheConfig, TraceMode};
        for n in (0..=40).chain([579, 1091]) {
            for engine in [Engine::BitonicRec, Engine::BitonicFlat] {
                let mut cells: Vec<TagCell> = (0..n as u128)
                    .map(|i| TagCell::new(i * 0x9E37 % 101, i))
                    .collect();
                let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                    let sp = ScratchPool::new();
                    engine.sort_cells(c, &sp, &mut Tracked::new(c, &mut cells));
                });
                assert!(cells.windows(2).all(|w| w[0].tag <= w[1].tag));
                assert_eq!(
                    rep.comparisons,
                    lang_comparisons(n).0,
                    "engine {engine:?} n {n}"
                );
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

        // The sort at 1091 and at 579 = 512 + 64 + 2 + 1, every engine and
        // entry: sorted, reversed, all-equal and scrambled inputs.
        for n in [1091u128, 579] {
            for engine in ENGINES {
                let sorted: Vec<u128> = (0..n).collect();
                let inputs = [
                    sorted.clone(),
                    sorted.iter().rev().copied().collect(),
                    vec![7; n as usize],
                    sorted.iter().map(|i| i * 0x9E37_79B9 % 1021).collect(),
                ];
                let traces: Vec<_> = inputs
                    .iter()
                    .map(|keys| {
                        let mut cells: Vec<TagCell> =
                            keys.iter().map(|&k| TagCell::new(k, k)).collect();
                        let mut bare = keys.clone();
                        let mut slots =
                            slots_with_keys(&bare.iter().map(|&k| k as u64).collect::<Vec<_>>());
                        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                            let sp = ScratchPool::new();
                            engine.sort_cells(c, &sp, &mut Tracked::new(c, &mut cells));
                            engine.sort_keys(c, &sp, &mut Tracked::new(c, &mut bare));
                            engine.sort_slots(c, &sp, &mut Tracked::new(c, &mut slots));
                        });
                        assert!(cells.windows(2).all(|w| w[0].tag <= w[1].tag));
                        assert!(bare.is_sorted());
                        assert!(slots.is_sorted_by_key(|s| s.sk));
                        (rep.trace_hash, rep.trace_len, rep.comparisons)
                    })
                    .collect();
                assert!(
                    traces.windows(2).all(|w| w[0] == w[1]),
                    "engine {engine:?} n {n}"
                );
            }
        }
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
                    let filler = Slot::filler();
                    Engine::BitonicRec.sort(c, &sp, &mut t, None, filler, &sk_of, true, 1);
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
