//! Wall-clock sorting benches (Table 1 "Sort" row, real execution on the
//! work-stealing pool): oblivious practical sort vs the insecure REC-SORT
//! baseline vs parallel mergesort vs std — plus the §C.1 placement kernel
//! and its comparator-free expansion step on their own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fj::Pool;
use metrics::Tracked;
use obliv_core::{
    bin_place, composite_key, expand, oblivious_sort_u64, par_merge_sort, rec_sort_items,
    with_retries, Engine, Item, OSortParams, ScratchPool, Slot,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn scrambled(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 11)
        .collect()
}

fn bench_sorts(cr: &mut Criterion) {
    let pool = Pool::with_default_threads();
    // Shared arena: iterations after the first run allocation-free.
    let scratch = ScratchPool::new();
    let mut g = cr.benchmark_group("sort");
    g.sample_size(10);

    for &n in &[1usize << 14, 1 << 16] {
        let data = scrambled(n);

        g.bench_with_input(BenchmarkId::new("oblivious_practical", n), &n, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                pool.run(|c| {
                    oblivious_sort_u64(c, &scratch, &mut v, OSortParams::practical(n), 42)
                });
                v
            })
        });

        g.bench_with_input(BenchmarkId::new("insecure_rec_sort", n), &n, |b, _| {
            b.iter(|| {
                let mut items: Vec<Item<u64>> = data
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| Item::new(composite_key(k, i as u64), k))
                    .collect();
                items.shuffle(&mut StdRng::seed_from_u64(1));
                pool.run(|c| {
                    with_retries(16, |a| {
                        rec_sort_items(
                            c,
                            &scratch,
                            &mut items,
                            Engine::BitonicRec,
                            16,
                            5 + a as u64,
                        )
                    })
                });
                items
            })
        });

        g.bench_with_input(BenchmarkId::new("insecure_par_merge", n), &n, |b, _| {
            b.iter(|| {
                let mut items: Vec<Item<u64>> =
                    data.iter().map(|&k| Item::new(k as u128, k)).collect();
                pool.run(|c| par_merge_sort(c, &mut items));
                items
            })
        });

        g.bench_with_input(BenchmarkId::new("std_sort_unstable", n), &n, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                v.sort_unstable();
                v
            })
        });
    }
    g.finish();
}

/// `bin_place` at ORBA's base-case shape for n = 65536 (16 bins of 512,
/// half full, labels round-robin) and at a 64k-slot shape, and `expand`
/// alone on the same arrays (a packed run in the front half, every real
/// bound a quarter of the array to its right — its target rides in the
/// high half of `sk`).
fn bench_placement(cr: &mut Criterion) {
    let pool = Pool::with_default_threads();
    let scratch = ScratchPool::new();
    let mut g = cr.benchmark_group("bin_place");
    g.sample_size(10);

    for &(nbins, zcap) in &[(16usize, 512usize), (64, 1024)] {
        let m = nbins * zcap;
        let input: Vec<Slot<u64>> = (0..m)
            .map(|i| {
                if i % 2 == 0 {
                    let v = i as u64;
                    Slot::real(Item::new(v as u128, v), v / 2)
                } else {
                    Slot::filler()
                }
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("bin_place", m), &m, |b, _| {
            b.iter(|| {
                let mut v = input.clone();
                pool.run(|c| {
                    let mut t = Tracked::new(c, &mut v);
                    bin_place(c, &scratch, &mut t, nbins, zcap, 0, Engine::BitonicRec)
                        .expect("round-robin labels fill every bin exactly half")
                });
                v
            })
        });

        let packed: Vec<Slot<u64>> = (0..m)
            .map(|i| {
                if i < m / 2 {
                    Slot::real(Item::new(i as u128, i as u64), 0).with_phase_key((i + m / 4) as u64)
                } else {
                    Slot::filler()
                }
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("expand", m), &m, |b, _| {
            b.iter(|| {
                let mut v = packed.clone();
                pool.run(|c| expand(c, &mut Tracked::new(c, &mut v)));
                v
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sorts, bench_placement);
criterion_main!(benches);
