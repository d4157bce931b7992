//! Allocation-count gate for the scratch-arena memory discipline.
//!
//! A counting global allocator measures how many heap allocations the
//! steady-state hot paths perform (`oblivious_sort_u64`, the tag-sort
//! fast path, a full store merge epoch, a sharded epoch, a pipelined
//! `read_now` consult and an ORAM epoch). This file is its own integration-test binary, so the global
//! allocator is the tests' own. It counts per thread: every measured
//! section runs on `SeqCtx` on its test's thread, so allocations the
//! harness or a concurrent test makes on other threads never reach it.
//! The pool tests check `ScratchPool::fresh_allocs` instead.
//!
//! Measured history (SeqCtx, n = 20_000, practical params):
//!
//! * pre-arena main (PR 1): 448 allocations per call — every engine sort,
//!   bin placement, scan tree, and ORP intermediate hit the allocator;
//! * with the `ScratchPool` arena (PR 2): 11 — the REC-SORT pivot sample
//!   and its pivot keys were still `Vec`s;
//! * with those two leased as well: 0.
//!
//! The budget below is the enforced ceiling: raising it means the arena
//! win regressed, and that needs to be a deliberate decision, not drift.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Steady-state ceiling: every intermediate of the sort pipelines is a
/// lease, so a call on a warm pool does not touch the allocator.
const STEADY_BUDGET: u64 = 0;

/// Scratch leases of one steady 64-op merge epoch of a 1-shard store, on
/// `SeqCtx` and on a pool alike (the `merge_epoch_pool_stays_warm_*`
/// tests): the op lane and the walk's tree. The merge array, the
/// candidates lane and the rank lane are the shard's own
/// (`merge::Lanes`), kept across epochs, not leases; the op sort, the
/// merge and the answer sort lease no scratch on a host, whose merges
/// tile in place.
const MERGE_EPOCH_LEASES: u64 = 2;

/// Scratch leases of one steady 128-op epoch of a 4-shard store on
/// `SeqCtx` (`sharded_epoch_pool_stays_warm`), at `route_slack` 0 and 2
/// alike: the op lane; per shard its routing lane, that lane's
/// compaction ranks and their scan tree, and the merge walk's tree; and
/// the gather's compaction ranks and scan tree. The gather's windows are
/// the store's own lane, kept across epochs, not a lease. The overflow
/// count of slack 2 leases nothing, and no sort leases on a host.
const SHARDED_EPOCH_LEASES: u64 = 1 + 4 * 4 + 2;

struct Counting;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so the allocator can touch it at any point of a
    /// thread's life without allocating itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down may have lost its slot; it is never one
    // being measured.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s guarantees carry over; the counting beside it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Run `f` and count the heap allocations the calling thread makes in it.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

#[test]
fn oblivious_sort_allocation_budget() {
    use fj::SeqCtx;
    use obliv_core::{oblivious_sort_u64, OSortParams, ScratchPool};

    let c = SeqCtx::new();
    let scratch = ScratchPool::new();
    let n = 20_000usize;
    let keys: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 20)
        .collect();
    let p = OSortParams::practical(n);

    // Warm-up call: populates the pool (its fresh backing allocations are
    // expected and excluded from the steady-state budget).
    let mut v = keys.clone();
    let (_, cold) = allocs_during(|| oblivious_sort_u64(&c, &scratch, &mut v, p, 42));
    let fresh_after_warmup = scratch.fresh_allocs();

    // Steady-state call on the warm pool.
    let mut v2 = keys.clone();
    let (_, steady) = allocs_during(|| oblivious_sort_u64(&c, &scratch, &mut v2, p, 43));

    let mut expect = keys;
    expect.sort_unstable();
    assert_eq!(v2, expect, "sort must stay correct under the arena");
    println!("cold allocations:   {cold}");
    println!("steady allocations: {steady}");
    println!(
        "pool: {} leases, {} fresh backing allocs, {} resident bytes",
        scratch.leases(),
        scratch.fresh_allocs(),
        scratch.resident_bytes()
    );

    assert_eq!(
        steady, STEADY_BUDGET,
        "steady-state oblivious_sort_u64 performed {steady} heap allocations, \
         budget is {STEADY_BUDGET} (448 were measured without the arena)"
    );
    // The pool itself must be warm: the second call may not grow the
    // backing set at all.
    assert_eq!(
        scratch.fresh_allocs(),
        fresh_after_warmup,
        "the steady-state call should reuse pooled buffers, not allocate new backing"
    );
}

#[test]
fn tag_sort_allocation_budget() {
    use fj::SeqCtx;
    use obliv_core::{oblivious_sort_kv, Engine, ScratchPool};

    // 20 000 and 1091 are not powers of two: the bitonic engines lease a
    // merge scratch per piece of Lang's recursion, odd-even and Shellsort
    // a padded copy — all of it leases.
    let c = SeqCtx::new();
    for engine in [
        Engine::BitonicRec,
        Engine::BitonicFlat,
        Engine::OddEven,
        Engine::Shellsort { seed: 7 },
    ] {
        for n in [20_000usize, 1091] {
            let scratch = ScratchPool::new();
            let records: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 20, i))
                .collect();

            // Warm-up call: populates the pool's cell classes.
            let mut v = records.clone();
            let (_, cold) = allocs_during(|| oblivious_sort_kv(&c, &scratch, &mut v, engine));
            let fresh_after_warmup = scratch.fresh_allocs();

            // Steady state: the tag buffer and the network's merge scratch
            // are leases, so the whole sort must stay inside the sort
            // budget (in practice it performs zero heap allocations).
            let mut v2 = records.clone();
            let (_, steady) = allocs_during(|| oblivious_sort_kv(&c, &scratch, &mut v2, engine));

            let mut expect = records;
            expect.sort_by_key(|&(k, _)| k);
            assert_eq!(v2, expect, "{engine:?} n {n}: tag-sort must stay correct");
            println!("{engine:?} n {n}: tag-sort allocations cold {cold}, steady {steady}");

            assert_eq!(
                steady, STEADY_BUDGET,
                "{engine:?} n {n}: steady-state oblivious_sort_kv performed {steady} heap \
                 allocations, budget is {STEADY_BUDGET}"
            );
            assert_eq!(
                scratch.fresh_allocs(),
                fresh_after_warmup,
                "{engine:?} n {n}: warm tag-sort calls must lease every buffer, not allocate backing"
            );
        }
    }
}

#[test]
fn simd_sort_steady_state_is_alloc_free() {
    use fj::SeqCtx;
    use metrics::Tracked;
    use obliv_core::ScratchPool;
    use sortnet::{cells_sort_rec_with, Backend, TagCell};

    let c = SeqCtx::new();
    let scratch = ScratchPool::new();
    let n = 1usize << 14;
    let cells: Vec<TagCell> = (0..n as u64)
        .map(|i| {
            let k = i.wrapping_mul(0x9E3779B97F4A7C15) >> 20;
            TagCell::new(((k as u128) << 64) | i as u128, i as u128)
        })
        .collect();
    let sort = |backend: Backend| {
        let mut v = cells.clone();
        let (_, allocs) = allocs_during(|| {
            let mut lease = scratch.lease(n, TagCell::filler());
            let mut t = Tracked::new(&c, v.as_mut_slice());
            let mut tmp = Tracked::new(&c, &mut lease);
            cells_sort_rec_with(backend, &c, &mut t, &mut tmp, true);
        });
        assert!(v.windows(2).all(|w| w[0].tag <= w[1].tag));
        allocs
    };

    // Warm-up populates the pool's cell class (the clone above is outside
    // the measured section).
    sort(Backend::Avx2);
    let fresh_after_warmup = scratch.fresh_allocs();

    // Steady state: the SIMD slab path stages nothing on the heap — no
    // gather buffers, no mask tables — so the whole sort is *zero*
    // allocations, scalar and vector alike.
    let steady_simd = sort(Backend::Avx2);
    let steady_scalar = sort(Backend::Scalar);
    println!("steady simd allocations:   {steady_simd}");
    println!("steady scalar allocations: {steady_scalar}");
    assert_eq!(
        steady_simd, 0,
        "steady-state SIMD cell sort must perform zero heap allocations"
    );
    assert_eq!(
        steady_scalar, 0,
        "steady-state scalar cell sort must perform zero heap allocations"
    );
    assert_eq!(
        scratch.fresh_allocs(),
        fresh_after_warmup,
        "steady cell sorts grew the scratch pool"
    );
}

#[test]
fn merge_epoch_pool_stays_warm_on_tag_path() {
    use fj::SeqCtx;
    use obliv_core::ScratchPool;
    use store::{Op, ShrinkPolicy, Store, StoreConfig};

    let c = SeqCtx::new();
    let scratch = ScratchPool::new();
    // A shrink schedule pins the capacity, so steady epochs repeat the
    // same public shape (and hence the same lease classes).
    let cfg = StoreConfig {
        shrink: Some(ShrinkPolicy {
            every: 1,
            live_bound: 64,
            snapshot: 0,
        }),
        ..StoreConfig::default()
    };
    let mut store = Store::new(cfg);
    let epoch_ops = |salt: u64| -> Vec<Op> {
        (0..64u64)
            .map(|i| {
                let key = i.wrapping_mul(31).wrapping_add(salt) % 64;
                match i % 3 {
                    0 => Op::Put { key, val: i + salt },
                    1 => Op::Get { key },
                    _ => Op::Delete { key },
                }
            })
            .collect()
    };
    // Two warm-up epochs reach the steady capacity class and fill the pool.
    store.execute_epoch(&c, &scratch, &epoch_ops(1)).unwrap();
    store.execute_epoch(&c, &scratch, &epoch_ops(2)).unwrap();
    let fresh_after_warmup = scratch.fresh_allocs();

    // Steady epochs on the tag-sort merge path: zero pool growth — every
    // cell lane (op sort, merge array, result/candidate lanes, compaction
    // rank lane) is leased, never allocated per call.
    for round in 3..6u64 {
        let before = scratch.leases();
        store
            .execute_epoch(&c, &scratch, &epoch_ops(round))
            .unwrap();
        let leases = scratch.leases() - before;
        println!("steady merge epoch leases: {leases}");
        assert_eq!(
            leases, MERGE_EPOCH_LEASES,
            "a steady merge epoch took {leases} scratch leases"
        );
    }
    assert_eq!(
        scratch.fresh_allocs(),
        fresh_after_warmup,
        "steady merge epochs grew the scratch pool: a tag-sort lane is \
         being allocated per call instead of leased"
    );
}

#[test]
fn sharded_epoch_pool_stays_warm() {
    use fj::SeqCtx;
    use obliv_core::ScratchPool;
    use store::{Op, ShardConfig, ShardedStore, ShrinkPolicy};

    for route_slack in [0, 2] {
        let c = SeqCtx::new();
        let scratch = ScratchPool::new();
        // Four shards, each compacted back to the same live bound at every
        // merge: steady epochs repeat one public shape.
        let mut cfg = ShardConfig::with_shards(4);
        cfg.route_slack = route_slack;
        cfg.store.shrink = Some(ShrinkPolicy {
            every: 1,
            live_bound: 64,
            snapshot: 0,
        });
        let mut store = ShardedStore::new(cfg);
        // Keys spread over the shards, so slack 2 never falls back.
        let epoch_ops = |salt: u64| -> Vec<Op> {
            (0..128u64)
                .map(|i| {
                    let key = (i * 61 + salt) % 256;
                    match i % 3 {
                        0 => Op::Put { key, val: i + salt },
                        1 => Op::Get { key },
                        _ => Op::Delete { key },
                    }
                })
                .collect()
        };
        store.execute_epoch(&c, &scratch, &epoch_ops(1)).unwrap();
        store.execute_epoch(&c, &scratch, &epoch_ops(2)).unwrap();
        let fresh_after_warmup = scratch.fresh_allocs();

        // Steady epochs: the op sort, the count and every shard's lane are
        // leases, and so is everything each shard's merge and the gather
        // draw.
        for round in 3..6u64 {
            let before = scratch.leases();
            store
                .execute_epoch(&c, &scratch, &epoch_ops(round))
                .unwrap();
            let leases = scratch.leases() - before;
            println!("slack {route_slack}: steady sharded epoch leases: {leases}");
            assert_eq!(
                leases, SHARDED_EPOCH_LEASES,
                "slack {route_slack}: a steady sharded epoch took {leases} scratch leases"
            );
        }
        assert_eq!(store.routing_fallbacks(), 0, "slack {route_slack}");
        assert_eq!(
            scratch.fresh_allocs(),
            fresh_after_warmup,
            "slack {route_slack}: steady sharded epochs grew the scratch pool: \
             a routing lane is being allocated per call instead of leased"
        );
    }
}

#[test]
fn read_now_pool_stays_warm() {
    use fj::SeqCtx;
    use obliv_core::ScratchPool;
    use std::sync::Arc;
    use store::{Op, PipelinedStore, ShardConfig, ShardedStore};

    let c = SeqCtx::new();
    let scratch = Arc::new(ScratchPool::new());
    let store = ShardedStore::new(ShardConfig::with_shards(4));
    let mut p = PipelinedStore::with_scratch(store, Arc::clone(&scratch));
    let put = |i: u64| Op::Put {
        key: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        val: i,
    };
    let submit = |p: &mut PipelinedStore, range: std::ops::Range<u64>| {
        for i in range {
            p.submit(put(i));
        }
    };
    submit(&mut p, 0..200);
    let h = p.commit_async(&c);
    p.wait(&h).unwrap();
    // An epoch in flight and an open buffer: the consult's widest shape.
    submit(&mut p, 200..300);
    let _in_flight = p.commit_async(&c);
    submit(&mut p, 300..320);
    let keys: Vec<u64> = (0..40u64)
        .map(|i| (i * 9).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();

    // Warm-up consult: the log-and-query class, the per-shard probe
    // arrays and the query windows are leased here for the first time.
    let want = p.read_now(&c, &keys);
    let fresh_after_warmup = scratch.fresh_allocs();

    // Steady state: every lane of the consult — op sort, verdict scan,
    // per-shard merge arrays, windows, rank lanes — is a lease.
    for _ in 0..3 {
        assert_eq!(p.read_now(&c, &keys), want);
    }
    assert_eq!(
        scratch.fresh_allocs(),
        fresh_after_warmup,
        "steady read_now consults grew the scratch pool: a consult lane \
         is being allocated per call instead of leased"
    );
}

#[test]
fn merge_epoch_pool_stays_warm_under_pinned_pool() {
    use fj::Pool;
    use obliv_core::ScratchPool;
    use store::{Op, ShrinkPolicy, Store, StoreConfig};

    let pool = Pool::pinned(4);
    let scratch = ScratchPool::new();
    let cfg = StoreConfig {
        shrink: Some(ShrinkPolicy {
            every: 1,
            live_bound: 64,
            snapshot: 0,
        }),
        ..StoreConfig::default()
    };
    let mut store = Store::new(cfg);
    let epoch_ops = |salt: u64| -> Vec<Op> {
        (0..64u64)
            .map(|i| {
                let key = i.wrapping_mul(31).wrapping_add(salt) % 64;
                match i % 3 {
                    0 => Op::Put { key, val: i + salt },
                    1 => Op::Get { key },
                    _ => Op::Delete { key },
                }
            })
            .collect()
    };

    // Warm up until one whole epoch causes no pool growth: under a pinned
    // Pool(4) the per-worker lanes populate as workers first touch each
    // lease class, so the warm-up horizon is "until every lane is primed",
    // not a fixed epoch count.
    let mut fresh_after_warmup = u64::MAX;
    for round in 0..8u64 {
        let before = scratch.fresh_allocs();
        pool.run(|c| store.execute_epoch(c, &scratch, &epoch_ops(round)))
            .unwrap();
        fresh_after_warmup = scratch.fresh_allocs();
        if fresh_after_warmup == before && round > 0 {
            break;
        }
    }

    // Steady state under the pinned pool: zero pool growth. The recycle
    // path scans the leasing worker's own lane, then the shared pool, then
    // every other lane (exact spill accounting), so a fresh backing alloc
    // here would mean a buffer class is not being returned at all.
    for round in 8..11u64 {
        let before = scratch.leases();
        pool.run(|c| store.execute_epoch(c, &scratch, &epoch_ops(round)))
            .unwrap();
        let leases = scratch.leases() - before;
        assert_eq!(
            leases, MERGE_EPOCH_LEASES,
            "a steady merge epoch under a pinned Pool(4) took {leases} scratch leases"
        );
    }
    println!(
        "pinned({} of 4 workers pinned): {} leases, {} lane hits, {} spills, {} fresh",
        pool.pinned_workers(),
        scratch.leases(),
        scratch.lane_hits(),
        scratch.spill_leases(),
        scratch.fresh_allocs()
    );
    assert_eq!(
        scratch.fresh_allocs(),
        fresh_after_warmup,
        "steady merge epochs under a pinned Pool(4) grew the scratch pool: \
         per-core lanes must spill to the shared pool (and other lanes), \
         not allocate fresh backing"
    );
    // Spill accounting is exact: every lease is a lane hit, a spill, or a
    // fresh allocation (non-worker leases count in none of the first two,
    // but this whole workload runs on pool workers).
    assert!(
        scratch.lane_hits() + scratch.spill_leases() + scratch.fresh_allocs() <= scratch.leases(),
        "lane/spill/fresh accounting exceeded total leases"
    );
}

#[test]
fn oram_epoch_pool_stays_warm() {
    use fj::SeqCtx;
    use obliv_core::ScratchPool;
    use store::{EpochPath, Op, Store, StoreConfig};

    /// Heap allocations of a steady ORAM epoch: the padded batch, the
    /// answer words and the results handed back. What the store stages
    /// for it — the mirror's op cells and requests, every tree step's
    /// staging, the sorts' lanes — is reused or leased.
    const ORAM_EPOCH_ALLOCS: u64 = 3;

    let c = SeqCtx::new();
    let scratch = ScratchPool::new();
    // A small key space pins the merge capacity; a small pending limit
    // forces a merge every few epochs, whose mirror steps are 8 ops wide.
    let mut cfg = StoreConfig::with_oram(256);
    cfg.pending_limit = 96;
    let mut store = Store::new(cfg);
    // Classes 8 and 16 interleaved: the ORAM step sizes alternate.
    let epoch_ops = |round: u64| -> Vec<Op> {
        let n = if round.is_multiple_of(2) { 8 } else { 13 };
        (0..n)
            .map(|i| {
                let key = (i * 37 + round * 11) % 256;
                match i % 3 {
                    0 => Op::Put {
                        key,
                        val: i + round,
                    },
                    1 => Op::Get { key },
                    _ => Op::Delete { key },
                }
            })
            .collect()
    };
    for round in 0..40 {
        store
            .execute_epoch(&c, &scratch, &epoch_ops(round))
            .unwrap();
    }
    let fresh_after_warmup = scratch.fresh_allocs();

    let (mut oram, mut merge) = (0, 0);
    for round in 40..80 {
        let ops = epoch_ops(round);
        let path = store.epoch_path(ops.len());
        let (results, allocs) = allocs_during(|| store.execute_epoch(&c, &scratch, &ops).unwrap());
        assert_eq!(results.len(), ops.len());
        if path == EpochPath::Oram {
            oram += 1;
            assert_eq!(
                allocs,
                ORAM_EPOCH_ALLOCS,
                "round {round}: a steady {}-op ORAM epoch made {allocs} heap allocations",
                ops.len()
            );
        } else {
            merge += 1;
        }
    }
    assert!(oram > 20 && merge > 2, "{oram} ORAM epochs, {merge} merges");
    assert_eq!(
        scratch.fresh_allocs(),
        fresh_after_warmup,
        "steady ORAM epochs and merges grew the scratch pool"
    );
}
