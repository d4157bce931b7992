//! `dob-store` complexity sweep: one row per (path, size class),
//! measuring the model costs (work, span, cache) of whole epochs and of
//! the kernels they are built from. With `--json`, writes
//! `BENCH_store.json` for the CI perf-regression gate (`bench_diff`),
//! including the scratch-arena fresh-allocation delta of every measured
//! epoch.
//!
//! The merge and ORAM paths are reported at overlapping batch sizes so the
//! crossover the size-class dispatcher exploits (per-op merge cost falls
//! with batch size; per-op ORAM cost is flat) is visible in the table.
//!
//! Every row has one shape — set up outside the meter, run one closure
//! under it, record — written once in [`row`]; [`SCENARIOS`] lists the
//! families. Host time (ops/s, thread scaling, pipelined throughput,
//! recovery latency) is `benchmark/`'s job: see `benchmark/README.md`.

use dob_bench::{header, meter, sweep_from_args, BenchSink, Row};
use fj::SeqCtx;
use metrics::{CostReport, MeterCtx, ScratchPool, Tracked};
use obliv_core::scan::{scan_in, seg_combine_u64, Schedule, Seg};
use obliv_core::{compact_cells, composite_key, expand_by_loads, Engine, Item, Slot, TagCell};
use std::sync::Arc;
use store::vfs::FaultVfs;
use store::{
    shard_of, Durability, Op, PipelinedStore, RetryPolicy, ShardConfig, ShardedStore, ShrinkPolicy,
    Store, StoreConfig, StoreError,
};

/// Unwrap a durable-store result or exit with its typed diagnosis — a
/// bench run on a broken disk should fail loudly, not measure garbage.
fn or_die<T>(r: Result<T, StoreError>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("store_bench: {what}: {e}");
            std::process::exit(1);
        }
    }
}

/// A deterministic mixed workload: ~half gets, ~3/8 puts, the rest
/// deletes, with one aggregate, over a `key_space`-bounded key set.
fn mixed_ops(n: usize, key_space: u64, salt: u64) -> Vec<Op> {
    (0..n as u64)
        .map(|i| {
            let key = i.wrapping_mul(0x9E3779B9).wrapping_add(salt) % key_space;
            match i % 8 {
                0..=3 => Op::Get { key },
                4..=6 => Op::Put { key, val: i * 10 },
                7 if i % 16 == 7 => Op::Delete { key },
                _ => Op::Aggregate,
            }
        })
        .collect()
}

fn puts(n: usize, key_space: u64) -> Vec<Op> {
    (0..n as u64)
        .map(|i| Op::Put {
            key: i.wrapping_mul(31) % key_space,
            val: i,
        })
        .collect()
}

/// Resident-table size of the sharded scenario (the "large size class"):
/// sized so the monolithic merge's working set (~2·cap slots) falls well
/// outside a commodity L2 while each of 4 shards' stays inside it.
const SHARD_TABLE: usize = 32768;
/// Steady-epoch batch size of the sharded scenario.
const SHARD_BATCH: usize = 1024;

/// Resident-table size of the pipelined scenario (shrink-pinned).
const PIPE_TABLE: usize = 8192;
/// Client batch size of the pipelined scenario.
const PIPE_BATCH: usize = 256;
/// Open-buffer cap: up to 4 client batches coalesce into one merge while
/// the engine is busy. `size_class(PIPE_TABLE + PIPE_OPEN_LIMIT)` equals
/// `size_class(PIPE_TABLE + PIPE_BATCH)`, so a coalesced merge touches
/// the *same* array size as a per-batch merge — the win is merge count.
const PIPE_OPEN_LIMIT: usize = 4 * PIPE_BATCH;

/// A `PIPE_TABLE`-key store with capacity pinned by a shrink policy,
/// bulk-loaded through unmetered epochs.
fn pipe_store(scratch: &ScratchPool) -> Store {
    let cfg = StoreConfig {
        shrink: Some(ShrinkPolicy {
            every: 1,
            live_bound: PIPE_TABLE,
            snapshot: 0,
        }),
        ..StoreConfig::default()
    };
    let mut st = Store::new(cfg);
    let c = SeqCtx::new();
    for chunk in (0..PIPE_TABLE as u64).collect::<Vec<_>>().chunks(4096) {
        let puts: Vec<Op> = chunk.iter().map(|&k| Op::Put { key: k, val: k }).collect();
        st.execute_epoch(&c, scratch, &puts).unwrap();
    }
    assert_eq!(st.capacity(), PIPE_TABLE, "shrink policy pins capacity");
    st
}

/// The wide payload shape the merge path's comparator layers carried
/// before the tag-sort fast path (`Slot<[u64; 6]>` mirrors the retired
/// `Slot<MergeVal>`: ~96 bytes then, 80 now that a slot is `sk` + item) —
/// the record-sort side of the headline.
type WideVal = [u64; 6];

/// Headline, tag side: sort `m` packed 32-byte cells.
fn headline_tag_sort<C: fj::Ctx>(c: &C, scratch: &ScratchPool, m: usize) {
    let mut cells = scratch.lease(m, TagCell::filler());
    for (i, cell) in cells.iter_mut().enumerate() {
        let k = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 16;
        *cell = TagCell::new(composite_key(k, i as u64), i as u128);
    }
    let mut t = Tracked::new(c, &mut cells);
    Engine::BitonicRec.sort_cells(c, scratch, &mut t);
}

/// Headline, record side: the same keys through the same network wrapped
/// in merge-record-sized slots.
fn headline_record_sort<C: fj::Ctx>(c: &C, scratch: &ScratchPool, m: usize) {
    let mut slots = scratch.lease(m, Slot::<WideVal>::filler());
    for (i, slot) in slots.iter_mut().enumerate() {
        let k = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 16;
        *slot = Slot::keyed(Item::new(composite_key(k, i as u64), [i as u64; 6]));
    }
    let mut t = Tracked::new(c, &mut slots);
    Engine::BitonicRec.sort_slots(c, scratch, &mut t);
}

/// Core kernel row: stable compaction of an `m`-cell lane, one cell in
/// three real.
fn core_compact<C: fj::Ctx>(c: &C, scratch: &ScratchPool, m: usize) {
    let mut cells = scratch.lease(m, TagCell::filler());
    for (i, cell) in cells.iter_mut().enumerate().step_by(3) {
        *cell = TagCell::new(i as u128, i as u128);
    }
    compact_cells(c, scratch, &mut Tracked::new(c, &mut cells));
}

/// Core kernel row: bin placement's distribution step alone — a packed run
/// of `m/2` bare-key (16-byte) cells spread into bins of 512 at ORP's
/// loads: half full, give or take a quarter.
fn core_expand<C: fj::Ctx>(c: &C, scratch: &ScratchPool, m: usize) {
    let z = 512;
    let mut loads = scratch.lease(m / z, 0u64);
    for (g, load) in loads.iter_mut().enumerate() {
        *load = (z / 2 + (g % 2) * z / 4 - (g / 2 % 2) * z / 4) as u64;
    }
    let total: u64 = loads.iter().sum();
    let mut cells = scratch.lease(m, u128::MAX);
    for (j, cell) in cells.iter_mut().take(total as usize).enumerate() {
        *cell = j as u128;
    }
    let mut loads = Tracked::new(c, &mut loads);
    expand_by_loads(c, scratch, &mut Tracked::new(c, &mut cells), &mut loads, z);
}

/// Core kernel row: the merge epoch's scan shape — a segmented exclusive
/// forward scan of 16-byte elements under a last-writer-wins monoid.
fn core_lww_scan<C: fj::Ctx>(c: &C, scratch: &ScratchPool, n: usize) {
    let mut segs = scratch.lease(n, Seg::new(false, 0u64));
    for (i, seg) in segs.iter_mut().enumerate() {
        *seg = Seg::new(i % 5 == 0, i as u64);
    }
    scan_in(
        c,
        scratch,
        &mut Tracked::new(c, &mut segs),
        Seg::new(false, 0),
        &seg_combine_u64(|_, later| later),
        false,
        false,
        Schedule::Tree,
    );
}

/// Graphs headline, tag side: the CC min-hook proposal sort — per-edge
/// `(target, value)` proposals ride as packed 32-byte cells with the
/// composite pair in the tag, exactly as `min_per_target` packs them
/// since the cell migration.
fn graphs_cc_tag_sort<C: fj::Ctx>(c: &C, scratch: &ScratchPool, props: &[(u64, u64)]) {
    let mut cells = scratch.lease(props.len(), TagCell::filler());
    for (cell, &(t, v)) in cells.iter_mut().zip(props.iter()) {
        *cell = TagCell::new(composite_key(t, v), 0);
    }
    let mut tr = Tracked::new(c, &mut cells);
    Engine::BitonicRec.sort_cells(c, scratch, &mut tr);
}

/// Graphs headline, slot side: the same proposals Slot-wrapped through the
/// same BitonicRec schedule — how `min_per_target` carried them before the
/// migration.
fn graphs_cc_slot_sort<C: fj::Ctx>(c: &C, scratch: &ScratchPool, props: &[(u64, u64)]) {
    let mut slots = scratch.lease(props.len(), Slot::<(u64, u64)>::filler());
    for (slot, &(t, v)) in slots.iter_mut().zip(props.iter()) {
        *slot = Slot::keyed(Item::new(composite_key(t, v), (t, v)));
    }
    let mut tr = Tracked::new(c, &mut slots);
    Engine::BitonicRec.sort_slots(c, scratch, &mut tr);
}

/// A key universe of `total` keys loading every one of `shards` shards
/// with exactly `total / shards` keys, so the per-shard declared live
/// bound can be tight (`shard_of` is a public hash; the filter below just
/// removes its sampling noise from the benchmark).
fn balanced_keys(total: usize, shards: usize) -> Vec<u64> {
    let per = total / shards;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); shards];
    let mut k = 0u64;
    while buckets.iter().any(|b| b.len() < per) {
        let s = shard_of(k, shards);
        if buckets[s].len() < per {
            buckets[s].push(k);
        }
        k += 1;
    }
    buckets.concat()
}

/// The steady mixed workload of the sharded scenario, drawn from the
/// resident key set so the live bound stays pinned.
fn sharded_mixed(keys: &[u64], n: usize, salt: u64) -> Vec<Op> {
    (0..n as u64)
        .map(|i| {
            let key = keys[(i.wrapping_mul(0x9E37_79B9).wrapping_add(salt) as usize) % keys.len()];
            match i % 8 {
                0..=3 => Op::Get { key },
                4..=6 => Op::Put { key, val: i * 10 },
                _ => Op::Aggregate,
            }
        })
        .collect()
}

/// The one row shape of this file: `f` runs once under the metering
/// executor, and the row records its counters with the number of buffers
/// `arena` had to allocate fresh meanwhile. `None` records 0: the gate
/// does not watch the allocator on that row (kernel and recovery rows,
/// whose first lease of a bench-only buffer class says nothing about an
/// epoch). Returns what it recorded.
fn row(
    sink: &mut BenchSink,
    algo: &'static str,
    n: usize,
    arena: Option<&ScratchPool>,
    f: impl FnOnce(&MeterCtx),
) -> (CostReport, u64) {
    let fresh = || arena.map_or(0, ScratchPool::fresh_allocs);
    let before = fresh();
    let rep = meter(f);
    let allocs = fresh() - before;
    sink.record_alloc(
        Row {
            task: "store",
            algo,
            n,
            rep,
        },
        allocs,
    );
    (rep, allocs)
}

fn section(title: &str) {
    println!("\n== {title} ==\n");
    header();
}

/// The merge path (arbitrary u64 keys, every epoch merges) and the ORAM
/// path (bounded key space, sub-threshold batches) at overlapping sizes.
fn size_classes(sink: &mut BenchSink, scratch: &ScratchPool) {
    section("dob-store: oblivious batched KV epochs, per size class");
    for n in sweep_from_args(&[64, 256, 1024]) {
        let key_space = (2 * n) as u64;
        let mut store = Store::new(StoreConfig::default());
        let load = puts(n, key_space);
        row(sink, "merge: bulk load", n, Some(scratch), |c| {
            store.execute_epoch(c, scratch, &load).unwrap();
        });
        let steady = mixed_ops(n, key_space, 7);
        row(sink, "merge: steady mixed", n, Some(scratch), |c| {
            store.execute_epoch(c, scratch, &steady).unwrap();
        });
    }

    let key_space = 2048usize;
    let mut cfg = StoreConfig::with_oram(key_space);
    cfg.oram_threshold = 128;
    cfg.pending_limit = 1 << 20; // keep the sweep on the ORAM path
    let mut store = Store::new(cfg);
    // Populate through one merge epoch.
    store
        .execute_epoch(&SeqCtx::new(), scratch, &puts(512, key_space as u64))
        .unwrap();
    for n in [8usize, 16, 64] {
        let steady = mixed_ops(n, key_space as u64, 13);
        row(sink, "oram: steady mixed", n, Some(scratch), |c| {
            store.execute_epoch(c, scratch, &steady).unwrap();
        });
    }
    println!(
        "\ncrossover: compare per-op work of 'merge: steady mixed' vs \
         'oram: steady mixed' at n=64 — the size-class dispatcher picks \
         the cheaper side of this line."
    );
}

/// A pinned resident table of SHARD_TABLE keys (the shrink policy compacts
/// every merge, so capacity is stable in steady state) served with
/// SHARD_BATCH-op mixed epochs, at 1 shard vs 4 shards. The 4-shard run
/// pays the oblivious routing on O(batch)-sized arrays (the epoch's one
/// op sort, the slack count, each shard's mask-and-compact lane and the
/// gather) and wins it back on the commits: each shard merges a 4x
/// smaller table slice — L2-resident working sets.
fn sharded(sink: &mut BenchSink, scratch: &ScratchPool) {
    section(&format!(
        "sharded epochs: {SHARD_TABLE}-key table, {SHARD_BATCH}-op steady epochs"
    ));
    let keys = balanced_keys(SHARD_TABLE, 4);
    let configs = [
        (1usize, "sharded s=1: steady mixed"),
        (4usize, "sharded s=4: steady mixed"),
    ];
    let mut stores: Vec<ShardedStore> = configs
        .iter()
        .map(|&(shards, _)| {
            let mut cfg = ShardConfig::with_shards(shards);
            cfg.route_slack = 2;
            cfg.store.shrink = Some(ShrinkPolicy {
                every: 1,
                live_bound: SHARD_TABLE / shards,
                snapshot: 0,
            });
            let mut st = ShardedStore::new(cfg);
            let c = SeqCtx::new();
            for chunk in keys.chunks(4096) {
                let puts: Vec<Op> = chunk.iter().map(|&k| Op::Put { key: k, val: k }).collect();
                st.execute_epoch(&c, scratch, &puts).unwrap();
            }
            assert_eq!(st.capacity(), SHARD_TABLE, "shrink policy pins capacity");
            st
        })
        .collect();
    let steady = sharded_mixed(&keys, SHARD_BATCH, 7);
    for (st, &(_, algo)) in stores.iter_mut().zip(configs.iter()) {
        row(sink, algo, SHARD_BATCH, Some(scratch), |c| {
            st.execute_epoch(c, scratch, &steady).unwrap();
        });
    }
}

/// A shrink-pinned PIPE_TABLE-key store and PIPE_BATCH-op client batches.
/// The synchronous driver merges once per batch; the pipelined driver
/// submits into the open buffer, so batches coalesce (group commit) while
/// a merge is in flight — fewer merges over the *same* padded array size
/// (see PIPE_OPEN_LIMIT). The rows price one merge of each kind and the
/// read-your-writes consult; how many merges a stream needs, and what
/// that buys on a host, is `kv-sharded-pipelined` and
/// `store.pipeline.merges_per_batch` in `benchmark/`.
fn pipelined(sink: &mut BenchSink, scratch: &ScratchPool) {
    section(&format!(
        "pipelined epochs: {PIPE_TABLE}-key table, {PIPE_BATCH}-op batches, \
         open limit {PIPE_OPEN_LIMIT}"
    ));
    let pipe_scratch = Arc::new(ScratchPool::new());

    let mut sync_store = pipe_store(scratch);
    let steady = mixed_ops(PIPE_BATCH, PIPE_TABLE as u64, 7);
    row(
        sink,
        "sync: per-batch commit",
        PIPE_BATCH,
        Some(scratch),
        |c| {
            sync_store.execute_epoch(c, scratch, &steady).unwrap();
        },
    );

    let mut coalesced =
        PipelinedStore::with_scratch(pipe_store(&pipe_scratch), Arc::clone(&pipe_scratch));
    for op in mixed_ops(PIPE_OPEN_LIMIT, PIPE_TABLE as u64, 7) {
        coalesced.submit(op);
    }
    row(
        sink,
        "pipelined: coalesced commit",
        PIPE_OPEN_LIMIT,
        Some(&pipe_scratch),
        |c| {
            let h = coalesced.commit_async(c);
            let _ = coalesced.wait(&h).unwrap();
        },
    );

    // The consult, with a full batch in flight and a partial batch open.
    let mut consult =
        PipelinedStore::with_scratch(pipe_store(&pipe_scratch), Arc::clone(&pipe_scratch));
    for op in mixed_ops(PIPE_BATCH, PIPE_TABLE as u64, 19) {
        consult.submit(op);
    }
    let _ = consult.commit_async(&SeqCtx::new());
    for op in mixed_ops(64, PIPE_TABLE as u64, 23) {
        consult.submit(op);
    }
    let probe: Vec<u64> = (0..64u64).map(|i| (i * 127) % PIPE_TABLE as u64).collect();
    // One consult outside the rows: it compacts at the log's class and
    // sorts at the query's, buffer classes no commit above has leased, and
    // that one-time cost would land on whichever of the two consult rows
    // runs first. Both measure steady state; the cold start is printed.
    let cold = pipe_scratch.fresh_allocs();
    meter(|c| {
        let _ = consult.read_now(c, &probe);
    });
    let cold = pipe_scratch.fresh_allocs() - cold;
    row(
        sink,
        "pipelined: read_now consult",
        probe.len(),
        Some(&pipe_scratch),
        |c| {
            let _ = consult.read_now(c, &probe);
        },
    );

    // The same consult over 4 shards: one probe per shard table instead
    // of one over the whole key space. Ops and probes come from the
    // resident keys, so the per-shard live bound stays pinned.
    let keys = balanced_keys(PIPE_TABLE, 4);
    let mut cfg = ShardConfig::with_shards(4);
    cfg.store.shrink = Some(ShrinkPolicy {
        every: 1,
        live_bound: PIPE_TABLE / 4,
        snapshot: 0,
    });
    let mut st = ShardedStore::new(cfg);
    for chunk in keys.chunks(4096) {
        let puts: Vec<Op> = chunk.iter().map(|&k| Op::Put { key: k, val: k }).collect();
        st.execute_epoch(&SeqCtx::new(), &pipe_scratch, &puts)
            .unwrap();
    }
    assert_eq!(st.capacity(), PIPE_TABLE, "shrink policy pins capacity");
    let mut consult4 = PipelinedStore::with_scratch(st, Arc::clone(&pipe_scratch));
    for op in sharded_mixed(&keys, PIPE_BATCH, 19) {
        consult4.submit(op);
    }
    let _ = consult4.commit_async(&SeqCtx::new());
    for op in sharded_mixed(&keys, 64, 23) {
        consult4.submit(op);
    }
    let probe: Vec<u64> = (0..64).map(|i| keys[(i * 127) % PIPE_TABLE]).collect();
    row(
        sink,
        "pipelined: read_now consult (4 shards)",
        probe.len(),
        Some(&pipe_scratch),
        |c| {
            let _ = consult4.read_now(c, &probe);
        },
    );
    println!(
        "consult headline: {cold} fresh leases on the first call into this arena, \
         none on the calls measured above"
    );

    // The steady epoch again under another op mix. Model counters are
    // executor-independent by construction (the trace-equality suite
    // asserts it), so this one metered row stands for every pool size and
    // pin layout; what threads do to host time is `kv-merge-pool` against
    // `kv-merge-seq` and `fj.sort_speedup.64k` in `benchmark/`.
    let mut scale_store = pipe_store(scratch);
    let steady = mixed_ops(PIPE_BATCH, PIPE_TABLE as u64, 29);
    row(
        sink,
        "scaling: steady mixed",
        PIPE_BATCH,
        Some(scratch),
        |c| {
            scale_store.execute_epoch(c, scratch, &steady).unwrap();
        },
    );
}

/// One comparator network, once over packed 32-byte tag cells and once
/// over the Slot records the same site carried before its migration: the
/// CC min-hook proposal sort at a graph-scale working set, and a network
/// of the merge path's working-set size. Same schedule, same comparator
/// count — the difference is pure data movement, and the cache-miss ratio
/// is the tracked payoff (host ratio: `core.sort_kv_ns_per_elem.64k`).
fn cells_vs_records(sink: &mut BenchSink, scratch: &ScratchPool) {
    section("tag cells vs record slots");
    let gm = 8192usize;
    let props: Vec<(u64, u64)> = (0..gm as u64)
        .map(|i| (i.wrapping_mul(0x9E3779B9) % 1024, i))
        .collect();
    let m = 2 * SHARD_TABLE;
    let headline = |what: &str, tag: CostReport, rec: CostReport| {
        println!(
            "{what}: record / tag = {:.2}x cache misses (identical {} comparators)",
            rec.cache_misses as f64 / tag.cache_misses.max(1) as f64,
            tag.comparisons,
        );
    };
    let (tag, _) = row(sink, "graphs cc: tag cells", gm, None, |c| {
        graphs_cc_tag_sort(c, scratch, &props)
    });
    let (rec, _) = row(sink, "graphs cc: record slots", gm, None, |c| {
        graphs_cc_slot_sort(c, scratch, &props)
    });
    headline("graphs tag-cell headline (CC min-hook sort)", tag, rec);
    let (tag, _) = row(sink, "sort: tag cells", m, None, |c| {
        headline_tag_sort(c, scratch, m)
    });
    let (rec, _) = row(sink, "sort: record slots", m, None, |c| {
        headline_record_sort(c, scratch, m)
    });
    headline("tag-sort vs record-sort headline", tag, rec);
}

/// The two `obliv_core` kernels a merge epoch spends its `core` share in,
/// and compaction's mirror — bin placement's expansion — alone, at a
/// cache-resident and a past-cache size, so the gate holds each one's W
/// and Q(M,B) to its bound (DESIGN.md §10, §4 row 6): `(m/2) log m` swaps
/// and `Q = O((m/B) log(m/M))` for either recursion, `O(n/B)` for the
/// scan.
fn core_kernels(sink: &mut BenchSink, scratch: &ScratchPool) {
    section("core kernels: cell compaction, expansion and the LWW scan");
    for n in [4096usize, 65536] {
        row(sink, "core: compact cells", n, None, |c| {
            core_compact(c, scratch, n)
        });
        row(sink, "core: expand", n, None, |c| {
            core_expand(c, scratch, n)
        });
        row(sink, "core: lww scan", n, None, |c| {
            core_lww_scan(c, scratch, n)
        });
    }
}

/// A shrink-pinned table checkpointed to disk, then four more merge
/// epochs left in the WAL — exactly the crash image `Store::recover` is
/// built for. The metered run is recovery itself: read the snapshot,
/// rebuild the table, and replay the logged epochs through the normal
/// merge path, so the gated counters are the same public function of the
/// logged batch classes as a fresh run (the trace-equality suite asserts
/// this). Host cost: `recover_s` and `store.vfs.snapshot_ms_p50`.
fn recovery(sink: &mut BenchSink, scratch: &ScratchPool) {
    section("durable recovery: snapshot + 4x256-op WAL replay");
    for size in [4096usize, 8192, 16384] {
        let dir =
            std::env::temp_dir().join(format!("dob_bench_recovery_{}_{size}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seq = SeqCtx::new();
        let cfg = StoreConfig {
            durability: Durability::epoch(),
            shrink: Some(ShrinkPolicy {
                every: 1,
                live_bound: size,
                snapshot: 0,
            }),
            ..StoreConfig::default()
        };
        let mut st = or_die(
            Store::recover(&seq, scratch, &dir, cfg),
            "open durable store",
        );
        for chunk in (0..size as u64).collect::<Vec<_>>().chunks(4096) {
            let ops: Vec<Op> = chunk.iter().map(|&k| Op::Put { key: k, val: k }).collect();
            or_die(st.execute_epoch(&seq, scratch, &ops), "durable load epoch");
        }
        or_die(st.checkpoint(), "checkpoint");
        for r in 0..4u64 {
            let ops = mixed_ops(256, size as u64, 41 + r);
            or_die(
                st.execute_epoch(&seq, scratch, &ops),
                "durable steady epoch",
            );
        }
        drop(st);
        row(sink, "recovery: snapshot + replay", size, None, |c| {
            let _ = or_die(Store::recover(c, scratch, &dir, cfg), "recover store");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The same durable steady epoch (WAL append + fsync per commit, on an
/// in-memory fault-free `FaultVfs` so the counters are host-independent)
/// under `RetryPolicy::none()` vs the default 4-attempt policy. Retry
/// decisions read only the I/O outcome, so on a healthy disk the policies
/// must be byte-identical: the gated rows pin both counter sets and the
/// alloc assertion proves the retry plumbing allocates nothing.
fn retry_machinery(sink: &mut BenchSink, scratch: &ScratchPool) {
    section("durable commits: retry machinery on the no-fault path");
    let retry_cfgs = [
        (RetryPolicy::none(), "durable: commit retry=1"),
        (RetryPolicy::default(), "durable: commit retry=4"),
    ];
    let allocs = retry_cfgs.map(|(retry, algo)| {
        let vfs = Arc::new(FaultVfs::unfaulted());
        let seq = SeqCtx::new();
        let cfg = StoreConfig {
            durability: Durability::epoch(),
            retry,
            ..StoreConfig::default()
        };
        let dir = std::path::Path::new("/bench/retry");
        let mut st = or_die(
            Store::recover_with(&seq, scratch, dir, cfg, vfs),
            "open durable store (fault vfs)",
        );
        or_die(
            st.execute_epoch(&seq, scratch, &puts(512, 1024)),
            "durable warm epoch",
        );
        let steady = mixed_ops(256, 1024, 43);
        // One steady-shape epoch outside the meter: a mixed epoch leases
        // scratch classes the put-only warm epoch never touches, and that
        // one-time cost would land on whichever config runs first. Both
        // configs must measure steady state.
        or_die(
            st.execute_epoch(&seq, scratch, &mixed_ops(256, 1024, 41)),
            "durable steady-shape warm epoch",
        );
        let (_, allocs) = row(sink, algo, 256, Some(scratch), |c| {
            or_die(
                st.execute_epoch(c, scratch, &steady),
                "durable steady epoch",
            );
        });
        allocs
    });
    assert_eq!(
        allocs[0], allocs[1],
        "retry machinery must be alloc-free on the no-fault durable path"
    );
    println!(
        "retry headline (no-fault durable commit, n=256): {} fresh allocs under either \
         policy — the policy itself allocates nothing",
        allocs[0],
    );
}

/// Every family of rows, in the order `BENCH_store.json` lists them. The
/// order is part of the allocation counts: the families share one arena,
/// and a buffer class is fresh only the first time any row leases it.
const SCENARIOS: [fn(&mut BenchSink, &ScratchPool); 7] = [
    size_classes,
    sharded,
    pipelined,
    cells_vs_records,
    core_kernels,
    recovery,
    retry_machinery,
];

fn main() {
    let scratch = ScratchPool::new();
    let mut sink = BenchSink::from_args("store");
    for scenario in SCENARIOS {
        scenario(&mut sink, &scratch);
    }
    sink.finish().expect("failed to write BENCH_store.json");
}
