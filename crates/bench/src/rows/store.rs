//! The `dob-store` sweep's rows and their report. The merge and ORAM paths
//! are reported at overlapping batch sizes so their per-op costs compare
//! in the table (per-op merge cost falls with batch size; per-op ORAM cost
//! is flat). Host time (ops/s, thread scaling, pipelined throughput,
//! recovery latency) is `benchmark/`'s job.

use super::{largest, or_die, slot_sort, Arenas, ModelRow, Row, Run, Table};
use crate::meter;
use fj::SeqCtx;
use metrics::{MeterCtx, ScratchPool, Tracked};
use obliv_core::scan::{scan_in, seg_combine_u64, Schedule, Seg};
use obliv_core::{compact_cells, composite_key, expand_by_loads, Engine, TagCell};
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::sync::Arc;
use store::vfs::FaultVfs;
use store::{
    shard_of, Durability, EpochPath, Op, PipelinedStore, RetryPolicy, ShardConfig, ShardedStore,
    ShrinkPolicy, Store, StoreConfig,
};

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

/// Puts of every key to itself, in epochs of 4096.
fn load_epochs(keys: &[u64]) -> impl Iterator<Item = Vec<Op>> + '_ {
    keys.chunks(4096)
        .map(|chunk| chunk.iter().map(|&k| Op::Put { key: k, val: k }).collect())
}

/// A sharded store holding `keys`, each shard's capacity pinned by a
/// shrink policy, bulk-loaded through unmetered epochs.
fn pinned_shards(mut cfg: ShardConfig, keys: &[u64], scratch: &ScratchPool) -> ShardedStore {
    cfg.store.shrink = Some(ShrinkPolicy {
        every: 1,
        live_bound: keys.len() / cfg.shards,
        snapshot: 0,
    });
    let mut st = ShardedStore::new(cfg);
    for puts in load_epochs(keys) {
        st.execute_epoch(&SeqCtx::new(), scratch, &puts).unwrap();
    }
    assert_eq!(st.capacity(), keys.len(), "shrink policy pins capacity");
    st
}

/// A one-shard store pinned at keys `0..PIPE_TABLE`.
fn pipe_store(scratch: &ScratchPool) -> Store {
    let keys: Vec<u64> = (0..PIPE_TABLE as u64).collect();
    pinned_shards(StoreConfig::default().into(), &keys, scratch)
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

/// The tag side of a cells-versus-slots row: `n` packed 32-byte cells,
/// `(key, aux) = cell(i)` at `i` under the composite tag `key ‖ i`, sorted
/// through the BitonicRec schedule.
fn cell_sort(c: &MeterCtx, scratch: &ScratchPool, n: usize, cell: impl Fn(u64) -> (u64, u128)) {
    let mut cells = scratch.lease(n, TagCell::filler());
    for (i, slot) in (0..).zip(cells.iter_mut()) {
        let (key, aux) = cell(i);
        *slot = TagCell::new(composite_key(key, i), aux);
    }
    Engine::BitonicRec.sort_cells(c, scratch, &mut Tracked::new(c, &mut cells));
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

/// A store row whose whole run is metered.
fn row<'a>(algo: &'static str, n: usize, run: impl FnOnce(&MeterCtx) + 'a) -> ModelRow<'a> {
    Table::Store.row("store", algo, n, run)
}

/// A store row with unmetered setup, recording `arena`'s fresh allocations.
fn staged<'a>(
    algo: &'static str,
    n: usize,
    arena: &'a ScratchPool,
    setup: impl FnOnce() -> Run<'a> + 'a,
) -> ModelRow<'a> {
    Table::Store.staged("store", algo, n, setup).watch(arena)
}

/// State that several rows share, built by the setup of the first of them.
type Shared<T> = Rc<RefCell<Option<T>>>;

pub(super) fn rows(arenas: &Arenas) -> Vec<ModelRow<'_>> {
    let (scratch, pipe) = (&arenas.scratch, &*arenas.pipe);
    let mut rows = Vec::new();

    // Size classes: the merge path (arbitrary u64 keys, every epoch merges)
    // and the ORAM path (bounded key space, pending log within its limit).
    for n in [64, 256, 1024] {
        let key_space = (2 * n) as u64;
        let st = Rc::new(RefCell::new(Store::new(StoreConfig::default())));
        for (algo, ops) in [
            ("merge: bulk load", puts(n, key_space)),
            ("merge: steady mixed", mixed_ops(n, key_space, 7)),
        ] {
            let st = Rc::clone(&st);
            let epoch = row(algo, n, move |c| {
                st.borrow_mut().execute_epoch(c, scratch, &ops).unwrap();
            });
            rows.push(epoch.watch(scratch));
        }
    }
    // A 2048-key ORAM store, populated through one merge epoch: the
    // 512-put load passes the pending limit, and the sweep's 344 ops stay
    // within it, so every metered epoch takes the ORAM path.
    let oram: Shared<Store> = Rc::default();
    for n in [8, 16, 64, 256] {
        let oram = Rc::clone(&oram);
        rows.push(staged("oram: steady mixed", n, scratch, move || {
            oram.borrow_mut().get_or_insert_with(|| {
                let mut cfg = StoreConfig::with_oram(2048);
                cfg.pending_limit = 511;
                let mut st = Store::new(cfg);
                let load = st.execute_epoch(&SeqCtx::new(), scratch, &puts(512, 2048));
                load.unwrap();
                st
            });
            Box::new(move |c: &MeterCtx| {
                let ops = mixed_ops(n, 2048, 13);
                let mut st = oram.borrow_mut();
                let st = st.as_mut().unwrap();
                assert_eq!(st.epoch_path(n), EpochPath::Oram);
                st.execute_epoch(c, scratch, &ops).unwrap();
            })
        }));
    }

    // Sharded: a pinned resident table of SHARD_TABLE keys (the shrink
    // policy compacts every merge, so capacity is stable in steady state)
    // served with SHARD_BATCH-op mixed epochs, at 1 shard vs 4 shards. The
    // 4-shard run pays the oblivious routing on O(batch)-sized arrays (the
    // epoch's one op sort, the slack count, each shard's mask-and-compact
    // lane and the gather) and wins it back on the commits: each shard
    // merges a 4x smaller table slice — L2-resident working sets. Both
    // stores are loaded before either row runs.
    let sharded: Shared<(Vec<u64>, [ShardedStore; 2])> = Rc::default();
    let algos = ["sharded s=1: steady mixed", "sharded s=4: steady mixed"];
    for (i, algo) in algos.into_iter().enumerate() {
        let state = Rc::clone(&sharded);
        rows.push(staged(algo, SHARD_BATCH, scratch, move || {
            state.borrow_mut().get_or_insert_with(|| {
                let keys = balanced_keys(SHARD_TABLE, 4);
                let store = |shards| {
                    let mut cfg = ShardConfig::with_shards(shards);
                    cfg.route_slack = 2;
                    pinned_shards(cfg, &keys, scratch)
                };
                let stores = [store(1), store(4)];
                (keys, stores)
            });
            Box::new(move |c: &MeterCtx| {
                let mut state = state.borrow_mut();
                let (keys, stores) = state.as_mut().unwrap();
                let steady = sharded_mixed(keys, SHARD_BATCH, 7);
                stores[i].execute_epoch(c, scratch, &steady).unwrap();
            })
        }));
    }

    // Pipelined: a shrink-pinned PIPE_TABLE-key store and PIPE_BATCH-op
    // client batches. The synchronous driver merges once per batch; the
    // pipelined driver submits into the open buffer, so batches coalesce
    // (group commit) while a merge is in flight — fewer merges over the
    // *same* padded array size (see PIPE_OPEN_LIMIT). The rows price one
    // merge of each kind and the read-your-writes consult; how many merges
    // a stream needs, and what that buys on a host, is
    // `kv-sharded-pipelined` and `store.pipeline.merges_per_batch` in
    // `benchmark/`.
    rows.push(staged(
        "sync: per-batch commit",
        PIPE_BATCH,
        scratch,
        move || {
            let mut st = pipe_store(scratch);
            Box::new(move |c: &MeterCtx| {
                let steady = mixed_ops(PIPE_BATCH, PIPE_TABLE as u64, 7);
                st.execute_epoch(c, scratch, &steady).unwrap();
            })
        },
    ));

    rows.push(staged(
        "pipelined: coalesced commit",
        PIPE_OPEN_LIMIT,
        pipe,
        || {
            let mut p = PipelinedStore::with_scratch(pipe_store(pipe), Arc::clone(&arenas.pipe));
            for op in mixed_ops(PIPE_OPEN_LIMIT, PIPE_TABLE as u64, 7) {
                p.submit(op);
            }
            Box::new(move |c: &MeterCtx| {
                let h = p.commit_async(c);
                let _ = p.wait(&h).unwrap();
            })
        },
    ));

    // The consult, with a full batch in flight and a partial batch open.
    // One consult runs before the row: it compacts at the log's class and
    // sorts at the query's, buffer classes no commit above has leased, and
    // that one-time cost would land on whichever of the two consult rows
    // runs first. Both rows measure steady state; the report prints the
    // cold start.
    rows.push(staged("pipelined: read_now consult", 64, pipe, || {
        let mut p = PipelinedStore::with_scratch(pipe_store(pipe), Arc::clone(&arenas.pipe));
        for op in mixed_ops(PIPE_BATCH, PIPE_TABLE as u64, 19) {
            p.submit(op);
        }
        let _ = p.commit_async(&SeqCtx::new());
        for op in mixed_ops(64, PIPE_TABLE as u64, 23) {
            p.submit(op);
        }
        let probe: Vec<u64> = (0..64u64).map(|i| (i * 127) % PIPE_TABLE as u64).collect();
        let cold = pipe.fresh_allocs();
        meter(|c| drop(p.read_now(c, &probe)));
        arenas.consult_cold.set(pipe.fresh_allocs() - cold);
        Box::new(move |c: &MeterCtx| drop(p.read_now(c, &probe)))
    }));

    // The same consult over 4 shards: one probe per shard table instead
    // of one over the whole key space. Ops and probes come from the
    // resident keys, so the per-shard live bound stays pinned.
    rows.push(staged(
        "pipelined: read_now consult (4 shards)",
        64,
        pipe,
        || {
            let keys = balanced_keys(PIPE_TABLE, 4);
            let st = pinned_shards(ShardConfig::with_shards(4), &keys, pipe);
            let mut p = PipelinedStore::with_scratch(st, Arc::clone(&arenas.pipe));
            for op in sharded_mixed(&keys, PIPE_BATCH, 19) {
                p.submit(op);
            }
            let _ = p.commit_async(&SeqCtx::new());
            for op in sharded_mixed(&keys, 64, 23) {
                p.submit(op);
            }
            let probe: Vec<u64> = (0..64).map(|i| keys[(i * 127) % PIPE_TABLE]).collect();
            Box::new(move |c: &MeterCtx| drop(p.read_now(c, &probe)))
        },
    ));

    // Tag cells vs record slots: one comparator network, once over packed
    // 32-byte tag cells and once over the Slot records the same site
    // carried before its migration — the CC min-hook proposal sort at a
    // graph-scale working set, and a network of the merge path's
    // working-set size. Same schedule, same comparator count: the
    // difference is pure data movement, and the cache-miss ratio is the
    // tracked payoff (host ratio: `core.sort_kv_ns_per_elem.64k`).
    //
    // The CC rows sort per-edge `(target, value)` proposals, the composite
    // pair in the tag, exactly as `min_per_target` packs them. The headline
    // rows' records are merge-record-sized: `Slot<[u64; 6]>` mirrors the
    // retired `Slot<MergeVal>` (~96 bytes then, 80 now that a slot is `sk`
    // + item).
    let target = |i: u64| i.wrapping_mul(0x9E3779B9) % 1024;
    let key = |i: u64| i.wrapping_mul(0x9E3779B97F4A7C15) >> 16;
    let m = 2 * SHARD_TABLE;
    rows.extend([
        row("graphs cc: tag cells", 8192, move |c| {
            cell_sort(c, scratch, 8192, |i| (target(i), 0))
        }),
        row("graphs cc: record slots", 8192, move |c| {
            slot_sort(c, scratch, 8192, |i| (target(i), (target(i), i)))
        }),
        row("sort: tag cells", m, move |c| {
            cell_sort(c, scratch, m, |i| (key(i), i as u128))
        }),
        row("sort: record slots", m, move |c| {
            slot_sort(c, scratch, m, |i| (key(i), [i; 6]))
        }),
    ]);

    // The two `obliv_core` kernels a merge epoch spends its `core` share
    // in, and compaction's mirror — bin placement's expansion — alone, at
    // a cache-resident and a past-cache size, so the gate holds each one's
    // W and Q(M,B) to its bound (DESIGN.md §10, §4 row 6): `(m/2) log m`
    // swaps and `Q = O((m/B) log(m/M))` for either recursion, `O(n/B)` for
    // the scan.
    for n in [4096, 65536] {
        rows.extend([
            row("core: compact cells", n, move |c| {
                core_compact(c, scratch, n)
            }),
            row("core: expand", n, move |c| core_expand(c, scratch, n)),
            row("core: lww scan", n, move |c| core_lww_scan(c, scratch, n)),
        ]);
    }

    // Durable recovery: a shrink-pinned table checkpointed to disk, then
    // four 256-op merge epochs left in the WAL — exactly the crash image
    // `Store::recover` is built for. The metered run is recovery itself:
    // read the snapshot, rebuild the table, and replay the logged epochs
    // through the normal merge path, so the gated counters are the same
    // public function of the logged batch classes as a fresh run (the
    // trace-equality suite asserts this). Host cost: `recover_s` and
    // `store.vfs.snapshot_ms_p50`. The gate does not watch the allocator
    // here: the first lease of a recovery-only buffer class says nothing
    // about an epoch.
    for size in [4096, 8192, 16384] {
        let image = move || {
            let dir = std::env::temp_dir()
                .join(format!("dob_bench_recovery_{}_{size}", std::process::id()));
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
            let opened = Store::recover(&seq, scratch, &dir, cfg);
            let mut st = or_die(opened, "open durable store");
            for ops in load_epochs(&(0..size as u64).collect::<Vec<_>>()) {
                or_die(st.execute_epoch(&seq, scratch, &ops), "durable load epoch");
            }
            or_die(st.checkpoint(), "checkpoint");
            for r in 0..4u64 {
                let ops = mixed_ops(256, size as u64, 41 + r);
                or_die(st.execute_epoch(&seq, scratch, &ops), "durable epoch");
            }
            drop(st);
            let run = move |c: &MeterCtx| {
                or_die(Store::recover(c, scratch, &dir, cfg), "recover store");
                let _ = std::fs::remove_dir_all(&dir);
            };
            Box::new(run) as Run
        };
        rows.push(Table::Store.staged("store", "recovery: snapshot + replay", size, image));
    }

    // Durable commits: the same steady epoch (WAL append + fsync per
    // commit, on an in-memory fault-free `FaultVfs` so the counters are
    // host-independent) under `RetryPolicy::none()` vs the default
    // 4-attempt policy. Retry decisions read only the I/O outcome, so on a
    // healthy disk the policies must be byte-identical: the gated rows pin
    // both counter sets, and the report asserts the retry plumbing
    // allocates nothing.
    for (retry, algo) in [
        (RetryPolicy::none(), "durable: commit retry=1"),
        (RetryPolicy::default(), "durable: commit retry=4"),
    ] {
        rows.push(staged(algo, 256, scratch, move || {
            let vfs = Arc::new(FaultVfs::unfaulted());
            let seq = SeqCtx::new();
            let cfg = StoreConfig {
                durability: Durability::epoch(),
                retry,
                ..StoreConfig::default()
            };
            let dir = std::path::Path::new("/bench/retry");
            let opened = Store::recover_with(&seq, scratch, dir, cfg, vfs);
            let mut st = or_die(opened, "open durable store (fault vfs)");
            let warm = st.execute_epoch(&seq, scratch, &puts(512, 1024));
            or_die(warm, "durable warm epoch");
            // One steady-shape epoch outside the meter: a mixed epoch leases
            // scratch classes the put-only warm epoch never touches, and that
            // one-time cost would land on whichever config runs first. Both
            // configs must measure steady state.
            let warm = st.execute_epoch(&seq, scratch, &mixed_ops(256, 1024, 41));
            or_die(warm, "durable steady-shape warm epoch");
            Box::new(move |c: &MeterCtx| {
                let steady = mixed_ops(256, 1024, 43);
                let done = st.execute_epoch(c, scratch, &steady);
                or_die(done, "durable steady epoch");
            })
        }));
    }
    rows
}

pub(super) fn report(arenas: &Arenas, rows: &[Row], out: &mut impl Write) -> io::Result<()> {
    let row = |algo| largest(rows, "store", algo);
    writeln!(
        out,
        "crossover: per-op work of 'merge: steady mixed' (key space 2n: \
         128 keys at n=64, 512 at n=256) vs 'oram: steady mixed' (key \
         space 2048) at n=64 and n=256 — unequal key spaces, so not one \
         table's two paths. The path rule sends every class within \
         pending_limit to the ORAM (host-time sweep at equal key spaces: \
         DESIGN.md §8)."
    )?;
    writeln!(
        out,
        "consult headline: {} fresh leases on the first call into this arena, \
         outside the rows; the consult rows measure the calls after it",
        arenas.consult_cold.get()
    )?;
    for (what, tag, rec) in [
        (
            "graphs tag-cell headline (CC min-hook sort)",
            "graphs cc: tag cells",
            "graphs cc: record slots",
        ),
        (
            "tag-sort vs record-sort headline",
            "sort: tag cells",
            "sort: record slots",
        ),
    ] {
        let (tag, rec) = (&row(tag).rep, &row(rec).rep);
        writeln!(
            out,
            "{what}: record / tag = {:.2}x cache misses (identical {} comparators)",
            rec.cache_misses as f64 / tag.cache_misses.max(1) as f64,
            tag.comparisons,
        )?;
    }
    let allocs = [
        row("durable: commit retry=1").allocs,
        row("durable: commit retry=4").allocs,
    ];
    assert_eq!(
        allocs[0], allocs[1],
        "retry machinery must be alloc-free on the no-fault durable path"
    );
    writeln!(
        out,
        "retry headline (no-fault durable commit, n=256): {} fresh allocs under either \
         policy — the policy itself allocates nothing",
        allocs[0],
    )
}
