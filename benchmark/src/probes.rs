//! Per-layer probes: each layer's public kernel run alone, at the shapes
//! the workloads induce, on inputs drawn from `--seed`. Every answer
//! that has a cheap reference is checked against it.
//!
//! A probe's number is the median over a few repetitions; inputs are
//! restored outside the timed span.

use crate::api::{
    self, Cells, Cex, Exec, GraphInputs, Kv, Oram, Scatter, Scratch, Shape, Sharded, CELL_BYTES,
};
use crate::calib::{self, Reference};
use crate::env::pool_threads;
use crate::gen::{OpStream, Rng};
use crate::spec::{Sizes, Workload};
use crate::stats::median;
use crate::trace::Event;
use crate::vfs::{CountingVfs, Flush};
use crate::workloads::plain_shape;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Probes {
    pub values: Vec<(&'static str, f64)>,
    pub checked: u64,
    pub failed: u64,
    /// Every probe is timed between two calibration points and reported
    /// on the calibrated clock, like the end-to-end timings.
    cal: Reference,
}

impl Probes {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, ok: bool) {
        self.checked += 1;
        self.failed += u64::from(!ok);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Median nanoseconds of `run` over `reps` repetitions, on the
/// calibrated clock; `prep` runs before each one, untimed.
fn time_ns<S>(
    cal: &mut Reference,
    reps: usize,
    state: &mut S,
    mut prep: impl FnMut(&mut S),
    mut run: impl FnMut(&mut S),
) -> f64 {
    let before = cal.point();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            prep(state);
            let t0 = Instant::now();
            run(state);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    let speed = calib::speed(before, cal.point());
    median(&samples).expect("at least one repetition") * speed
}

fn random_cells(rng: &mut Rng, n: usize) -> Cells {
    Cells::from_words((0..n).map(|_| Some(rng.next_u64())))
}

/// The two lanes a merge epoch compacts, as it fills them: a *results*
/// lane (one cell in 64 real, anywhere) and a *candidates* lane (three
/// quarters of the first half real, fillers behind).
fn lane_cells(rng: &mut Rng, n: usize, results: bool) -> Cells {
    Cells::from_words((0..n).map(|i| {
        let w = rng.next_u64();
        let real = if results {
            w.is_multiple_of(64)
        } else {
            i < n / 2 && !w.is_multiple_of(4)
        };
        real.then_some(w)
    }))
}

fn sort_ns(p: &mut Probes, rng: &mut Rng, exec: &Exec, n: usize, cex: Cex, reps: usize) -> f64 {
    let mut cells = random_cells(rng, n);
    let ns = time_ns(&mut p.cal, reps, &mut cells, Cells::restore, |c| {
        c.sort(exec, cex)
    });
    p.check(cells.is_sorted());
    ns
}

fn merge_ns(p: &mut Probes, rng: &mut Rng, exec: &Exec, n: usize, reps: usize) -> f64 {
    let mut cells = random_cells(rng, n);
    cells.make_bitonic();
    let ns = time_ns(&mut p.cal, reps, &mut cells, Cells::restore, |c| {
        c.merge(exec)
    });
    p.check(cells.is_sorted());
    ns
}

/// Nanoseconds to compact both lanes of `n` cells, one after the other.
fn compact_ns(
    p: &mut Probes,
    rng: &mut Rng,
    exec: &Exec,
    scratch: &Scratch,
    n: usize,
    reps: usize,
) -> f64 {
    [true, false]
        .into_iter()
        .map(|results| {
            let mut cells = lane_cells(rng, n, results);
            let ns = time_ns(&mut p.cal, reps, &mut cells, Cells::restore, |c| {
                c.compact(exec, scratch)
            });
            p.check(cells.is_compacted());
            ns
        })
        .sum()
}

fn scan_ns(p: &mut Probes, exec: &Exec, scratch: &Scratch, n: usize, reps: usize) -> f64 {
    let mut data = vec![1u64; n];
    let ns = time_ns(
        &mut p.cal,
        reps,
        &mut data,
        |d| d.fill(1),
        |d| api::prefix_sum(exec, scratch, d),
    );
    p.check(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    ns
}

/// The five kernel calls of one merge epoch at its public shape: sort
/// of the `b2` op cells, merge / scan / two compactions of the `m`-cell
/// array, sort of the `b`-cell result window. Returns their summed
/// nanoseconds split `(sortnet, core)`.
fn merge_path_ns(
    p: &mut Probes,
    rng: &mut Rng,
    scratch: &Scratch,
    (b2, m, b): (usize, usize, usize),
    reps: usize,
) -> (f64, f64) {
    let seq = Exec::seq();
    let sortnet = sort_ns(p, rng, &seq, b2, Cex::Active, reps)
        + merge_ns(p, rng, &seq, m, reps)
        + sort_ns(p, rng, &seq, b, Cex::Active, reps);
    let core = scan_ns(p, &seq, scratch, m, reps) + compact_ns(p, rng, &seq, scratch, m, reps);
    (sortnet, core)
}

/// What the probes explain of one epoch of `w`, in nanoseconds per
/// layer — kernels at the epoch's shapes, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelSum {
    pub sortnet_ns: f64,
    pub core_ns: f64,
    pub pram_ns: f64,
}

impl KernelSum {
    pub fn total_ns(&self) -> f64 {
        self.sortnet_ns + self.core_ns + self.pram_ns
    }
}

pub fn kernel_sum(p: &mut Probes, w: Workload, s: &Sizes, seed: u64, smoke: bool) -> KernelSum {
    let mut rng = Rng::new(seed ^ 0x5EED);
    let scratch = Scratch::new();
    let reps = if smoke { 2 } else { 5 };
    let class = |n: usize| n.max(8).next_power_of_two();
    let shape = |keys: usize, batch: usize| {
        let b = class(batch);
        (b, (keys + b).next_power_of_two(), b)
    };
    let mut sum = KernelSum::default();
    match w {
        Workload::MergeSeq | Workload::MergePool => {
            (sum.sortnet_ns, sum.core_ns) = merge_path_ns(
                p,
                &mut rng,
                &scratch,
                shape(s.merge_keys, s.merge_batch),
                reps,
            );
        }
        Workload::DurableSmall => {
            (sum.sortnet_ns, sum.core_ns) = merge_path_ns(
                p,
                &mut rng,
                &scratch,
                shape(s.durable_keys, s.durable_batch),
                reps,
            );
        }
        Workload::ShardedPipelined => {
            // Route slack 0: every shard merges a sub-batch padded to the
            // whole commit's class.
            let per_shard = shape(
                s.sharded_keys / s.shards,
                s.client_batch * s.batches_per_commit,
            );
            let (sortnet, core) = merge_path_ns(p, &mut rng, &scratch, per_shard, reps);
            sum.sortnet_ns = sortnet * s.shards as f64;
            sum.core_ns = core * s.shards as f64;
        }
        Workload::OramPoint => {
            // An ORAM-path epoch is one point access per padded slot.
            let access_us = p.get("pram.access_us.4k").unwrap_or(0.0);
            sum.pram_ns = access_us * 1e3 * class(s.oram_batch) as f64;
        }
        Workload::SortPaper => {
            let per_elem = p.get("core.orp_ns_per_elem.64k").unwrap_or(0.0)
                + p.get("core.rec_sort_ns_per_elem.64k").unwrap_or(0.0);
            sum.core_ns = per_elem * s.sort_n as f64;
        }
    }
    sum
}

/// Router and gather cost of the sharded front end: one synchronous
/// `ShardedStore` epoch against the same sub-batches committed to
/// `shards` plain stores, both on `SeqCtx`. `1 − Σ plain / sharded`.
pub fn route_overhead_frac(p: &mut Probes, s: &Sizes, seed: u64, smoke: bool) -> f64 {
    let seq = Exec::seq();
    let reps = if smoke { 3 } else { 15 };
    let batch = s.client_batch * s.batches_per_commit;
    let per_shard = Shape {
        keys: s.sharded_keys / s.shards,
        snapshot_every: 0,
        oram_key_space: None,
        durable: false,
    };
    let keys = api::balanced_keys(s.sharded_keys, s.shards);
    let mut stream = OpStream::new(seed ^ 0x2007E, keys.clone());
    let mut sharded = Sharded::new(s.shards, per_shard);
    let mut ok = sharded.epoch(&seq, &stream.bulk_load()).is_ok();
    let sharded_ns = time_ns(
        &mut p.cal,
        reps,
        &mut sharded,
        |_| {},
        |st| ok &= st.epoch(&seq, &stream.next_batch(batch)).is_ok(),
    );

    // Each plain store holds one shard's keys and takes a batch of the
    // full class, which is what route slack 0 hands every shard.
    let per = keys.len() / s.shards;
    let mut plain_ns = 0.0;
    for shard_keys in keys.chunks(per) {
        let mut stream = OpStream::new(seed ^ 0x91A1, shard_keys.to_vec());
        let mut kv = Kv::in_memory(per_shard);
        ok &= kv.epoch(&seq, &stream.bulk_load()).is_ok();
        plain_ns += time_ns(
            &mut p.cal,
            reps,
            &mut kv,
            |_| {},
            |kv| ok &= kv.epoch(&seq, &stream.next_batch(batch)).is_ok(),
        );
    }
    p.check(ok);
    1.0 - plain_ns / sharded_ns
}

/// Every workload-independent probe. `smoke` shrinks sizes and
/// repetitions (the metric names keep their full-size labels).
pub fn run_all(seed: u64, smoke: bool) -> Probes {
    let mut p = Probes {
        values: Vec::new(),
        checked: 0,
        failed: 0,
        cal: Reference::new(),
    };
    let mut rng = Rng::new(seed ^ 0x9B0BE5);
    let rng = &mut rng;
    let seq = Exec::seq();
    let pool = Exec::pinned(pool_threads());
    let scratch = Scratch::new();
    let k = |full: usize| if smoke { (full / 32).max(64) } else { full };
    let reps = |full: usize| if smoke { 2 } else { full };
    let (n1k, n4k, n64k) = (k(1 << 10), k(1 << 12), k(1 << 16));

    // --- sortnet ---------------------------------------------------------
    // One slab pass makes `len / 2` compare-exchanges and moves each cell
    // in and out once, like one pass of a copy.
    for (name, cells, passes) in [
        ("sortnet.cex_pairs_per_s.l1", 1usize << 9, k(20_000)),
        ("sortnet.cex_pairs_per_s.l2", 1 << 14, k(640)),
        ("sortnet.cex_pairs_per_s.mem", k(1 << 20), 4),
    ] {
        let mut c = random_cells(rng, cells);
        let ns = time_ns(
            &mut p.cal,
            reps(5),
            &mut c,
            |_| {},
            |c| c.cex_passes(passes),
        );
        let pairs = (cells / 2 * passes) as f64;
        p.put(name, pairs * 1e9 / ns);
        if name.ends_with("mem") {
            // Bytes the program loads plus stores: a slab pass loads and
            // stores every cell, the copy loads one half and stores the other.
            let bytes = (cells * CELL_BYTES * passes) as f64;
            p.put("sortnet.cex_gbps.mem", 2.0 * bytes / ns);
            let ns = time_ns(
                &mut p.cal,
                reps(5),
                &mut c,
                |_| {},
                |c| c.copy_passes(passes),
            );
            p.put("sortnet.copy_gbps", bytes / ns);
        }
    }
    let sort_1k = sort_ns(&mut p, rng, &seq, n1k, Cex::Active, reps(25));
    p.put("sortnet.sort_ns_per_cell.1k", sort_1k / n1k as f64);
    let sort_64k = sort_ns(&mut p, rng, &seq, n64k, Cex::Active, reps(5));
    p.put("sortnet.sort_ns_per_cell.64k", sort_64k / n64k as f64);
    let merge_4k = merge_ns(&mut p, rng, &seq, n4k, reps(25));
    p.put("sortnet.merge_ns_per_cell.4k", merge_4k / n4k as f64);
    let merge_64k = merge_ns(&mut p, rng, &seq, n64k, reps(5));
    p.put("sortnet.merge_ns_per_cell.64k", merge_64k / n64k as f64);
    let scalar_64k = sort_ns(&mut p, rng, &seq, n64k, Cex::Scalar, reps(5));
    p.put("sortnet.scalar_over_simd.64k", scalar_64k / sort_64k);

    // --- core ----------------------------------------------------------------
    let compact_4k = compact_ns(&mut p, rng, &seq, &scratch, n4k, reps(25));
    p.put("core.compact_ns_per_cell.4k", compact_4k / (2 * n4k) as f64);
    let compact_64k = compact_ns(&mut p, rng, &seq, &scratch, n64k, reps(5));
    p.put(
        "core.compact_ns_per_cell.64k",
        compact_64k / (2 * n64k) as f64,
    );
    let scan_64k = scan_ns(&mut p, &seq, &scratch, n64k, reps(9));
    p.put("core.scan_ns_per_elem.64k", scan_64k / n64k as f64);

    let pairs: Vec<(u64, u64)> = (0..n64k).map(|i| (rng.next_u64(), i as u64)).collect();
    let mut kv = pairs.clone();
    let ns = time_ns(
        &mut p.cal,
        reps(5),
        &mut kv,
        |d| d.copy_from_slice(&pairs),
        |d| api::sort_kv(&seq, &scratch, d),
    );
    p.check(kv.is_sorted_by_key(|&(key, _)| key));
    p.put("core.sort_kv_ns_per_elem.64k", ns / n64k as f64);

    let keys: Vec<u64> = (0..n1k).map(|_| rng.next_u64()).collect();
    let scatter = Scatter::new(&keys, 4);
    let mut placed = true;
    let ns = time_ns(
        &mut p.cal,
        reps(15),
        &mut placed,
        |_| {},
        |ok| *ok &= scatter.run(&seq, &scratch),
    );
    p.check(placed);
    p.put("core.scatter_ns_per_op.1k", ns / n1k as f64);

    let words: Vec<u64> = (0..n64k).map(|_| rng.next_u64()).collect();
    let items = api::items_of(&words);
    let mut out = items.clone();
    let ns = time_ns(
        &mut p.cal,
        reps(3),
        &mut out,
        |_| {},
        |out| {
            api::permute(&seq, &scratch, &items, 0xC01, out);
        },
    );
    let mut got: Vec<u64> = out.iter().map(|it| it.val).collect();
    let mut want = words.clone();
    got.sort_unstable();
    want.sort_unstable();
    p.check(got == want);
    p.put("core.orp_ns_per_elem.64k", ns / n64k as f64);

    // REC-SORT expects a randomly ordered input: the permutation above.
    let permuted = out.clone();
    let mut sorted = true;
    let ns = time_ns(
        &mut p.cal,
        reps(3),
        &mut out,
        |o| o.copy_from_slice(&permuted),
        |o| sorted &= api::rec_sort(&seq, &scratch, o, 0xC02),
    );
    p.check(sorted && api::items_sorted(&out));
    p.put("core.rec_sort_ns_per_elem.64k", ns / n64k as f64);

    // --- fj --------------------------------------------------------------------
    let joins = k(200_000);
    let ns = time_ns(
        &mut p.cal,
        reps(5),
        &mut (),
        |_| {},
        |_| api::joins(&seq, joins),
    );
    p.put("fj.join_ns.seq", ns / joins as f64);
    let ns = time_ns(
        &mut p.cal,
        reps(5),
        &mut (),
        |_| {},
        |_| api::joins(&pool, joins),
    );
    p.put("fj.join_ns.pool", ns / joins as f64);
    let iters = k(1 << 20);
    let ns = time_ns(
        &mut p.cal,
        reps(5),
        &mut (),
        |_| {},
        |_| api::par_for_empty(&pool, iters),
    );
    p.put("fj.par_for_ns_per_iter.pool", ns / iters as f64);
    let entries = k(2000);
    let ns = time_ns(
        &mut p.cal,
        reps(5),
        &mut (),
        |_| {},
        |_| api::enter(&pool, entries),
    );
    p.put("fj.pool_run_us", ns / entries as f64 / 1e3);
    let ns = time_ns(
        &mut p.cal,
        reps(5),
        &mut (),
        |_| {},
        |_| api::spawn_detached(&pool, entries),
    );
    p.put("fj.spawn_detached_us", ns / entries as f64 / 1e3);
    let pool_64k = sort_ns(&mut p, rng, &pool, n64k, Cex::Active, reps(5));
    p.put("fj.sort_speedup.64k", sort_64k / pool_64k);

    // --- metrics ---------------------------------------------------------------
    let leases = k(400);
    scratch.lease_cells(n64k);
    let ns = time_ns(
        &mut p.cal,
        reps(5),
        &mut (),
        |_| {},
        |_| (0..leases).for_each(|_| scratch.lease_cells(n64k)),
    );
    p.put("metrics.lease_ns.64k", ns / leases as f64);

    // --- pram ------------------------------------------------------------------
    let space = k(1 << 12);
    let mut oram = Oram::new(space, seed);
    let mut mirror = vec![0u64; space];
    let mut right = true;
    let accesses = k(2000);
    let ns = time_ns(
        &mut p.cal,
        reps(3),
        &mut oram,
        |_| {},
        |o| {
            for _ in 0..accesses {
                let addr = rng.below(space as u64);
                let write = (rng.next_u64() & 1 == 0).then(|| rng.next_u64() >> 1);
                let prev = o.access(&seq, addr, write);
                right &= prev == mirror[addr as usize];
                if let Some(v) = write {
                    mirror[addr as usize] = v;
                }
            }
        },
    );
    p.check(right);
    p.put("pram.access_us.4k", ns / accesses as f64 / 1e3);

    let vals: Vec<u64> = (0..k(256)).map(|_| rng.next_u64() >> 1).collect();
    let mut outcome = (1, true);
    let ns = time_ns(
        &mut p.cal,
        reps(5),
        &mut outcome,
        |_| {},
        |o| *o = api::pram_max(&seq, &scratch, &vals),
    );
    p.check(outcome.1);
    p.put("pram.sb_step_ms.256", ns / outcome.0 as f64 / 1e6);

    // --- graphs ----------------------------------------------------------------
    let g = GraphInputs::new(seed, k(1 << 10), k(512), k(1 << 12), k(1 << 10), k(256));
    let mut ok = true;
    let mut graph = |name: &'static str, run: &mut dyn FnMut() -> bool| {
        let ns = time_ns(&mut p.cal, reps(3), &mut ok, |_| {}, |ok| *ok &= run());
        (name, ns / 1e6)
    };
    let rows = [
        graph("graphs.cc_ms.1k", &mut || g.cc(&seq, &scratch)),
        graph("graphs.msf_ms.512", &mut || g.msf(&seq, &scratch)),
        graph("graphs.listrank_ms.4k", &mut || {
            g.list_rank(&seq, &scratch, 7)
        }),
        graph("graphs.euler_ms.1k", &mut || g.euler(&seq, &scratch, 5)),
        graph("graphs.contract_ms.511", &mut || {
            g.contract(&seq, &scratch, 11)
        }),
    ];
    for (name, ms) in rows {
        p.put(name, ms);
    }
    p.check(ok);
    p
}

/// A durable store's I/O on the checkout's own device: the same epochs
/// with `sync` forwarded to the file system, every call timed. Returns
/// the timed calls; the store and its directory are gone on return.
pub fn disk_events(s: &Sizes, seed: u64, dir: &Path, epochs: usize) -> Result<Vec<Event>, String> {
    let (shape, batch) = plain_shape(Workload::DurableSmall, s);
    let dir = dir.join(format!("durable-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = CountingVfs::new(Flush::Device, 4 * epochs + 64);
    let seq = Exec::seq();
    let run = || -> Result<(), String> {
        let mut kv = Kv::open(&dir, shape, Arc::new(vfs.clone()))?;
        let mut stream = OpStream::new(seed, (0..shape.keys as u64).collect());
        kv.epoch(&seq, &stream.bulk_load())?;
        vfs.set_timing(true);
        for _ in 0..epochs {
            kv.epoch(&seq, &stream.next_batch(batch))?;
        }
        Ok(())
    };
    let outcome = run();
    let _ = std::fs::remove_dir_all(&dir);
    outcome.map(|()| vfs.take_events())
}
