//! `E3`: Definition 1 spot-checks — for fixed public coins, the adversary
//! trace (address sequence, lengths, read/write kinds) of every oblivious
//! routine must be identical across same-length inputs. Prints a PASS/FAIL
//! matrix; exits non-zero on any FAIL.
//!
//! Routines whose obliviousness is *distributional* (the post-ORP
//! comparison phases) are checked for the finite consequences that do hold
//! exactly: value-independence and trace-length invariance.

use metrics::{measure, CacheConfig, MeterCtx, TraceMode};
use obliv_core::binplace::Input;
use obliv_core::scan::{seg_propagate_in, Schedule, Seg};
use obliv_core::{
    bin_place, bin_place_from, compact_bounded, compact_cells, expand_by_loads, oblivious_sort_kv,
    oblivious_sort_u64, orp_once, rec_sort_items, send_receive, Bound, Engine, Item, OSortParams,
    OrbaParams, Ranks, ScratchPool, Slot, TagCell,
};
use pram::{run_oblivious_sb, HistogramProgram};
use sortnet::sort_slice_rec;
use store::{shard_of, Op, PipelinedStore, ShardConfig, ShardedStore, Store, StoreConfig};

fn trace<F: FnOnce(&MeterCtx)>(f: F) -> (u64, u64) {
    let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, f);
    (rep.trace_hash, rep.trace_len)
}

fn check<T: PartialEq>(name: &str, traces: &[T]) -> bool {
    let ok = traces.windows(2).all(|w| w[0] == w[1]);
    println!("{:<44} {}", name, if ok { "PASS" } else { "FAIL" });
    ok
}

/// One row of the matrix: `f` traced once per input, all traces equal.
fn row<I>(name: &str, inputs: &[I], f: impl Fn(&MeterCtx, &I)) -> bool {
    let traces: Vec<_> = inputs.iter().map(|v| trace(|c| f(c, v))).collect();
    check(name, &traces)
}

/// Salts / seeds of the rows whose inputs are generated, not listed.
const FOUR: [u64; 4] = [0, 1, 2, 3];

/// Durable-path results carry typed errors now; the check harness has no
/// recovery story, so name the step and bail.
fn or_die<T>(r: Result<T, store::StoreError>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("obliv_check: {what}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let scratch = ScratchPool::new();
    println!("== E3: trace-equality checks (Definition 1, fixed coins) ==\n");
    let mut all_ok = true;
    let n = 512usize;

    let inputs: Vec<Vec<u64>> = vec![
        (0..n as u64).collect(),
        (0..n as u64).rev().collect(),
        vec![7; n],
        (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect(),
    ];

    // Bitonic network.
    all_ok &= row("bitonic sort (recursive)", &inputs, |c, v| {
        let mut v = v.clone();
        sort_slice_rec(c, &mut v, &|x: &u64| *x as u128, true);
    });

    // Merge of sorted runs: the same network cut off at the run length.
    // Each input is cut into 8 ascending runs of 64; the inputs differ in
    // values and in how the runs interleave — disjoint ranges in order,
    // disjoint ranges reversed, all keys equal, and a scramble.
    all_ok &= row("merge of sorted runs", &inputs, |c, v| {
        let mut v = v.clone();
        v.chunks_mut(64).for_each(|run| run.sort_unstable());
        let mut lease = scratch.lease(n, 0u64);
        let mut tr = metrics::Tracked::new(c, &mut v);
        let mut tmp = metrics::Tracked::new(c, &mut lease);
        let key = |x: &u64| *x as u128;
        sortnet::bitonic_sort_rec_from_runs(c, &mut tr, &mut tmp, &key, true, 64);
    });

    // Bin placement.
    all_ok &= row("oblivious bin placement", &inputs, |c, v| {
        let mut slots: Vec<Slot<u64>> = v
            .iter()
            .enumerate()
            .map(|(i, &x)| Slot::real(Item::new(x as u128, x), (i % 16) as u64))
            .collect();
        slots.resize(16 * 64, Slot::filler());
        let mut tr = metrics::Tracked::new(c, &mut slots);
        let _ = bin_place(c, &scratch, &mut tr, 16, 64, 0, Engine::BitonicRec);
    });

    // Bin placement of sorted runs (every ORBA placement after the first):
    // 16 runs of 64 slots, each in sort order with its fillers last. The
    // first three inputs load the bins evenly from differently filled
    // runs, the last sends every real to bin 0 and overflows.
    // (run, label) per real; the bin is the label's low four bits.
    let loads: [(bool, Vec<(usize, u64)>); 4] = [
        (false, (0..512).map(|i| (i % 16, i as u64)).collect()),
        (false, (0..512).map(|i| (i / 32, i as u64 * 7)).collect()),
        (false, Vec::new()),
        (true, (0..512).map(|i| (i % 16, i as u64 * 16)).collect()),
    ];
    all_ok &= row(
        "bin placement (sorted-runs form)",
        &loads,
        |c, (overflows, load)| {
            let mut runs = vec![Vec::new(); 16];
            for &(run, label) in load {
                runs[run].push(label);
            }
            let mut slots = vec![Slot::<u64>::filler(); 16 * 64];
            for (r, labels) in runs.iter_mut().enumerate() {
                labels.sort_unstable_by_key(|&l| (l % 16, l));
                for (i, &l) in labels.iter().enumerate() {
                    slots[r * 64 + i] = Slot::real(Item::new(l as u128, l), l);
                }
            }
            let mut tr = metrics::Tracked::new(c, &mut slots);
            let form = Input::Runs {
                run: 64,
                void: false,
            };
            let r = bin_place_from(c, &scratch, &mut tr, form, 16, 64, 0, Engine::BitonicRec);
            assert_eq!(r.is_err(), *overflows);
        },
    );

    // ORBA + ORP (one attempt, fixed seed).
    all_ok &= row("oblivious random permutation", &inputs, |c, v| {
        let items: Vec<Item<u64>> = v.iter().map(|&x| Item::new(x as u128, x)).collect();
        let _ = orp_once(c, &scratch, &items, OrbaParams::for_n(n), 1234);
    });

    // The same at Z = 16, γ = 4: 64 bins, recursing 64 → 8 → placements
    // of 2 and 4 bins, so every placement but the last level's fills bins
    // and the last only sorts its rows. Then the full sort on those
    // parameters, whose ORP runs the bare-key cells (REC-SORT is still one
    // network at n = 512).
    let deep = OrbaParams {
        z: 16,
        gamma: 4,
        ..OrbaParams::for_n(n)
    };
    all_ok &= row("ORP through a three-level butterfly", &inputs, |c, v| {
        let items: Vec<Item<u64>> = v.iter().map(|&x| Item::new(x as u128, x)).collect();
        let _ = orp_once(c, &scratch, &items, deep, 1234);
        let mut keys = v.clone();
        let p = OSortParams {
            orba: deep,
            ..OSortParams::practical(n)
        };
        oblivious_sort_u64(c, &scratch, &mut keys, p, 999);
    });

    // Scans.
    all_ok &= row("oblivious propagation", &inputs, |c, v| {
        let mut segs: Vec<Seg<u64>> = v
            .iter()
            .enumerate()
            .map(|(i, &x)| Seg::new(i % 4 == 0, x))
            .collect();
        let mut tr = metrics::Tracked::new(c, &mut segs);
        seg_propagate_in(c, &scratch, &mut tr, Schedule::Tree);
    });

    // Send-receive, payload layout: a four-word value (the shape of
    // Euler's vertex stats) rides beside the record's lanes.
    all_ok &= row("oblivious send-receive", &inputs, |c, v| {
        let sources: Vec<(u64, (u64, u64, u64, u64))> = v
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u64 * 3 + x % 2, (x, !x, x ^ 1, i as u64)))
            .collect();
        let dests: Vec<u64> = v.iter().map(|&x| x % 600).collect();
        send_receive(
            c,
            &scratch,
            &sources,
            &dests,
            Engine::BitonicRec,
            Schedule::Tree,
        );
    });

    // Tag-sort fast path: a pure comparator network over packed cells, so
    // — unlike the post-ORP phases below — equality holds unconditionally,
    // duplicate keys included.
    all_ok &= row("tag-sort (packed key-value cells)", &inputs, |c, v| {
        let mut kv: Vec<(u64, u64)> = v.iter().enumerate().map(|(i, &x)| (x, i as u64)).collect();
        oblivious_sort_kv(c, &scratch, &mut kv, Engine::BitonicRec);
    });

    // Tag-cell tight compaction: flag positions and flag count must both be
    // invisible (the fixed shift schedule reads every level fully). Over
    // 579 = 512 + 64 + 2 + 1 cells, so the three split levels, whose pivots
    // are secret real counts, are in the trace too.
    all_ok &= row("tag-cell tight compaction", &inputs, |c, v| {
        let mut cells: Vec<TagCell> = v
            .iter()
            .chain(&v[..67])
            .enumerate()
            .map(|(i, &x)| {
                if x % 3 == 0 {
                    TagCell::new(i as u128, x as u128)
                } else {
                    TagCell::filler()
                }
            })
            .collect();
        let mut tr = metrics::Tracked::new(c, &mut cells);
        compact_cells(c, &scratch, &mut tr);
    });

    // Bounded compaction: one 579-cell lane compacted under a count bound
    // and one under a shift bound, at their extremes — 0 vs `k` reals,
    // reals all leading vs all trailing, displacement 0 vs exactly `d`.
    // 579 is no multiple of either block, so the tail's smaller blocks are
    // in the trace too.
    let (len, k, d) = (579usize, 64usize, 128usize);
    type Real<'a> = &'a dyn Fn(usize) -> bool;
    let extremes: [(Real, Real); 4] = [
        (&|_| false, &|_| true),
        (&|i| i < k, &|i| i < 300),
        (&|i| i >= len - k, &|i| i < 100 || i >= 100 + d),
        (&|i| i % 9 == 4, &|_| false),
    ];
    all_ok &= row(
        "bounded compaction (count and shift)",
        &extremes,
        |c, (count, shift)| {
            for (real, bound) in [(count, Bound::Count(k)), (shift, Bound::Shift(d))] {
                let mut cells: Vec<TagCell> = (0..len)
                    .map(|i| match real(i) {
                        true => TagCell::new(i as u128, 1),
                        false => TagCell::filler(),
                    })
                    .collect();
                let mut ranks: Vec<u64> = cells
                    .iter()
                    .scan(0, |r, s| {
                        let before = *r;
                        *r += !s.is_filler() as u64;
                        Some(before)
                    })
                    .collect();
                let mut out = vec![TagCell::filler(); len];
                let lane = metrics::Tracked::new(c, &mut ranks);
                compact_bounded(
                    c,
                    &mut metrics::Tracked::new(c, &mut cells),
                    Ranks::of(&lane),
                    bound,
                    &mut metrics::Tracked::new(c, &mut out),
                );
            }
        },
    );

    // Any-length sort: 579 = 512 + 64 + 2 + 1 cells, so Lang's pieces and
    // merge levels (bitonic engines) and the internal padding (odd-even,
    // Shellsort) are all in the trace — every engine, one after another.
    all_ok &= row(
        "any-length sort (579 cells, every engine)",
        &inputs,
        |c, v| {
            for engine in [
                Engine::BitonicRec,
                Engine::BitonicFlat,
                Engine::OddEven,
                Engine::Shellsort { seed: 5 },
            ] {
                let mut cells: Vec<TagCell> = v
                    .iter()
                    .chain(&v[..67])
                    .enumerate()
                    .map(|(i, &x)| TagCell::new(x as u128, i as u128))
                    .collect();
                engine.sort_cells(c, &scratch, &mut metrics::Tracked::new(c, &mut cells));
            }
        },
    );

    // Load-steered expansion (bin placement's distribution step): how many
    // reals each bin takes must be invisible — uniform loads, every real in
    // one bin, empty and full bins alternating, no reals at all. 16 bins
    // of 64, as bare-key cells and as 48-byte slots, one after the other.
    let (bins, z) = (16usize, 64usize);
    let shapes: [Vec<u64>; 4] = [
        vec![32; bins],
        (0..bins).map(|g| if g == 3 { 64 } else { 0 }).collect(),
        (0..bins as u64).map(|g| 64 * (g % 2)).collect(),
        vec![0; bins],
    ];
    all_ok &= row("expand (load-steered bins)", &shapes, |c, loads| {
        let total: u64 = loads.iter().sum();
        let mut cells: Vec<u128> = (0..(bins * z) as u128)
            .map(|j| if j < total as u128 { j } else { u128::MAX })
            .collect();
        let mut slots: Vec<Slot<u64>> = cells
            .iter()
            .map(|&j| match j {
                u128::MAX => Slot::filler(),
                j => Slot::real(Item::new(j, j as u64), j as u64),
            })
            .collect();
        let mut lane = loads.clone();
        let mut lane = metrics::Tracked::new(c, &mut lane);
        expand_by_loads(
            c,
            &scratch,
            &mut metrics::Tracked::new(c, &mut cells),
            &mut lane,
            z,
        );
        let mut lane = loads.clone();
        let mut lane = metrics::Tracked::new(c, &mut lane);
        expand_by_loads(
            c,
            &scratch,
            &mut metrics::Tracked::new(c, &mut slots),
            &mut lane,
            z,
        );
    });

    // Reserved key: `u128::MAX` marks a filler, so REC-SORT rejects it —
    // in one fixed-pattern pass that an accepted input of the same length
    // goes through too. Wherever the key sits and however many there are,
    // the rejected run's trace is the accepted run's, cut at the verdict.
    {
        let events = |reserved: &[usize]| {
            let ctx = MeterCtx::new(CacheConfig::default(), TraceMode::Full);
            let mut items: Vec<Item<u64>> = (0..n as u64)
                .map(|i| Item::new((i * 7 + 3) as u128, i))
                .collect();
            for &i in reserved {
                items[i].key = u128::MAX;
            }
            let r = rec_sort_items(&ctx, &scratch, &mut items, Engine::BitonicRec, 16, 77);
            assert_eq!(r.is_err(), !reserved.is_empty());
            ctx.trace_events()
        };
        let accepted = events(&[]);
        let all: Vec<usize> = (0..n).collect();
        // One row per rejected input: (is a proper prefix of the accepted
        // trace, its length) — all equal, and equal to "yes".
        let mut t: Vec<_> = [&[0][..], &[n - 1], &[3, n / 2], &all]
            .iter()
            .map(|reserved| {
                let rejected = events(reserved);
                let cut = rejected.len() < accepted.len() && accepted.starts_with(&rejected);
                (cut as u64, rejected.len() as u64)
            })
            .collect();
        t.push((1, t[0].1));
        all_ok &= check("reserved-key rejection (fixed-pattern)", &t);
    }

    // Vectorized compare-exchange: the AVX2 backend must leave the very
    // same trace as the scalar gates (accounting replay, DESIGN.md §14) —
    // across backends AND across same-length inputs, so all 2×|inputs|
    // traces collapse to one.
    let per_backend: Vec<(&Vec<u64>, sortnet::Backend)> = inputs
        .iter()
        .flat_map(|v| [sortnet::Backend::Scalar, sortnet::Backend::Avx2].map(|b| (v, b)))
        .collect();
    all_ok &= row(
        "vectorized compare-exchange (simd vs scalar)",
        &per_backend,
        |c, &(v, backend)| {
            let mut cells: Vec<TagCell> = v
                .iter()
                .enumerate()
                .map(|(i, &x)| TagCell::new(((x as u128) << 64) | i as u128, x as u128))
                .collect();
            let mut lease = scratch.lease(cells.len(), TagCell::filler());
            let mut tr = metrics::Tracked::new(c, &mut cells);
            let mut tmp = metrics::Tracked::new(c, &mut lease);
            sortnet::cells_sort_rec_with(backend, c, &mut tr, &mut tmp, true);
        },
    );

    // Full oblivious sort. For fixed coins ORP's trace is a function of n,
    // and at n = 512 REC-SORT is one network over all the keys — no pivot
    // is consulted — so distinct, all-equal and few-distinct keys
    // must leave one trace, exactly. (Above one network the pivot routing
    // is distributionally oblivious: DESIGN.md §5.)
    let keyed: Vec<Vec<u64>> = vec![
        (0..n as u64).collect(),
        (0..n as u64).rev().collect(),
        (0..n as u64).map(|i| i * 3 + 1).collect(),
        vec![7; n],
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % 3)
            .collect(),
    ];
    all_ok &= row(
        "oblivious sort (distinct + duplicate keys)",
        &keyed,
        |c, v| {
            let mut v = v.clone();
            oblivious_sort_u64(c, &scratch, &mut v, OSortParams::practical(n), 999);
        },
    );

    // dob-store epochs (merge path): same batch *shapes*, entirely
    // different keys/values/op-kinds.
    all_ok &= row("oblivious KV store (batched epochs)", &inputs, |c, v| {
        let sp = ScratchPool::new();
        let mut s = Store::new(StoreConfig::default());
        let e1: Vec<Op> = v
            .iter()
            .take(48)
            .enumerate()
            .map(|(i, &x)| match i % 3 {
                0 => Op::Put { key: x, val: x * 3 },
                1 => Op::Get { key: x / 2 },
                _ => Op::Delete { key: x },
            })
            .collect();
        s.execute_epoch(c, &sp, &e1).unwrap();
        let e2: Vec<Op> = v
            .iter()
            .take(16)
            .map(|&x| {
                if x % 2 == 0 {
                    Op::Get { key: x }
                } else {
                    Op::Aggregate
                }
            })
            .collect();
        s.execute_epoch(c, &sp, &e2).unwrap();
    });

    // Sharded store epochs: for fixed (batch size, shard count) the whole
    // pipeline — oblivious routing, all four shard commits, result gather
    // — must be byte-identical across distinct key/value workloads, and
    // across *where the ops land*: the last input sends every op of both
    // epochs to shard 0, where key 0 and with it the aggregates live (one
    // full gather run, three empty ones); the others spread theirs.
    let on_shard = |s: usize| (0u64..).filter(move |&k| shard_of(k, 4) == s);
    let one_shard: Vec<u64> = on_shard(0).take(n).collect();
    let routed: Vec<&Vec<u64>> = inputs.iter().chain([&one_shard]).collect();
    all_ok &= row(
        "sharded-store (route + commits + gather)",
        &routed,
        |c, v| {
            let sp = ScratchPool::new();
            let mut s = ShardedStore::new(ShardConfig::with_shards(4));
            let e1: Vec<Op> = v
                .iter()
                .take(48)
                .enumerate()
                .map(|(i, &x)| match i % 3 {
                    0 => Op::Put { key: x, val: x * 3 },
                    1 => Op::Get { key: x },
                    _ => Op::Delete { key: x },
                })
                .collect();
            s.execute_epoch(c, &sp, &e1).unwrap();
            let e2: Vec<Op> = v
                .iter()
                .take(16)
                .map(|&x| {
                    if x % 2 == 0 {
                        Op::Get { key: x }
                    } else {
                        Op::Aggregate
                    }
                })
                .collect();
            s.execute_epoch(c, &sp, &e2).unwrap();
        },
    );

    // Pipelined store: the double-buffered front end at 4 shards. Handoff
    // cadence, the in-flight epoch's padded log, and the read-your-writes
    // consult must all be shape-only. Under the metered executor the
    // detached merge resolves inline but stays "in flight" until joined,
    // so the consult deterministically sees tables ++ in-flight log ++
    // open buffer. Each input is (settled keys, in-flight keys, open
    // keys, queried keys): the rows differ in *where an answer comes
    // from* — open log, in-flight log, a table, nowhere — and in *which
    // shard owns the queried keys* (spread, or all on one shard).
    let spread: Vec<u64> = (0..64).collect();
    let lone: Vec<u64> = on_shard(1).take(64).collect();
    let consults: Vec<[Vec<u64>; 4]> = vec![
        // Every answer from a table, keys spread over the shards.
        [
            spread[..48].to_vec(),
            (100..148).collect(),
            (200..216).collect(),
            spread[..8].to_vec(),
        ],
        // Every answer from the in-flight log; all queried keys on shard 1.
        [
            (100..148).collect(),
            lone[..48].to_vec(),
            (200..216).collect(),
            lone[..8].to_vec(),
        ],
        // Every answer from the open log (one queried key repeated).
        [
            spread[..48].to_vec(),
            spread[..48].to_vec(),
            vec![spread[5]; 16],
            vec![spread[5]; 8],
        ],
        // No answer anywhere: absent keys, all owned by shard 3; every
        // op of every epoch routed to shard 1.
        [
            lone[..48].to_vec(),
            lone[..48].to_vec(),
            lone[48..].to_vec(),
            on_shard(3).take(8).collect(),
        ],
    ];
    all_ok &= row(
        "pipelined store (handoff + consult)",
        &consults,
        |c, [settled, flying, open, queried]| {
            let sp = std::sync::Arc::new(ScratchPool::new());
            let store = ShardedStore::new(ShardConfig::with_shards(4));
            let mut p = PipelinedStore::with_scratch(store, sp);
            for &x in settled {
                p.submit(Op::Put { key: x, val: x * 3 });
            }
            let h = p.commit_async(c);
            let _ = p.wait(&h);
            for (i, &x) in flying.iter().enumerate() {
                p.submit(match i % 3 {
                    0 => Op::Put { key: x, val: x * 5 },
                    1 => Op::Get { key: x },
                    _ => Op::Delete { key: x },
                });
            }
            let h = p.commit_async(c);
            for &x in open {
                p.submit(Op::Put { key: x, val: x + 1 });
            }
            let _ = p.read_now(c, queried);
            let _ = p.wait(&h);
            let h2 = p.commit_async(c);
            let _ = p.wait(&h2);
        },
    );

    // Durable store: WAL append + recovery replay. Build four durable
    // crash images with the same epoch shapes but entirely different
    // keys/values, then recover each under the meter. The WAL appends
    // are host-side I/O whose record sizes are fixed by the public
    // classes; the replay feeds the logged batches through the normal
    // merge path — both the build trace and the recovery trace must be
    // bit-identical across datasets. Each dataset is built at 1 and at 4
    // shards, where replay routes and gathers as the live epochs did.
    let image = |k: usize, v: &[u64], shards: usize| {
        let dir =
            std::env::temp_dir().join(format!("dob_obliv_wal_{}_{k}_{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = |store| ShardConfig {
            shards,
            route_slack: 0,
            store,
        };
        let durable = StoreConfig {
            durability: store::Durability::epoch(),
            ..StoreConfig::default()
        };
        let build = trace(|c| {
            let opened = ShardedStore::recover(c, &scratch, &dir, cfg(durable));
            let mut s = or_die(opened, "open durable store");
            for chunk in v.chunks(64) {
                let ops: Vec<Op> = chunk
                    .iter()
                    .map(|&x| Op::Put {
                        key: x % 97,
                        val: x,
                    })
                    .collect();
                or_die(s.execute_epoch(c, &scratch, &ops), "durable epoch");
            }
        });
        let replay = trace(|c| {
            let recovered = ShardedStore::recover(c, &scratch, &dir, cfg(StoreConfig::default()));
            or_die(recovered, "recover store");
        });
        let _ = std::fs::remove_dir_all(&dir);
        (build.0 ^ replay.0.rotate_left(1), build.1 + replay.1)
    };
    let t: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(k, v)| [image(k, v, 1), image(k, v, 4)])
        .collect();
    all_ok &= check("WAL append + recovery replay", &t);

    // Fault-injected WAL: now inject faults. Four different seeded fault
    // schedules, four different datasets, one set of epoch shapes. Fault
    // coins are a pure function of (seed, I/O-op index) and the retry
    // policy consults only the I/O outcome, so the engine trace — which
    // never sees host I/O — must stay bit-identical across both the
    // schedule *and* the data. Every retry the faults provoke happens
    // outside the metered address stream.
    let numbered: Vec<(usize, &Vec<u64>)> = inputs.iter().enumerate().collect();
    all_ok &= row(
        "fault-injected WAL (schedule-public trace)",
        &numbered,
        |c, &(k, v)| {
            let plan = store::vfs::FaultPlan {
                seed: 0xFA17 + k as u64,
                write_fault: 24,
                torn: 128,
                sync_fault: 24,
                ..store::vfs::FaultPlan::default()
            };
            let cfg = StoreConfig {
                durability: store::Durability::epoch(),
                retry: store::RetryPolicy {
                    attempts: 12,
                    backoff: std::time::Duration::ZERO,
                },
                ..StoreConfig::default()
            };
            let vfs = std::sync::Arc::new(store::vfs::FaultVfs::new(plan));
            let mut s = or_die(
                Store::recover_with(c, &scratch, "/obliv/faulty", cfg, vfs),
                "open fault-injected store",
            );
            for chunk in v.chunks(64) {
                let ops: Vec<Op> = chunk
                    .iter()
                    .map(|&x| Op::Put {
                        key: x % 97,
                        val: x,
                    })
                    .collect();
                or_die(s.execute_epoch(c, &scratch, &ops), "fault-injected epoch");
            }
        },
    );

    // PRAM simulation with data-dependent write addresses.
    all_ok &= row("oblivious PRAM step (Thm 4.1)", &inputs, |c, v| {
        let vals: Vec<u64> = v.iter().take(32).map(|&x| x % 8).collect();
        let prog = HistogramProgram::new(vals.len(), 8);
        run_oblivious_sb(c, &scratch, &prog, &vals, Engine::BitonicRec);
    });

    // --- Hardware-shaped runtime rows ---

    // Pinned pool: the trace must be independent of the pin layout. Two
    // executors (unpinned, pinned round-robin) dirty two scratch pools
    // with the same workload —
    // their per-worker lanes end up holding different physical buffers —
    // and the adversary trace of a sort + store epoch on each pool must be
    // bit-identical.
    {
        use fj::Pool;
        let layouts = [Pool::new(4), Pool::pinned(4)];
        let t: Vec<_> = layouts
            .iter()
            .map(|exec| {
                let sp = ScratchPool::new();
                exec.run(|c| {
                    let mut v: Vec<u64> =
                        (0..1024u64).map(|i| i.wrapping_mul(0x9E37) | 1).collect();
                    oblivious_sort_u64(c, &sp, &mut v, OSortParams::practical(1024), 7);
                });
                trace(|c| {
                    let mut v: Vec<u64> = (0..n as u64).collect();
                    oblivious_sort_u64(c, &sp, &mut v, OSortParams::practical(n), 999);
                    let mut s = Store::new(StoreConfig::default());
                    let ops: Vec<Op> = (0..32u64).map(|k| Op::Put { key: k, val: k }).collect();
                    s.execute_epoch(c, &sp, &ops).unwrap();
                })
            })
            .collect();
        all_ok &= check("pinned pool (pin-layout invariance)", &t);
    }

    // Send-receive, `u64` lane: the value rides in the record's `u128`
    // lane, 32-byte records sorted as cells. Same shapes, different data.
    all_ok &= row("send-receive (u64 lane)", &inputs, |c, v| {
        let sources: Vec<(u64, u64)> = v
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u64 * 3 + x % 2, x))
            .collect();
        let dests: Vec<u64> = v.iter().map(|&x| x % 600).collect();
        send_receive(
            c,
            &scratch,
            &sources,
            &dests,
            Engine::BitonicRec,
            Schedule::Tree,
        );
    });

    // List ranking on packed cells. The pointer-jumping phase walks the
    // hidden random permutation (distributionally oblivious), so exact
    // equality holds for *value*-independence: same list topology,
    // different weights.
    let (lr_succ, _) = graphs::random_list(96, 5);
    all_ok &= row(
        "list ranking (packed cells, value-indep)",
        &FOUR,
        |c, &salt| {
            let weights: Vec<u64> = (0..96u64).map(|i| i * 31 + salt * 7 + 1).collect();
            let _ = graphs::list_rank_oblivious(
                c,
                &scratch,
                &lr_succ,
                &weights,
                OrbaParams::for_n(96),
                Engine::BitonicRec,
                31,
            );
        },
    );

    // ...and trace-*length* invariance across different list topologies.
    let t: Vec<_> = (0..4u64)
        .map(|seed| {
            let (succ, _) = graphs::random_list(96, seed);
            let (h, len) = trace(|c| {
                let _ = graphs::list_rank_oblivious_unit(c, &scratch, &succ, 31);
            });
            let _ = h;
            (0, len) // compare lengths only
        })
        .collect();
    all_ok &= check("list ranking (packed cells, trace-len)", &t);

    // Euler tour on packed arc cells: four random trees, same vertex count.
    all_ok &= row("Euler tour (packed arc cells)", &FOUR, |c, &seed| {
        let edges = graphs::random_tree(48, seed);
        let _ = graphs::euler_tour(c, &scratch, &edges, Engine::BitonicRec);
    });

    // CC min-hook on packed cells: same (n, m), different graphs.
    all_ok &= row("CC min-hook (packed cells)", &FOUR, |c, &seed| {
        let edges = graphs::random_graph(40, 64, seed);
        let _ = graphs::connected_components(c, &scratch, 40, &edges, Engine::BitonicRec);
    });

    // MSF proposal/chosen cells: same (n, m), different graphs/weights.
    all_ok &= row("MSF proposal/chosen cells", &FOUR, |c, &seed| {
        let edges: Vec<(usize, usize, u64)> = graphs::random_graph(32, 48, seed)
            .into_iter()
            .enumerate()
            .map(|(i, (u, v))| (u, v, (i as u64 * 7 + seed) % 97 + 1))
            .collect();
        let _ = graphs::msf(c, &scratch, 32, &edges, Engine::BitonicRec);
    });

    // ORAM batched fetch on packed cells. Tree walks follow random leaves
    // (distributionally oblivious), so exact equality holds for value-
    // independence: same address sequence, different written values.
    all_ok &= row("ORAM batched fetch (packed cells)", &FOUR, |c, &salt| {
        let mut o = pram::Opram::new(64, pram::OramConfig::default(), Engine::BitonicRec, 9);
        let reqs: Vec<(u64, Option<u64>)> = (0..24u64)
            .map(|j| ((j * 13) % 64, (j % 2 == 0).then_some(j * 1000 + salt)))
            .collect();
        let _ = o.access_batch(c, &reqs);
    });

    // ...and trace-*length* invariance across collisions: 24 requests to
    // one address against 24 distinct ones. Each request makes one walk,
    // on uniform leaves (distributionally oblivious), so lengths compare.
    let t: Vec<_> = [0u64, 13]
        .iter()
        .map(|&stride| {
            let (_, len) = trace(|c| {
                let mut o =
                    pram::Opram::new(64, pram::OramConfig::default(), Engine::BitonicRec, 9);
                let reqs: Vec<(u64, Option<u64>)> = (0..24u64)
                    .map(|j| ((j * stride) % 64, (j % 2 == 0).then_some(j)))
                    .collect();
                let _ = o.access_batch(c, &reqs);
            });
            (0, len) // compare lengths only
        })
        .collect();
    all_ok &= check("ORAM batched fetch (collisions, trace-len)", &t);

    // ORAM point path: one fused tree pass per recursion level. Same
    // address sequence and coins; the values written, and which accesses
    // write at all, differ.
    all_ok &= row(
        "ORAM point access (values, hit location)",
        &FOUR,
        |c, &salt| {
            let mut o = pram::Opram::new(200, pram::OramConfig::default(), Engine::BitonicRec, 9);
            for i in 0..60u64 {
                let write = ((i + salt) % (salt + 2) == 0).then_some(i * 1000 + salt);
                o.access(c, (i * 13) % 200, write);
            }
        },
    );

    // The store's ORAM path: every sub-threshold epoch is one OPRAM step,
    // one walk per op, its key's run deciding which walks are real. At a
    // fixed key sequence (a repeat in each epoch) neither the values nor
    // which ops get, put or delete move a single event.
    let oram_store = |c: &MeterCtx, keys: &[u64], op: &dyn Fn(usize, u64) -> Op| {
        let sp = ScratchPool::new();
        let mut cfg = StoreConfig::with_oram(256);
        cfg.oram_threshold = 32;
        let mut s = Store::new(cfg);
        for e in 0..4 {
            let ops: Vec<Op> = (0..)
                .zip(keys)
                .map(|(i, &k)| op(e * keys.len() + i, k))
                .collect();
            assert_eq!(s.epoch_path(ops.len()), store::EpochPath::Oram);
            s.execute_epoch(c, &sp, &ops).unwrap();
        }
    };
    let keys: Vec<u64> = vec![5, 42, 5, 200, 17, 42, 99, 5];
    all_ok &= row("store ORAM path (values, op kinds)", &FOUR, |c, &salt| {
        oram_store(c, &keys, &|i, key| match (i as u64 + salt) % 3 {
            0 => Op::Put {
                key,
                val: i as u64 * 7 + salt,
            },
            1 => Op::Get { key },
            _ => Op::Delete { key },
        });
    });

    // ...and trace-*length* invariance across collisions: every op of an
    // epoch on one key against every op on its own. The same walks are
    // made, on uniform leaves, whichever of them are real.
    let t: Vec<_> = [[9u64; 8], [3, 250, 17, 64, 128, 0, 99, 201]]
        .iter()
        .map(|keys| {
            let (_, len) = trace(|c| {
                oram_store(c, keys, &|i, key| match i % 2 {
                    0 => Op::Put { key, val: i as u64 },
                    _ => Op::Get { key },
                })
            });
            (0, len) // compare lengths only
        })
        .collect();
    all_ok &= check("store ORAM path (collisions, trace-len)", &t);

    println!(
        "\n{}",
        if all_ok {
            "all oblivious routines passed trace equality"
        } else {
            "FAILURES detected"
        }
    );
    std::process::exit(if all_ok { 0 } else { 1 });
}
