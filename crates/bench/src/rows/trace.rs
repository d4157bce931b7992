//! The Definition 1 spot-checks (`E3`): for fixed public coins, the
//! adversary trace (address sequence, lengths, read/write kinds) of every
//! oblivious routine must be identical across same-length inputs.
//!
//! Routines whose obliviousness is *distributional* (the post-ORP
//! comparison phases, tree-ORAM walks) are checked for the finite
//! consequences that do hold exactly: value-independence and trace-length
//! invariance.

use super::Kind::{Exact, Length};
use super::{custom, key64, or_die, trace, Arenas, Seen, TraceRow};
use metrics::{CacheConfig, MeterCtx, ScratchPool, TraceMode, Tracked};
use obliv_core::binplace::Input;
use obliv_core::scan::{seg_propagate_in, Schedule::Tree, Seg};
use obliv_core::{
    bin_place, bin_place_from, compact_bounded, compact_cells, expand_by_loads, oblivious_sort_kv,
    oblivious_sort_u64, orp_once, rec_sort_items, send_receive, Bound, Engine, Item, OSortParams,
    OrbaParams, Ranks, Slot, TagCell, Val,
};
use pram::{run_oblivious_sb, HistogramProgram};
use sortnet::sort_slice_rec;
use std::sync::Arc;
use store::{shard_of, Op, PipelinedStore, ShardConfig, ShardedStore, Store, StoreConfig};

/// Length of the listed inputs.
const N: usize = 512;

/// Salts / seeds of the rows whose inputs are generated, not listed.
const FOUR: [u64; 4] = [0, 1, 2, 3];

/// Keys `0..` on shard `s` of 4.
fn on_shard(s: usize) -> impl Iterator<Item = u64> {
    (0u64..).filter(move |&k| shard_of(k, 4) == s)
}

/// Two store epochs of the same shapes (48 puts, gets and deletes, then
/// 16 gets and aggregates) over `v`'s keys and values; `get` picks the
/// first epoch's get key.
fn two_epochs(v: &[u64], get: fn(u64) -> u64) -> [Vec<Op>; 2] {
    let e1 = v.iter().take(48).enumerate().map(|(i, &x)| match i % 3 {
        0 => Op::Put { key: x, val: x * 3 },
        1 => Op::Get { key: get(x) },
        _ => Op::Delete { key: x },
    });
    let e2 = v.iter().take(16).map(|&x| match x % 2 {
        0 => Op::Get { key: x },
        _ => Op::Aggregate,
    });
    [e1.collect(), e2.collect()]
}

/// Puts of `x % 97 ↦ x`, in epochs of 64.
fn durable_epochs(v: &[u64]) -> impl Iterator<Item = Vec<Op>> + '_ {
    v.chunks(64).map(|chunk| {
        chunk
            .iter()
            .map(|&x| Op::Put {
                key: x % 97,
                val: x,
            })
            .collect()
    })
}

/// Send-receive of `v`'s values: source `i` has key `3i + x % 2` and value
/// `val(i, x)`, and each `x` asks for key `x % 600`.
fn send_receive_of<V: Val>(
    c: &MeterCtx,
    scratch: &ScratchPool,
    v: &[u64],
    val: impl Fn(u64, u64) -> V,
) {
    let sources: Vec<(u64, V)> = (0..)
        .zip(v)
        .map(|(i, &x)| (i * 3 + x % 2, val(i, x)))
        .collect();
    let dests: Vec<u64> = v.iter().map(|&x| x % 600).collect();
    send_receive(c, scratch, &sources, &dests, Engine::BitonicRec, Tree);
}

/// `v` and its first 67 values again: 579 = 512 + 64 + 2 + 1 cells, one
/// `cell(position, value)` each.
fn cells579(v: &[u64], cell: impl Fn(usize, u64) -> TagCell) -> Vec<TagCell> {
    v.iter()
        .chain(&v[..67])
        .enumerate()
        .map(|(i, &x)| cell(i, x))
        .collect()
}

/// Four epochs on a 256-key ORAM store, each one OPRAM step over `keys`;
/// `op` makes the `i`-th op on its key.
fn oram_store(c: &MeterCtx, keys: &[u64], op: &dyn Fn(usize, u64) -> Op) {
    let sp = ScratchPool::new();
    let mut s = Store::new(StoreConfig::with_oram(256));
    for e in 0..4 {
        let ops: Vec<Op> = (0..)
            .zip(keys)
            .map(|(i, &k)| op(e * keys.len() + i, k))
            .collect();
        assert_eq!(s.epoch_path(ops.len()), store::EpochPath::Oram);
        s.execute_epoch(c, &sp, &ops).unwrap();
    }
}

/// One batch of requests to a 64-cell OPRAM.
fn oram_batch(c: &MeterCtx, reqs: impl Iterator<Item = (u64, Option<u64>)>) {
    let mut o = pram::Opram::new(64, pram::OramConfig::default(), Engine::BitonicRec, 9);
    let _ = o.access_batch(c, &reqs.collect::<Vec<_>>());
}

pub(super) fn rows(arenas: &Arenas) -> Vec<TraceRow<'_>> {
    let scratch = &arenas.scratch;
    let n = N;
    let inputs: Vec<Vec<u64>> = vec![
        (0..n as u64).collect(),
        (0..n as u64).rev().collect(),
        vec![7; n],
        (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect(),
    ];
    let mut rows = Vec::new();

    rows.push(Exact.over("bitonic sort (recursive)", &inputs, |c, v| {
        sort_slice_rec(c, &mut v.clone(), &key64, true);
    }));

    // Merge of sorted runs: the same network cut off at the run length.
    // Each input is cut into 8 ascending runs of 64; the inputs differ in
    // values and in how the runs interleave — disjoint ranges in order,
    // disjoint ranges reversed, all keys equal, and a scramble.
    rows.push(Exact.over("merge of sorted runs", &inputs, move |c, v| {
        let mut v = v.clone();
        v.chunks_mut(64).for_each(|run| run.sort_unstable());
        let mut lease = scratch.lease(n, 0u64);
        let mut tr = Tracked::new(c, &mut v);
        let mut tmp = Tracked::new(c, &mut lease);
        sortnet::bitonic_sort_rec_from_runs(c, &mut tr, &mut tmp, &key64, true, 64);
    }));

    rows.push(Exact.over("oblivious bin placement", &inputs, move |c, v| {
        let mut slots: Vec<Slot<u64>> = v
            .iter()
            .enumerate()
            .map(|(i, &x)| Slot::real(Item::new(x as u128, x), (i % 16) as u64))
            .collect();
        slots.resize(16 * 64, Slot::filler());
        let mut tr = Tracked::new(c, &mut slots);
        let _ = bin_place(c, scratch, &mut tr, 16, 64, 0, Engine::BitonicRec);
    }));

    // Bin placement of sorted runs (every ORBA placement after the first):
    // 16 runs of 64 slots, each in sort order with its fillers last. The
    // first three inputs load the bins evenly from differently filled
    // runs, the last sends every real to bin 0 and overflows.
    // (run, label) per real; the bin is the label's low four bits.
    let loads: Vec<(bool, Vec<(usize, u64)>)> = vec![
        (false, (0..512).map(|i| (i % 16, i as u64)).collect()),
        (false, (0..512).map(|i| (i / 32, i as u64 * 7)).collect()),
        (false, Vec::new()),
        (true, (0..512).map(|i| (i % 16, i as u64 * 16)).collect()),
    ];
    rows.push(Exact.over(
        "bin placement (sorted-runs form)",
        &loads,
        move |c, (overflows, load)| {
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
            let mut tr = Tracked::new(c, &mut slots);
            let form = Input::Runs {
                run: 64,
                void: false,
            };
            let r = bin_place_from(c, scratch, &mut tr, form, 16, 64, 0, Engine::BitonicRec);
            assert_eq!(r.is_err(), *overflows);
        },
    ));

    // ORBA + ORP (one attempt, fixed seed).
    rows.push(
        Exact.over("oblivious random permutation", &inputs, move |c, v| {
            let items: Vec<Item<u64>> = v.iter().map(|&x| Item::new(x as u128, x)).collect();
            let _ = orp_once(c, scratch, &items, OrbaParams::for_n(n), 1234);
        }),
    );

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
    rows.push(Exact.over(
        "ORP through a three-level butterfly",
        &inputs,
        move |c, v| {
            let items: Vec<Item<u64>> = v.iter().map(|&x| Item::new(x as u128, x)).collect();
            let _ = orp_once(c, scratch, &items, deep, 1234);
            let p = OSortParams {
                orba: deep,
                ..OSortParams::practical(n)
            };
            oblivious_sort_u64(c, scratch, &mut v.clone(), p, 999);
        },
    ));

    rows.push(Exact.over("oblivious propagation", &inputs, move |c, v| {
        let mut segs: Vec<Seg<u64>> = v
            .iter()
            .enumerate()
            .map(|(i, &x)| Seg::new(i % 4 == 0, x))
            .collect();
        seg_propagate_in(c, scratch, &mut Tracked::new(c, &mut segs), Tree);
    }));

    // Send-receive, payload layout: a four-word value (the shape of
    // Euler's vertex stats) rides beside the record's lanes.
    rows.push(Exact.over("oblivious send-receive", &inputs, move |c, v| {
        send_receive_of(c, scratch, v, |i, x| (x, !x, x ^ 1, i));
    }));

    // Tag-sort fast path: a pure comparator network over packed cells, so
    // — unlike the post-ORP phases below — equality holds unconditionally,
    // duplicate keys included.
    rows.push(
        Exact.over("tag-sort (packed key-value cells)", &inputs, move |c, v| {
            let mut kv: Vec<(u64, u64)> =
                v.iter().enumerate().map(|(i, &x)| (x, i as u64)).collect();
            oblivious_sort_kv(c, scratch, &mut kv, Engine::BitonicRec);
        }),
    );

    // Tag-cell tight compaction: flag positions and flag count must both be
    // invisible (the fixed shift schedule reads every level fully). Over
    // 579 = 512 + 64 + 2 + 1 cells, so the three split levels, whose pivots
    // are secret real counts, are in the trace too.
    rows.push(
        Exact.over("tag-cell tight compaction", &inputs, move |c, v| {
            let mut cells = cells579(v, |i, x| match x % 3 {
                0 => TagCell::new(i as u128, x as u128),
                _ => TagCell::filler(),
            });
            compact_cells(c, scratch, &mut Tracked::new(c, &mut cells));
        }),
    );

    // Bounded compaction: one 579-cell lane compacted under a count bound
    // and one under a shift bound, at their extremes — 0 vs `k` reals,
    // reals all leading vs all trailing, displacement 0 vs exactly `d`.
    // 579 is no multiple of either block, so the tail's smaller blocks are
    // in the trace too.
    const LEN: usize = 579;
    const K: usize = 64;
    const D: usize = 128;
    type Real = fn(usize) -> bool;
    let extremes: Vec<(Real, Real)> = vec![
        (|_| false, |_| true),
        (|i| i < K, |i| i < 300),
        (|i| i >= LEN - K, |i| !(100..100 + D).contains(&i)),
        (|i| i % 9 == 4, |_| false),
    ];
    rows.push(Exact.over(
        "bounded compaction (count and shift)",
        &extremes,
        |c, &(count, shift)| {
            for (real, bound) in [(count, Bound::Count(K)), (shift, Bound::Shift(D))] {
                let mut cells: Vec<TagCell> = (0..LEN)
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
                let mut out = vec![TagCell::filler(); LEN];
                let lane = Tracked::new(c, &mut ranks);
                compact_bounded(
                    c,
                    &mut Tracked::new(c, &mut cells),
                    Ranks::of(&lane),
                    bound,
                    &mut Tracked::new(c, &mut out),
                );
            }
        },
    ));

    // Any-length sort: 579 = 512 + 64 + 2 + 1 cells, so Lang's pieces and
    // merge levels (bitonic engines) and the internal padding (odd-even,
    // Shellsort) are all in the trace — every engine, one after another.
    rows.push(Exact.over(
        "any-length sort (579 cells, every engine)",
        &inputs,
        move |c, v| {
            for engine in [
                Engine::BitonicRec,
                Engine::BitonicFlat,
                Engine::OddEven,
                Engine::Shellsort { seed: 5 },
            ] {
                let mut cells = cells579(v, |i, x| TagCell::new(x as u128, i as u128));
                engine.sort_cells(c, scratch, &mut Tracked::new(c, &mut cells));
            }
        },
    ));

    // Load-steered expansion (bin placement's distribution step): how many
    // reals each bin takes must be invisible — uniform loads, every real in
    // one bin, empty and full bins alternating, no reals at all. 16 bins
    // of 64, as bare-key cells and as 48-byte slots, one after the other.
    let (bins, z) = (16usize, 64usize);
    let shapes: Vec<Vec<u64>> = vec![
        vec![32; bins],
        (0..bins).map(|g| if g == 3 { 64 } else { 0 }).collect(),
        (0..bins as u64).map(|g| 64 * (g % 2)).collect(),
        vec![0; bins],
    ];
    rows.push(
        Exact.over("expand (load-steered bins)", &shapes, move |c, loads| {
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
            let mut lane = Tracked::new(c, &mut lane);
            expand_by_loads(c, scratch, &mut Tracked::new(c, &mut cells), &mut lane, z);
            let mut lane = loads.clone();
            let mut lane = Tracked::new(c, &mut lane);
            expand_by_loads(c, scratch, &mut Tracked::new(c, &mut slots), &mut lane, z);
        }),
    );

    // Reserved key: `u128::MAX` marks a filler, so REC-SORT rejects it —
    // in one fixed-pattern pass that an accepted input of the same length
    // goes through too. Wherever the key sits and however many there are,
    // the rejected run's trace is the accepted run's, cut at the verdict.
    rows.push(custom(
        "reserved-key rejection (fixed-pattern)",
        move || {
            let events = |reserved: &[usize]| {
                let ctx = MeterCtx::new(CacheConfig::default(), TraceMode::Full);
                let mut items: Vec<Item<u64>> = (0..n as u64)
                    .map(|i| Item::new((i * 7 + 3) as u128, i))
                    .collect();
                for &i in reserved {
                    items[i].key = u128::MAX;
                }
                let r = rec_sort_items(&ctx, scratch, &mut items, Engine::BitonicRec, 16, 77);
                assert_eq!(r.is_err(), !reserved.is_empty());
                ctx.trace_events()
            };
            let accepted = events(&[]);
            let all: Vec<usize> = (0..n).collect();
            // One observation per rejected input: (is a proper prefix of the
            // accepted trace, its length) — all equal, and equal to "yes".
            let mut t: Vec<Seen> = [&[0][..], &[n - 1], &[3, n / 2], &all]
                .iter()
                .map(|reserved| {
                    let rejected = events(reserved);
                    let cut = rejected.len() < accepted.len() && accepted.starts_with(&rejected);
                    vec![(cut as u64, rejected.len() as u64)]
                })
                .collect();
            t.push(vec![(1, t[0][0].1)]);
            t
        },
    ));

    // Vectorized compare-exchange: the AVX2 backend must leave the very
    // same trace as the scalar gates (accounting replay, DESIGN.md §14) —
    // across backends AND across same-length inputs, so all 2×|inputs|
    // traces collapse to one.
    let per_backend: Vec<(Vec<u64>, sortnet::Backend)> = inputs
        .iter()
        .flat_map(|v| [sortnet::Backend::Scalar, sortnet::Backend::Avx2].map(|b| (v.clone(), b)))
        .collect();
    rows.push(Exact.over(
        "vectorized compare-exchange (simd vs scalar)",
        &per_backend,
        move |c, (v, backend)| {
            let mut cells: Vec<TagCell> = v
                .iter()
                .enumerate()
                .map(|(i, &x)| TagCell::new(((x as u128) << 64) | i as u128, x as u128))
                .collect();
            let mut lease = scratch.lease(cells.len(), TagCell::filler());
            let mut tr = Tracked::new(c, &mut cells);
            let mut tmp = Tracked::new(c, &mut lease);
            sortnet::cells_sort_rec_with(*backend, c, &mut tr, &mut tmp, true);
        },
    ));

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
    rows.push(Exact.over(
        "oblivious sort (distinct + duplicate keys)",
        &keyed,
        move |c, v| {
            oblivious_sort_u64(c, scratch, &mut v.clone(), OSortParams::practical(n), 999);
        },
    ));

    // dob-store epochs (merge path): same batch *shapes*, entirely
    // different keys/values/op-kinds.
    rows.push(
        Exact.over("oblivious KV store (batched epochs)", &inputs, |c, v| {
            let sp = ScratchPool::new();
            let mut s = Store::new(StoreConfig::default());
            for ops in two_epochs(v, |x| x / 2) {
                s.execute_epoch(c, &sp, &ops).unwrap();
            }
        }),
    );

    // Sharded store epochs: for fixed (batch size, shard count) the whole
    // pipeline — oblivious routing, all four shard commits, result gather
    // — must be byte-identical across distinct key/value workloads, and
    // across *where the ops land*: the last input sends every op of both
    // epochs to shard 0, where key 0 and with it the aggregates live (one
    // full gather run, three empty ones); the others spread theirs.
    let routed: Vec<Vec<u64>> = inputs
        .iter()
        .cloned()
        .chain([on_shard(0).take(n).collect()])
        .collect();
    rows.push(Exact.over(
        "sharded-store (route + commits + gather)",
        &routed,
        |c, v| {
            let sp = ScratchPool::new();
            let mut s = ShardedStore::new(ShardConfig::with_shards(4));
            for ops in two_epochs(v, |x| x) {
                s.execute_epoch(c, &sp, &ops).unwrap();
            }
        },
    ));

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
    rows.push(Exact.over(
        "pipelined store (handoff + consult)",
        &consults,
        |c, [settled, flying, open, queried]| {
            let sp = Arc::new(ScratchPool::new());
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
    ));

    // Durable store: WAL append + recovery replay. Build four durable
    // crash images with the same epoch shapes but entirely different
    // keys/values, then recover each under the meter. The WAL appends
    // are host-side I/O whose record sizes are fixed by the public
    // classes; the replay feeds the logged batches through the normal
    // merge path — both the build trace and the recovery trace must be
    // bit-identical across datasets. Each dataset is built at 1 and at 4
    // shards, where replay routes and gathers as the live epochs did.
    let wal_inputs = inputs.clone();
    rows.push(custom("WAL append + recovery replay", move || {
        let image = |k: usize, v: &[u64], shards: usize| {
            let dir = std::env::temp_dir()
                .join(format!("dob_obliv_wal_{}_{k}_{shards}", std::process::id()));
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
                let opened = ShardedStore::recover(c, scratch, &dir, cfg(durable));
                let mut s = or_die(opened, "open durable store");
                for ops in durable_epochs(v) {
                    or_die(s.execute_epoch(c, scratch, &ops), "durable epoch");
                }
            });
            let replay = trace(|c| {
                let recovered =
                    ShardedStore::recover(c, scratch, &dir, cfg(StoreConfig::default()));
                or_die(recovered, "recover store");
            });
            let _ = std::fs::remove_dir_all(&dir);
            (build.0 ^ replay.0.rotate_left(1), build.1 + replay.1)
        };
        (0..)
            .zip(&wal_inputs)
            .map(|(k, v)| vec![image(k, v, 1), image(k, v, 4)])
            .collect()
    }));

    // Fault-injected WAL: now inject faults. Four different seeded fault
    // schedules, four different datasets, one set of epoch shapes. Fault
    // coins are a pure function of (seed, I/O-op index) and the retry
    // policy consults only the I/O outcome, so the engine trace — which
    // never sees host I/O — must stay bit-identical across both the
    // schedule *and* the data. Every retry the faults provoke happens
    // outside the metered address stream.
    let numbered: Vec<(u64, Vec<u64>)> = (0..).zip(inputs.iter().cloned()).collect();
    rows.push(Exact.over(
        "fault-injected WAL (schedule-public trace)",
        &numbered,
        move |c, (k, v)| {
            let plan = store::vfs::FaultPlan {
                seed: 0xFA17 + k,
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
            let vfs = Arc::new(store::vfs::FaultVfs::new(plan));
            let mut s = or_die(
                Store::recover_with(c, scratch, "/obliv/faulty", cfg, vfs),
                "open fault-injected store",
            );
            for ops in durable_epochs(v) {
                or_die(s.execute_epoch(c, scratch, &ops), "fault-injected epoch");
            }
        },
    ));

    // PRAM simulation with data-dependent write addresses.
    rows.push(
        Exact.over("oblivious PRAM step (Thm 4.1)", &inputs, move |c, v| {
            let vals: Vec<u64> = v.iter().take(32).map(|&x| x % 8).collect();
            let prog = HistogramProgram::new(vals.len(), 8);
            run_oblivious_sb(c, scratch, &prog, &vals, Engine::BitonicRec);
        }),
    );

    // Pinned pool: the trace must be independent of the pin layout. Two
    // executors (unpinned, pinned round-robin) dirty two scratch pools
    // with the same workload — their per-worker lanes end up holding
    // different physical buffers — and the adversary trace of a sort +
    // store epoch on each pool must be bit-identical.
    rows.push(custom("pinned pool (pin-layout invariance)", move || {
        use fj::Pool;
        [Pool::new(4), Pool::pinned(4)]
            .iter()
            .map(|exec| {
                let sp = ScratchPool::new();
                exec.run(|c| {
                    let mut v: Vec<u64> =
                        (0..1024u64).map(|i| i.wrapping_mul(0x9E37) | 1).collect();
                    oblivious_sort_u64(c, &sp, &mut v, OSortParams::practical(1024), 7);
                });
                vec![trace(|c| {
                    let mut v: Vec<u64> = (0..n as u64).collect();
                    oblivious_sort_u64(c, &sp, &mut v, OSortParams::practical(n), 999);
                    let mut s = Store::new(StoreConfig::default());
                    let ops: Vec<Op> = (0..32u64).map(|k| Op::Put { key: k, val: k }).collect();
                    s.execute_epoch(c, &sp, &ops).unwrap();
                })]
            })
            .collect()
    }));

    // Send-receive, `u64` lane: the value rides in the record's `u128`
    // lane, 32-byte records sorted as cells. Same shapes, different data.
    rows.push(Exact.over("send-receive (u64 lane)", &inputs, move |c, v| {
        send_receive_of(c, scratch, v, |_, x| x);
    }));

    // List ranking on packed cells. The pointer-jumping phase walks the
    // hidden random permutation (distributionally oblivious), so exact
    // equality holds for *value*-independence: same list topology,
    // different weights.
    let (lr_succ, _) = graphs::random_list(96, 5);
    rows.push(Exact.over(
        "list ranking (packed cells, value-indep)",
        &FOUR,
        move |c, &salt| {
            let weights: Vec<u64> = (0..96u64).map(|i| i * 31 + salt * 7 + 1).collect();
            let _ = graphs::list_rank_oblivious(
                c,
                scratch,
                &lr_succ,
                &weights,
                OrbaParams::for_n(96),
                Engine::BitonicRec,
                31,
            );
        },
    ));

    // ...and trace-*length* invariance across different list topologies.
    rows.push(Length.over(
        "list ranking (packed cells, trace-len)",
        &FOUR,
        move |c, &seed| {
            let (succ, _) = graphs::random_list(96, seed);
            let _ = graphs::list_rank_oblivious_unit(c, scratch, &succ, 31);
        },
    ));

    // Euler tour on packed arc cells: four random trees, same vertex count.
    rows.push(
        Exact.over("Euler tour (packed arc cells)", &FOUR, move |c, &seed| {
            let edges = graphs::random_tree(48, seed);
            let _ = graphs::euler_tour(c, scratch, &edges, Engine::BitonicRec);
        }),
    );

    // CC min-hook on packed cells: same (n, m), different graphs.
    rows.push(
        Exact.over("CC min-hook (packed cells)", &FOUR, move |c, &seed| {
            let edges = graphs::random_graph(40, 64, seed);
            let _ = graphs::connected_components(c, scratch, 40, &edges, Engine::BitonicRec);
        }),
    );

    // MSF proposal/chosen cells: same (n, m), different graphs/weights.
    rows.push(
        Exact.over("MSF proposal/chosen cells", &FOUR, move |c, &seed| {
            let edges: Vec<(usize, usize, u64)> = graphs::random_graph(32, 48, seed)
                .into_iter()
                .enumerate()
                .map(|(i, (u, v))| (u, v, (i as u64 * 7 + seed) % 97 + 1))
                .collect();
            let _ = graphs::msf(c, scratch, 32, &edges, Engine::BitonicRec);
        }),
    );

    // ORAM batched fetch on packed cells. Tree walks follow random leaves
    // (distributionally oblivious), so exact equality holds for value-
    // independence: same address sequence, different written values.
    rows.push(
        Exact.over("ORAM batched fetch (packed cells)", &FOUR, |c, &salt| {
            oram_batch(
                c,
                (0..24u64).map(|j| ((j * 13) % 64, (j % 2 == 0).then_some(j * 1000 + salt))),
            );
        }),
    );

    // ...and trace-*length* invariance across collisions: 24 requests to
    // one address against 24 distinct ones. Each request makes one walk,
    // on uniform leaves (distributionally oblivious), so lengths compare.
    rows.push(Length.over(
        "ORAM batched fetch (collisions, trace-len)",
        &[0u64, 13],
        |c, &stride| {
            oram_batch(
                c,
                (0..24u64).map(|j| ((j * stride) % 64, (j % 2 == 0).then_some(j))),
            );
        },
    ));

    // ORAM point path: one fused tree pass per recursion level. Same
    // address sequence and coins; the values written, and which accesses
    // write at all, differ.
    rows.push(Exact.over(
        "ORAM point access (values, hit location)",
        &FOUR,
        |c, &salt| {
            let mut o = pram::Opram::new(200, pram::OramConfig::default(), Engine::BitonicRec, 9);
            for i in 0..60u64 {
                let write = ((i + salt) % (salt + 2) == 0).then_some(i * 1000 + salt);
                o.access(c, (i * 13) % 200, write);
            }
        },
    ));

    // The store's ORAM path: every epoch within the pending limit is one
    // OPRAM step, one walk per op, its key's run deciding which walks are
    // real. At a fixed key sequence (a repeat in each epoch) neither the
    // values nor which ops get, put or delete move a single event.
    rows.push(
        Exact.over("store ORAM path (values, op kinds)", &FOUR, |c, &salt| {
            oram_store(
                c,
                &[5, 42, 5, 200, 17, 42, 99, 5],
                &|i, key| match (i as u64 + salt) % 3 {
                    0 => Op::Put {
                        key,
                        val: i as u64 * 7 + salt,
                    },
                    1 => Op::Get { key },
                    _ => Op::Delete { key },
                },
            );
        }),
    );

    // ...and trace-*length* invariance across collisions: every op of an
    // epoch on one key against every op on its own. The same walks are
    // made, on uniform leaves, whichever of them are real.
    rows.push(Length.over(
        "store ORAM path (collisions, trace-len)",
        &[[9u64; 8], [3, 250, 17, 64, 128, 0, 99, 201]],
        |c, keys| {
            oram_store(c, keys, &|i, key| match i % 2 {
                0 => Op::Put { key, val: i as u64 },
                _ => Op::Get { key },
            });
        },
    ));

    // The same over 64-op epochs: 64 ops on one key against 64 on keys of
    // their own. It is its own row, since a `Length` row compares one
    // length across its inputs.
    rows.push(Length.over(
        "store ORAM path at class 64 (collisions, trace-len)",
        &[[9u64; 64], std::array::from_fn(|i| i as u64 * 4 + 1)],
        |c, keys| {
            oram_store(c, keys, &|i, key| match i % 2 {
                0 => Op::Put { key, val: i as u64 },
                _ => Op::Get { key },
            });
        },
    ));
    rows
}
