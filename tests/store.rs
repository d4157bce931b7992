//! `dob-store` integration suite: the 1-shard store's fixed-seed model
//! regressions, merge path and hybrid, and the Definition-1
//! obliviousness claims — two same-shape workloads with different
//! keys/values/op-kinds must generate identical adversary traces on fresh
//! *and* dirty scratch pools, with outputs identical under the sequential
//! executor and the work-stealing pool.

use dob::prelude::*;

mod common;
use common::dirty;
use common::model::{self, Front};

/// Merge path: the 1-shard store's fixed-seed model regression
/// (`tests/common/model.rs`).
#[test]
fn merge_epochs_match_hashmap_oracle() {
    model::regress(&SeqCtx::new(), 1, |f| f == Front::sync(1));
}

/// Hybrid store: a fixed-seed script bouncing between the ORAM and
/// merge paths, checked step by step against the model.
#[test]
fn hybrid_epochs_match_hashmap_oracle() {
    model::regress(&SeqCtx::new(), 2, |f| f == Front::Oram { pipelined: false });
}

/// The ORAM path runs an epoch as one OPRAM step. Put, get, delete and get
/// on one key, padded with dummies to the 8-op class, then a full class
/// crowding two keys: every answer is the model oracle's, in submission
/// order.
#[test]
fn one_oram_step_keeps_sequential_semantics() {
    let (c, sp) = (SeqCtx::new(), ScratchPool::new());
    let mut s = Store::new(StoreConfig::with_oram(64));
    let mut oracle = model::Oracle::default();
    let epochs = [
        vec![
            Op::Put { key: 7, val: 70 },
            Op::Get { key: 7 },
            Op::Delete { key: 7 },
            Op::Get { key: 7 },
        ],
        vec![
            Op::Put { key: 7, val: 71 },
            Op::Put { key: 9, val: 90 },
            Op::Get { key: 7 },
            Op::Put { key: 7, val: 72 },
            Op::Delete { key: 9 },
            Op::Get { key: 9 },
            Op::Get { key: 7 },
            Op::Get { key: 3 },
        ],
        vec![Op::Get { key: 7 }, Op::Get { key: 9 }],
    ];
    for ops in epochs {
        assert_eq!(s.epoch_path(ops.len()), EpochPath::Oram);
        let got = s.execute_epoch(&c, &sp, &ops).unwrap();
        assert_eq!(got, oracle.epoch(&ops, false), "{ops:?}");
    }
}

/// A 512-op class on an empty log is one OPRAM step with more requests
/// than the store has keys: on a 1-key and a 16-key store, alternating
/// with the merges the pending limit forces, every answer is the model
/// oracle's.
#[test]
fn full_class_oram_steps_crowd_a_tiny_key_space() {
    let (c, sp) = (SeqCtx::new(), ScratchPool::new());
    for space in [1u64, 16] {
        let mut s = Store::new(StoreConfig::with_oram(space as usize));
        let mut oracle = model::Oracle::default();
        let mut rng = space;
        for e in 0..4 {
            let ops: Vec<Op> = (0..512u64)
                .map(|i| {
                    rng = rng.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                    let key = (rng >> 33) % space;
                    match (rng >> 60) % 3 {
                        0 => Op::Put { key, val: i },
                        1 => Op::Get { key },
                        _ => Op::Delete { key },
                    }
                })
                .collect();
            let path = [EpochPath::Oram, EpochPath::Merge][e % 2];
            assert_eq!(s.epoch_path(ops.len()), path, "space {space}, epoch {e}");
            let got = s.execute_epoch(&c, &sp, &ops).unwrap();
            let want = oracle.epoch(&ops, path == EpochPath::Merge);
            assert_eq!(got, want, "space {space}, epoch {e}");
        }
    }
}

// ---------------------------------------------------------------------------
// Definition-1 trace equality
// ---------------------------------------------------------------------------

/// [`history`](common::history) on the 1-shard store.
fn run_history<C: Ctx>(c: &C, sp: &ScratchPool, salt: u64) -> Vec<Vec<OpResult>> {
    common::run_history(c, sp, StoreConfig::default().into(), salt).0
}

fn trace_history(sp: &ScratchPool, salt: u64) -> (u64, u64) {
    common::trace_history(sp, StoreConfig::default().into(), salt)
}

#[test]
fn merge_epoch_traces_are_shape_only_on_fresh_and_dirty_pools() {
    // Two different secret workloads, fresh pools.
    let fresh_a = ScratchPool::new();
    let fresh_b = ScratchPool::new();
    let a = trace_history(&fresh_a, 1);
    let b = trace_history(&fresh_b, 0xDEAD_BEEF);
    assert_eq!(a, b, "different data changed the epoch trace (fresh pools)");

    // Same again on pools dirtied by unrelated kernels.
    let dirty_a = ScratchPool::new();
    dirty(&dirty_a);
    assert!(dirty_a.leases() > 0 && dirty_a.fresh_allocs() > 0);
    let da = trace_history(&dirty_a, 2025);
    assert_eq!(a, da, "dirty pool changed the epoch trace");

    // And steady-state reuse of the same pool.
    let da2 = trace_history(&dirty_a, 31337);
    assert_eq!(a, da2, "second reuse changed the epoch trace");
}

#[test]
fn trace_depends_on_size_class_not_exact_op_count() {
    // 5-op and 7-op epochs both pad to class 8: the adversary must not be
    // able to tell them apart (regression test for a readout that traced
    // exactly `n_results` slots). Crossing a class boundary is public.
    let run = |n_ops: usize| {
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let sp = ScratchPool::new();
            let mut s = Store::new(StoreConfig::default());
            let puts: Vec<Op> = (0..n_ops as u64)
                .map(|i| Op::Put { key: i * 3, val: i })
                .collect();
            s.execute_epoch(c, &sp, &puts).unwrap();
            let gets: Vec<Op> = (0..n_ops as u64).map(|i| Op::Get { key: i }).collect();
            s.execute_epoch(c, &sp, &gets).unwrap();
        });
        (rep.trace_hash, rep.trace_len)
    };
    assert_eq!(run(5), run(7), "exact op count leaked within a size class");
    assert_ne!(
        run(5).1,
        run(9).1,
        "crossing a size class must change the public shape"
    );
}

#[test]
fn epoch_outputs_identical_under_seq_and_pool_fresh_and_dirty() {
    let c = SeqCtx::new();
    let fresh = ScratchPool::new();
    let want = run_history(&c, &fresh, 77);

    let reused = ScratchPool::new();
    dirty(&reused);
    assert_eq!(
        run_history(&c, &reused, 77),
        want,
        "SeqCtx: dirty pool changed results"
    );

    let exec = Pool::new(4);
    let par_pool = ScratchPool::new();
    dirty(&par_pool);
    let got = exec.run(|c| run_history(c, &par_pool, 77));
    assert_eq!(got, want, "Pool: dirty pool changed results");
    let got2 = exec.run(|c| run_history(c, &par_pool, 77));
    assert_eq!(got2, want, "Pool: steady-state reuse changed results");
}

/// The ORAM path's bucket addresses depend on the position-map coins, so
/// exact cross-key equality is a *distributional* claim there (DESIGN.md
/// §8); the finite consequences that hold exactly: trace-length invariance
/// across datasets, and exact equality when only the *values* change.
#[test]
fn hybrid_traces_length_invariant_and_value_independent() {
    let history = |keys_salt: u64, val_scale: u64| {
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let sp = ScratchPool::new();
            let mut cfg = StoreConfig::with_oram(256);
            cfg.pending_limit = 32;
            let mut store = Store::new(cfg);
            // A load past the pending limit merges, then two ORAM-path
            // epochs.
            let load: Vec<Op> = (0..64u64)
                .map(|i| Op::Put {
                    key: i.wrapping_mul(keys_salt) % 256,
                    val: i * val_scale,
                })
                .collect();
            store.execute_epoch(c, &sp, &load).unwrap();
            for round in 0..2u64 {
                let ops: Vec<Op> = (0..8u64)
                    .map(|i| {
                        let key = (i * 31 + round * keys_salt) % 256;
                        if i % 2 == 0 {
                            Op::Get { key }
                        } else {
                            Op::Put {
                                key,
                                val: i * val_scale,
                            }
                        }
                    })
                    .collect();
                store.execute_epoch(c, &sp, &ops).unwrap();
            }
        });
        (rep.trace_hash, rep.trace_len)
    };
    // Different values, same addresses: exactly equal.
    assert_eq!(
        history(7, 1),
        history(7, 1_000_003),
        "values leaked into the hybrid trace"
    );
    // Different keys: length must not move (contents are coin-dependent).
    assert_eq!(
        history(7, 1).1,
        history(97, 1).1,
        "trace length leaked the key set"
    );
}

/// The rebuild's shift bound met exactly: against a full 256-record
/// table, one epoch whose whole 64-op class deletes the 64 smallest keys.
/// Each delete leaves two non-candidates (itself and the record it clears)
/// ahead of every later record, so all 192 survivors move left by exactly
/// `2·b₂` — the bound the rebuild compacts by (debug builds check every
/// move against it). Answers and table must match the model.
#[test]
fn deleting_a_full_table_s_first_keys_moves_every_survivor_by_the_bound() {
    let (c, sp) = (SeqCtx::new(), ScratchPool::new());
    let cap = 256u64;
    let cfg = StoreConfig {
        shrink: Some(ShrinkPolicy {
            every: 1,
            live_bound: cap as usize,
            snapshot: 0,
        }),
        ..StoreConfig::default()
    };
    let mut store = Store::new(cfg);
    let mut oracle = model::Oracle::default();
    let mut epoch = |store: &mut Store, ops: &[Op]| {
        let got = store.execute_epoch(&c, &sp, ops).unwrap();
        assert_eq!(got, oracle.epoch(ops, true));
    };
    let load: Vec<Op> = (0..cap).map(|k| Op::Put { key: 3 * k, val: k }).collect();
    epoch(&mut store, &load);
    assert_eq!(store.capacity(), cap as usize, "the table is full");
    let deletes: Vec<Op> = (0..64).map(|k| Op::Delete { key: 3 * k }).collect();
    epoch(&mut store, &deletes);
    assert_eq!(store.capacity(), cap as usize);
    let probes: Vec<Op> = (0..cap + 8).map(|k| Op::Get { key: 3 * k }).collect();
    epoch(&mut store, &probes);
}
