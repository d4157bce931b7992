//! `ShardedStore` integration suite: HashMap-oracle property tests across
//! shard counts, and the Definition-1 obliviousness claims for the full
//! sharded epoch pipeline — routing, parallel per-shard commits, and the
//! result gather must generate identical adversary traces for any two
//! same-shape workloads, on fresh *and* dirty scratch pools, with outputs
//! identical under the sequential executor and the work-stealing pool.

use dob::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::dirty;

fn op_from(kind: u8, key: u64, val: u64) -> Op {
    match kind % 4 {
        0 => Op::Get { key },
        1 => Op::Put { key, val },
        2 => Op::Delete { key },
        _ => Op::Aggregate,
    }
}

fn stats_of(oracle: &HashMap<u64, u64>) -> StoreStats {
    StoreStats {
        count: oracle.len() as u64,
        sum: oracle.values().fold(0u64, |a, &v| a.wrapping_add(v)),
    }
}

fn check_epoch(oracle: &mut HashMap<u64, u64>, snapshot: StoreStats, ops: &[Op], res: &[OpResult]) {
    assert_eq!(res.len(), ops.len());
    for (op, got) in ops.iter().zip(res.iter()) {
        match *op {
            Op::Get { key } => assert_eq!(got.value(), oracle.get(&key).copied(), "get {key}"),
            Op::Put { key, val } => assert_eq!(got.value(), oracle.insert(key, val), "put {key}"),
            Op::Delete { key } => assert_eq!(got.value(), oracle.remove(&key), "delete {key}"),
            Op::Aggregate => assert_eq!(*got, OpResult::Stats(snapshot), "aggregate"),
        }
    }
}

/// Shard count under test from `DOB_SHARDS` (the CI matrix sets 1 and 4),
/// defaulting to 4.
fn env_shards() -> usize {
    std::env::var("DOB_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|n: &usize| n.is_power_of_two() && *n >= 1)
        .unwrap_or(4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded epochs match the oracle exactly, at every shard count and
    /// under both provisioning policies (full and scaled-with-fallback).
    #[test]
    fn sharded_epochs_match_hashmap_oracle(
        epochs in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0u64..48, 0u64..1000), 0..40),
            1..5,
        ),
        slack in 0usize..3,
    ) {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for shards in [1usize, 2, 8] {
            let mut cfg = ShardConfig::with_shards(shards);
            cfg.route_slack = slack;
            let mut store = ShardedStore::new(cfg);
            let mut oracle: HashMap<u64, u64> = HashMap::new();
            for raw in &epochs {
                let ops: Vec<Op> =
                    raw.iter().map(|&(k, key, val)| op_from(k, key, val)).collect();
                let snapshot = store.stats();
                let res = store.execute_epoch(&c, &sp, &ops).unwrap();
                check_epoch(&mut oracle, snapshot, &ops, &res);
                prop_assert_eq!(store.stats(), stats_of(&oracle), "shards {}", shards);
            }
        }
    }
}

#[test]
fn env_selected_shard_count_matches_oracle() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let shards = env_shards();
    let mut store = ShardedStore::new(ShardConfig::with_shards(shards));
    assert_eq!(store.shard_count(), shards);
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for round in 0..4u64 {
        let ops: Vec<Op> = (0..24u64)
            .map(|i| op_from((i + round) as u8, (i * 7 + round * 13) % 64, i * round))
            .collect();
        let snapshot = store.stats();
        let res = store.execute_epoch(&c, &sp, &ops).unwrap();
        check_epoch(&mut oracle, snapshot, &ops, &res);
    }
    assert_eq!(store.stats(), stats_of(&oracle));
}

// ---------------------------------------------------------------------------
// Definition-1 trace equality
// ---------------------------------------------------------------------------

/// Batch sizes of every history below: classes 64, 16 and 32.
const SIZES: [usize; 3] = [40, 12, 28];

/// A fixed-shape epoch history parameterized by the secret payload: same
/// epoch count, same batch sizes, same shard count — totally different
/// keys/values/op-kinds.
fn history(salt: u64) -> Vec<Vec<Op>> {
    SIZES
        .iter()
        .enumerate()
        .map(|(e, &size)| {
            (0..size as u64)
                .map(|i| {
                    let key = i
                        .wrapping_mul(salt.wrapping_mul(2654435761).wrapping_add(97))
                        .wrapping_add(e as u64)
                        % 512;
                    op_from((i.wrapping_add(salt) % 4) as u8, key, salt.wrapping_add(i))
                })
                .collect()
        })
        .collect()
}

fn run_epochs<C: Ctx>(
    c: &C,
    sp: &ScratchPool,
    cfg: ShardConfig,
    epochs: &[Vec<Op>],
) -> (Vec<Vec<OpResult>>, u64) {
    let mut store = ShardedStore::new(cfg);
    let out = epochs
        .iter()
        .map(|ops| store.execute_epoch(c, sp, ops).unwrap())
        .collect();
    (out, store.routing_fallbacks())
}

fn run_history<C: Ctx>(
    c: &C,
    sp: &ScratchPool,
    cfg: ShardConfig,
    salt: u64,
) -> (Vec<Vec<OpResult>>, u64) {
    run_epochs(c, sp, cfg, &history(salt))
}

fn trace_epochs(sp: &ScratchPool, cfg: ShardConfig, epochs: &[Vec<Op>]) -> (u64, u64) {
    let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
        run_epochs(c, sp, cfg, epochs);
    });
    (rep.trace_hash, rep.trace_len)
}

fn trace_history(sp: &ScratchPool, cfg: ShardConfig, salt: u64) -> (u64, u64) {
    trace_epochs(sp, cfg, &history(salt))
}

#[test]
fn sharded_epoch_traces_are_shape_only_on_fresh_and_dirty_pools() {
    let cfg = ShardConfig::with_shards(4);
    // Two different secret workloads, fresh pools.
    let fresh_a = ScratchPool::new();
    let fresh_b = ScratchPool::new();
    let a = trace_history(&fresh_a, cfg, 1);
    let b = trace_history(&fresh_b, cfg, 0xDEAD_BEEF);
    assert_eq!(a, b, "different data changed the epoch trace (fresh pools)");

    // Same again on pools dirtied by unrelated kernels.
    let dirty_a = ScratchPool::new();
    dirty(&dirty_a);
    assert!(dirty_a.leases() > 0 && dirty_a.fresh_allocs() > 0);
    let da = trace_history(&dirty_a, cfg, 2025);
    assert_eq!(a, da, "dirty pool changed the epoch trace");

    // And steady-state reuse of the same pool.
    let da2 = trace_history(&dirty_a, cfg, 31337);
    assert_eq!(a, da2, "second reuse changed the epoch trace");
}

#[test]
fn sharded_traces_are_shape_only_under_scaled_provisioning() {
    // With route_slack = 2 the per-shard class is b/2; these spread key
    // distributions never overflow it, so the scaled path itself must be
    // trace-equal. The fallback counters double-check that both runs
    // exercised the scaled path (no public fallback fired).
    let mut cfg = ShardConfig::with_shards(4);
    cfg.route_slack = 2;
    let sp = ScratchPool::new();
    let c = SeqCtx::new();
    for salt in [3, 0xFEED] {
        let (_, fallbacks) = run_history(&c, &sp, cfg, salt);
        assert_eq!(fallbacks, 0, "salt {salt} unexpectedly overflowed");
    }
    let a = trace_history(&sp, cfg, 3);
    let b = trace_history(&sp, cfg, 0xFEED);
    assert_eq!(a, b, "scaled routing leaked per-shard loads");

    // At the count's boundary: in every epoch one shard owns exactly its
    // class `zcap = b/2` of the ops (32, 8 and 16), the rest spread over
    // the other three. No fallback, and the same trace as the spread load.
    // No aggregates: they route by key 0, to whichever shard owns it.
    let mut owned_by = vec![Vec::new(); 4];
    for key in 0u64.. {
        let s = shard_of(key, 4);
        if owned_by[s].len() < 32 {
            owned_by[s].push(key);
        }
        if owned_by.iter().all(|keys| keys.len() == 32) {
            break;
        }
    }
    let boundary: Vec<Vec<Op>> = SIZES
        .iter()
        .map(|&size| {
            let zcap = size.next_power_of_two() / 2;
            (0..size)
                .map(|i| {
                    let key = match i < zcap {
                        true => owned_by[0][i],
                        false => owned_by[1 + i % 3][i - zcap],
                    };
                    op_from((i % 3) as u8, key, i as u64)
                })
                .collect()
        })
        .collect();
    let (_, fallbacks) = run_epochs(&c, &sp, cfg, &boundary);
    assert_eq!(fallbacks, 0, "a shard holding exactly zcap ops fell back");
    assert_eq!(
        trace_epochs(&sp, cfg, &boundary),
        a,
        "a full shard class changed the trace"
    );
}

#[test]
fn shard_count_is_public_shape() {
    // Changing the shard count is a *public* configuration change and must
    // move the trace; the trace at fixed (batch sizes, shard count) is the
    // whole leakage.
    let sp = ScratchPool::new();
    let t1 = trace_history(&sp, ShardConfig::with_shards(2), 7);
    let t4 = trace_history(&sp, ShardConfig::with_shards(4), 7);
    assert_ne!(t1.1, t4.1, "shard count must be visible in the shape");
}

#[test]
fn sharded_outputs_identical_under_seq_and_pool_fresh_and_dirty() {
    let cfg = ShardConfig::with_shards(4);
    let c = SeqCtx::new();
    let fresh = ScratchPool::new();
    let want = run_history(&c, &fresh, cfg, 77).0;

    let reused = ScratchPool::new();
    dirty(&reused);
    assert_eq!(
        run_history(&c, &reused, cfg, 77).0,
        want,
        "SeqCtx: dirty pool changed results"
    );

    let exec = Pool::new(4);
    let par_pool = ScratchPool::new();
    dirty(&par_pool);
    let got = exec.run(|c| run_history(c, &par_pool, cfg, 77).0);
    assert_eq!(got, want, "Pool: dirty pool changed results");
    let got2 = exec.run(|c| run_history(c, &par_pool, cfg, 77).0);
    assert_eq!(got2, want, "Pool: steady-state reuse changed results");
}

// ---------------------------------------------------------------------------
// Public shrink schedule
// ---------------------------------------------------------------------------

#[test]
fn shrink_schedule_is_non_monotone_and_correct() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let mut cfg = ShardConfig::with_shards(4);
    cfg.store.shrink = Some(ShrinkPolicy {
        every: 2,
        live_bound: 16, // per shard
        snapshot: 0,
    });
    let mut store = ShardedStore::new(cfg);
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    let mut caps = Vec::new();
    for round in 0..6u64 {
        // Bounded key universe so the per-shard declared bound holds.
        let ops: Vec<Op> = (0..40u64)
            .map(|i| op_from((i + round) as u8, (i * 3 + round) % 48, i + round))
            .collect();
        let snapshot = store.stats();
        let res = store.execute_epoch(&c, &sp, &ops).unwrap();
        check_epoch(&mut oracle, snapshot, &ops, &res);
        caps.push(store.capacity());
    }
    // Odd merges grow capacity, even merges compact it: non-monotone.
    assert!(
        caps.windows(2).any(|w| w[1] < w[0]),
        "capacity never shrank: {caps:?}"
    );
    assert!(
        caps.windows(2).any(|w| w[1] > w[0]),
        "capacity never grew: {caps:?}"
    );
    // The compacted capacity is the declared bound's class, per shard.
    assert_eq!(*caps.last().unwrap(), 4 * 16);
}

#[test]
fn shrink_cadence_is_public_not_data_dependent() {
    // Same shapes, different data, shrink enabled: traces still equal —
    // the schedule reads only the merge counter.
    let mut cfg = ShardConfig::with_shards(4);
    cfg.store.shrink = Some(ShrinkPolicy {
        every: 2,
        live_bound: 64,
        snapshot: 0,
    });
    let sp = ScratchPool::new();
    let a = trace_history(&sp, cfg, 11);
    let b = trace_history(&sp, cfg, 0xC0FFEE);
    assert_eq!(a, b, "shrink schedule leaked data");
}

#[test]
#[should_panic(expected = "public capacity bound")]
fn violating_the_declared_live_bound_fails_loudly() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let cfg = StoreConfig {
        shrink: Some(ShrinkPolicy {
            every: 1,
            live_bound: 8,
            snapshot: 0,
        }),
        ..StoreConfig::default()
    };
    let mut store = Store::new(cfg);
    // 100 distinct live keys can not fit the declared bound of 8.
    let ops: Vec<Op> = (0..100).map(|i| Op::Put { key: i, val: i }).collect();
    let _ = store.execute_epoch(&c, &sp, &ops);
}

/// Aggregate answers are one documented semantic everywhere: the global
/// snapshot as of the last merge close *strictly before* the epoch,
/// regardless of the op's position in the batch and regardless of shard
/// count. Same op sequence into shards ∈ {1, 4} must produce identical
/// answers for every op — including aggregates placed before, between
/// and after the epoch's writes.
#[test]
fn aggregate_semantics_identical_across_shard_counts() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();

    // Aggregates at every position of a mixed epoch, over several epochs
    // so later aggregates observe genuinely different snapshots.
    let epochs: Vec<Vec<Op>> = (0..4u64)
        .map(|e| {
            let mut ops = vec![Op::Aggregate];
            for i in 0..24u64 {
                let key = (i * 5 + e) % 41;
                ops.push(match i % 4 {
                    0 | 1 => Op::Put {
                        key,
                        val: e * 1000 + i,
                    },
                    2 => Op::Get { key },
                    _ => Op::Delete {
                        key: (key + 7) % 41,
                    },
                });
                if i == 11 {
                    ops.push(Op::Aggregate);
                }
            }
            ops.push(Op::Aggregate);
            ops
        })
        .collect();

    let mut one = Store::new(StoreConfig::default());
    let mut four = ShardedStore::new(ShardConfig::with_shards(4));

    for ops in &epochs {
        let want = one.execute_epoch(&c, &sp, ops).unwrap();
        let got4 = four.execute_epoch(&c, &sp, ops).unwrap();
        assert_eq!(got4, want, "4 shards diverged from 1 shard");
        // Every aggregate in the epoch observes the same pre-epoch
        // snapshot (epoch-atomic, not sequential-within-the-epoch).
        let aggs: Vec<&OpResult> = ops
            .iter()
            .zip(want.iter())
            .filter(|(op, _)| matches!(op, Op::Aggregate))
            .map(|(_, r)| r)
            .collect();
        assert!(aggs.windows(2).all(|w| w[0] == w[1]));
    }
    assert_eq!(one.stats(), four.stats());
}
