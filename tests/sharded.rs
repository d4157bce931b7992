//! `ShardedStore` integration suite: fixed-seed model regressions across
//! shard counts and provisioning policies, and the Definition-1
//! obliviousness claims for the full sharded epoch pipeline — routing,
//! parallel per-shard commits, and the result gather must generate
//! identical adversary traces for any two same-shape workloads, on fresh
//! *and* dirty scratch pools, with outputs identical under the sequential
//! executor and the work-stealing pool.

use dob::prelude::*;

mod common;
use common::model::{self, Front, Oracle};
use common::{dirty, op_from, run_epochs, run_history, trace_epochs, trace_history, SIZES};

/// Sharded epochs match the model (`tests/common/model.rs`) at every
/// shard count and under both provisioning policies (full, and scaled
/// with its public fallback on skewed epochs).
#[test]
fn sharded_epochs_match_hashmap_oracle() {
    let sharded = |f| matches!(f, Front::Sync { shards, .. } if shards > 1);
    model::regress(&SeqCtx::new(), 3, sharded);
}

/// Aggregate answers are one semantic everywhere: the global snapshot as
/// of the last merge close *strictly before* the epoch, whatever the op's
/// position in the batch. The same script runs at every shard count,
/// synchronously and pipelined, and each answer must be the model's,
/// which no shard count changes.
#[test]
fn aggregate_semantics_identical_across_shard_counts() {
    let merge_only = |f| !matches!(f, Front::Oram { .. });
    model::regress(&SeqCtx::new(), 4, merge_only);
}

// ---------------------------------------------------------------------------
// Definition-1 trace equality
// ---------------------------------------------------------------------------

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
    let mut oracle = Oracle::default();
    let mut caps = Vec::new();
    for round in 0..6u64 {
        // Bounded key universe so the per-shard declared bound holds.
        let ops: Vec<Op> = (0..40u64)
            .map(|i| op_from((i + round) as u8, (i * 3 + round) % 48, i + round))
            .collect();
        let res = store.execute_epoch(&c, &sp, &ops).unwrap();
        assert_eq!(res, oracle.epoch(&ops, true));
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
