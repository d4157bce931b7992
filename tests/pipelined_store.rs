//! `PipelinedStore` integration suite: fixed-seed model regressions of
//! submit-while-merging under the work-stealing pool, out-of-order handle
//! redemption and read-your-writes through the in-flight consult
//! (`tests/common/model.rs`); drop and drain, typed consult errors, and
//! the public handoff cadence.

use dob::prelude::*;

mod common;
use common::model::{self, mixed_ops, Cmd, Front};

/// The headline stress: a Pool(4) drives the pipelined front at 1 and 4
/// shards through fixed-seed scripts, interleaving submissions,
/// `try_commit`s that coalesce while a merge is in flight (up to an open
/// limit of 16, or none), `read_now` consults and out-of-order waits;
/// every answer must be the model's (`tests/common/model.rs`).
#[test]
fn pool4_interleaved_submissions_match_hashmap_oracle() {
    model::regress(&Pool::new(4), 5, |f| matches!(f, Front::Pipelined { .. }));
}

/// Handles may be redeemed out of order and long after later epochs
/// committed; each one returns exactly its own epoch's results.
#[test]
fn handles_redeem_out_of_order_under_pool() {
    let mut script = Vec::new();
    for e in 0..6 {
        script.extend(mixed_ops(20, e, 31).into_iter().map(Cmd::Submit));
        script.push(Cmd::Commit);
    }
    let waits = [false, true].repeat(3).into_iter();
    script.extend(waits.map(Cmd::Wait));
    for shards in [1, 4] {
        model::check(&Pool::new(4), Front::pipelined(shards), false, &script);
    }
}

/// `read_now` against the model wherever the answer lives: shards {1, 4}
/// and the ORAM store with a pending log, with nothing in flight, an
/// epoch in flight, or one in flight plus an open buffer; absent keys,
/// `u64::MAX`, repeated probes, and probe counts past the per-shard
/// capacity.
#[test]
fn read_now_matches_a_hashmap_wherever_the_answer_lives() {
    let pipelined = |f| matches!(f, Front::Pipelined { .. } | Front::Oram { pipelined: true });
    model::regress(&SeqCtx::new(), 6, pipelined);
}

/// Dropping the pipelined store (or the pool) with an epoch still in
/// flight is safe: the detached task finishes under the pool's drop
/// barrier, and an explicit drain retires it deterministically.
#[test]
fn drop_and_drain_with_inflight_epochs() {
    let pool = Pool::new(2);
    let mut p = PipelinedStore::new(Store::new(StoreConfig::default()));
    for i in 0..64u64 {
        p.submit(Op::Put { key: i, val: i });
    }
    let _h = p.commit_async(&pool);
    for i in 0..64u64 {
        p.submit(Op::Put { key: i, val: i + 1 });
    }
    let _ = p.commit_async(&pool);
    p.drain(&pool);
    assert!(!p.in_flight());
    assert_eq!(p.inner().unwrap().stats().count, 64);

    // And one more left genuinely in flight at drop time.
    let mut q = PipelinedStore::new(Store::new(StoreConfig::default()));
    for i in 0..64u64 {
        q.submit(Op::Put { key: i, val: i });
    }
    let _ = q.commit_async(&pool);
    drop(q);
    drop(pool);
}

/// The handoff cadence is public: with a fixed submission schedule the
/// sequence of (started, retired, open_len) observed at each step is a
/// pure function of batch sizes — identical for different key contents —
/// when driven by a deterministic executor.
#[test]
fn handoff_cadence_depends_on_sizes_not_contents() {
    let run = |salt: u64| {
        let c = SeqCtx::new();
        let mut p = PipelinedStore::new(Store::new(StoreConfig::default())).with_open_limit(96);
        let mut observed = Vec::new();
        for round in 0..8u64 {
            for op in mixed_ops(24, round * 7 + salt, 61) {
                p.submit(op);
            }
            let committed = p.try_commit(&c).is_some();
            observed.push((committed, p.epoch_counts(), p.open_len()));
        }
        p.drain(&c);
        observed.push((true, p.epoch_counts(), p.open_len()));
        observed
    };
    assert_eq!(run(1), run(0xDEAD_BEEF), "cadence depended on contents");
}

/// A contract-breaking query key or open-buffer op is a typed error from
/// `try_read_now` — nothing runs, nothing degrades, and the pipeline
/// carries on (the bad open op then rejects its own epoch at `wait`).
#[test]
fn try_read_now_reports_invalid_ops_and_leaves_the_store_healthy() {
    let c = SeqCtx::new();
    let mut p = PipelinedStore::new(Store::new(StoreConfig::with_oram(16)));
    p.submit(Op::Put { key: 3, val: 30 });
    let h = p.commit_async(&c);

    // A query outside the key space, named by its position in `keys`.
    let err = p.try_read_now(&c, &[3, 99]);
    assert!(
        matches!(err, Err(StoreError::InvalidOp { index: 1, .. })),
        "{err:?}"
    );
    assert_eq!(p.try_read_now(&c, &[3]).unwrap(), vec![Some(30)]);

    // A hostile op in the open buffer, named by its position there.
    p.submit(Op::Put { key: 4, val: 40 });
    p.submit(Op::Put {
        key: 5,
        val: u64::MAX,
    });
    let err = p.try_read_now(&c, &[4]);
    assert!(
        matches!(err, Err(StoreError::InvalidOp { index: 1, .. })),
        "{err:?}"
    );
    assert_eq!(p.health(), Health::Ok);
    assert_eq!(p.wait(&h).unwrap().len(), 1);

    // That open epoch is rejected as a whole; the next one commits and
    // the consult answers again.
    let bad = p.commit_async(&c);
    assert!(matches!(p.wait(&bad), Err(StoreError::InvalidOp { .. })));
    p.submit(Op::Put { key: 4, val: 41 });
    let good = p.commit_async(&c);
    assert_eq!(p.wait(&good).unwrap().len(), 1);
    assert_eq!(p.health(), Health::Ok);
    assert_eq!(p.read_now(&c, &[3, 4, 5]), vec![Some(30), Some(41), None]);
}
