//! `PipelinedStore` integration suite: submit-while-merging correctness
//! against a `HashMap` oracle under the work-stealing pool, handle/join
//! discipline, read-your-writes through the in-flight consult, and the
//! public handoff cadence.

use dob::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

fn mixed_ops(n: u64, salt: u64, key_space: u64) -> Vec<Op> {
    (0..n)
        .map(|i| {
            let key = (i * 7 + salt * 13 + 1) % key_space;
            match (i + salt) % 5 {
                0..=2 => Op::Put {
                    key,
                    val: salt * 10_000 + i,
                },
                3 => Op::Get { key },
                _ => Op::Delete { key },
            }
        })
        .collect()
}

fn apply_to_oracle(oracle: &mut HashMap<u64, u64>, ops: &[Op], res: &[OpResult]) {
    assert_eq!(res.len(), ops.len());
    for (op, got) in ops.iter().zip(res) {
        match *op {
            Op::Get { key } => assert_eq!(got.value(), oracle.get(&key).copied(), "get {key}"),
            Op::Put { key, val } => assert_eq!(got.value(), oracle.insert(key, val), "put {key}"),
            Op::Delete { key } => assert_eq!(got.value(), oracle.remove(&key), "delete {key}"),
            Op::Aggregate => {}
        }
    }
}

/// The headline stress: a Pool(4) drives a pipelined store through many
/// client batches, interleaving fresh submissions and `read_now` consults
/// with in-flight commits; every epoch's results and every consult answer
/// must match a HashMap replayed in submission order.
#[test]
fn pool4_interleaved_submissions_match_hashmap_oracle() {
    let pool = Pool::new(4);
    let key_space = 97u64;

    for shards in [1usize, 4] {
        let store = ShardedStore::new(ShardConfig::with_shards(shards));
        let mut p = PipelinedStore::new(store).with_open_limit(256);
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        // Mirror of everything submitted but not yet oracle-applied:
        // (epoch handle, the ops of that epoch).
        let mut unapplied: Vec<(EpochHandle, Vec<Op>)> = Vec::new();
        let mut open_ops: Vec<Op> = Vec::new();

        for round in 0..12u64 {
            let batch = mixed_ops(40, round, key_space);
            for op in &batch {
                p.submit(*op);
                open_ops.push(*op);
            }

            // Consult mid-stream: the answer must reflect oracle state
            // *plus* everything in flight and open, i.e. the submission
            // order to date.
            let probe: Vec<u64> = (0..8).map(|i| (round * 11 + i * 3) % key_space).collect();
            let got = p.read_now(&pool, &probe);
            let mut shadow = oracle.clone();
            for (h, ops) in &unapplied {
                let _ = h;
                for op in ops {
                    match *op {
                        Op::Put { key, val } => {
                            shadow.insert(key, val);
                        }
                        Op::Delete { key } => {
                            shadow.remove(&key);
                        }
                        _ => {}
                    }
                }
            }
            for op in &open_ops {
                match *op {
                    Op::Put { key, val } => {
                        shadow.insert(key, val);
                    }
                    Op::Delete { key } => {
                        shadow.remove(&key);
                    }
                    _ => {}
                }
            }
            let want: Vec<Option<u64>> = probe.iter().map(|k| shadow.get(k).copied()).collect();
            assert_eq!(got, want, "consult diverged at round {round}");

            // Opportunistic commit: whatever the cadence decides, track it.
            if let Some(h) = p.try_commit(&pool) {
                unapplied.push((h, std::mem::take(&mut open_ops)));
            }

            // Occasionally redeem the oldest outstanding epoch while later
            // ones are still in flight.
            if round % 3 == 2 && !unapplied.is_empty() {
                let (h, ops) = unapplied.remove(0);
                let res = p.wait(&h).unwrap();
                apply_to_oracle(&mut oracle, &ops, &res);
            }
        }

        // Drain: commit the tail and redeem everything outstanding.
        if !open_ops.is_empty() {
            let h = p.commit_async(&pool);
            unapplied.push((h, std::mem::take(&mut open_ops)));
        }
        for (h, ops) in unapplied {
            let res = p.wait(&h).unwrap();
            apply_to_oracle(&mut oracle, &ops, &res);
        }

        // Final state agrees with the oracle, via consult and via stats.
        let keys: Vec<u64> = (0..key_space).collect();
        let got = p.read_now(&pool, &keys);
        for (k, v) in keys.iter().zip(got) {
            assert_eq!(v, oracle.get(k).copied(), "final key {k} ({shards} shards)");
        }
        let inner = p.into_inner(&pool);
        assert_eq!(inner.stats().count, oracle.len() as u64);
        let sum = oracle.values().fold(0u64, |a, &v| a.wrapping_add(v));
        assert_eq!(inner.stats().sum, sum);
    }
}

/// Handles may be redeemed out of order and long after later epochs
/// committed; each one returns exactly its own epoch's results.
#[test]
fn handles_redeem_out_of_order_under_pool() {
    let pool = Pool::new(4);
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let mut sync = Store::new(StoreConfig::default());
    let mut p = PipelinedStore::new(Store::new(StoreConfig::default()));

    let mut handles = Vec::new();
    let mut want = Vec::new();
    for e in 0..6u64 {
        let ops = mixed_ops(20, e, 31);
        want.push(sync.execute_epoch(&c, &sp, &ops).unwrap());
        for op in &ops {
            p.submit(*op);
        }
        handles.push(p.commit_async(&pool));
    }
    // Redeem evens first, then odds (odd order on purpose).
    for i in (0..6).step_by(2).chain((1..6).step_by(2)) {
        assert_eq!(p.wait(&handles[i]).unwrap(), want[i], "epoch {i}");
    }
    assert_eq!(p.epoch_counts(), (6, 6));
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

/// `(kind, key index, value)` triples as ops over `key_of`.
fn ops_of(raw: &[(u8, u64, u64)], key_of: impl Fn(u64) -> u64) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, k, val)| match kind {
            0 | 1 => Op::Put {
                key: key_of(k),
                val,
            },
            2 => Op::Delete { key: key_of(k) },
            _ => Op::Get { key: key_of(k) },
        })
        .collect()
}

fn raw_ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..4, 0u64..48, 0u64..1_000_000), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `read_now` against a `HashMap`, wherever the answer lives: shards
    /// {1, 2, 4} and a 1-shard ORAM store with a non-empty pending log,
    /// each with nothing in flight, an epoch in flight, or an epoch in
    /// flight plus an open buffer. Key indices 48..64 are never written
    /// (absent keys), index 15 is `u64::MAX`, probes repeat keys, and
    /// their count runs from 1 to past the per-shard capacity (128 once
    /// loaded, 8 when the load is empty).
    #[test]
    fn read_now_matches_a_hashmap_wherever_the_answer_lives(
        config in 0usize..4,
        stage in 0usize..3,
        load in raw_ops(0..100),
        settled in raw_ops(1..20),
        flying in raw_ops(1..40),
        open in raw_ops(1..40),
        probes in proptest::collection::vec(0u64..64, 1..300),
    ) {
        let c = SeqCtx::new();
        let oram = config == 3;
        let key_of = |k: u64| match (oram, k) {
            (true, _) => k,
            (false, 15) => u64::MAX,
            (false, _) => k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        let store = if oram {
            Store::new(StoreConfig::with_oram(64))
        } else {
            ShardedStore::new(ShardConfig::with_shards(1 << config))
        };
        let mut p = PipelinedStore::new(store);
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut submit = |p: &mut PipelinedStore, raw: &[(u8, u64, u64)]| {
            for op in ops_of(raw, key_of) {
                p.submit(op);
                match op {
                    Op::Put { key, val } => drop(oracle.insert(key, val)),
                    Op::Delete { key } => drop(oracle.remove(&key)),
                    _ => {}
                }
            }
        };

        // Two retired epochs: a load, and a small one that an ORAM store
        // serves by point lookups and leaves in its pending log.
        for raw in [&load, &settled] {
            submit(&mut p, raw);
            let h = p.commit_async(&c);
            prop_assert!(p.wait(&h).is_ok());
        }
        if oram {
            prop_assert!(p.inner().unwrap().pending_len() > 0);
        }
        // Under `SeqCtx` the merge has run by now, but the epoch stays in
        // flight — log consulted, snapshot not refreshed — until joined.
        let flight = (stage >= 1).then(|| {
            submit(&mut p, &flying);
            p.commit_async(&c)
        });
        if stage == 2 {
            submit(&mut p, &open);
        }
        prop_assert_eq!(p.in_flight(), stage >= 1);

        let keys: Vec<u64> = probes.iter().map(|&k| key_of(k)).collect();
        let want: Vec<Option<u64>> = keys.iter().map(|k| oracle.get(k).copied()).collect();
        prop_assert_eq!(p.read_now(&c, &keys), want.clone());

        // The consult wrote nothing back: once everything has merged, the
        // tables alone give the same answers.
        if let Some(h) = flight {
            prop_assert!(p.wait(&h).is_ok());
        }
        p.drain(&c);
        prop_assert_eq!(p.read_now(&c, &keys), want);
    }
}
