//! Durability suite: fixed-seed kill-and-recover regressions of the
//! shared store model (`tests/common/model.rs`), torn WAL tails,
//! snapshot/truncate cadence, sharded checkpoints cut between snapshots,
//! the one-log layout, the pipelined WAL-before-merge ordering, and
//! Definition-1 trace equality of the recovery replay (fresh-vs-dirty
//! scratch, recovery-vs-fresh-run at 1 and 4 shards).

mod common;

use common::dirty;
use common::model::{self, Front, Oracle};
use dob::prelude::*;
use std::path::PathBuf;

/// Per-test scratch directory (fresh each run; tests run in parallel, so
/// every test gets its own name).
fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dob_durability_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable_cfg() -> StoreConfig {
    StoreConfig {
        durability: Durability::epoch(),
        ..StoreConfig::default()
    }
}

fn mixed_ops(n: u64, salt: u64) -> Vec<Op> {
    model::mixed_ops(n, salt, 41)
}

fn trace_of(f: impl FnOnce(&MeterCtx)) -> (u64, u64) {
    let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| f(c));
    (rep.trace_hash, rep.trace_len)
}

/// Kill and recover a durable store mid-script: the model's crash
/// command recovers from the durable image and checks it against every
/// committed epoch (`tests/common/model.rs`).
#[test]
fn kill_and_recover_matches_oracle() {
    model::regress(&SeqCtx::new(), 7, |f| f == Front::sync(1));
}

/// The same crash images recovered under a pinned `Pool(4)` and under
/// `SeqCtx` (the script's crash commands alternate) hold the same state.
#[test]
fn recover_under_pinned_pool_matches_seqctx() {
    let fronts = |f| f == Front::sync(1) || f == Front::sync(4);
    model::regress(&Pool::pinned(4), 8, fronts);
}

#[test]
fn torn_tail_record_is_dropped() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("torn_tail");
    let mut oracle = Oracle::default();
    {
        let mut s = Store::recover(&c, &sp, &dir, durable_cfg()).unwrap();
        for e in 0..3u64 {
            let ops = mixed_ops(24, e);
            let res = s.execute_epoch(&c, &sp, &ops).unwrap();
            if e < 2 {
                assert_eq!(res, oracle.epoch(&ops, true));
            }
        }
    }
    // Simulate a crash mid-append of epoch 3: tear its record in half.
    // (Epoch 3 was "acknowledged" above, but the torn file is exactly the
    // disk image of a crash *during* that append — before the ack.)
    let wal = dir.join("wal-0.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 100) // mid-record: the tail fails its checksum
        .unwrap();
    let mut r = Store::recover(&c, &sp, &dir, StoreConfig::default()).unwrap();
    assert_eq!(r.epoch_counts().0, 2, "the torn epoch is not replayed");
    oracle.assert_held_by(&c, &sp, &mut r, 41);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scheduled_snapshots_truncate_the_wal() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("snapshot_cadence");
    let cfg = StoreConfig {
        shrink: Some(ShrinkPolicy {
            every: 0, // no capacity compaction —
            live_bound: 0,
            snapshot: 2, // — but a snapshot every 2nd merge
        }),
        ..durable_cfg()
    };
    let mut oracle = Oracle::default();
    {
        let mut s = Store::recover(&c, &sp, &dir, cfg).unwrap();
        for e in 0..4u64 {
            let ops = mixed_ops(24, e);
            let res = s.execute_epoch(&c, &sp, &ops).unwrap();
            assert_eq!(res, oracle.epoch(&ops, true));
        }
        // Merge 4 snapshotted and truncated; the WAL holds nothing.
        assert_eq!(std::fs::metadata(dir.join("wal-0.log")).unwrap().len(), 0);
        assert!(dir.join("snap-0.bin").exists());
        // One more epoch lands in the (now short) WAL.
        let ops = mixed_ops(24, 9);
        let res = s.execute_epoch(&c, &sp, &ops).unwrap();
        assert_eq!(res, oracle.epoch(&ops, true));
        assert!(std::fs::metadata(dir.join("wal-0.log")).unwrap().len() > 0);
    }
    // Recovery = snapshot (4 epochs) + replay (1 epoch).
    let mut r = Store::recover(&c, &sp, &dir, StoreConfig::default()).unwrap();
    assert_eq!(r.epoch_counts().0, 5);
    oracle.assert_held_by(&c, &sp, &mut r, 41);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_checkpoint_and_oram_replay() {
    // An ORAM-path store: WAL records replay through the ORAM path too
    // (path selection during replay is the same public function of the
    // logged class), and checkpoint() works at merge closes.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("oram_replay");
    let mut cfg = StoreConfig {
        durability: Durability::epoch(),
        ..StoreConfig::with_oram(64)
    };
    cfg.oram_threshold = 32;
    let mut oracle = Oracle::default();
    {
        let mut s = Store::recover(&c, &sp, &dir, cfg).unwrap();
        // Big epoch: merge path. Then checkpoint at the merge close.
        let load: Vec<Op> = (0..40).map(|i| Op::Put { key: i, val: i + 1 }).collect();
        let res = s.execute_epoch(&c, &sp, &load).unwrap();
        assert_eq!(res, oracle.epoch(&load, true));
        s.checkpoint().unwrap();
        assert_eq!(std::fs::metadata(dir.join("wal-0.log")).unwrap().len(), 0);
        // Small epochs: ORAM path, logged and left in the WAL.
        for e in 0..3u64 {
            let ops = vec![
                Op::Put {
                    key: e,
                    val: 900 + e,
                },
                Op::Get { key: e + 1 },
                Op::Delete { key: 30 + e },
            ];
            assert_eq!(s.epoch_path(ops.len()), EpochPath::Oram);
            let res = s.execute_epoch(&c, &sp, &ops).unwrap();
            assert_eq!(res, oracle.epoch(&ops, false));
        }
        assert!(s.pending_len() > 0);
        // Checkpointing between merge closes is a typed refusal, not a
        // panic: nothing is written (the three ORAM epochs stay in the
        // WAL, replayed below) and the store stays healthy.
        let wal_len = std::fs::metadata(dir.join("wal-0.log")).unwrap().len();
        let refused = s.checkpoint();
        assert!(
            matches!(refused, Err(StoreError::CheckpointPending { pending }) if pending == s.pending_len()),
            "{refused:?}"
        );
        assert_eq!(s.health(), Health::Ok);
        assert_eq!(
            std::fs::metadata(dir.join("wal-0.log")).unwrap().len(),
            wal_len
        );
    }
    let mut r = Store::recover(&c, &sp, &dir, cfg).unwrap();
    assert_eq!(r.epoch_counts().0, 4);
    assert_eq!(r.last_path(), Some(EpochPath::Oram));
    assert!(r.pending_len() > 0, "ORAM replay rebuilds the pending log");
    // Probe through a merge epoch (41 keys ≥ threshold): consistency of
    // the recovered table + pending log + rebuilt ORAM mirror.
    oracle.assert_held_by(&c, &sp, &mut r, 41);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill and recover a durable 4-shard store at every route slack:
/// recovery replays through routing and gather.
#[test]
fn sharded_kill_and_recover_matches_oracle() {
    model::regress(&SeqCtx::new(), 9, |f| {
        matches!(f, Front::Sync { shards: 4, .. })
    });
}

#[test]
fn hostile_configs_are_typed_errors_and_create_nothing() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let three_shards = ShardConfig {
        shards: 3,
        store: durable_cfg(),
        ..ShardConfig::default()
    };
    let sharded_oram = ShardConfig {
        shards: 4,
        store: StoreConfig {
            durability: Durability::epoch(),
            ..StoreConfig::with_oram(64)
        },
        ..ShardConfig::default()
    };
    let oram_past_u32 = ShardConfig {
        shards: 1,
        store: StoreConfig {
            durability: Durability::epoch(),
            ..StoreConfig::with_oram(u32::MAX as usize + 1)
        },
        ..ShardConfig::default()
    };
    for (name, cfg) in [
        ("three_shards", three_shards),
        ("sharded_oram", sharded_oram),
        ("oram_past_u32", oram_past_u32),
    ] {
        let dir = tdir(name);
        let r = ShardedStore::recover(&c, &sp, &dir, cfg);
        assert!(
            matches!(r, Err(StoreError::InvalidConfig { .. })),
            "{name}: {:?}",
            r.err()
        );
        assert!(!dir.exists(), "{name}: recover created {dir:?}");
    }
}

#[test]
fn a_crash_between_snapshot_renames_recovers_every_acked_epoch() {
    // A checkpoint writes every shard's snapshot, then truncates the one
    // WAL. Cut it after shards 0 and 1 renamed theirs: shards 0–1 resume
    // at epoch 4, shards 2–3 at epoch 2, over a log holding epochs 2–3.
    // Recovery replays from the older base, each record only to the
    // shards that do not hold it yet.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let cfg = ShardConfig {
        shards: 4,
        route_slack: 0,
        store: durable_cfg(),
    };
    let (cut, done) = (tdir("cut_checkpoint"), tdir("done_checkpoint"));
    let mut oracle = Oracle::default();
    for dir in [&cut, &done] {
        oracle = Oracle::default();
        let mut s = ShardedStore::recover(&c, &sp, dir, cfg).unwrap();
        for e in 0..4u64 {
            let ops = mixed_ops(32, e);
            let res = s.execute_epoch(&c, &sp, &ops).unwrap();
            assert_eq!(res, oracle.epoch(&ops, true));
            if e == 1 || (e == 3 && dir == &done) {
                s.checkpoint().unwrap();
            }
        }
    }
    for i in 0..2 {
        let snap = format!("snap-{i}.bin");
        std::fs::copy(done.join(&snap), cut.join(&snap)).unwrap();
    }
    let mut r = ShardedStore::recover(&c, &sp, &cut, cfg).unwrap();
    let in_memory = ShardConfig {
        store: StoreConfig::default(),
        ..cfg
    };
    let want = ShardedStore::recover(&c, &sp, &done, in_memory).unwrap();
    assert_eq!(r.epoch_counts(), (4, 4), "every shard merged every epoch");
    assert_eq!((r.stats(), r.capacity()), (want.stats(), want.capacity()));
    oracle.assert_held_by(&c, &sp, &mut r, 41);

    // Without the log the older shards cannot catch up: that is lost
    // acknowledged data, and recovery says so.
    std::fs::write(cut.join("wal-0.log"), []).unwrap();
    let got = ShardedStore::recover(&c, &sp, &cut, cfg);
    assert!(
        matches!(&got, Err(StoreError::WalCorrupt { detail }) if detail.contains("log holds epochs 2..2")),
        "{:?}",
        got.err()
    );
    let _ = std::fs::remove_dir_all(&cut);
    let _ = std::fs::remove_dir_all(&done);
}

#[test]
fn a_directory_with_per_shard_logs_is_refused_untouched() {
    // An older layout kept one WAL per shard, each holding that shard's
    // routed sub-batches. Replaying `wal-0.log` as whole batches would
    // silently lose shards 1–3's records, so recovery refuses, names the
    // file, and replays and writes nothing.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("per_shard_logs");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal-0.log"), wal_frame(0, 4, 40)).unwrap();
    std::fs::write(dir.join("wal-1.log"), []).unwrap();
    std::fs::write(dir.join("wal-2.log"), wal_frame(0, 2, 20)).unwrap();
    let listing = |dir: &PathBuf| {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|f| {
                let f = f.unwrap();
                (f.file_name(), std::fs::read(f.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let before = listing(&dir);
    for shards in [1, 4] {
        let cfg = ShardConfig {
            shards,
            route_slack: 0,
            store: durable_cfg(),
        };
        let got = ShardedStore::recover(&c, &sp, &dir, cfg);
        assert!(
            matches!(&got, Err(StoreError::WalCorrupt { detail }) if detail.contains("wal-2.log")),
            "{shards} shard(s): {:?}",
            got.err()
        );
        assert_eq!(listing(&dir), before, "recovery wrote to the directory");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_drop_with_inflight_epoch_loses_nothing() {
    // The satellite regression: PipelinedStore::commit_async writes the
    // WAL record on the caller's thread *before* spawning the detached
    // merge, so an acknowledged epoch survives (a) a real crash — the
    // record is on disk — and (b) a graceful drop — the fj pool's drop
    // barrier finishes the in-flight merge before workers terminate.
    let sp = ScratchPool::new();
    let dir = tdir("pipelined_drop");
    let seq = SeqCtx::new();
    {
        let pool = Pool::pinned(4);
        let store = Store::recover(&pool, &sp, &dir, durable_cfg()).unwrap();
        let mut p = PipelinedStore::new(store);
        for i in 0..24u64 {
            p.submit(Op::Put {
                key: i,
                val: 100 + i,
            });
        }
        let _h = p.commit_async(&pool);
        // Durability point already passed: the WAL holds the epoch even
        // though the merge may still be in flight. Drop everything —
        // PipelinedStore first (abandons the Deferred), then the pool
        // (drop barrier runs the detached merge to completion).
        drop(p);
    }
    let mut r = Store::recover(&seq, &sp, &dir, StoreConfig::default()).unwrap();
    assert_eq!(r.epoch_counts().0, 1);
    let res = r.execute_epoch(&seq, &sp, &[Op::Get { key: 23 }]).unwrap();
    assert_eq!(res[0].value(), Some(123));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same script through the pipelined front end (pre-log + detached
/// commit) and the synchronous one: byte-identical WAL and snapshot files.
#[test]
fn pipelined_durable_matches_sync_durable() {
    model::assert_fronts_write_alike(|front| front.script(10, 400));
}

#[test]
fn replay_trace_is_oblivious_and_equals_a_fresh_run() {
    for shards in [1, 4] {
        replay_trace_is_oblivious_and_equals_a_fresh_run_at(shards);
    }
}

fn replay_trace_is_oblivious_and_equals_a_fresh_run_at(shards: usize) {
    // Definition-1 equality on the recovery path, three ways:
    //  1. fresh-vs-dirty scratch: replay through a dirtied pool leaves
    //     the identical trace;
    //  2. data-independence: two crash images with the same epoch shapes
    //     but different keys/values replay to the identical trace;
    //  3. replay-vs-fresh-run: recovery's trace equals a fresh store
    //     executing epochs of the same public classes (the WAL adds no
    //     oblivious work — appends are host-side I/O — and a sharded
    //     replay routes and gathers as the live epoch did).
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let cfg = |store| ShardConfig {
        shards,
        route_slack: 0,
        store,
    };
    let build = |dir: &PathBuf, salt: u64| {
        let mut s = ShardedStore::recover(&c, &sp, dir, cfg(durable_cfg())).unwrap();
        for e in 0..4u64 {
            s.execute_epoch(&c, &sp, &mixed_ops(24, e * 3 + salt))
                .unwrap();
        }
    };
    let (da, db) = (
        tdir(&format!("trace_a_{shards}")),
        tdir(&format!("trace_b_{shards}")),
    );
    build(&da, 1);
    build(&db, 2);

    let replay = |dir: &PathBuf, pool: &ScratchPool| {
        trace_of(|c| {
            let s = ShardedStore::recover(c, pool, dir, cfg(StoreConfig::default())).unwrap();
            assert_eq!(s.routing_fallbacks(), 0, "replay counts no fallbacks");
        })
    };
    let fresh = replay(&da, &sp);
    let dirty_pool = ScratchPool::new();
    dirty(&dirty_pool);
    assert_eq!(
        fresh,
        replay(&da, &dirty_pool),
        "dirty scratch perturbed the replay trace"
    );
    assert_eq!(
        fresh,
        replay(&db, &sp),
        "replay trace depends on logged contents, not just shapes"
    );

    // Fresh run of the same shapes (different data again): same trace.
    let fresh_run = trace_of(|c| {
        let mut s = ShardedStore::new(cfg(StoreConfig::default()));
        for e in 0..4u64 {
            s.execute_epoch(c, &sp, &mixed_ops(24, e * 5 + 11)).unwrap();
        }
    });
    assert_eq!(
        fresh, fresh_run,
        "{shards} shard(s): recovery replay must be trace-identical to a fresh run of the same classes"
    );
    let _ = std::fs::remove_dir_all(&da);
    let _ = std::fs::remove_dir_all(&db);
}

/// FNV-1a 64 of `bytes` — the same hash the WAL and snapshot frames carry.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn on_disk_format_matches_golden_bytes() {
    // Pins the WAL and snapshot byte formats: a fixed 3-epoch script with
    // a scheduled snapshot at merge 2 (so `snap-i.bin` covers epochs 0–1
    // and `wal-0.log` holds exactly epoch 2's padded 32-op record,
    // 20 + 17·32 = 564 bytes), at 1 and 4 shards. The snapshot constants
    // were captured at the commit before the two store front ends were
    // merged into one engine; a change here is a format change and needs
    // a migration story, not a new constant. The WAL logs the client
    // batch before routing, so its bytes do not depend on the shard
    // count, and `wal-0.log` is the only log.
    use store::vfs::{FaultVfs, Vfs};
    const WAL: u64 = 0x588c_eafe_a411_871c;
    const SNAPSHOTS: [&[u64]; 2] = [
        &[0xe252_75a1_15f3_e400],
        &[
            0xb87b_c899_7e7d_6ee9,
            0x644a_6210_a8f9_594b,
            0x9523_58ad_7097_fe97,
            0x25cc_74ff_b388_9cf5,
        ],
    ];
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    for want in SNAPSHOTS {
        let shards = want.len();
        let vfs = std::sync::Arc::new(FaultVfs::unfaulted());
        let dir = std::path::Path::new("/golden");
        let cfg = ShardConfig {
            shards,
            route_slack: 0,
            store: StoreConfig {
                shrink: Some(ShrinkPolicy {
                    every: 0,
                    live_bound: 0,
                    snapshot: 2,
                }),
                ..durable_cfg()
            },
        };
        let mut s = ShardedStore::recover_with(&c, &sp, dir, cfg, vfs.clone()).unwrap();
        for e in 0..3u64 {
            s.execute_epoch(&c, &sp, &mixed_ops(20, e)).unwrap();
        }
        let wal = vfs.read(&dir.join("wal-0.log")).unwrap();
        assert_eq!(wal.len(), 564, "{shards} shard(s): one 32-op record");
        assert_eq!(fnv1a64(&wal), WAL, "{shards} shard(s): WAL hash moved");
        for (i, &hash) in want.iter().enumerate() {
            let snap = vfs.read(&dir.join(format!("snap-{i}.bin"))).unwrap();
            assert_eq!(
                fnv1a64(&snap),
                hash,
                "shard {i} of {shards}: snapshot hash moved"
            );
            if i > 0 {
                assert!(vfs.read(&dir.join(format!("wal-{i}.log"))).is_err());
            }
        }
    }
}

/// A snapshot file for shard 0 of `dir`: header words `next_seq, merges,
/// live_upper, count, sum`, the cell-count word `cap`, then `cells`
/// (`tag`, `aux` little-endian) and the checksum.
fn write_raw_snapshot(dir: &std::path::Path, header: [u64; 5], cap: u64, cells: &[(u128, u128)]) {
    let mut bytes = 0x444F_4253_4E41_5031u64.to_le_bytes().to_vec(); // "DOBSNAP1"
    for word in header.into_iter().chain([cap]) {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    for (tag, aux) in cells {
        bytes.extend_from_slice(&tag.to_le_bytes());
        bytes.extend_from_slice(&aux.to_le_bytes());
    }
    bytes.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("snap-0.bin"), bytes).unwrap();
}

#[test]
fn hostile_snapshot_cell_count_is_snapshot_failed() {
    // A cell count of 2⁵⁹ or more overflows the snapshot's byte length:
    // recovery must refuse the file, not panic computing it.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("hostile_cap");
    for cap in [1u64 << 59, u64::MAX] {
        write_raw_snapshot(&dir, [0; 5], cap, &[]);
        let got = Store::recover(&c, &sp, &dir, durable_cfg());
        assert!(
            matches!(got, Err(StoreError::SnapshotFailed { shard: 0, .. })),
            "cap {cap}: {:?}",
            got.err()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An ORAM-path store over keys `0..64`, durable.
fn oram_cfg() -> StoreConfig {
    StoreConfig {
        durability: Durability::epoch(),
        ..StoreConfig::with_oram(64)
    }
}

#[test]
fn snapshot_records_outside_the_client_contract_are_snapshot_failed() {
    // Checksummed records the ORAM mirror cannot take: key 64 trips its
    // key-space assert, value u64::MAX overflows its `val + 1`. Recovery
    // refuses the file before the mirror is built.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("hostile_record");
    for (key, val) in [(64u64, 1u64), (u64::MAX >> 1, 1), (3, u64::MAX)] {
        let mut cells = vec![(1u128 << 64, 7), ((key as u128) << 64, val as u128)];
        cells.resize(8, (u128::MAX, 0));
        write_raw_snapshot(&dir, [0, 1, 2, 2, 0], 8, &cells);
        let got = Store::recover(&c, &sp, &dir, oram_cfg());
        assert!(
            matches!(&got, Err(StoreError::SnapshotFailed { shard: 0, source }) if source.to_string().contains("record 1")),
            "key {key} val {val}: {:?}",
            got.err()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_ops_outside_the_client_contract_are_wal_corrupt() {
    // Checksummed frames carrying what `validate_and_pad` turns away from
    // clients — a put of u64::MAX, a key outside the key space — or a kind
    // the writer never emits. Replay would hand them to the ORAM mirror;
    // recovery names the epoch instead.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("hostile_wal_op");
    let put = |key: u64, val: u64| (1u8, key, val);
    for bad in [
        put(3, u64::MAX),
        (0, 64, 0),
        put(1 << 40, 5),
        (5, 3, 0),
        (0xFF, 0, 0),
    ] {
        // Epoch 0 is clean; epoch 1 carries the bad op in slot 2.
        let mut wal = Vec::new();
        for (seq, ops) in [
            (0u64, vec![put(1, 10)]),
            (1, vec![put(2, 20), (0, 1, 0), bad]),
        ] {
            let mut frame = seq.to_le_bytes().to_vec();
            frame.extend_from_slice(&8u32.to_le_bytes());
            for i in 0..8 {
                let (kind, key, val) = ops.get(i).copied().unwrap_or((4, 0, 0));
                frame.push(kind);
                frame.extend_from_slice(&key.to_le_bytes());
                frame.extend_from_slice(&val.to_le_bytes());
            }
            frame.extend_from_slice(&fnv1a64(&frame).to_le_bytes());
            wal.extend_from_slice(&frame);
        }
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-0.log"), wal).unwrap();
        let got = Store::recover(&c, &sp, &dir, oram_cfg());
        assert!(
            matches!(&got, Err(StoreError::WalCorrupt { detail }) if detail.starts_with("epoch 1, op 2")),
            "{bad:?}: {:?}",
            got.err()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checksummed WAL frame for `seq` of class 1 holding `put(key, val)`.
fn wal_frame(seq: u64, key: u64, val: u64) -> Vec<u8> {
    let mut frame = seq.to_le_bytes().to_vec();
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.push(1);
    frame.extend_from_slice(&key.to_le_bytes());
    frame.extend_from_slice(&val.to_le_bytes());
    frame.extend_from_slice(&fnv1a64(&frame).to_le_bytes());
    frame
}

#[test]
fn a_checksummed_frame_numbered_u64_max_is_wal_corrupt() {
    // `seq + 1` of such a frame overflows: a panic in a debug build, and in
    // release a wrap that would pass a following frame 0 as consecutive.
    // Alone, or behind a clean frame it would otherwise continue.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("hostile_seq");
    let max = wal_frame(u64::MAX, 1, 10);
    for wal in [
        max.clone(),
        [max.clone(), wal_frame(0, 2, 20)].concat(),
        [wal_frame(u64::MAX - 1, 3, 30), max].concat(),
    ] {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-0.log"), wal).unwrap();
        let got = Store::recover(&c, &sp, &dir, durable_cfg());
        assert!(
            matches!(&got, Err(StoreError::WalCorrupt { .. })),
            "{:?}",
            got.err()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_resuming_at_u64_max_is_snapshot_failed() {
    // It would load cleanly, and the next epoch would log frame u64::MAX and
    // overflow the epoch counter.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("hostile_next_seq");
    for next_seq in [u64::MAX, 1 << 63] {
        write_raw_snapshot(&dir, [next_seq, 1, 0, 0, 0], 8, &[(u128::MAX, 0); 8]);
        let got = Store::recover(&c, &sp, &dir, durable_cfg());
        assert!(
            matches!(&got, Err(StoreError::SnapshotFailed { shard: 0, .. })),
            "next_seq {next_seq}: {:?}",
            got.as_ref().err()
        );
    }
    // Just below the limit is an ordinary (very old) store.
    write_raw_snapshot(&dir, [(1 << 63) - 2, 1, 0, 0, 0], 8, &[(u128::MAX, 0); 8]);
    let mut s = Store::recover(&c, &sp, &dir, durable_cfg()).unwrap();
    s.execute_epoch(&c, &sp, &[Op::Put { key: 1, val: 2 }])
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_bytes_cannot_inject_an_op_into_the_next_merge() {
    // A checksummed snapshot whose record for key 3 carries seq bits (it
    // would sort among the next merge's ops as batch slot 4) and a high
    // `aux` half (an op kind). Recovery loads it as the plain record, so
    // the next epoch reads key 3's value and nothing else changes.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let dir = tdir("noisy_record");
    let mut cells = vec![((3u128 << 64) | 5, (0x1_01u128 << 64) | 30)];
    cells.resize(8, (u128::MAX, 9));
    write_raw_snapshot(&dir, [0, 1, 1, 1, 30], 8, &cells);
    let mut s = Store::recover(&c, &sp, &dir, durable_cfg()).unwrap();
    let ops = [
        Op::Get { key: 3 },
        Op::Put { key: 3, val: 31 },
        Op::Get { key: 3 },
        Op::Get { key: 4 },
        Op::Get { key: 5 },
    ];
    let res = s.execute_epoch(&c, &sp, &ops).unwrap();
    let got: Vec<Option<u64>> = res.iter().map(OpResult::value).collect();
    assert_eq!(got, vec![Some(30), Some(30), Some(31), None, None]);
    assert_eq!(s.stats(), StoreStats { count: 1, sum: 31 });
    let _ = std::fs::remove_dir_all(&dir);
}
