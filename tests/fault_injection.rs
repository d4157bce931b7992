//! Fault-injection chaos suite (DESIGN.md §15): the durable engine —
//! unrouted and routed, synchronous and pipelined — killed at every I/O
//! boundary, recovered, and compared against an oracle replaying exactly
//! the acknowledged prefix.
//!
//! The injectable filesystem is [`store::vfs::FaultVfs`]: faults — EIO
//! and ENOSPC on the k-th write, torn appends, lying syncs, a crash at
//! an exact I/O-operation index — are drawn from a seeded **public**
//! schedule, so a run is fully deterministic and the retry decisions it
//! provokes are functions of public I/O outcomes only. The suite checks:
//!
//! * **Crash-point sweep** (SQLite-style): the dry run counts the I/O
//!   operations a fixed workload performs; the sweep then crashes at
//!   *every* index in that range, recovers from the frozen durable
//!   image, and asserts the recovered state equals a `HashMap` oracle
//!   that replayed only the acknowledged epochs. The workload
//!   checkpoints twice, so crash points also fall between per-shard
//!   snapshot renames and before the WAL truncate. Runs at 1 and 4
//!   shards, synchronous and pipelined, under `SeqCtx` fully and a
//!   pinned `Pool(4)`.
//! * **Seeded schedules** (proptest): probabilistic EIO / torn / sync
//!   faults across seeds × shard counts × commit modes — recovery always
//!   reproduces the acked prefix, and the fault log is identical across
//!   datasets of the same shape (schedule-public).
//! * **Taxonomy edges** (1 and 4 shards): ENOSPC fails fast (no retry
//!   spin) and degrades the store; a deterministic k-th-write EIO is
//!   absorbed by the retry policy with no observable effect; fsync lies
//!   lose only a clean suffix of acknowledged epochs.
//! * **Definition 1 under faults**: the recovery-replay trace of a
//!   fault-built image equals that of an unfaulted build of the same
//!   shapes.
//!
//! `DOB_FAULT_SEED` (the CI chaos matrix) is mixed into every schedule
//! seed, so each leg explores a different deterministic fault universe.

use dob::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use store::vfs::{FaultPlan, FaultVfs, Vfs};

/// CI matrix knob: perturbs every fault-schedule seed in the suite.
fn env_seed() -> u64 {
    std::env::var("DOB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn retry(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        attempts,
        backoff: Duration::ZERO,
    }
}

fn durable_cfg(attempts: u32) -> StoreConfig {
    StoreConfig {
        durability: Durability::epoch(),
        retry: retry(attempts),
        ..StoreConfig::default()
    }
}

/// Deterministic mixed workload: epoch `e`'s batch shape is fixed (the
/// public part); `salt` perturbs keys/values/op-kinds (the secret part).
fn epoch_ops(e: u64, salt: u64) -> Vec<Op> {
    let n = [12u64, 20, 8, 16][(e % 4) as usize];
    (0..n)
        .map(|i| {
            let key = (i * 7 + e * 13 + salt + 1) % 41;
            match (i + e + salt) % 5 {
                0..=2 => Op::Put {
                    key,
                    val: e * 10_000 + i + salt * 100,
                },
                3 => Op::Get { key },
                _ => Op::Delete { key },
            }
        })
        .collect()
}

fn apply(oracle: &mut HashMap<u64, u64>, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Put { key, val } => {
                oracle.insert(key, val);
            }
            Op::Delete { key } => {
                oracle.remove(&key);
            }
            Op::Get { .. } | Op::Aggregate => {}
        }
    }
}

/// How a run commits its epochs: synchronously or through the pipelined
/// wrapper, each over a durable engine of the given shard count (1 = the
/// plain `Store`: nothing routed, one WAL).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Front {
    Sharded(usize),
    Pipelined(usize),
}

impl Front {
    fn shards(self) -> usize {
        let (Front::Sharded(shards) | Front::Pipelined(shards)) = self;
        shards
    }
}

const FRONTS: [Front; 4] = [
    Front::Sharded(1),
    Front::Sharded(4),
    Front::Pipelined(1),
    Front::Pipelined(4),
];

const DIR: &str = "/chaos/store";

/// Open (or recover) `shards` durable shards in [`DIR`] on `vfs`.
fn open<C: Ctx>(
    c: &C,
    sp: &ScratchPool,
    shards: usize,
    attempts: u32,
    vfs: Arc<FaultVfs>,
) -> Result<ShardedStore, StoreError> {
    let mut cfg = ShardConfig::with_shards(shards);
    cfg.store = durable_cfg(attempts);
    ShardedStore::recover_with(c, sp, DIR, cfg, vfs)
}

/// Epochs in the driven workload. It checkpoints at merges 2 and 4 and
/// then runs one more epoch, so a crash inside a checkpoint — which
/// degrades the store after acknowledging the epoch that triggered it —
/// still costs the last epoch.
const EPOCHS: u64 = 5;

/// Drive `epochs` epochs of the fixed workload against `front` on `vfs`,
/// with a checkpoint every second merge, stopping at the first rejected
/// epoch. Returns the **acknowledged** batches, in commit order: exactly
/// the epochs whose commit returned `Ok` (for the pipelined front, whose
/// `wait` returned `Ok`).
fn drive<C: Ctx>(
    c: &C,
    sp: &ScratchPool,
    front: Front,
    vfs: Arc<FaultVfs>,
    epochs: u64,
    salt: u64,
) -> Vec<Vec<Op>> {
    let mut acked = Vec::new();
    let mut cfg = ShardConfig::with_shards(front.shards());
    cfg.store = StoreConfig {
        shrink: Some(ShrinkPolicy {
            every: 0,
            live_bound: 0,
            snapshot: 2,
        }),
        ..durable_cfg(2)
    };
    let Ok(mut s) = ShardedStore::recover_with(c, sp, DIR, cfg, vfs) else {
        return acked;
    };
    match front {
        Front::Sharded(_) => {
            for e in 0..epochs {
                let ops = epoch_ops(e, salt);
                if s.execute_epoch(c, sp, &ops).is_err() {
                    return acked;
                }
                acked.push(ops);
            }
        }
        Front::Pipelined(_) => {
            let mut p = PipelinedStore::with_scratch(s, Arc::new(ScratchPool::new()));
            let mut pending: Option<(EpochHandle, Vec<Op>)> = None;
            for e in 0..epochs {
                let ops = epoch_ops(e, salt);
                for &op in &ops {
                    p.submit(op);
                }
                let h = p.commit_async(c);
                if let Some((ph, pops)) = pending.take() {
                    if p.wait(&ph).is_err() {
                        let _ = p.wait(&h);
                        return acked;
                    }
                    acked.push(pops);
                }
                pending = Some((h, ops));
            }
            if let Some((ph, pops)) = pending.take() {
                if p.wait(&ph).is_ok() {
                    acked.push(pops);
                }
            }
        }
    }
    acked
}

/// Recover `shards` shards from the (fault-free) crash image and assert
/// the recovered state is exactly the acked-prefix oracle: the replayed
/// epoch count matches, and every key in the workload's universe probes
/// to the oracle's answer.
fn assert_recovers_acked<C: Ctx>(
    c: &C,
    sp: &ScratchPool,
    shards: usize,
    image: FaultVfs,
    acked: &[Vec<Op>],
) {
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for ops in acked {
        apply(&mut oracle, ops);
    }
    let mut r =
        open(c, sp, shards, 1, Arc::new(image)).expect("recovery from a crash image must succeed");
    // Every epoch merges (no ORAM path), so shard 0's merge counter must
    // match too: a shard that replayed an epoch its snapshot already
    // holds would run ahead, even where last-writer-wins hides it.
    let n = acked.len() as u64;
    assert_eq!(
        r.epoch_counts(),
        (n, n),
        "recovered epoch / merge counts != acknowledged epochs"
    );
    let probes: Vec<Op> = (0..41).map(|key| Op::Get { key }).collect();
    let res = r.execute_epoch(c, sp, &probes).unwrap();
    for (key, got) in (0..41u64).zip(&res) {
        assert_eq!(
            got.value(),
            oracle.get(&key).copied(),
            "{shards} shard(s): key {key} diverged from the acked-prefix oracle"
        );
    }
}

/// One exhaustive sweep of a front end: dry-run to count I/O operations,
/// then crash at every index in that range and check recovery.
fn sweep_front<C: Ctx>(c: &C, sp: &ScratchPool, front: Front, salt: u64) {
    let shards = front.shards();
    let dry = Arc::new(FaultVfs::unfaulted());
    let full = drive(c, sp, front, dry.clone(), EPOCHS, salt);
    assert_eq!(
        full.len() as u64,
        EPOCHS,
        "{front:?}: unfaulted run must ack all epochs"
    );
    let n = dry.io_ops();
    assert!(n > 0);
    assert_recovers_acked(c, sp, shards, dry.durable_image(), &full);

    for k in 0..n {
        let vfs = Arc::new(FaultVfs::new(FaultPlan {
            crash_at: Some(k),
            ..FaultPlan::default()
        }));
        let acked = drive(c, sp, front, vfs.clone(), EPOCHS, salt);
        assert!(
            vfs.crashed(),
            "{front:?}: crash point {k} (of {n}) never fired"
        );
        assert!(
            (acked.len() as u64) < EPOCHS,
            "{front:?}: crash at {k} lost no epoch"
        );
        assert_recovers_acked(c, sp, shards, vfs.durable_image(), &acked);
    }
}

#[test]
fn crash_point_sweep_recovers_exactly_the_acked_prefix() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let salt = env_seed();
    for front in FRONTS {
        sweep_front(&c, &sp, front, salt);
    }
}

#[test]
fn crash_point_sweep_under_pinned_pool() {
    let pool = Pool::pinned(4);
    let sp = ScratchPool::new();
    let salt = env_seed().wrapping_add(1);
    for front in [Front::Sharded(4), Front::Pipelined(1), Front::Pipelined(4)] {
        pool.run(|c| sweep_front(c, &sp, front, salt));
    }
}

#[test]
fn group_commit_checkpoints_never_leave_a_snapshot_ahead_of_the_log() {
    // With `sync_every > 1` a checkpoint can start while appends sit
    // unsynced. It syncs the log before the first snapshot lands, so a
    // crash between two shards' snapshot renames never leaves a shard
    // whose base the durable log cannot reach: every crash point
    // recovers to a prefix of the acknowledged epochs (group commit may
    // lose an unsynced suffix).
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let cfg = ShardConfig {
        shards: 4,
        route_slack: 0,
        store: StoreConfig {
            durability: Durability::epoch_every(4),
            shrink: Some(ShrinkPolicy {
                every: 0,
                live_bound: 0,
                snapshot: 2,
            }),
            retry: retry(1),
            ..StoreConfig::default()
        },
    };
    let epochs: Vec<Vec<Op>> = (0..EPOCHS).map(|e| epoch_ops(e, 0)).collect();
    let run = |vfs: Arc<FaultVfs>| {
        let Ok(mut s) = ShardedStore::recover_with(&c, &sp, DIR, cfg, vfs) else {
            return 0;
        };
        let acked = epochs
            .iter()
            .take_while(|ops| s.execute_epoch(&c, &sp, ops).is_ok());
        acked.count()
    };
    let dry = Arc::new(FaultVfs::unfaulted());
    assert_eq!(run(dry.clone()), epochs.len());
    for k in 0..dry.io_ops() {
        let vfs = Arc::new(FaultVfs::new(FaultPlan {
            crash_at: Some(k),
            ..FaultPlan::default()
        }));
        let acked = run(vfs.clone());
        let r = open(&c, &sp, 4, 1, Arc::new(vfs.durable_image()))
            .unwrap_or_else(|e| panic!("crash point {k}: {e}"));
        let m = r.epoch_counts().0 as usize;
        assert!(
            m <= acked,
            "crash point {k}: recovered an unacknowledged epoch"
        );
        assert_recovers_acked(&c, &sp, 4, vfs.durable_image(), &epochs[..m]);
    }
}

#[test]
fn enospc_fails_fast_and_degrades_the_store() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    for shards in [1usize, 4] {
        // Appends are the only writes here (no snapshots), one per epoch
        // at every shard count, so write 2 is epoch 2's WAL record:
        // epochs 0 and 1 ack, epoch 2 hits ENOSPC.
        let vfs = Arc::new(FaultVfs::new(FaultPlan {
            enospc_write: Some(2),
            ..FaultPlan::default()
        }));
        let mut s = open(&c, &sp, shards, 4, vfs.clone()).unwrap();
        let mut acked = Vec::new();
        for e in 0..2u64 {
            let ops = epoch_ops(e, 3);
            s.execute_epoch(&c, &sp, &ops).unwrap();
            acked.push(ops);
        }
        let err = s.execute_epoch(&c, &sp, &epoch_ops(2, 3)).unwrap_err();
        // Permanent fault: surfaced as Io (fail-fast), never
        // RetriesExhausted.
        assert!(
            matches!(
                err,
                StoreError::Io {
                    context: "wal append",
                    ..
                }
            ),
            "ENOSPC must fail fast, got: {err}"
        );
        let kinds: Vec<_> = vfs.fault_log().iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec!["write-enospc"], "ENOSPC must not be retried");

        // Sticky degraded mode: commits refused, reads still answered.
        assert_eq!(s.health(), Health::Degraded);
        assert!(s.last_fault().is_some());
        let refused = s.execute_epoch(&c, &sp, &epoch_ops(3, 3)).unwrap_err();
        assert!(matches!(refused, StoreError::Poisoned));
        let _ = s.stats();

        // The rejected epoch left nothing behind: recovery sees epochs 0–1.
        assert_recovers_acked(&c, &sp, shards, vfs.durable_image(), &acked);
    }
}

#[test]
fn a_durable_epoch_is_one_append_and_one_sync_at_every_shard_count() {
    // The WAL logs the padded client batch before routing, so a 4-shard
    // epoch costs what a 1-shard one does: two I/O operations at
    // `sync_every = 1`, one append (the record lands in the live file)
    // and one sync (and it is durable).
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let wal = std::path::Path::new(DIR).join("wal-0.log");
    for shards in [1usize, 4] {
        let vfs = Arc::new(FaultVfs::unfaulted());
        let mut s = open(&c, &sp, shards, 1, vfs.clone()).unwrap();
        for e in 0..3u64 {
            let (ops, len) = (vfs.io_ops(), vfs.read(&wal).unwrap().len());
            s.execute_epoch(&c, &sp, &epoch_ops(e, 1)).unwrap();
            // `read` is an I/O operation too: count before it.
            let spent = vfs.io_ops() - ops - 1;
            assert_eq!(spent, 2, "{shards} shard(s), epoch {e}: I/O operations");
            let live = vfs.read(&wal).unwrap();
            let class = store::size_class(epoch_ops(e, 1).len());
            assert_eq!(live.len() - len, 20 + 17 * class, "one record appended");
            assert_eq!(vfs.durable_image().read(&wal).unwrap(), live, "and synced");
        }
        for i in 1..shards {
            let per_shard = std::path::Path::new(DIR).join(format!("wal-{i}.log"));
            assert!(vfs.read(&per_shard).is_err(), "no {per_shard:?}");
        }
    }
}

#[test]
fn transient_kth_write_eio_is_absorbed_by_retry() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    for shards in [1usize, 4] {
        let vfs = Arc::new(FaultVfs::new(FaultPlan {
            eio_write: Some(1),
            ..FaultPlan::default()
        }));
        let mut s = open(&c, &sp, shards, 3, vfs.clone()).unwrap();
        let mut acked = Vec::new();
        for e in 0..4u64 {
            let ops = epoch_ops(e, 5);
            s.execute_epoch(&c, &sp, &ops)
                .expect("transient EIO must be retried to success");
            acked.push(ops);
        }
        assert_eq!(s.health(), Health::Ok);
        let kinds: Vec<_> = vfs.fault_log().iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec!["write-eio"], "exactly one injected fault");
        assert_recovers_acked(&c, &sp, shards, vfs.durable_image(), &acked);
    }
}

#[test]
fn retries_exhausted_rejects_atomically() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    for shards in [1usize, 4] {
        // Crash-like persistent EIO from the first write on: with a
        // bounded budget the append exhausts its attempts and the epoch
        // is rejected.
        let vfs = Arc::new(FaultVfs::new(FaultPlan {
            seed: env_seed() ^ 0xE10,
            write_fault: 255,
            ..FaultPlan::default()
        }));
        let mut s = open(&c, &sp, shards, 3, vfs.clone()).unwrap();
        let err = s.execute_epoch(&c, &sp, &epoch_ops(0, 9)).unwrap_err();
        assert!(
            matches!(err, StoreError::RetriesExhausted { attempts: 3, .. }),
            "expected RetriesExhausted, got: {err}"
        );
        assert_eq!(s.health(), Health::Degraded);
        assert_recovers_acked(&c, &sp, shards, vfs.durable_image(), &[]);
    }
}

#[test]
fn fsync_lies_lose_only_a_clean_acked_suffix() {
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    // Lying syncs ack epochs the disk never saw. The store cannot detect
    // the lie (neither can SQLite); the contract is containment: what
    // recovery finds is a clean *prefix* of the acked epochs — never a
    // gap, never a reorder, never a partial epoch (one log at every
    // shard count: an epoch's record is there whole or not at all).
    for shards in [1usize, 4] {
        let vfs = Arc::new(FaultVfs::new(FaultPlan {
            seed: env_seed() ^ 0x11E5,
            sync_lie: 140,
            ..FaultPlan::default()
        }));
        let mut s = open(&c, &sp, shards, 1, vfs.clone()).unwrap();
        let mut per_epoch = Vec::new();
        for e in 0..6u64 {
            let ops = epoch_ops(e, 7);
            s.execute_epoch(&c, &sp, &ops).unwrap();
            per_epoch.push(ops);
        }
        assert!(
            vfs.fault_log().iter().any(|f| f.kind == "sync-lie"),
            "schedule never lied; pick a different seed"
        );
        drop(s);

        let r = open(&c, &sp, shards, 1, Arc::new(vfs.durable_image())).unwrap();
        let m = r.epoch_counts().0 as usize;
        assert!(m <= 6, "recovered more epochs than were committed");
        assert_recovers_acked(&c, &sp, shards, vfs.durable_image(), &per_epoch[..m]);
    }
}

#[test]
fn fault_log_is_a_function_of_the_schedule_not_the_data() {
    // Same epoch shapes, same schedule seed, entirely different
    // keys/values/op-kinds: the injected-fault decision stream, the I/O
    // operation count, and the acked count must all be identical —
    // faults and retries read only public I/O outcomes (DESIGN.md §15).
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    let run = |salt: u64| {
        let vfs = Arc::new(FaultVfs::new(FaultPlan {
            seed: env_seed() ^ 0x5EED,
            write_fault: 48,
            torn: 128,
            sync_fault: 24,
            ..FaultPlan::default()
        }));
        let acked = drive(&c, &sp, Front::Sharded(1), vfs.clone(), 4, salt);
        (vfs.fault_log(), vfs.io_ops(), acked.len())
    };
    let (log_a, ops_a, acked_a) = run(17);
    let (log_b, ops_b, acked_b) = run(90210);
    assert_eq!(log_a, log_b, "fault decisions depended on the data");
    assert_eq!(ops_a, ops_b, "I/O schedule depended on the data");
    assert_eq!(acked_a, acked_b, "retry outcomes depended on the data");
}

#[test]
fn recovery_replay_trace_under_faults_equals_unfaulted_build() {
    // Definition 1 across the failure machinery: an image built through
    // injected (retry-absorbed) faults and an image built with no faults
    // at all hold byte-identical logs for same-shape workloads, so their
    // recovery replays leave the same adversary trace.
    let c = SeqCtx::new();
    let sp = ScratchPool::new();
    for shards in [1usize, 4] {
        let build = |vfs: Arc<FaultVfs>, salt: u64| {
            let mut s = open(&c, &sp, shards, 12, vfs).unwrap();
            // Two appends and two syncs an epoch: eight epochs give the
            // schedule enough coins to inject something.
            for e in 0..8u64 {
                s.execute_epoch(&c, &sp, &epoch_ops(e, salt))
                    .expect("the retry budget must absorb this schedule");
            }
        };
        let faulted = Arc::new(FaultVfs::new(FaultPlan {
            seed: env_seed() ^ 0x7AB1E,
            write_fault: 96,
            torn: 128,
            sync_fault: 64,
            ..FaultPlan::default()
        }));
        build(faulted.clone(), 31);
        assert!(
            !faulted.fault_log().is_empty(),
            "schedule injected nothing; the check is vacuous"
        );
        let clean = Arc::new(FaultVfs::unfaulted());
        build(clean.clone(), 62);

        let replay = |image: FaultVfs| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let cfg = ShardConfig::with_shards(shards);
                let _ = ShardedStore::recover_with(c, &sp, DIR, cfg, Arc::new(image)).unwrap();
            });
            (rep.trace_hash, rep.trace_len)
        };
        assert_eq!(
            replay(faulted.durable_image()),
            replay(clean.durable_image()),
            "{shards} shard(s): fault-built image replays a different trace than an unfaulted build"
        );
    }
}

mod seeded_schedules {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Probabilistic schedules across seeds × shard counts × front
        /// ends: whatever the faults do — absorbed by retries, terminal
        /// rejection, mid-epoch torn appends — recovery from the durable
        /// image always reproduces exactly the acked prefix.
        #[test]
        fn recovery_matches_acked_prefix_under_seeded_faults(
            seed in 0u64..1_000_000,
            which in 0usize..4,
            salt in 0u64..1000,
        ) {
            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let front = FRONTS[which];
            let vfs = Arc::new(FaultVfs::new(FaultPlan {
                seed: seed ^ env_seed().rotate_left(17),
                write_fault: 32,
                torn: 128,
                sync_fault: 16,
                ..FaultPlan::default()
            }));
            let acked = drive(&c, &sp, front, vfs.clone(), 4, salt);
            assert_recovers_acked(&c, &sp, front.shards(), vfs.durable_image(), &acked);
        }

        /// The same schedule against different data acks the same number
        /// of epochs and injects the same faults: retry/fault decisions
        /// are functions of public I/O outcomes only.
        #[test]
        fn fault_decisions_are_schedule_public_across_fronts(
            seed in 0u64..1_000_000,
            which in 0usize..4,
        ) {
            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let front = FRONTS[which];
            let run = |salt: u64| {
                let vfs = Arc::new(FaultVfs::new(FaultPlan {
                    seed: seed ^ env_seed().rotate_left(29),
                    write_fault: 40,
                    torn: 100,
                    sync_fault: 20,
                    ..FaultPlan::default()
                }));
                let acked = drive(&c, &sp, front, vfs.clone(), 4, salt);
                (vfs.fault_log(), vfs.io_ops(), acked.len())
            };
            prop_assert_eq!(run(11), run(777));
        }
    }
}
