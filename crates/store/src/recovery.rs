//! Crash recovery: rebuild a store from its snapshots + WAL directory by
//! replaying logged epochs through the live commit path.
//!
//! # Replay is the normal path
//!
//! Recovery does not interpret records with bespoke code: each WAL record
//! holds an epoch's already padded client batch, and replay hands it to
//! [`ShardedStore::commit`], the step a live epoch runs after its
//! durability point — at more than one shard: route, parallel shard
//! commits, gather. The recovered adversary trace is therefore the same
//! public function of the logged batch classes as a fresh run of those
//! epochs: recovery leaks nothing the original execution had not already
//! leaked. (Replay drops the answer cells; nothing host-side reads them.)
//!
//! # One log, a snapshot base per shard
//!
//! A crash mid-append tears at most the one record of an epoch that was
//! never acknowledged. Snapshots are per shard, and a crash between two
//! of a checkpoint's renames leaves shards on different bases
//! (`next_seq`) over a log that still holds every epoch since the oldest.
//! Replay starts at the smallest base, and each record commits only on
//! the shards whose base is at or below its sequence number — a function
//! of the public bases alone.
//!
//! # Typed failures
//!
//! Recovery refuses to guess. A WAL whose clean prefix starts *above* the
//! smallest snapshot base, or ends *below* the largest — acknowledged
//! records provably missing — is a hard [`StoreError::WalCorrupt`], and a
//! present-but-corrupt snapshot is [`StoreError::SnapshotFailed`]:
//! silently starting empty would lose acknowledged data. Torn or corrupt
//! WAL *tails* stay benign (the crash artifact of an epoch that was never
//! acknowledged). Checksummed bytes are not trusted further than a
//! client: a replayed op that breaks the client contract is `WalCorrupt`
//! with its epoch, a snapshot record no put could have left is
//! `SnapshotFailed` — never a panic in the ORAM mirror — and so is a
//! frame or snapshot whose sequence number no store reaches
//! (`wal::SEQ_LIMIT`), never an overflow in the epoch counter.

use crate::error::StoreError;
use crate::shard::Shard;
use crate::store::{first_breach, ShardConfig, ShardedStore};
use crate::vfs::Vfs;
use crate::wal;
use fj::Ctx;
use metrics::ScratchPool;
use std::io;
use std::path::Path;

/// Load the store in `dir`: every shard's snapshot (if any), then the WAL
/// records from the smallest snapshot base on, replayed through the live
/// commit path — the body of [`crate::ShardedStore::recover`]. The store
/// comes back in memory, with no WAL attached.
pub(crate) fn recover_store<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    vfs: &dyn Vfs,
    dir: &Path,
    cfg: ShardConfig,
) -> Result<ShardedStore, StoreError> {
    refuse_per_shard_logs(vfs, dir)?;
    let mut shards = Vec::with_capacity(cfg.shards);
    let mut bases = Vec::with_capacity(cfg.shards);
    for i in 0..cfg.shards {
        let snap = wal::read_snapshot(vfs, dir, i).map_err(|source| {
            if source.kind() == io::ErrorKind::InvalidData {
                StoreError::SnapshotFailed { shard: i, source }
            } else {
                StoreError::Io {
                    context: "snapshot read",
                    source,
                }
            }
        })?;
        let (shard, base) = match snap {
            Some((meta, table)) => {
                let shard = Shard::from_snapshot(
                    c,
                    scratch,
                    cfg.store,
                    i as u64,
                    table,
                    meta.live_upper as usize,
                    meta.merges,
                    meta.stats,
                )
                .map_err(|source| StoreError::SnapshotFailed { shard: i, source })?;
                (shard, meta.next_seq)
            }
            None => (Shard::new(cfg.store, i as u64), 0),
        };
        shards.push(shard);
        bases.push(base);
    }
    let from = bases.iter().copied().min().unwrap_or(0);
    let to = bases.iter().copied().max().unwrap_or(0);

    let scan = wal::read_wal(vfs, &wal::wal_path(dir, 0)).map_err(|source| {
        if source.kind() == io::ErrorKind::InvalidData {
            StoreError::WalCorrupt {
                detail: source.to_string(),
            }
        } else {
            StoreError::Io {
                context: "wal read",
                source,
            }
        }
    })?;
    // Keep only what some snapshot does not cover. `read_wal` returns a
    // consecutive prefix, so the survivors run from `first` to `end`, and
    // they must reach from the oldest base to the newest: otherwise
    // acknowledged records are missing, and recovery refuses rather than
    // silently dropping them. (A prefix entirely below the oldest base is
    // stale but harmless: the snapshots cover it.)
    let records: Vec<_> = scan.records.into_iter().filter(|r| r.0 >= from).collect();
    let first = records.first().map_or(from, |r| r.0);
    let end = first + records.len() as u64;
    if first > from || end < to {
        let stopped = scan.reject.map_or(String::new(), |r| {
            format!(" (scan stopped at offset {}: {})", r.offset, r.detail)
        });
        return Err(StoreError::WalCorrupt {
            detail: format!(
                "log holds epochs {first}..{end} but the snapshots resume at {from} to \
                 {to}: acknowledged records are missing{stopped}"
            ),
        });
    }
    // A checksum vouches for the bytes, not for the writer: hold every
    // logged batch to the contract its ops were admitted under.
    for (seq, batch) in &records {
        if let Some((op, reason)) = first_breach(&cfg.store, batch) {
            return Err(StoreError::WalCorrupt {
                detail: format!("epoch {seq}, op {op}: {reason}"),
            });
        }
    }

    let mut store = ShardedStore::assemble(cfg, shards, from);
    for (_, batch) in &records {
        store.commit(c, scratch, batch, &bases);
    }
    Ok(store)
}

/// Refuse a directory in the older per-shard layout, whose `wal-{i}.log`
/// held shard `i`'s routed sub-batches: replaying shard 0's as whole
/// batches would silently lose every other shard's records. Probes
/// `wal-1.log`, `wal-2.log`, … until one is missing; a non-empty one is
/// [`StoreError::WalCorrupt`] naming the file.
fn refuse_per_shard_logs(vfs: &dyn Vfs, dir: &Path) -> Result<(), StoreError> {
    for path in (1..).map(|i| wal::wal_path(dir, i)) {
        match vfs.read(&path) {
            Ok(bytes) if bytes.is_empty() => {}
            Ok(_) => {
                return Err(StoreError::WalCorrupt {
                    detail: format!(
                        "{} is a per-shard log of an older layout; this store keeps one \
                         log, wal-0.log, and will not replay it",
                        path.display()
                    ),
                })
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => break,
            Err(source) => {
                return Err(StoreError::Io {
                    context: "wal read",
                    source,
                })
            }
        }
    }
    Ok(())
}
