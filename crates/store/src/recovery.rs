//! Crash recovery: rebuild a store from its snapshot + WAL directory by
//! replaying logged epochs through the normal merge machinery.
//!
//! # Replay is the normal path
//!
//! Recovery does not interpret records with bespoke code: each WAL record
//! holds an epoch's already padded batch, and replay feeds it straight
//! into [`Shard::execute`] on the path [`Shard::epoch_path`] publicly
//! selects for its class — exactly the calls the original epoch made. The
//! recovered adversary trace is therefore the same public function of the
//! logged batch classes as a fresh run of those epochs: recovery leaks
//! nothing the original execution had not already leaked. (Replay drops
//! the answer cells; nothing host-side reads them.)
//!
//! # The commit horizon
//!
//! A sharded store appends one record per shard per epoch, sequentially,
//! before any shard merges. A crash mid-append can leave the files
//! ragged: shard 0 holds epoch `e`'s record while shard 3 does not. An
//! epoch counts as **committed** only when its record is on every shard's
//! WAL (that is when `execute_epoch` — or the pipelined pre-log —
//! returned to the caller), so recovery replays up to the horizon
//! `min_i(next_seq_i + |records_i|)` and drops the ragged tail: exactly
//! the unacknowledged epochs. Snapshots never raise a shard above the
//! horizon, because a snapshot is only written after its epoch committed
//! on all shards.
//!
//! # Typed failures
//!
//! Recovery refuses to guess. A WAL whose clean prefix starts *above* the
//! snapshot's horizon — acknowledged records provably missing — is a hard
//! [`StoreError::WalCorrupt`], and a present-but-corrupt snapshot is
//! [`StoreError::SnapshotFailed`]: silently starting empty would lose
//! acknowledged data. Torn or corrupt WAL *tails* stay benign (the
//! crash artifact of an epoch that was never acknowledged). Checksummed
//! bytes are not trusted further than a client: a replayed op that breaks
//! the client contract is `WalCorrupt` with its epoch, a snapshot record
//! no put could have left is `SnapshotFailed` — never a panic in the ORAM
//! mirror — and so is a frame or snapshot whose sequence number no store
//! reaches (`wal::SEQ_LIMIT`), never an overflow in the epoch counter.

use crate::error::StoreError;
use crate::op::EpochPath;
use crate::shard::Shard;
use crate::store::{first_breach, StoreConfig};
use crate::vfs::Vfs;
use crate::wal;
use fj::Ctx;
use metrics::ScratchPool;
use std::path::Path;

/// What [`recover_shards`] hands back to the store constructor.
pub(crate) struct RecoveredState {
    pub shards: Vec<Shard>,
    /// Epochs applied (the next WAL sequence number).
    pub epochs: u64,
    /// Path of the last replayed epoch (`None` when nothing replayed —
    /// a snapshot cannot remember the pre-crash value).
    pub last_path: Option<EpochPath>,
}

/// Load `n_shards` shards from `dir`: per shard, restore the snapshot (if
/// any), then replay the WAL records in `[next_seq, horizon)` through the
/// normal epoch paths — the body of [`crate::ShardedStore::recover`].
pub(crate) fn recover_shards<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    vfs: &dyn Vfs,
    dir: &Path,
    cfg: &StoreConfig,
    n_shards: usize,
) -> Result<RecoveredState, StoreError> {
    let mut snaps = Vec::with_capacity(n_shards);
    let mut logs = Vec::with_capacity(n_shards);
    for i in 0..n_shards {
        let snap = wal::read_snapshot(vfs, dir, i).map_err(|source| {
            if source.kind() == std::io::ErrorKind::InvalidData {
                StoreError::SnapshotFailed { shard: i, source }
            } else {
                StoreError::Io {
                    context: "snapshot read",
                    source,
                }
            }
        })?;
        let base = snap.as_ref().map_or(0, |(m, _)| m.next_seq);
        let scan = wal::read_wal(vfs, &wal::wal_path(dir, i)).map_err(|source| {
            if source.kind() == std::io::ErrorKind::InvalidData {
                StoreError::WalCorrupt {
                    shard: i,
                    detail: source.to_string(),
                }
            } else {
                StoreError::Io {
                    context: "wal read",
                    source,
                }
            }
        })?;
        // A clean prefix that *starts* above the snapshot horizon means
        // acknowledged records are missing from the log: refuse rather
        // than silently dropping committed epochs. (A prefix entirely
        // below `base` is stale-but-harmless: the snapshot covers it.)
        if let Some((first_seq, _)) = scan.records.first() {
            if *first_seq > base {
                return Err(StoreError::WalCorrupt {
                    shard: i,
                    detail: format!(
                        "log resumes at epoch {first_seq} but the snapshot only covers \
                         through {base}: acknowledged records are missing{}",
                        scan.reject
                            .as_ref()
                            .map(|r| format!(
                                " (scan stopped at offset {}: {})",
                                r.offset, r.detail
                            ))
                            .unwrap_or_default()
                    ),
                });
            }
        }
        // Keep only post-snapshot records; `read_wal` already guarantees
        // a consecutive prefix, so what survives the filter is contiguous
        // from `base`.
        let records: Vec<_> = scan
            .records
            .into_iter()
            .filter(|(seq, _)| *seq >= base)
            .collect();
        snaps.push(snap);
        logs.push(records);
    }

    // Commit horizon: the last epoch whose record reached *every* shard.
    let horizon = (0..n_shards)
        .map(|i| {
            let base = snaps[i].as_ref().map_or(0, |(m, _)| m.next_seq);
            base + logs[i].len() as u64
        })
        .min()
        .unwrap_or(0);

    let mut shards = Vec::with_capacity(n_shards);
    let mut last_path = None;
    for (i, (snap, records)) in snaps.into_iter().zip(logs).enumerate() {
        let mut shard = match snap {
            Some((meta, table)) => Shard::from_snapshot(
                c,
                *cfg,
                i as u64,
                table,
                meta.live_upper as usize,
                meta.merges,
                meta.stats,
            )
            .map_err(|source| StoreError::SnapshotFailed { shard: i, source })?,
            None => Shard::new(*cfg, i as u64),
        };
        for (seq, batch) in &records {
            if *seq >= horizon {
                break;
            }
            // A checksum vouches for the bytes, not for the writer: hold
            // the logged batch to the contract its ops were admitted under.
            if let Some((op, reason)) = first_breach(cfg, batch) {
                return Err(StoreError::WalCorrupt {
                    shard: i,
                    detail: format!("epoch {seq}, op {op}: {reason}"),
                });
            }
            let path = shard.epoch_path(batch.len());
            shard.execute(c, scratch, batch, path);
            if i == 0 {
                last_path = Some(path);
            }
        }
        shards.push(shard);
    }

    Ok(RecoveredState {
        shards,
        epochs: horizon,
        last_path,
    })
}
