//! Durable epoch log: framed write-ahead records plus packed table
//! snapshots, the on-disk half of [`Durability::Epoch`].
//!
//! # Frame format
//!
//! A store keeps one WAL, `wal-0.log`, at every shard count: a flat
//! sequence of fixed-layout records, one per epoch:
//!
//! ```text
//! seq: u64 LE | class: u32 LE | class × (kind u8, key u64 LE, val u64 LE) | fnv1a64: u64 LE
//! ```
//!
//! A record carries the epoch's **already padded** client batch — dummies
//! included, before any routing — so its size is `20 + 17·class` bytes, a
//! function of the public batch class alone. Nothing about the record
//! layout (offsets, lengths, flush points) depends on keys, values, op kinds, or how many
//! of the `class` slots are real: the only thing an observer of the log
//! file learns is the sequence of batch classes, which the store's
//! padding discipline already makes public. Record *contents* are exactly
//! as secret as the store's resident memory — in the paper's secure-
//! processor scenario both live outside the enclave and are encrypted at
//! rest by the same layer; this module is about *shape*, not ciphers.
//!
//! # The filesystem is injectable
//!
//! All I/O goes through a [`Vfs`](crate::vfs::Vfs) handle — [`OsVfs`]
//! (`std::fs`) in production, [`FaultVfs`](crate::vfs::FaultVfs) under
//! the chaos suite — so every path below is exercised against injected
//! EIO/ENOSPC, torn appends, lying syncs and crash points. Appends repair
//! their own torn writes: a failed write truncates back to the record
//! boundary before the error propagates, so a retry never buries an
//! unreachable record behind a torn frame.
//!
//! # Snapshots and truncation
//!
//! A snapshot file (`snap-{i}.bin`, one per shard) holds the resident
//! table of one shard — its `capacity` cells as they sit in memory, 32
//! bytes each, canonicalised on read ([`read_snapshot`]) — plus the
//! public counters needed to resume (`next_seq`, merge count, live-key
//! bound, analytics snapshot). Each snapshot is written to a temporary
//! file and atomically renamed into place; once every shard's has
//! landed, the WAL is truncated. A crash in between is benign: the log
//! still holds every epoch since the oldest snapshot base (recovery
//! skips, per shard, the records its snapshot covers). Snapshot points
//! follow the public [`ShrinkPolicy::snapshot`](crate::ShrinkPolicy::snapshot)
//! cadence (or an explicit
//! [`ShardedStore::checkpoint`](crate::ShardedStore::checkpoint) call),
//! both functions of the public merge counter — never of the data.
//!
//! # Torn tails
//!
//! [`read_wal`] accepts the longest clean prefix of the file and reports
//! *why* it stopped, if it did: a record with a short header or body, an
//! implausible class, a checksum mismatch, or a non-consecutive sequence
//! number ends the scan with an explicit [`FrameReject`]. A crash
//! mid-append thus silently drops only the one epoch that was never
//! acknowledged; recovery escalates a reject to
//! [`StoreError::WalCorrupt`](crate::StoreError::WalCorrupt) only when the
//! snapshot bases prove acknowledged records missing.
//!
//! A checksum vouches for bytes, not for the writer. A sequence number is
//! an epoch count, and no store runs [`SEQ_LIMIT`] epochs, so a
//! checksummed frame or snapshot numbered at or past it is refused outright
//! — `InvalidData`, which recovery reports as `WalCorrupt` /
//! `SnapshotFailed` — rather than carried into `seq + 1` arithmetic that
//! would overflow on the next epoch.

use crate::error::{RetryFailure, RetryPolicy};
use crate::merge::{cell_key, cell_val, record_cell};
use crate::op::{FlatOp, StoreStats};
use crate::vfs::{Vfs, VfsFile};
use obliv_core::TagCell;
use std::io;
use std::path::{Path, PathBuf};

/// Whether (and when) a store persists its epochs. The default is
/// [`Durability::None`]: every pre-existing construction path is
/// unchanged and nothing touches the filesystem.
///
/// [`Durability::Epoch`] only takes effect through
/// [`ShardedStore::recover`](crate::ShardedStore::recover), which binds
/// the store to a directory; a store built with
/// [`ShardedStore::new`](crate::ShardedStore::new) has nowhere to log
/// and stays in-memory regardless of the knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// In-memory only (the default): no WAL, no snapshots, no recovery.
    #[default]
    None,
    /// Epoch durability: each epoch's padded batch is appended to the WAL
    /// *before* the merge runs (WAL-before-merge). The append that returns
    /// `Ok` is synced: every append is its own durability point, and the
    /// epoch survives a crash the moment its append returns. A crash
    /// mid-append drops only that unacknowledged epoch; recovery replays
    /// the longest clean prefix, never reordered or partially applied. The
    /// table is snapshotted and the WAL truncated on the public snapshot
    /// cadence.
    Epoch,
}

impl Durability {
    /// Epoch durability: one `fsync` per append.
    pub const fn epoch() -> Durability {
        Durability::Epoch
    }
}

/// One past the largest sequence number a log or snapshot may carry: 2⁶³,
/// three centuries of epochs at one a nanosecond. Below it every counter
/// derived from a loaded store — the end of the replayed log, the next
/// epoch's sequence number — has 2⁶³ epochs of headroom before it could
/// overflow.
pub(crate) const SEQ_LIMIT: u64 = 1 << 63;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Bytes of one WAL record for a batch of `class` slots — `20 + 17·class`,
/// a public function of the class.
pub(crate) const fn record_size(class: usize) -> usize {
    8 + 4 + 17 * class + 8
}

/// Sanity ceiling on a record's class while scanning: anything larger is
/// treated as tail corruption rather than attempted as an allocation.
const MAX_CLASS: usize = 1 << 28;

/// `wal-0.log` is the store's log at every shard count. `wal-{i}.log` for
/// `i ≥ 1` names the per-shard logs of an older layout, which recovery
/// refuses.
pub(crate) fn wal_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("wal-{i}.log"))
}

pub(crate) fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("snap-{shard}.bin"))
}

/// Append handle on the store's WAL file: one `sync_data` per append.
pub(crate) struct Wal {
    file: Box<dyn VfsFile>,
    /// Clean length: the byte just past the last fully appended record.
    /// Torn-write repair truncates back to this before a retry.
    len: u64,
}

impl Wal {
    /// Open the log at `path` for appending after its last byte.
    pub fn open(vfs: &dyn Vfs, path: &Path) -> io::Result<Wal> {
        let file = vfs.open_append(path)?;
        let len = file.size()?;
        Ok(Wal { file, len })
    }

    /// Append epoch `seq`'s padded batch as one framed record and sync it
    /// to stable storage: the append that returns `Ok` is synced, so this
    /// call returning *is* the durability point.
    ///
    /// Transient faults are retried per `policy`, each phase separately
    /// and idempotently: a failed *write* is repaired (the file truncated
    /// back to the last record boundary) before the next attempt, so a
    /// torn frame never buries a retried record; a failed *sync* retries
    /// the flush alone, never duplicating the record. On terminal failure
    /// the record is truncated off the live file — the epoch was never
    /// acknowledged, so it must not resurface at recovery.
    pub fn append(
        &mut self,
        policy: RetryPolicy,
        seq: u64,
        batch: &[FlatOp],
    ) -> Result<(), RetryFailure> {
        let mut buf = Vec::with_capacity(record_size(batch.len()));
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for f in batch {
            buf.push(f.kind);
            buf.extend_from_slice(&f.key.to_le_bytes());
            buf.extend_from_slice(&f.val.to_le_bytes());
        }
        buf.extend_from_slice(&fnv1a(&buf).to_le_bytes());

        // Write phase: torn-write repair between attempts.
        let file = &mut self.file;
        let base = self.len;
        policy.run(|| match file.append(&buf) {
            Ok(()) => Ok(()),
            Err(e) => match file.set_len(base) {
                Ok(()) => Err(e),
                // An unrepairable torn write is permanent: retrying the
                // append would bury the record behind the torn frame.
                Err(e2) => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("torn WAL append could not be repaired: {e}; truncate failed: {e2}"),
                )),
            },
        })?;

        // Sync phase: retried alone — the record is already written, so
        // attempts here never duplicate it.
        if let Err(f) = policy.run(|| self.file.sync()) {
            // Unacknowledged epoch: truncate it off the live file
            // (best-effort; the failed sync never made it durable).
            let _ = self.file.set_len(base);
            return Err(f);
        }
        self.len = base + buf.len() as u64;
        Ok(())
    }

    /// Drop every record (the snapshot now covers them). Syncs, so the
    /// truncation itself is durable. Idempotent: safe to retry wholesale.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.len = 0;
        self.file.sync()
    }
}

/// Why a WAL scan stopped before end-of-file: the byte offset of the
/// offending frame and a human-readable diagnosis. A reject at the tail
/// is the normal crash artifact (the epoch was never acknowledged);
/// recovery escalates it to a typed
/// [`StoreError::WalCorrupt`](crate::StoreError::WalCorrupt) only when
/// the snapshot bases prove acknowledged records are missing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FrameReject {
    /// Byte offset of the rejected frame.
    pub offset: usize,
    /// What was wrong with it.
    pub detail: String,
}

/// Outcome of scanning one WAL file: the longest clean prefix of
/// consecutive, checksummed records, plus the explicit reason the scan
/// stopped early (if it did).
pub(crate) struct WalScan {
    pub records: Vec<(u64, Vec<FlatOp>)>,
    pub reject: Option<FrameReject>,
}

fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

/// Read the longest clean prefix of a WAL file. A missing file is an
/// empty log; a torn or corrupt tail ends the scan without error but
/// with an explicit [`FrameReject`] naming the boundary. A checksummed
/// frame numbered at or past [`SEQ_LIMIT`] is an `InvalidData` error.
pub(crate) fn read_wal(vfs: &dyn Vfs, path: &Path) -> io::Result<WalScan> {
    let bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                reject: None,
            })
        }
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut expected_seq: Option<u64> = None;
    let reject = loop {
        if at == bytes.len() {
            break None;
        }
        let reject_here = |detail: String| FrameReject { offset: at, detail };
        let (Some(seq), Some(class)) = (le_u64(&bytes, at), le_u32(&bytes, at + 8)) else {
            break Some(reject_here(format!(
                "truncated frame header: {} trailing bytes, header needs 12",
                bytes.len() - at
            )));
        };
        let class = class as usize;
        if class == 0 || class > MAX_CLASS || !class.is_power_of_two() {
            break Some(reject_here(format!("implausible class {class}")));
        }
        let size = record_size(class);
        if bytes.len() - at < size {
            break Some(reject_here(format!(
                "truncated frame body: class {class} needs {size} bytes, {} remain",
                bytes.len() - at
            )));
        }
        let Some(want) = le_u64(&bytes, at + size - 8) else {
            break Some(reject_here("checksum unreadable".to_string()));
        };
        if fnv1a(&bytes[at..at + size - 8]) != want {
            break Some(reject_here("checksum mismatch".to_string()));
        }
        if seq >= SEQ_LIMIT {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame at offset {at}: sequence number {seq} is past any epoch count"),
            ));
        }
        if let Some(e) = expected_seq {
            if e != seq {
                break Some(reject_here(format!(
                    "non-consecutive sequence: expected {e}, found {seq}"
                )));
            }
        }
        expected_seq = Some(seq + 1);
        let mut batch = Vec::with_capacity(class);
        let mut o = at + 12;
        for _ in 0..class {
            let (Some(key), Some(val)) = (le_u64(&bytes, o + 1), le_u64(&bytes, o + 9)) else {
                // Unreachable after the length check above, but parse
                // defensively: a short op is a rejected frame, never a
                // panic.
                break;
            };
            batch.push(FlatOp {
                kind: bytes[o],
                key,
                val,
            });
            o += 17;
        }
        if batch.len() != class {
            break Some(reject_here("short op block".to_string()));
        }
        records.push((seq, batch));
        at += size;
    };
    Ok(WalScan { records, reject })
}

/// Public counters a snapshot resumes: everything except the table cells.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SnapMeta {
    /// First WAL sequence number *not* covered by this snapshot (equals
    /// the store's epoch count at the snapshot point).
    pub next_seq: u64,
    /// The shard's merge counter (drives the shrink/snapshot cadence).
    pub merges: u64,
    /// Public upper bound on distinct live keys.
    pub live_upper: u64,
    /// Analytics snapshot as of the last merge.
    pub stats: StoreStats,
}

const SNAP_MAGIC: u64 = 0x444F_4253_4E41_5031; // "DOBSNAP1"

/// Write one shard's snapshot: meta + the table's cells as they sit in
/// memory (32 bytes each, `tag` then `aux`, little-endian: a record is
/// `tag = key << 64`, `aux = val`; an absent slot is a filler, `tag` all
/// ones and `aux` 0). Temp-file + rename keeps the old snapshot intact if
/// the process dies (or a fault fires) mid-write. Idempotent: safe to
/// retry wholesale.
pub(crate) fn write_snapshot(
    vfs: &dyn Vfs,
    dir: &Path,
    shard: usize,
    meta: &SnapMeta,
    table: &[TagCell],
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(8 * 7 + 32 * table.len());
    buf.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
    buf.extend_from_slice(&meta.next_seq.to_le_bytes());
    buf.extend_from_slice(&meta.merges.to_le_bytes());
    buf.extend_from_slice(&meta.live_upper.to_le_bytes());
    buf.extend_from_slice(&meta.stats.count.to_le_bytes());
    buf.extend_from_slice(&meta.stats.sum.to_le_bytes());
    buf.extend_from_slice(&(table.len() as u64).to_le_bytes());
    for cell in table {
        buf.extend_from_slice(&cell.tag.to_le_bytes());
        buf.extend_from_slice(&cell.aux.to_le_bytes());
    }
    buf.extend_from_slice(&fnv1a(&buf).to_le_bytes());

    let tmp = dir.join(format!("snap-{shard}.tmp"));
    {
        let mut f = vfs.open_truncate(&tmp)?;
        f.append(&buf)?;
        f.sync()?;
    }
    vfs.rename(&tmp, &snapshot_path(dir, shard))
}

/// Read one shard's snapshot; `Ok(None)` when the file does not exist. A
/// present-but-corrupt snapshot is a hard error (its WAL prefix was
/// already truncated, so silently starting empty would lose data).
///
/// Every cell is canonicalised on the way in: a filler tag loads as the
/// canonical filler, anything else as the record `tag >> 64 → aux as
/// u64`, its seq bits and the high half of its `aux` dropped. Whatever the
/// bytes say, the next merge sees records and fillers, never an op.
pub(crate) fn read_snapshot(
    vfs: &dyn Vfs,
    dir: &Path,
    shard: usize,
) -> io::Result<Option<(SnapMeta, Vec<TagCell>)>> {
    let bytes = match vfs.read(&snapshot_path(dir, shard)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let corrupt = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot for shard {shard} is corrupt: {what}"),
        )
    };
    if bytes.len() < 8 * 8 {
        return Err(corrupt("too short"));
    }
    let word = |i: usize| le_u64(&bytes, 8 * i);
    let (Some(magic), Some(cap)) = (word(0), word(6)) else {
        return Err(corrupt("header unreadable"));
    };
    if magic != SNAP_MAGIC {
        return Err(corrupt("bad magic"));
    }
    // Bound the cell count before any arithmetic on it: a hostile count
    // must not overflow the length computation.
    if cap > MAX_CLASS as u64 {
        return Err(corrupt("bad length"));
    }
    let total = 8 * 7 + 32 * cap as usize + 8;
    if bytes.len() != total {
        return Err(corrupt("bad length"));
    }
    match le_u64(&bytes, total - 8) {
        Some(want) if fnv1a(&bytes[..total - 8]) == want => {}
        _ => return Err(corrupt("checksum mismatch")),
    }
    let next_seq = word(1).unwrap_or(0);
    if next_seq >= SEQ_LIMIT {
        return Err(corrupt("sequence number past any epoch count"));
    }
    let meta = SnapMeta {
        next_seq,
        merges: word(2).unwrap_or(0),
        live_upper: word(3).unwrap_or(0),
        stats: StoreStats {
            count: word(4).unwrap_or(0),
            sum: word(5).unwrap_or(0),
        },
    };
    let lane = |b: &[u8]| u128::from_le_bytes(b.try_into().expect("16-byte lane"));
    let table = bytes[8 * 7..total - 8]
        .chunks_exact(32)
        .map(|cell| {
            let cell = TagCell::new(lane(&cell[..16]), lane(&cell[16..]));
            if cell.is_filler() {
                TagCell::filler()
            } else {
                record_cell(cell_key(&cell), cell_val(&cell))
            }
        })
        .collect();
    Ok(Some((meta, table)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::kind;
    use crate::vfs::{FaultPlan, FaultVfs, OsVfs};

    fn batch(n: u64) -> Vec<FlatOp> {
        (0..n)
            .map(|i| FlatOp {
                kind: kind::PUT,
                key: i,
                val: i * 10,
            })
            .collect()
    }

    fn relaxed() -> RetryPolicy {
        RetryPolicy::none()
    }

    #[test]
    fn wal_roundtrips_records() {
        let vfs = OsVfs;
        let dir = std::env::temp_dir().join(format!("dob_wal_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal_path(&dir, 0);
        let mut w = Wal::open(&vfs, &path).unwrap();
        w.append(relaxed(), 0, &batch(8)).unwrap();
        w.append(relaxed(), 1, &batch(16)).unwrap();
        let scan = read_wal(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.reject.is_none());
        assert_eq!(scan.records[0].0, 0);
        assert_eq!(scan.records[1].1.len(), 16);
        assert_eq!(scan.records[1].1[3].val, 30);
        // Record sizes are a function of the class alone.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            (record_size(8) + record_size(16)) as u64
        );
        w.truncate().unwrap();
        assert!(read_wal(&vfs, &path).unwrap().records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_cleanly() {
        let vfs = OsVfs;
        let dir = std::env::temp_dir().join(format!("dob_wal_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal_path(&dir, 0);
        let mut w = Wal::open(&vfs, &path).unwrap();
        w.append(relaxed(), 0, &batch(8)).unwrap();
        w.append(relaxed(), 1, &batch(8)).unwrap();
        // Tear the second record mid-payload.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len((record_size(8) + 30) as u64).unwrap();
        let scan = read_wal(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 1, "torn tail must be ignored");
        assert!(
            scan.reject.unwrap().detail.contains("truncated frame"),
            "the reject names the tear"
        );
        // A flipped byte in the tail record is equally dropped.
        drop(f);
        let mut w = Wal::open(&vfs, &path).unwrap();
        // Re-extend with a clean record, then corrupt its checksum region.
        w.append(relaxed(), 1, &batch(8)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.reject.unwrap().detail, "checksum mismatch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_boundaries_reject_explicitly() {
        let vfs = FaultVfs::unfaulted();
        let path = PathBuf::from("wal-0.log");

        // Zero-length file: empty log, no reject.
        {
            let mut f = vfs.open_truncate(&path).unwrap();
            f.sync().unwrap();
        }
        let scan = read_wal(&vfs, &path).unwrap();
        assert!(scan.records.is_empty() && scan.reject.is_none());

        // Header-only frame (12 bytes: seq + class, no body at all).
        {
            let mut f = vfs.open_truncate(&path).unwrap();
            let mut hdr = Vec::new();
            hdr.extend_from_slice(&0u64.to_le_bytes());
            hdr.extend_from_slice(&8u32.to_le_bytes());
            f.append(&hdr).unwrap();
        }
        let scan = read_wal(&vfs, &path).unwrap();
        assert!(scan.records.is_empty());
        let reject = scan.reject.unwrap();
        assert_eq!(reject.offset, 0);
        assert!(reject.detail.contains("truncated frame"), "{reject:?}");

        // A clean record followed by a frame truncated exactly at the
        // checksum (everything but the final 8 bytes present).
        {
            let mut w = Wal::open(&vfs, &path).unwrap();
            // Rebuild from scratch: truncate then append two records.
            w.truncate().unwrap();
            w.append(relaxed(), 0, &batch(8)).unwrap();
            w.append(relaxed(), 1, &batch(8)).unwrap();
        }
        let full = vfs.read(&path).unwrap();
        {
            let mut f = vfs.open_truncate(&path).unwrap();
            f.append(&full[..2 * record_size(8) - 8]).unwrap();
        }
        let scan = read_wal(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 1, "the clean head record survives");
        let reject = scan.reject.unwrap();
        assert_eq!(reject.offset, record_size(8));
        assert!(reject.detail.contains("truncated frame body"), "{reject:?}");

        // Implausible class (not a power of two).
        {
            let mut f = vfs.open_truncate(&path).unwrap();
            let mut hdr = Vec::new();
            hdr.extend_from_slice(&0u64.to_le_bytes());
            hdr.extend_from_slice(&9u32.to_le_bytes());
            hdr.extend_from_slice(&[0u8; 64]);
            f.append(&hdr).unwrap();
        }
        let scan = read_wal(&vfs, &path).unwrap();
        assert!(scan.reject.unwrap().detail.contains("implausible class"));
    }

    #[test]
    fn torn_append_is_repaired_before_retry() {
        // Fault every append once (EIO with a torn prefix); the retry
        // must land a clean record with no torn bytes buried mid-file.
        let vfs = FaultVfs::new(FaultPlan {
            seed: 11,
            eio_write: Some(1),
            torn: 255,
            write_fault: 0,
            ..FaultPlan::default()
        });
        let path = PathBuf::from("wal-0.log");
        let mut w = Wal::open(&vfs, &path).unwrap();
        let policy = RetryPolicy {
            attempts: 3,
            backoff: std::time::Duration::ZERO,
        };
        w.append(policy, 0, &batch(8)).unwrap();
        w.append(policy, 1, &batch(8)).unwrap(); // faulted once, retried
        let scan = read_wal(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 2, "retried record must be reachable");
        assert!(scan.reject.is_none(), "no torn bytes may linger");
        assert_eq!(
            vfs.read(&path).unwrap().len(),
            2 * record_size(8),
            "repair truncated the torn prefix"
        );
    }

    #[test]
    fn terminally_failed_append_leaves_no_record() {
        // ENOSPC on the second append: the epoch is rejected and its
        // record must not survive to be recovered.
        let vfs = FaultVfs::new(FaultPlan {
            enospc_write: Some(1),
            ..FaultPlan::default()
        });
        let path = PathBuf::from("wal-0.log");
        let mut w = Wal::open(&vfs, &path).unwrap();
        w.append(relaxed(), 0, &batch(8)).unwrap();
        let err = w.append(relaxed(), 1, &batch(8)).unwrap_err();
        assert!(!err.exhausted, "ENOSPC fails fast");
        // A later successful append continues the clean sequence.
        w.append(relaxed(), 1, &batch(8)).unwrap();
        let scan = read_wal(&vfs, &path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.reject.is_none());
    }

    #[test]
    fn snapshot_roundtrips_and_rejects_corruption() {
        let vfs = OsVfs;
        let dir = std::env::temp_dir().join(format!("dob_snap_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let table = vec![record_cell(3, 33), TagCell::filler()];
        let meta = SnapMeta {
            next_seq: 5,
            merges: 4,
            live_upper: 2,
            stats: StoreStats { count: 1, sum: 33 },
        };
        write_snapshot(&vfs, &dir, 0, &meta, &table).unwrap();
        let (m, t) = read_snapshot(&vfs, &dir, 0).unwrap().unwrap();
        assert_eq!(m.next_seq, 5);
        assert_eq!(m.stats, meta.stats);
        assert_eq!(t, table);
        assert!(read_snapshot(&vfs, &dir, 1).unwrap().is_none());
        // Corruption is a hard error, never a silent empty store.
        let path = snapshot_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&vfs, &dir, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_read_canonicalises_every_cell() {
        // A checksummed file whose cells are not in canonical form: a
        // record with seq bits and a high `aux` half, a filler with a
        // payload. They load as the record and the filler they stand for.
        let vfs = FaultVfs::unfaulted();
        let dir = PathBuf::from("/snap");
        let meta = SnapMeta {
            next_seq: 0,
            merges: 1,
            live_upper: 1,
            stats: StoreStats { count: 1, sum: 30 },
        };
        let noisy = [
            TagCell::new((3u128 << 64) | 5, (0xDEAD_u128 << 64) | 30),
            TagCell::new(u128::MAX, 77),
        ];
        write_snapshot(&vfs, &dir, 0, &meta, &noisy).unwrap();
        let (_, table) = read_snapshot(&vfs, &dir, 0).unwrap().unwrap();
        assert_eq!(table, vec![record_cell(3, 30), TagCell::filler()]);
    }

    #[test]
    fn hostile_snapshot_cell_count_is_rejected_without_overflow() {
        // A cell count whose byte length overflows `usize` must be a
        // corrupt snapshot, not an arithmetic panic.
        let vfs = FaultVfs::unfaulted();
        let dir = PathBuf::from("/snap");
        for cap in [1u64 << 59, u64::MAX, MAX_CLASS as u64 + 1] {
            let mut bytes = SNAP_MAGIC.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 8 * 5]);
            bytes.extend_from_slice(&cap.to_le_bytes());
            bytes.extend_from_slice(&fnv1a(&bytes).to_le_bytes());
            let mut f = vfs.open_truncate(&snapshot_path(&dir, 0)).unwrap();
            f.append(&bytes).unwrap();
            drop(f);
            let err = read_snapshot(&vfs, &dir, 0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cap {cap}: {err}");
        }
    }

    /// The images of `tests/durability.rs`'s golden script (three 20-op
    /// epochs, a snapshot at merge 2) at `shards` = 1 or 4: the WAL as it
    /// stood before that snapshot truncated it — three records, the last
    /// of them the golden WAL, the same bytes at every shard count — and
    /// every shard's golden snapshot.
    fn golden_images(shards: usize) -> &'static (Vec<u8>, Vec<Vec<u8>>) {
        type Images = std::sync::OnceLock<(Vec<u8>, Vec<Vec<u8>>)>;
        static IMAGES: [Images; 2] = [Images::new(), Images::new()];
        IMAGES[(shards > 1) as usize].get_or_init(|| build_golden_images(shards))
    }

    /// The golden script's store: durable, snapshotting at merge `snapshot`.
    fn golden_cfg(shards: usize, snapshot: u64) -> crate::ShardConfig {
        crate::ShardConfig {
            shards,
            route_slack: 0,
            store: crate::StoreConfig {
                durability: Durability::epoch(),
                shrink: Some(crate::ShrinkPolicy {
                    every: 0,
                    live_bound: 0,
                    snapshot,
                }),
                ..crate::StoreConfig::default()
            },
        }
    }

    fn build_golden_images(shards: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        use crate::{Op, ShardedStore};
        let image = |snapshot: u64| {
            let vfs = std::sync::Arc::new(FaultVfs::unfaulted());
            let (c, sp) = (fj::SeqCtx::new(), metrics::ScratchPool::new());
            let dir = Path::new("/golden");
            let cfg = golden_cfg(shards, snapshot);
            let mut s = ShardedStore::recover_with(&c, &sp, dir, cfg, vfs.clone()).unwrap();
            for salt in 0..3u64 {
                let ops: Vec<Op> = (0..20u64)
                    .map(|i| {
                        let key = (i * 7 + salt * 13 + 1) % 41;
                        match (i + salt) % 5 {
                            0..=2 => Op::Put {
                                key,
                                val: salt * 10_000 + i,
                            },
                            3 => Op::Get { key },
                            _ => Op::Delete { key },
                        }
                    })
                    .collect();
                s.execute_epoch(&c, &sp, &ops).unwrap();
            }
            let snaps = (0..shards)
                .map(|i| vfs.read(&snapshot_path(dir, i)).unwrap_or_default())
                .collect::<Vec<_>>();
            (vfs.read(&wal_path(dir, 0)).unwrap(), snaps)
        };
        let (wal, _) = image(0);
        let (_, snaps) = image(2);
        assert_eq!(wal.len(), 3 * record_size(32));
        assert_eq!(fnv1a(&wal[2 * record_size(32)..]), 0x588c_eafe_a411_871c);
        let hashes: Vec<u64> = snaps.iter().map(|s| fnv1a(s)).collect();
        let want: &[u64] = match shards {
            1 => &[0xe252_75a1_15f3_e400],
            _ => &[
                0xb87b_c899_7e7d_6ee9,
                0x644a_6210_a8f9_594b,
                0x9523_58ad_7097_fe97,
                0x25cc_74ff_b388_9cf5,
            ],
        };
        assert_eq!(hashes, want, "{shards} shard(s)");
        (wal, snaps)
    }

    /// One structure-aware mutation `(what, a, b)` of an image made of
    /// `frame`-byte frames from offset `head` on; `len_field(f)` is where
    /// the length field governing frame `f` sits. Bit flips, truncations,
    /// a length of `u32::MAX`, and duplicated or swapped frames.
    fn mutate(
        bytes: &mut Vec<u8>,
        (what, a, b): (u8, u64, u64),
        head: usize,
        frame: usize,
        len_field: impl Fn(usize) -> usize,
    ) {
        let frames = bytes.len().saturating_sub(head) / frame;
        let at = |i: u64| head + (i as usize % frames.max(1)) * frame;
        match what {
            0 if !bytes.is_empty() => {
                let bit = a as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            1 => bytes.truncate(a as usize % (bytes.len() + 1)),
            2 if frames > 0 => {
                let o = len_field(at(a));
                bytes[o..o + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            3 if frames > 0 => {
                let copy = bytes[at(a)..at(a) + frame].to_vec();
                let to = at(b);
                bytes.splice(to..to, copy);
            }
            4 if frames > 0 => {
                let (x, y) = (at(a).min(at(b)), at(a).max(at(b)));
                if x != y {
                    let (lo, hi) = bytes.split_at_mut(y);
                    lo[x..x + frame].swap_with_slice(&mut hi[..frame]);
                }
            }
            _ => {}
        }
    }

    mod hostile_bytes {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Mutated golden images never panic the readers, nor
            /// recovery, at 1 shard or 4: a WAL reads as a consecutive run
            /// of the original records (a swapped head frame can start it
            /// late; recovery refuses that gap) or `InvalidData`, a
            /// snapshot as itself or `InvalidData`, and recovery as a
            /// store holding at most the logged epochs or a typed error.
            /// A snapshot edit `(i, …)` lands on shard `i mod shards`.
            #[test]
            fn mutated_images_read_cleanly_or_fail_typed(
                wal_edits in proptest::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 0usize..4),
                snap_edits in proptest::collection::vec((0usize..4, (0u8..3, any::<u64>(), any::<u64>())), 0usize..3),
            ) {
                for shards in [1, 4] {
                    let (mut wal, mut snaps) = golden_images(shards).clone();
                    let original = {
                        let vfs = FaultVfs::unfaulted();
                        vfs.open_truncate(Path::new("w")).unwrap().append(&wal).unwrap();
                        read_wal(&vfs, Path::new("w")).unwrap().records
                    };
                    for &m in &wal_edits {
                        mutate(&mut wal, m, 0, record_size(32), |f| f + 8);
                    }
                    for &(i, m) in &snap_edits {
                        mutate(&mut snaps[i % shards], m, 8 * 7, 32, |_| 8 * 6);
                    }
                    let vfs = std::sync::Arc::new(FaultVfs::unfaulted());
                    let dir = Path::new("/hostile");
                    vfs.open_truncate(&wal_path(dir, 0)).unwrap().append(&wal).unwrap();
                    for (i, snap) in snaps.iter().enumerate() {
                        vfs.open_truncate(&snapshot_path(dir, i)).unwrap().append(snap).unwrap();
                    }

                    match read_wal(&*vfs, &wal_path(dir, 0)) {
                        Ok(scan) => {
                            let ops = |b: &[FlatOp]| b.iter().map(|f| (f.kind, f.key, f.val)).collect::<Vec<_>>();
                            for (seq, batch) in &scan.records {
                                let want = original.get(*seq as usize).map(|(_, b)| ops(b));
                                prop_assert_eq!(want, Some(ops(batch)), "record {} is not the original", seq);
                            }
                        }
                        Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                    }
                    for i in 0..shards {
                        match read_snapshot(&*vfs, dir, i) {
                            Ok(got) => prop_assert!(got.is_some()),
                            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                        }
                    }
                    let (c, sp) = (fj::SeqCtx::new(), metrics::ScratchPool::new());
                    let cfg = crate::ShardConfig {
                        shards,
                        route_slack: 0,
                        store: crate::StoreConfig::default(),
                    };
                    match crate::ShardedStore::recover_with(&c, &sp, dir, cfg, vfs) {
                        Ok(s) => prop_assert!(s.epoch_counts().0 <= 3),
                        Err(e) => prop_assert!(
                            matches!(e, crate::StoreError::WalCorrupt { .. } | crate::StoreError::SnapshotFailed { .. }),
                            "{shards} shard(s): {e}"
                        ),
                    }
                }
            }
        }
    }
}
