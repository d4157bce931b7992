//! Injectable filesystem: the durable layer's only window onto storage.
//!
//! Every byte the store persists — WAL appends, snapshot temp files, the
//! atomic rename that publishes a snapshot — flows through a [`Vfs`]
//! handle, so the host filesystem can be swapped out without touching the
//! WAL or recovery logic. Two implementations ship:
//!
//! * [`OsVfs`] — a thin passthrough to `std::fs`, the production default
//!   (and what [`ShardedStore::recover`](crate::ShardedStore::recover)
//!   binds when no VFS is supplied).
//! * [`FaultVfs`] — a fully in-memory filesystem that injects faults from
//!   a seeded, **public** schedule ([`FaultPlan`]): EIO/ENOSPC on the
//!   k-th write, short (torn) appends, syncs that report success but
//!   persist nothing ("fsync lie"), failed renames, and a whole-process
//!   crash at an exact I/O-operation index. `tests/fault_injection.rs`
//!   drives the chaos suite with it.
//!
//! # Fault schedules are public
//!
//! The paper's adversary already observes every I/O the store performs —
//! offsets, lengths, flush points — and the store's discipline makes all
//! of those functions of public quantities (batch classes, shard count,
//! cadences). A [`FaultPlan`] decides faults from `(seed, I/O-op index)`
//! alone: the index sequence is itself a public function of the epoch
//! shapes, so injected faults — and the retries they provoke — never
//! depend on keys, values, or op kinds. Definition 1 survives injection:
//! the fault/retry decision stream is part of the public schedule, not a
//! new side channel. [`FaultVfs::fault_log`] exposes the decisions so
//! tests can assert exactly that (see the schedule-public rows in
//! `obliv_check` and `tests/fault_injection.rs`).
//!
//! # Crash–durability model
//!
//! [`FaultVfs`] keeps two byte images per file: `data` (what a reader of
//! the live filesystem sees) and `durable` (what survives a crash). An
//! append or `set_len` mutates `data` only; a successful, honest `sync`
//! copies `data` into `durable`. A lying sync returns `Ok` without the
//! copy — but a *later* honest sync persists everything, so lost epochs
//! are always a clean suffix, matching the group-commit contract. Renames
//! are atomic and immediately durable (the journalled-metadata assumption
//! the snapshot temp-file dance already relies on). After the crash point
//! every operation fails and the durable halves freeze;
//! [`FaultVfs::durable_image`] hands back a fresh, fault-free filesystem
//! containing exactly what survived — recovery runs against that.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// An open file handle on a [`Vfs`]. Write-side only: the store reads
/// whole files via [`Vfs::read`] (WALs and snapshots are scanned, never
/// seeked).
pub trait VfsFile: Send {
    /// Append `buf` at the end of the file.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush appended data to stable storage (the durability point).
    fn sync(&mut self) -> io::Result<()>;
    /// Truncate (or extend with zeros) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Current file size in bytes.
    fn size(&self) -> io::Result<u64>;
}

/// The filesystem surface the durable store consumes. Object-safe so a
/// store can hold `Arc<dyn Vfs>` and tests can swap in [`FaultVfs`].
pub trait Vfs: Send + Sync {
    /// Create `path` and its parents (no-op if present).
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Read an entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Open for appending, creating the file if missing.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open for writing from scratch, truncating any existing content.
    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically rename `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
}

/// The production [`Vfs`]: a passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct OsVfs;

struct OsFile(std::fs::File);

impl VfsFile for OsFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.0.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn size(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl Vfs for OsVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(OsFile(f)))
    }
    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(OsFile(f)))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// Seeded, public fault schedule for a [`FaultVfs`]. All probabilities
/// are chances out of 256 per eligible operation, decided by hashing
/// `(seed, I/O-op index)` — deterministic, replayable, and independent of
/// file *contents* by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-op fault coins.
    pub seed: u64,
    /// Chance /256 that an append fails with EIO (transient).
    pub write_fault: u8,
    /// Chance /256 that a failing append is *torn*: a prefix of the
    /// buffer lands in the live image before the error returns.
    pub torn: u8,
    /// Chance /256 that a sync fails with EIO (transient; nothing
    /// becomes durable).
    pub sync_fault: u8,
    /// Chance /256 that a sync *lies*: returns `Ok` but persists nothing.
    pub sync_lie: u8,
    /// Chance /256 that a rename fails with EIO (transient).
    pub rename_fault: u8,
    /// Fail exactly the k-th append (0-based, counting appends only)
    /// with EIO — a deterministic "k-th write" fault.
    pub eio_write: Option<u64>,
    /// Fail exactly the k-th append with ENOSPC (permanent: the retry
    /// policy must fail fast, not spin).
    pub enospc_write: Option<u64>,
    /// Crash at the k-th I/O operation (0-based, counting every VFS
    /// call): that operation and all later ones fail, and the durable
    /// image freezes. Drives the exhaustive crash-point sweep.
    pub crash_at: Option<u64>,
}

/// One injected fault, in the public decision log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global I/O-operation index the fault fired at.
    pub op: u64,
    /// What was injected (`"write-eio"`, `"write-torn"`,
    /// `"write-enospc"`, `"sync-eio"`, `"sync-lie"`, `"rename-eio"`,
    /// `"crash"`).
    pub kind: &'static str,
}

struct FileState {
    data: Vec<u8>,
    durable: Vec<u8>,
}

struct VfsState {
    files: BTreeMap<PathBuf, FileState>,
    plan: FaultPlan,
    /// Global I/O-operation counter (every VFS call).
    ops: u64,
    /// Append-operation counter (for the deterministic k-th-write knobs).
    writes: u64,
    log: Vec<FaultEvent>,
    crashed: bool,
}

/// Deterministic in-memory filesystem with seeded fault injection; see
/// the [module docs](self). Clones share the same filesystem.
#[derive(Clone)]
pub struct FaultVfs {
    state: Arc<Mutex<VfsState>>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn eio(what: &str) -> io::Error {
    // Raw EIO: kind() is Uncategorized, which the retry policy treats as
    // transient — exactly how a flaky disk surfaces through std.
    io::Error::new(io::Error::from_raw_os_error(5).kind(), what.to_string())
}

fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC → ErrorKind::StorageFull
}

impl VfsState {
    /// Charge one I/O operation: bump the public counter and fail if the
    /// crash point has been reached.
    fn begin(&mut self) -> io::Result<u64> {
        let idx = self.ops;
        self.ops += 1;
        if self.crashed || self.plan.crash_at.is_some_and(|k| idx >= k) {
            if !self.crashed {
                self.crashed = true;
                self.log.push(FaultEvent {
                    op: idx,
                    kind: "crash",
                });
            }
            return Err(eio("injected crash: I/O unreachable past the crash point"));
        }
        Ok(idx)
    }

    /// Per-op fault coins: a pure function of (seed, op index).
    fn coins(&self, idx: u64) -> u64 {
        splitmix64(self.plan.seed ^ (idx + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn file(&mut self, path: &Path) -> &mut FileState {
        self.files.entry(path.to_path_buf()).or_insert(FileState {
            data: Vec::new(),
            durable: Vec::new(),
        })
    }
}

impl FaultVfs {
    /// A filesystem injecting faults per `plan`.
    pub fn new(plan: FaultPlan) -> FaultVfs {
        FaultVfs {
            state: Arc::new(Mutex::new(VfsState {
                files: BTreeMap::new(),
                plan,
                ops: 0,
                writes: 0,
                log: Vec::new(),
                crashed: false,
            })),
        }
    }

    /// A fault-free in-memory filesystem (the all-zeros plan).
    pub fn unfaulted() -> FaultVfs {
        FaultVfs::new(FaultPlan::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VfsState> {
        self.state.lock().expect("fault-vfs state poisoned")
    }

    /// Total I/O operations charged so far (the crash-point coordinate
    /// space: sweep `FaultPlan::crash_at` over `0..io_ops()`).
    pub fn io_ops(&self) -> u64 {
        self.lock().ops
    }

    /// The public fault-decision log, in injection order.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.lock().log.clone()
    }

    /// True once the crash point has fired.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// What stable storage holds right now: a fresh, fault-free
    /// [`FaultVfs`] containing each file's durable bytes. Recovery after
    /// a simulated crash runs against this image.
    pub fn durable_image(&self) -> FaultVfs {
        let s = self.lock();
        let files = s
            .files
            .iter()
            .map(|(p, f)| {
                (
                    p.clone(),
                    FileState {
                        data: f.durable.clone(),
                        durable: f.durable.clone(),
                    },
                )
            })
            .collect();
        FaultVfs {
            state: Arc::new(Mutex::new(VfsState {
                files,
                plan: FaultPlan::default(),
                ops: 0,
                writes: 0,
                log: Vec::new(),
                crashed: false,
            })),
        }
    }
}

struct FaultFile {
    vfs: FaultVfs,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut s = self.vfs.lock();
        let idx = s.begin()?;
        let w = s.writes;
        s.writes += 1;
        if s.plan.enospc_write == Some(w) {
            s.log.push(FaultEvent {
                op: idx,
                kind: "write-enospc",
            });
            return Err(enospc());
        }
        let coins = s.coins(idx);
        if s.plan.eio_write == Some(w) || (coins & 0xFF) < u64::from(s.plan.write_fault) {
            if ((coins >> 8) & 0xFF) < u64::from(s.plan.torn) {
                // Torn append: a strict prefix lands before the error.
                let cut = (buf.len() * (((coins >> 16) & 0x7F) as usize)) / 128;
                let torn = &buf[..cut.min(buf.len().saturating_sub(1))];
                let torn = torn.to_vec();
                s.file(&self.path).data.extend_from_slice(&torn);
                s.log.push(FaultEvent {
                    op: idx,
                    kind: "write-torn",
                });
            } else {
                s.log.push(FaultEvent {
                    op: idx,
                    kind: "write-eio",
                });
            }
            return Err(eio("injected append failure"));
        }
        let buf = buf.to_vec();
        s.file(&self.path).data.extend_from_slice(&buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut s = self.vfs.lock();
        let idx = s.begin()?;
        let coins = s.coins(idx);
        if (coins & 0xFF) < u64::from(s.plan.sync_fault) {
            s.log.push(FaultEvent {
                op: idx,
                kind: "sync-eio",
            });
            return Err(eio("injected sync failure"));
        }
        if ((coins >> 8) & 0xFF) < u64::from(s.plan.sync_lie) {
            // Fsync lie: report success, persist nothing. A later honest
            // sync flushes everything, so losses stay a clean suffix.
            s.log.push(FaultEvent {
                op: idx,
                kind: "sync-lie",
            });
            return Ok(());
        }
        let f = s.file(&self.path);
        f.durable = f.data.clone();
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut s = self.vfs.lock();
        s.begin()?;
        let f = s.file(&self.path);
        f.data.resize(len as usize, 0);
        Ok(())
    }

    fn size(&self) -> io::Result<u64> {
        let mut s = self.vfs.lock();
        s.begin()?;
        Ok(s.file(&self.path).data.len() as u64)
    }
}

impl Vfs for FaultVfs {
    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        // Directories are implicit in the in-memory namespace; creating
        // one is not an I/O operation worth a crash point.
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut s = self.lock();
        s.begin()?;
        match s.files.get(path) {
            Some(f) => Ok(f.data.clone()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such in-memory file: {}", path.display()),
            )),
        }
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut s = self.lock();
        s.begin()?;
        s.file(path);
        drop(s);
        Ok(Box::new(FaultFile {
            vfs: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut s = self.lock();
        s.begin()?;
        s.file(path).data.clear();
        drop(s);
        Ok(Box::new(FaultFile {
            vfs: self.clone(),
            path: path.to_path_buf(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.lock();
        let idx = s.begin()?;
        let coins = s.coins(idx);
        if (coins & 0xFF) < u64::from(s.plan.rename_fault) {
            s.log.push(FaultEvent {
                op: idx,
                kind: "rename-eio",
            });
            return Err(eio("injected rename failure"));
        }
        let Some(f) = s.files.remove(from) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("rename source missing: {}", from.display()),
            ));
        };
        // Atomic and immediately durable, the journalled-metadata
        // contract the snapshot publish step assumes of the host.
        s.files.insert(to.to_path_buf(), f);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn unsynced_appends_do_not_survive_a_crash() {
        let vfs = FaultVfs::unfaulted();
        let mut f = vfs.open_append(&p("wal")).unwrap();
        f.append(b"aaaa").unwrap();
        f.sync().unwrap();
        f.append(b"bbbb").unwrap();
        assert_eq!(vfs.read(&p("wal")).unwrap(), b"aaaabbbb");
        let image = vfs.durable_image();
        assert_eq!(image.read(&p("wal")).unwrap(), b"aaaa");
    }

    #[test]
    fn lying_sync_persists_nothing_until_an_honest_one() {
        // Lie on the first sync only (op index known: open=0, append=1,
        // sync=2): pick a plan whose coins lie at exactly that op.
        let mut plan = FaultPlan {
            sync_lie: 128,
            ..FaultPlan::default()
        };
        // Find a seed whose op-2 coin lies and op-4 coin is honest.
        plan.seed = (0..)
            .find(|&seed| {
                let probe = FaultVfs::new(FaultPlan { seed, ..plan });
                let s = probe.lock();
                let lie = |i: u64| ((s.coins(i) >> 8) & 0xFF) < 128;
                lie(2) && !lie(4)
            })
            .unwrap();
        let vfs = FaultVfs::new(plan);
        let mut f = vfs.open_append(&p("wal")).unwrap();
        f.append(b"aaaa").unwrap();
        f.sync().unwrap(); // lies
        assert!(vfs.durable_image().read(&p("wal")).unwrap().is_empty());
        f.append(b"bbbb").unwrap();
        f.sync().unwrap(); // honest: flushes *everything*
        assert_eq!(vfs.durable_image().read(&p("wal")).unwrap(), b"aaaabbbb");
        assert_eq!(
            vfs.fault_log(),
            vec![FaultEvent {
                op: 2,
                kind: "sync-lie"
            }]
        );
    }

    #[test]
    fn crash_point_freezes_the_durable_image() {
        let n = {
            let dry = FaultVfs::unfaulted();
            let mut f = dry.open_append(&p("wal")).unwrap();
            for _ in 0..4 {
                f.append(b"xx").unwrap();
                f.sync().unwrap();
            }
            dry.io_ops()
        };
        // Crash at every point: the durable image is always a prefix of
        // the synced appends, and later ops fail.
        for k in 0..n {
            let vfs = FaultVfs::new(FaultPlan {
                crash_at: Some(k),
                ..FaultPlan::default()
            });
            let mut failed = false;
            if let Ok(mut f) = vfs.open_append(&p("wal")) {
                for _ in 0..4 {
                    if f.append(b"xx").is_err() || f.sync().is_err() {
                        failed = true;
                        break;
                    }
                }
            } else {
                failed = true;
            }
            assert!(failed, "crash point {k} must be observable");
            assert!(vfs.crashed());
            let img = vfs.durable_image().read(&p("wal")).unwrap_or_default();
            assert!(img.len().is_multiple_of(2) && img.len() <= 8);
            // Post-crash operations keep failing.
            assert!(vfs.read(&p("wal")).is_err());
        }
    }

    #[test]
    fn deterministic_kth_write_faults_fire_once() {
        let vfs = FaultVfs::new(FaultPlan {
            eio_write: Some(1),
            enospc_write: Some(3),
            ..FaultPlan::default()
        });
        let mut f = vfs.open_append(&p("wal")).unwrap();
        assert!(f.append(b"a").is_ok());
        let e = f.append(b"b").unwrap_err();
        assert_ne!(e.kind(), io::ErrorKind::StorageFull);
        assert!(f.append(b"c").is_ok());
        let e = f.append(b"d").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert_eq!(vfs.read(&p("wal")).unwrap(), b"ac");
        let kinds: Vec<_> = vfs.fault_log().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["write-eio", "write-enospc"]);
    }

    #[test]
    fn fault_decisions_depend_on_the_schedule_not_the_bytes() {
        let plan = FaultPlan {
            seed: 7,
            write_fault: 64,
            torn: 128,
            sync_fault: 32,
            ..FaultPlan::default()
        };
        let run = |fill: u8| {
            let vfs = FaultVfs::new(plan);
            let mut f = vfs.open_append(&p("wal")).unwrap();
            for _ in 0..16 {
                let _ = f.append(&[fill; 32]);
                let _ = f.sync();
            }
            vfs.fault_log()
        };
        assert_eq!(run(0x00), run(0xFF), "same shapes, same schedule");
    }

    #[test]
    fn rename_is_atomic_and_durable() {
        let vfs = FaultVfs::unfaulted();
        let mut f = vfs.open_truncate(&p("snap.tmp")).unwrap();
        f.append(b"snapshot").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&p("snap.tmp"), &p("snap.bin")).unwrap();
        assert!(vfs.read(&p("snap.tmp")).is_err());
        assert_eq!(
            vfs.durable_image().read(&p("snap.bin")).unwrap(),
            b"snapshot"
        );
    }
}
