//! The benchmark's window onto the store's I/O: a counting wrapper over
//! the production `OsVfs`. Counting is always on (relaxed atomic adds);
//! under `--trace` the wrapper also times each call, and those timed
//! calls become the `vfs.*` spans — the I/O boundary measured in situ.

use crate::api::{OsVfs, Vfs, VfsFile};
use crate::trace::Event;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a `sync` call does at the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flush {
    /// Count the call and stop at the page cache — what a tmpfs
    /// directory would do. The gated run uses this: on this sandbox's
    /// disk the flush alone swings the durable epoch by ±50 % between
    /// runs, so device time is a per-layer number and the counts are
    /// what repeats.
    PageCache,
    /// Forward to `sync_data`: the device's own cost, reported as
    /// `store.vfs.disk.*`.
    Device,
}

/// Exact I/O counts. WAL files are the ones opened for append, snapshot
/// files the ones opened with truncation (the store writes a snapshot to
/// a temporary file and renames it into place).
#[derive(Debug, Default)]
pub struct IoCounts {
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub snapshot_bytes: AtomicU64,
    pub snapshots: AtomicU64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub appends: u64,
    pub append_bytes: u64,
    pub syncs: u64,
    pub snapshot_bytes: u64,
    pub snapshots: u64,
}

impl IoSnapshot {
    pub fn since(self, earlier: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            syncs: self.syncs - earlier.syncs,
            snapshot_bytes: self.snapshot_bytes - earlier.snapshot_bytes,
            snapshots: self.snapshots - earlier.snapshots,
        }
    }

    pub fn bytes(self) -> u64 {
        self.append_bytes + self.snapshot_bytes
    }
}

struct Shared {
    flush: Flush,
    counts: IoCounts,
    /// Time each call (set for the traced segment only).
    timing: AtomicBool,
    events: Mutex<Vec<Event>>,
    /// Start of the snapshot being written: set by `open_truncate`,
    /// consumed by the `rename` that publishes it.
    snapshot_start: Mutex<Option<Instant>>,
}

impl Shared {
    fn log(&self, name: &'static str, start: Instant) {
        let end = Instant::now();
        let mut events = self.events.lock().expect("vfs event log poisoned");
        if events.len() < events.capacity() {
            events.push(Event { name, start, end });
        }
    }

    fn timed(&self) -> Option<Instant> {
        self.timing.load(Ordering::Relaxed).then(Instant::now)
    }
}

#[derive(Clone)]
pub struct CountingVfs {
    inner: OsVfs,
    shared: Arc<Shared>,
}

impl CountingVfs {
    /// `event_capacity` timed calls fit the log; it is allocated here,
    /// before any timing.
    pub fn new(flush: Flush, event_capacity: usize) -> CountingVfs {
        CountingVfs {
            inner: OsVfs,
            shared: Arc::new(Shared {
                flush,
                counts: IoCounts::default(),
                timing: AtomicBool::new(false),
                events: Mutex::new(Vec::with_capacity(event_capacity)),
                snapshot_start: Mutex::new(None),
            }),
        }
    }

    pub fn set_timing(&self, on: bool) {
        self.shared.timing.store(on, Ordering::Relaxed);
    }

    pub fn counts(&self) -> IoSnapshot {
        let c = &self.shared.counts;
        IoSnapshot {
            appends: c.appends.load(Ordering::Relaxed),
            append_bytes: c.append_bytes.load(Ordering::Relaxed),
            syncs: c.syncs.load(Ordering::Relaxed),
            snapshot_bytes: c.snapshot_bytes.load(Ordering::Relaxed),
            snapshots: c.snapshots.load(Ordering::Relaxed),
        }
    }

    /// The timed calls logged so far, in call order.
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.shared.events.lock().expect("vfs event log poisoned"))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Wal,
    Snapshot,
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    kind: Kind,
    shared: Arc<Shared>,
}

impl VfsFile for CountingFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        let c = &self.shared.counts;
        match self.kind {
            Kind::Wal => {
                c.appends.fetch_add(1, Ordering::Relaxed);
                c.append_bytes
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
            }
            Kind::Snapshot => {
                c.snapshot_bytes
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
            }
        }
        // Calls on a snapshot file are covered by its `vfs.snapshot` span.
        let t0 = (self.kind == Kind::Wal)
            .then(|| self.shared.timed())
            .flatten();
        let r = self.inner.append(buf);
        if let Some(t0) = t0 {
            self.shared.log("vfs.append", t0);
        }
        r
    }

    fn sync(&mut self) -> io::Result<()> {
        self.shared.counts.syncs.fetch_add(1, Ordering::Relaxed);
        let t0 = (self.kind == Kind::Wal)
            .then(|| self.shared.timed())
            .flatten();
        let r = match self.shared.flush {
            Flush::PageCache => Ok(()),
            Flush::Device => self.inner.sync(),
        };
        if let Some(t0) = t0 {
            self.shared.log("vfs.sync", t0);
        }
        r
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn size(&self) -> io::Result<u64> {
        self.inner.size()
    }
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.open_append(path)?,
            kind: Kind::Wal,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn open_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        *self
            .shared
            .snapshot_start
            .lock()
            .expect("snapshot clock poisoned") = self.shared.timed();
        Ok(Box::new(CountingFile {
            inner: self.inner.open_truncate(path)?,
            kind: Kind::Snapshot,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.shared.counts.snapshots.fetch_add(1, Ordering::Relaxed);
        let r = self.inner.rename(from, to);
        let start = self
            .shared
            .snapshot_start
            .lock()
            .expect("snapshot clock poisoned")
            .take();
        if let Some(t0) = start {
            self.shared.log("vfs.snapshot", t0);
        }
        r
    }
}

/// The filesystem type of the mount holding `dir`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn fs_type(dir: &Path) -> String {
    let dir: PathBuf = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "... <mount point> <opts> [optional fields] - <fstype> <source> ..."
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let Some(mount) = left.split(' ').nth(4) else {
            continue;
        };
        let Some(fstype) = right.split(' ').next() else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn counts_wal_and_snapshot_traffic_separately() {
        let dir = scratch_dir("counts");
        let vfs = CountingVfs::new(Flush::PageCache, 16);
        let mut wal = vfs.open_append(&dir.join("wal")).unwrap();
        wal.append(b"0123456789").unwrap();
        wal.sync().unwrap();
        wal.append(b"abc").unwrap();
        wal.sync().unwrap();
        let mut snap = vfs.open_truncate(&dir.join("snap.tmp")).unwrap();
        snap.append(&[7u8; 100]).unwrap();
        snap.sync().unwrap();
        drop(snap);
        vfs.rename(&dir.join("snap.tmp"), &dir.join("snap"))
            .unwrap();
        assert_eq!(
            vfs.counts(),
            IoSnapshot {
                appends: 2,
                append_bytes: 13,
                syncs: 3,
                snapshot_bytes: 100,
                snapshots: 1,
            }
        );
        assert_eq!(vfs.counts().bytes(), 113);
        assert_eq!(vfs.read(&dir.join("wal")).unwrap(), b"0123456789abc");
        assert!(vfs.take_events().is_empty(), "timing is off by default");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timing_logs_one_event_per_wal_call_and_one_per_snapshot() {
        let dir = scratch_dir("timing");
        let vfs = CountingVfs::new(Flush::Device, 16);
        vfs.set_timing(true);
        let mut wal = vfs.open_append(&dir.join("wal")).unwrap();
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        let mut snap = vfs.open_truncate(&dir.join("snap.tmp")).unwrap();
        snap.append(b"y").unwrap();
        snap.sync().unwrap();
        drop(snap);
        vfs.rename(&dir.join("snap.tmp"), &dir.join("snap"))
            .unwrap();
        let names: Vec<&str> = vfs.take_events().iter().map(|e| e.name).collect();
        assert_eq!(names, ["vfs.append", "vfs.sync", "vfs.snapshot"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_the_filesystem_of_a_directory() {
        let t = fs_type(Path::new("/proc"));
        assert_eq!(t, "proc");
    }
}
