//! The six workloads: closed loop, one client, every answer checked.
//!
//! Each workload is a [`Bench`]: set-up builds it (construct, bulk-load,
//! warm up), [`Bench::step`] runs one timed unit — generate, call the
//! store, verify — and [`Bench::finish`] runs the post-run checks. Only
//! the call into the store is timed; generation and verification sit in
//! their own spans outside it.

use crate::api::{balanced_keys, CrashFs, Exec, Kv, Model, Op, Piped, Scratch, Shape, Vfs};
use crate::calib::{self, Reference};
use crate::env::{cpu_seconds, nproc, pool_threads, steal_seconds};
use crate::gen::{sort_input, OpStream, Rng, StreamHash};
use crate::oracle::Oracle;
use crate::spec::{Sizes, Workload};
use crate::stats::{block_rates, median, Unit};
use crate::trace::Tracer;
use crate::vfs::{CountingVfs, Flush, IoSnapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The latency series a phase records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    /// Submit→ack latency per client batch (per sort for `sort-paper`).
    Ack,
    /// Latency of the units that pay background work — the structural
    /// tail, identified from public state only.
    Stall,
    /// Epoch latency of merge-path epochs (a round, for the pipeline).
    Merge,
    /// Epoch latency of ORAM-path epochs.
    Oram,
    /// Pipelined front end: time in `submit` per round.
    Submit,
    /// Pipelined front end: time per `read_now`.
    ReadNow,
}

const N_SERIES: usize = 6;

/// One slice of the measured phase — the units between two calibration
/// points: where it ends in the sample vectors, and the host speed it ran
/// at (see [`crate::calib`]).
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub speed: f64,
    units_end: usize,
    ends: [usize; N_SERIES],
}

/// One block of the measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// After how many slices of the phase the block ends.
    slices_end: usize,
    /// Share of the block's CPU time (wall time × CPUs) the hypervisor
    /// gave to someone else.
    pub stolen: f64,
}

/// Everything one measured phase records. Durations are kept as
/// measured; [`Phase::latencies_ms`] and [`Phase::ops_per_s`] put them on
/// the calibrated clock.
#[derive(Default)]
pub struct Phase {
    pub units: Vec<Unit>,
    samples: [Vec<u64>; N_SERIES],
    /// Client batches acknowledged (pipelined: several per merge).
    pub client_batches: u64,
    pub attempted: u64,
    /// Ops of epochs the store rejected (`Err` commits).
    pub rejected: u64,
    /// Durable store: I/O counts and acknowledged ops at each snapshot
    /// point, so counts are taken over whole snapshot periods and repeat
    /// exactly however many epochs a run fits in.
    pub io_marks: Vec<(IoSnapshot, u64)>,
    pub slices: Vec<Slice>,
    pub blocks: Vec<Block>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Phase {
    pub fn acked_ops(&self) -> u64 {
        self.units.iter().map(|u| u.ops).sum()
    }

    pub fn push(&mut self, series: Series, ns: u64) {
        self.samples[series as usize].push(ns);
    }

    fn close_slice(&mut self, speed: f64) {
        let mut ends = [0; N_SERIES];
        for (end, samples) in ends.iter_mut().zip(&self.samples) {
            *end = samples.len();
        }
        self.slices.push(Slice {
            speed,
            units_end: self.units.len(),
            ends,
        });
    }

    /// Per block: where it ends in the slices, and whether it counts: the
    /// [`BLOCKS`] blocks with the least stolen CPU time do (the earlier
    /// one first among equals).
    fn kept(&self) -> Vec<(usize, bool)> {
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_by(|&a, &b| self.blocks[a].stolen.total_cmp(&self.blocks[b].stolen));
        let mut keep = vec![false; self.blocks.len()];
        for &i in order.iter().take(BLOCKS) {
            keep[i] = true;
        }
        self.blocks
            .iter()
            .zip(keep)
            .map(|(b, keep)| (b.slices_end, keep))
            .collect()
    }

    /// A latency series of the kept blocks in milliseconds, each sample
    /// multiplied by the host speed of its slice (1 if `!calibrated`).
    pub fn latencies_ms(&self, series: Series, calibrated: bool) -> Vec<f64> {
        let samples = &self.samples[series as usize];
        let mut out = Vec::with_capacity(samples.len());
        let (mut from, mut slice) = (0, 0);
        for (slices_end, keep) in self.kept() {
            for s in &self.slices[slice..slices_end] {
                let k = if calibrated { s.speed } else { 1.0 };
                let end = s.ends[series as usize];
                if keep {
                    out.extend(samples[from..end].iter().map(|&ns| ns as f64 * k / 1e6));
                }
                from = end;
            }
            slice = slices_end;
        }
        out
    }

    /// Ops per second of busy time in each kept block, on the calibrated
    /// clock or as measured.
    pub fn block_rates(&self, calibrated: bool) -> Vec<f64> {
        let slices: Vec<(usize, f64)> = self
            .slices
            .iter()
            .map(|s| (s.units_end, if calibrated { s.speed } else { 1.0 }))
            .collect();
        block_rates(&self.units, &slices, &self.kept())
    }

    /// Throughput: the median over the kept blocks.
    pub fn ops_per_s(&self, calibrated: bool) -> Option<f64> {
        median(&self.block_rates(calibrated))
    }

    /// Mean host speed of each kept block.
    pub fn host_speeds(&self) -> Vec<f64> {
        let mut from = 0;
        let mut out = Vec::with_capacity(self.blocks.len());
        for (end, keep) in self.kept() {
            let speeds = &self.slices[from..end];
            from = end;
            if keep && !speeds.is_empty() {
                out.push(speeds.iter().map(|s| s.speed).sum::<f64>() / speeds.len() as f64);
            }
        }
        out
    }
}

/// Post-run verification and the numbers only the end of a run has.
#[derive(Default)]
pub struct Post {
    pub attempted: u64,
    pub failed: u64,
    /// Median recovery time, as measured and on the calibrated clock.
    pub recover_s: Option<(f64, f64)>,
    /// Recovery with an empty WAL tail (snapshot load only), calibrated.
    pub recover_snapshot_only_s: Option<f64>,
    pub notes: Vec<(&'static str, String)>,
}

pub trait Bench {
    fn step(&mut self, tr: &mut Tracer, ph: &mut Phase);
    /// Bring the system under test to rest (nothing in flight), so a
    /// calibration point times the reference alone.
    fn quiesce(&mut self, _ph: &mut Phase) {}
    /// Busy time between two calibration points.
    fn slice_ns(&self) -> u64 {
        SLICE_NS
    }
    /// Oracle mismatches so far (set-up, phases, and later `finish`).
    fn mismatches(&self) -> u64;
    fn stream_hash(&self) -> u64;
    fn exec(&self) -> &Exec;
    /// Scratch arena of the store under test.
    fn scratch(&self) -> &Scratch;
    /// The counting file system of a durable workload.
    fn vfs(&self) -> Option<&CountingVfs> {
        None
    }
    /// Post-run checks; consumes the workload's state.
    fn finish(self: Box<Self>, cal: &mut Reference) -> Post;
}

/// Blocks of the measured phase that count. `ops_per_s` is the median
/// over them, so a multi-second noisy-neighbour burst moves a few blocks
/// and not the result.
pub const BLOCKS: usize = 10;

/// Blocks the measured phase is cut into. The [`BLOCKS`] with the least
/// CPU time stolen by the hypervisor count; the rest are measured and
/// left out. The reference kernel cannot see stolen time (it measures
/// how fast a CPU runs, not whether there is one), and the pool workloads
/// amplify it: with 5 % of the CPU time stolen `kv-merge-pool` ran 18 %
/// slower, a stalled worker keeping the other one spinning; in a bad
/// quarter of an hour a third of the pool runs got one CPU for most of
/// their time.
pub const BLOCKS_RUN: usize = 14;

/// Busy time between two calibration points. The host's speed wanders on
/// every timescale from a millisecond up (the reference alone varies by
/// a fifth between 1.5-millisecond windows), so the reference is timed
/// this often: calibrating at block boundaries only was no better than
/// not calibrating at all.
const SLICE_NS: u64 = 10_000_000;

/// Run `bench` for `seconds` in [`BLOCKS_RUN`] blocks of equal time, each cut
/// into slices with a calibration point between them, recording into a
/// phase allocated up front.
pub fn run_phase(
    bench: &mut dyn Bench,
    tr: &mut Tracer,
    cal: &mut Reference,
    seconds: f64,
) -> Phase {
    let mut ph = Phase::default();
    for v in &mut ph.samples {
        v.reserve(1 << 18);
    }
    ph.units.reserve(1 << 18);
    ph.slices.reserve(1 << 12);
    ph.blocks.reserve(BLOCKS_RUN);
    let slice_ns = bench.slice_ns();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    bench.quiesce(&mut ph);
    let mut before = cal.point();
    let block_s = seconds / BLOCKS_RUN as f64;
    let cpus = nproc() as f64;
    for _ in 0..BLOCKS_RUN {
        // At least one unit, then units while the next one is expected
        // to end nearer the block's time than this one did: a block of
        // 0.5-second sorts lasts its second, not a second and a half.
        let b0 = Instant::now();
        let stolen0 = steal_seconds();
        let mut steps = 0.0;
        let mut block_done = false;
        while !block_done {
            let mut busy = 0;
            while busy < slice_ns && !block_done {
                let first = ph.units.len();
                bench.step(tr, &mut ph);
                busy += ph.units[first..].iter().map(|u| u.busy_ns).sum::<u64>();
                steps += 1.0;
                let elapsed = b0.elapsed().as_secs_f64();
                block_done = elapsed + elapsed / steps / 2.0 >= block_s;
            }
            bench.quiesce(&mut ph);
            let after = cal.point();
            ph.close_slice(calib::speed(before, after));
            before = after;
        }
        let stolen = (steal_seconds() - stolen0) / (b0.elapsed().as_secs_f64() * cpus);
        ph.blocks.push(Block {
            slices_end: ph.slices.len(),
            stolen,
        });
    }
    ph.wall_s = t0.elapsed().as_secs_f64();
    ph.cpu_s = cpu_seconds() - cpu0;
    ph
}

pub struct SetupCtx<'a> {
    pub workload: Workload,
    pub sizes: &'a Sizes,
    pub seed: u64,
    /// Directory durable stores are created under.
    pub dir: &'a Path,
    /// Which set-up repetition this is (names the durable directory).
    pub rep: usize,
}

pub fn setup(cx: &SetupCtx<'_>) -> Result<Box<dyn Bench>, String> {
    Ok(match cx.workload {
        Workload::ShardedPipelined => Box::new(PipedBench::setup(cx)?),
        Workload::SortPaper => Box::new(SortBench::setup(cx)),
        _ => Box::new(PlainBench::setup(cx)?),
    })
}

// --- Store, ShardedStore: one epoch per client batch ---------------------------

/// Which epochs pay background work.
#[derive(Clone, Copy)]
enum Stall {
    /// Every epoch is a merge of the same shape: the class is all of them.
    Every,
    /// Merges forced by `pending_limit` (`last_path() == Merge`).
    ForcedMerge,
    /// Epochs that write a snapshot: every `n`-th merge.
    Snapshot(u64),
}

struct Durable {
    dir: PathBuf,
    vfs: CountingVfs,
    shape: Shape,
}

impl Drop for Durable {
    /// A durable directory lives as long as the set-up that made it.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `kv-merge-seq`, `kv-merge-pool`, `kv-durable-small`, `kv-oram-point`.
struct PlainBench {
    kv: Kv,
    exec: Exec,
    stream: OpStream,
    oracle: Oracle,
    batch: usize,
    stall: Stall,
    epoch: u64,
    acked: u64,
    durable: Option<Durable>,
    sizes: Sizes,
    seed: u64,
}

pub fn plain_shape(w: Workload, s: &Sizes) -> (Shape, usize) {
    let mem = |keys| Shape {
        keys,
        snapshot_every: 0,
        oram_key_space: None,
        durable: false,
    };
    match w {
        Workload::DurableSmall => (
            Shape {
                snapshot_every: s.snapshot_every,
                durable: true,
                ..mem(s.durable_keys)
            },
            s.durable_batch,
        ),
        Workload::OramPoint => (
            Shape {
                oram_key_space: Some(s.oram_keys),
                ..mem(s.oram_keys)
            },
            s.oram_batch,
        ),
        _ => (mem(s.merge_keys), s.merge_batch),
    }
}

impl PlainBench {
    fn setup(cx: &SetupCtx<'_>) -> Result<PlainBench, String> {
        let (shape, batch) = plain_shape(cx.workload, cx.sizes);
        let exec = match cx.workload {
            Workload::MergePool => Exec::pinned(pool_threads()),
            _ => Exec::seq(),
        };
        let (kv, durable) = if shape.durable {
            let dir = cx
                .dir
                .join(format!("durable-{}-{}", std::process::id(), cx.rep));
            let _ = std::fs::remove_dir_all(&dir);
            let vfs = CountingVfs::new(Flush::PageCache, 1 << 18);
            let kv = Kv::open(&dir, shape, Arc::new(vfs.clone()))?;
            (kv, Some(Durable { dir, vfs, shape }))
        } else {
            (Kv::in_memory(shape), None)
        };
        let mut b = PlainBench {
            kv,
            exec,
            stream: OpStream::new(cx.seed, (0..shape.keys as u64).collect()),
            oracle: Oracle::new(),
            batch,
            stall: match cx.workload {
                Workload::DurableSmall => Stall::Snapshot(shape.snapshot_every),
                Workload::OramPoint => Stall::ForcedMerge,
                _ => Stall::Every,
            },
            epoch: 0,
            acked: 0,
            durable,
            sizes: *cx.sizes,
            seed: cx.seed,
        };
        let load = b.stream.bulk_load();
        b.kv.epoch(&b.exec, &load)?;
        b.oracle.apply_epoch(&load, b.kv.last_epoch_merged());
        let mut tr = Tracer::new(0);
        let mut warm = Phase::default();
        for _ in 0..cx.sizes.warmup {
            b.step(&mut tr, &mut warm);
        }
        if warm.rejected > 0 {
            return Err("the store rejected a warm-up epoch".into());
        }
        Ok(b)
    }

    /// One verified epoch outside any phase.
    fn untimed_epoch(&mut self) {
        let mut tr = Tracer::new(0);
        self.step(&mut tr, &mut Phase::default());
    }

    /// Read every resident key back in one `Get` epoch and compare.
    fn check_table(kv: &mut Kv, exec: &Exec, keys: &[u64], oracle: &mut Oracle) -> (u64, u64) {
        let gets: Vec<Op> = keys.iter().map(|&key| Op::Get { key }).collect();
        match kv.epoch(exec, &gets) {
            Ok(res) => {
                let merged = kv.last_epoch_merged();
                (gets.len() as u64, oracle.check_epoch(&gets, &res, merged))
            }
            Err(_) => (gets.len() as u64, gets.len() as u64),
        }
    }
}

impl Bench for PlainBench {
    fn step(&mut self, tr: &mut Tracer, ph: &mut Phase) {
        let id = self.epoch;
        self.epoch += 1;
        let e = tr.begin("epoch", id);
        let g = tr.begin("gen", id);
        let ops = self.stream.next_batch(self.batch);
        tr.end(g);

        let c = tr.begin("commit", id);
        let t0 = Instant::now();
        let res = self.kv.epoch(&self.exec, &ops);
        let ns = t0.elapsed().as_nanos() as u64;
        tr.end(c);

        let v = tr.begin("verify", id);
        ph.attempted += ops.len() as u64;
        match res {
            Ok(res) => {
                let merged = self.kv.last_epoch_merged();
                self.oracle.check_epoch(&ops, &res, merged);
                self.acked += ops.len() as u64;
                ph.units.push(Unit {
                    ops: ops.len() as u64,
                    busy_ns: ns,
                });
                ph.push(Series::Ack, ns);
                ph.client_batches += 1;
                if merged {
                    ph.push(Series::Merge, ns);
                } else {
                    ph.push(Series::Oram, ns);
                }
                let merges = self.kv.counts().1;
                let stalled = match self.stall {
                    Stall::Every => true,
                    Stall::ForcedMerge => merged,
                    Stall::Snapshot(n) => merged && merges.is_multiple_of(n),
                };
                if stalled {
                    ph.push(Series::Stall, ns);
                    if let (Stall::Snapshot(_), Some(d)) = (self.stall, &self.durable) {
                        ph.io_marks.push((d.vfs.counts(), self.acked));
                    }
                }
            }
            Err(_) => ph.rejected += ops.len() as u64,
        }
        tr.end(v);
        tr.end(e);
    }

    fn mismatches(&self) -> u64 {
        self.oracle.mismatches
    }

    fn stream_hash(&self) -> u64 {
        self.stream.hash.0
    }

    fn exec(&self) -> &Exec {
        &self.exec
    }

    fn scratch(&self) -> &Scratch {
        self.kv.scratch()
    }

    fn vfs(&self) -> Option<&CountingVfs> {
        self.durable.as_ref().map(|d| &d.vfs)
    }

    fn finish(mut self: Box<Self>, cal: &mut Reference) -> Post {
        let mut post = Post::default();
        let keys = self.stream.keys().to_vec();
        let Some(d) = self.durable.take() else {
            let (n, bad) = Self::check_table(&mut self.kv, &self.exec, &keys, &mut self.oracle);
            post.attempted += n;
            post.failed += bad;
            return post;
        };

        // Leave exactly `wal_tail` epochs after the last snapshot, so
        // every timed recovery replays the same log.
        let (every, tail) = (self.sizes.snapshot_every, self.sizes.wal_tail);
        while self.kv.counts().1 % every != tail {
            self.untimed_epoch();
        }
        let this = *self;
        let PlainBench {
            kv,
            exec,
            mut oracle,
            sizes,
            seed,
            ..
        } = this;
        drop(kv);

        let reopen = || Kv::open(&d.dir, d.shape, Arc::new(d.vfs.clone()));
        let mut times = Vec::new();
        let mut recovered = None;
        let before = cal.point();
        for _ in 0..sizes.recovers {
            let t0 = Instant::now();
            recovered = reopen().ok();
            times.push(t0.elapsed().as_secs_f64());
        }
        let speed = calib::speed(before, cal.point());
        post.recover_s = median(&times).map(|s| (s, s * speed));
        match recovered.as_mut() {
            // Full-table comparison after recovery.
            Some(kv) => {
                let (n, bad) = Self::check_table(kv, &exec, &keys, &mut oracle);
                post.attempted += n;
                post.failed += bad;
            }
            None => {
                post.attempted += keys.len() as u64;
                post.failed += keys.len() as u64;
            }
        }

        // The same recovery with an empty tail isolates the replay cost.
        if let Some(mut kv) = recovered {
            if kv.checkpoint().is_ok() {
                drop(kv);
                let mut times = Vec::new();
                let before = cal.point();
                for _ in 0..3 {
                    let t0 = Instant::now();
                    let ok = reopen().is_ok();
                    times.push(t0.elapsed().as_secs_f64());
                    if !ok {
                        post.failed += 1;
                    }
                }
                let speed = calib::speed(before, cal.point());
                post.recover_snapshot_only_s = median(&times).map(|s| s * speed);
            }
        }

        let (n, bad, note) = crash_check(d.shape, &sizes, seed);
        post.attempted += n;
        post.failed += bad;
        post.notes.push(("crash_check", note));
        post
    }
}

/// One seeded crash: replay the first `crash_epochs` durable epochs of
/// the run's own op stream on the fault-injecting filesystem, crash at a
/// seeded I/O operation, recover from what was synced, and compare the
/// recovered table with an oracle that replayed exactly the acknowledged
/// epochs. Returns `(ops checked, failures, note)`.
fn crash_check(shape: Shape, sizes: &Sizes, seed: u64) -> (u64, u64, String) {
    let exec = Exec::seq();
    let dir = Path::new("crash-check");
    let keys: Vec<u64> = (0..shape.keys as u64).collect();
    // Drive the stream until an epoch is rejected; the oracle replays
    // exactly the acknowledged ones.
    let drive = |fs: &CrashFs| -> (Oracle, u64) {
        let mut oracle = Oracle::new();
        let mut stream = OpStream::new(seed, keys.clone());
        let Ok(mut kv) = Kv::open(dir, shape, fs.vfs()) else {
            return (oracle, 0);
        };
        let mut acked = 0;
        let load = stream.bulk_load();
        let batches = std::iter::once(load)
            .chain((0..sizes.crash_epochs).map(|_| stream.next_batch(sizes.durable_batch)));
        for ops in batches {
            if kv.epoch(&exec, &ops).is_err() {
                break;
            }
            oracle.apply_epoch(&ops, kv.last_epoch_merged());
            acked += 1;
        }
        (oracle, acked)
    };

    let dry = CrashFs::unfaulted();
    let (_, all) = drive(&dry);
    let io_ops = dry.io_ops();
    if all != sizes.crash_epochs as u64 + 1 || io_ops == 0 {
        return (
            1,
            1,
            "the unfaulted dry run did not acknowledge every epoch".into(),
        );
    }
    let k = Rng::new(seed ^ 0xC4A5).below(io_ops);
    let fs = CrashFs::crash_at(k);
    let (mut oracle, acked) = drive(&fs);
    let note = format!("crash at I/O op {k} of {io_ops}: {acked} of {all} epochs acknowledged");
    if !fs.crashed() {
        return (1, 1, format!("{note}; the crash point never fired"));
    }
    // Recover read-only from the durable image.
    let volatile = Shape {
        durable: false,
        ..shape
    };
    let image: Arc<dyn Vfs> = fs.durable_image().vfs();
    let Ok(mut kv) = Kv::open(dir, volatile, image) else {
        return (
            1,
            1,
            format!("{note}; recovery from the crash image failed"),
        );
    };
    let mut bad = u64::from(kv.counts().0 != acked);
    let (n, table_bad) = PlainBench::check_table(&mut kv, &exec, &keys, &mut oracle);
    bad += table_bad;
    (n + 1, bad, note)
}

// --- PipelinedStore<ShardedStore>: fixed cadence ----------------------------------

/// `kv-sharded-pipelined`: submit `batches_per_commit` client batches →
/// `read_now` → `commit_async` → `wait` on the previous handle. No
/// `try_commit`, so the merge count does not depend on timing.
struct PipedBench {
    p: Piped,
    exec: Exec,
    stream: OpStream,
    /// Checked against each epoch's results, in commit order.
    ordered: Oracle,
    /// Every submitted op applied at once: what `read_now` must see.
    now: Oracle,
    sizes: Sizes,
    round: u64,
    /// Busy clock: nanoseconds of timed spans so far. Latencies are taken
    /// on it so generation and verification between rounds do not count.
    busy_ns: u64,
    inflight: Option<InFlight>,
}

struct InFlight {
    handle: crate::api::Handle,
    ops: Vec<Op>,
    /// Busy-clock time each client batch started submitting.
    submitted_at: Vec<u64>,
}

impl PipedBench {
    fn setup(cx: &SetupCtx<'_>) -> Result<PipedBench, String> {
        let s = cx.sizes;
        let per_shard = Shape {
            keys: s.sharded_keys / s.shards,
            snapshot_every: 0,
            oram_key_space: None,
            durable: false,
        };
        let mut b = PipedBench {
            p: Piped::new(s.shards, per_shard),
            exec: Exec::pinned(pool_threads()),
            stream: OpStream::new(cx.seed, balanced_keys(s.sharded_keys, s.shards)),
            ordered: Oracle::new(),
            now: Oracle::new(),
            sizes: *s,
            round: 0,
            busy_ns: 0,
            inflight: None,
        };
        let load = b.stream.bulk_load();
        for &op in &load {
            b.p.submit(op);
        }
        let h = b.p.commit_async(&b.exec);
        b.p.wait(&h)?;
        b.ordered.apply_epoch(&load, true);
        b.now.apply_epoch(&load, true);
        let mut tr = Tracer::new(0);
        let mut warm = Phase::default();
        for _ in 0..s.warmup {
            b.step(&mut tr, &mut warm);
        }
        b.quiesce(&mut warm);
        if warm.rejected > 0 {
            return Err("the store rejected a warm-up epoch".into());
        }
        Ok(b)
    }

    /// Check an acknowledged epoch and record its batches' latencies.
    fn retire(
        &mut self,
        inf: InFlight,
        res: Result<Vec<crate::api::OpResult>, String>,
        acked_at: u64,
        ph: &mut Phase,
    ) -> u64 {
        match res {
            Ok(res) => {
                self.ordered.check_epoch(&inf.ops, &res, true);
                for at in &inf.submitted_at {
                    ph.push(Series::Ack, acked_at - at);
                }
                ph.client_batches += inf.submitted_at.len() as u64;
                inf.ops.len() as u64
            }
            Err(_) => {
                ph.rejected += inf.ops.len() as u64;
                0
            }
        }
    }
}

impl Bench for PipedBench {
    fn step(&mut self, tr: &mut Tracer, ph: &mut Phase) {
        let id = self.round;
        self.round += 1;
        let s = self.sizes;
        let e = tr.begin("epoch", id);
        let g = tr.begin("gen", id);
        let batches: Vec<Vec<Op>> = (0..s.batches_per_commit)
            .map(|_| self.stream.next_batch(s.client_batch))
            .collect();
        let keys = self.stream.read_keys(s.read_now_keys);
        for b in &batches {
            self.now.apply_epoch(b, false);
        }
        tr.end(g);

        let t0 = Instant::now();
        let since = |t: Instant| t.elapsed().as_nanos() as u64;
        let mut submitted_at = Vec::with_capacity(batches.len());
        for b in &batches {
            let sp = tr.begin("submit", id);
            submitted_at.push(self.busy_ns + since(t0));
            for &op in b {
                self.p.submit(op);
            }
            tr.end(sp);
        }
        let submit_ns = since(t0);

        let sp = tr.begin("read_now", id);
        let t = Instant::now();
        let seen = self.p.read_now(&self.exec, &keys);
        let read_ns = since(t);
        tr.end(sp);

        let sp = tr.begin("commit_async", id);
        let t = Instant::now();
        let handle = self.p.commit_async(&self.exec);
        let handoff_ns = since(t);
        tr.end(sp);

        let sp = tr.begin("wait", id);
        let prev = self.inflight.take();
        let prev_res = prev.as_ref().map(|inf| self.p.wait(&inf.handle));
        tr.end(sp);
        let busy = since(t0);
        self.busy_ns += busy;

        let v = tr.begin("verify", id);
        let ops: Vec<Op> = batches.concat();
        ph.attempted += ops.len() as u64;
        self.now.check_table(&keys, &seen);
        let acked = match (prev, prev_res) {
            (Some(inf), Some(res)) => self.retire(inf, res, self.busy_ns, ph),
            _ => 0,
        };
        ph.units.push(Unit {
            ops: acked,
            busy_ns: busy,
        });
        ph.push(Series::Stall, handoff_ns);
        ph.push(Series::Merge, busy);
        ph.push(Series::Submit, submit_ns);
        ph.push(Series::ReadNow, read_ns);
        self.inflight = Some(InFlight {
            handle,
            ops,
            submitted_at,
        });
        tr.end(v);
        tr.end(e);
    }

    fn mismatches(&self) -> u64 {
        self.ordered.mismatches + self.now.mismatches
    }

    fn stream_hash(&self) -> u64 {
        self.stream.hash.0
    }

    fn exec(&self) -> &Exec {
        &self.exec
    }

    fn scratch(&self) -> &Scratch {
        self.p.scratch()
    }

    /// A calibration point needs the pipeline drained, which costs the
    /// overlap of one round: ten times rarer here than elsewhere.
    fn slice_ns(&self) -> u64 {
        10 * SLICE_NS
    }

    /// Wait for the epoch in flight and retire it: its merge would
    /// otherwise share the cores with the reference kernel.
    fn quiesce(&mut self, ph: &mut Phase) {
        let Some(inf) = self.inflight.take() else {
            return;
        };
        let t0 = Instant::now();
        let res = self.p.wait(&inf.handle);
        let busy = t0.elapsed().as_nanos() as u64;
        self.busy_ns += busy;
        let acked = self.retire(inf, res, self.busy_ns, ph);
        ph.units.push(Unit {
            ops: acked,
            busy_ns: busy,
        });
    }

    fn finish(mut self: Box<Self>, _cal: &mut Reference) -> Post {
        let mut post = Post::default();
        let mut drain = Phase::default();
        self.quiesce(&mut drain);
        post.failed += drain.rejected;
        // Full-table read-back through the consult path: with nothing in
        // flight it must equal both oracles.
        let keys = self.stream.keys().to_vec();
        let seen = self.p.read_now(&self.exec, &keys);
        post.attempted += 2 * keys.len() as u64;
        post.failed += self.ordered.check_table(&keys, &seen);
        post.failed += self.now.check_table(&keys, &seen);
        let (started, retired) = self.p.counts();
        post.notes
            .push(("merges", format!("{started} started, {retired} retired")));
        post
    }
}

// --- The paper's sort -----------------------------------------------------------

/// `sort-paper`: fresh keys and fresh coins per sort; the output must be
/// sorted and a permutation of the input (sum and xor checksums).
struct SortBench {
    exec: Exec,
    scratch: Scratch,
    rng: Rng,
    hash: StreamHash,
    n: usize,
    sorts: u64,
    bad: u64,
}

impl SortBench {
    fn setup(cx: &SetupCtx<'_>) -> SortBench {
        let mut b = SortBench {
            exec: Exec::seq(),
            scratch: Scratch::new(),
            rng: Rng::new(cx.seed),
            hash: StreamHash::new(),
            n: cx.sizes.sort_n,
            sorts: 0,
            bad: 0,
        };
        // One sort fills the scratch arena and the caches; three would
        // triple a set-up that is already the longest of the six.
        b.step(&mut Tracer::new(0), &mut Phase::default());
        b
    }
}

fn checksum(keys: &[u64]) -> (u64, u64) {
    keys.iter()
        .fold((0, 0), |(s, x), &k| (s.wrapping_add(k), x ^ k))
}

impl Bench for SortBench {
    fn step(&mut self, tr: &mut Tracer, ph: &mut Phase) {
        let id = self.sorts;
        self.sorts += 1;
        let e = tr.begin("epoch", id);
        let g = tr.begin("gen", id);
        let (mut keys, coin) = sort_input(&mut self.rng, self.n, &mut self.hash);
        let before = checksum(&keys);
        tr.end(g);

        let c = tr.begin("commit", id);
        let t0 = Instant::now();
        crate::api::paper_sort(&self.exec, &self.scratch, &mut keys, coin);
        let ns = t0.elapsed().as_nanos() as u64;
        tr.end(c);

        let v = tr.begin("verify", id);
        ph.attempted += self.n as u64;
        if !keys.is_sorted() || checksum(&keys) != before {
            self.bad += self.n as u64;
        }
        ph.units.push(Unit {
            ops: self.n as u64,
            busy_ns: ns,
        });
        ph.push(Series::Ack, ns);
        ph.push(Series::Stall, ns);
        ph.client_batches += 1;
        tr.end(v);
        tr.end(e);
    }

    fn mismatches(&self) -> u64 {
        self.bad
    }

    fn stream_hash(&self) -> u64 {
        self.hash.0
    }

    fn exec(&self) -> &Exec {
        &self.exec
    }

    fn scratch(&self) -> &Scratch {
        &self.scratch
    }

    fn finish(self: Box<Self>, _cal: &mut Reference) -> Post {
        Post::default()
    }
}

// --- The paper's model counts for one epoch ----------------------------------------

/// W, T∞ and Q(M,B) of one epoch of the workload's shape, measured on a
/// fresh store loaded with fixed contents: cost is a function of public
/// shape only, so these are the same for every `--seed`, and exact.
/// Returns the counts and the ops of the metered epoch; `None` for
/// `sort-paper`, which is not a store workload.
pub fn model_counts(w: Workload, s: &Sizes) -> Result<Option<(Model, usize)>, String> {
    const CANON: u64 = 0x0D0B;
    let seq = Exec::seq();
    match w {
        Workload::SortPaper => Ok(None),
        Workload::ShardedPipelined => {
            let per_shard = Shape {
                keys: s.sharded_keys / s.shards,
                snapshot_every: 0,
                oram_key_space: None,
                durable: false,
            };
            let mut p = Piped::new(s.shards, per_shard);
            let mut stream = OpStream::new(CANON, balanced_keys(s.sharded_keys, s.shards));
            for op in stream.bulk_load() {
                p.submit(op);
            }
            let h = p.commit_async(&seq);
            p.wait(&h)?;
            let ops = stream.next_batch(s.client_batch * s.batches_per_commit);
            Ok(Some((p.model_epoch(&ops)?, ops.len())))
        }
        _ => {
            let (shape, batch) = plain_shape(w, s);
            // The model counts the store's work, not the device's: the
            // durable shape is metered in memory.
            let mut kv = Kv::in_memory(Shape {
                durable: false,
                ..shape
            });
            let mut stream = OpStream::new(CANON, (0..shape.keys as u64).collect());
            kv.epoch(&seq, &stream.bulk_load())?;
            kv.epoch(&seq, &stream.next_batch(batch))?;
            let ops = stream.next_batch(batch);
            Ok(Some((kv.model_epoch(&ops)?, ops.len())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fourteen one-unit blocks; block `i` takes `busy[i]` ns for 1000
    /// ops and has `stolen[i]` of its CPU time stolen.
    fn phase(busy: [u64; BLOCKS_RUN], stolen: [f64; BLOCKS_RUN]) -> Phase {
        let mut ph = Phase::default();
        for (busy_ns, stolen) in busy.into_iter().zip(stolen) {
            ph.units.push(Unit { ops: 1000, busy_ns });
            ph.push(Series::Ack, busy_ns);
            ph.close_slice(1.0);
            ph.blocks.push(Block {
                slices_end: ph.slices.len(),
                stolen,
            });
        }
        ph
    }

    #[test]
    fn the_ten_blocks_with_the_least_stolen_cpu_time_count() {
        // Four blocks lose a CPU for part of their time and run at half
        // speed; they are measured, and left out.
        let mut busy = [1_000_000; BLOCKS_RUN];
        let mut stolen = [0.0; BLOCKS_RUN];
        for i in [1, 5, 6, 12] {
            busy[i] = 2_000_000;
            stolen[i] = 0.05;
        }
        let ph = phase(busy, stolen);
        assert_eq!(ph.block_rates(false), [1e6; BLOCKS]);
        assert_eq!(ph.latencies_ms(Series::Ack, false), [1.0; BLOCKS]);
        assert_eq!(ph.host_speeds().len(), BLOCKS);
        assert_eq!(ph.acked_ops(), 14_000, "every unit is still counted");
    }

    #[test]
    fn without_stolen_time_the_first_ten_blocks_count() {
        let mut busy = [1_000_000; BLOCKS_RUN];
        busy[BLOCKS..].fill(3_000_000);
        let ph = phase(busy, [0.0; BLOCKS_RUN]);
        assert_eq!(ph.block_rates(false), [1e6; BLOCKS]);
        // Under steal everywhere, the least of it.
        let mut stolen = [0.02; BLOCKS_RUN];
        stolen[..4].fill(0.5);
        let ph = phase(busy, stolen);
        let rates = ph.block_rates(false);
        assert_eq!(rates.len(), BLOCKS);
        assert_eq!(rates.iter().filter(|&&r| r == 1e6).count(), 6);
    }
}
