//! One model of the store for every front end: a `HashMap` [`Oracle`] and
//! a command-sequence runner ([`Model`]) that runs a script of [`Cmd`]s
//! against one [`Front`], on any executor, in memory or durable on an
//! in-memory [`FaultVfs`]. It checks every `OpResult` (an `Aggregate`
//! against the snapshot of the last merge close before its epoch), every
//! `read_now` against the committed, in-flight and open ops, and, whenever
//! the engine is home, `stats()`, `epoch_counts()`, `pending_len()` and
//! `shard_count()` against counters derived from public sizes.
//! `checkpoint()` must refuse with `CheckpointPending` exactly when a
//! durable store's pending log is non-empty, and a store recovered after a
//! crash must hold exactly the committed epochs, at the same capacity. A
//! run stops at the first rejected epoch; [`drive`] returns the batches
//! acknowledged until then.

use dob::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use store::vfs::{FaultVfs, Vfs};

/// Directory of every durable model run (each on its own vfs).
pub const DIR: &str = "/store";

/// Scripts write key indices `0..WRITTEN` and probe `0..PROBED`: the rest
/// are absent keys.
const WRITTEN: u64 = 48;
const PROBED: u64 = 64;

/// `n` puts, gets and deletes over keys `0..key_space`, shaped by `salt`.
pub fn mixed_ops(n: u64, salt: u64, key_space: u64) -> Vec<Op> {
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

/// The store's semantics on a `HashMap`.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    map: HashMap<u64, u64>,
    /// Stats as of the last merge close: what an `Aggregate` answers.
    snapshot: StoreStats,
}

impl Oracle {
    /// The answers to one epoch of `ops`, applied in submission order;
    /// a `merge` epoch then refreshes the aggregate snapshot.
    pub fn epoch(&mut self, ops: &[Op], merge: bool) -> Vec<OpResult> {
        let (map, before) = (&mut self.map, self.snapshot);
        let answers = ops.iter().map(|op| match *op {
            Op::Get { key } => OpResult::Value(map.get(&key).copied()),
            Op::Put { key, val } => OpResult::Value(map.insert(key, val)),
            Op::Delete { key } => OpResult::Value(map.remove(&key)),
            Op::Aggregate => OpResult::Stats(before),
        });
        let answers = answers.collect();
        if merge {
            let sum = self.map.values().fold(0u64, |a, &v| a.wrapping_add(v));
            let count = self.map.len() as u64;
            self.snapshot = StoreStats { count, sum };
        }
        answers
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }

    /// Probe keys `0..n` through one epoch of gets: each must hold the
    /// oracle's value.
    pub fn assert_held_by<C: Ctx>(&self, c: &C, sp: &ScratchPool, s: &mut ShardedStore, n: u64) {
        let probes: Vec<Op> = (0..n).map(|key| Op::Get { key }).collect();
        let res = s.execute_epoch(c, sp, &probes).unwrap();
        for (key, got) in (0..n).zip(&res) {
            assert_eq!(got.value(), self.get(key), "key {key}");
        }
    }
}

/// A front end over the store engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// `execute_epoch` on a `ShardedStore` with `route_slack = slack`.
    Sync { shards: usize, slack: usize },
    /// A `PipelinedStore` over a `ShardedStore`.
    Pipelined { shards: usize, open_limit: usize },
    /// The 1-shard ORAM store, through the pipelined front or not. Its
    /// low pending limit makes scripts take both paths.
    Oram { pipelined: bool },
    /// A synchronous 2-shard store whose shrink schedule takes every
    /// table back to the written keys' bound at every second merge.
    Shrink,
}

impl Front {
    pub const fn sync(shards: usize) -> Front {
        Front::Sync { shards, slack: 0 }
    }

    pub const fn pipelined(shards: usize) -> Front {
        Front::Pipelined {
            shards,
            open_limit: usize::MAX,
        }
    }

    /// Every front: shards {1, 2, 4, 8} × slack 0..3 synchronously, shards
    /// {1, 4} pipelined with an open limit of 16 or none, the ORAM store
    /// through both, and the shrinking store.
    pub fn all() -> Vec<Front> {
        let mut fronts = Vec::new();
        for shards in [1, 2, 4, 8] {
            fronts.extend((0..3).map(|slack| Front::Sync { shards, slack }));
        }
        for shards in [1, 4] {
            let limits = [16, usize::MAX];
            fronts.extend(limits.map(|open_limit| Front::Pipelined { shards, open_limit }));
        }
        fronts.extend([false, true].map(|pipelined| Front::Oram { pipelined }));
        fronts.push(Front::Shrink);
        fronts
    }

    pub fn shards(self) -> usize {
        match self {
            Front::Sync { shards, .. } | Front::Pipelined { shards, .. } => shards,
            Front::Oram { .. } => 1,
            Front::Shrink => 2,
        }
    }

    /// The store every run of this front opens: durable stores log every
    /// epoch and snapshot at every second merge.
    pub fn config(self, durable: bool) -> ShardConfig {
        let mut cfg = ShardConfig::with_shards(self.shards());
        match self {
            Front::Sync { slack, .. } => cfg.route_slack = slack,
            Front::Oram { .. } => cfg.store = StoreConfig::with_oram(PROBED as usize),
            Front::Pipelined { .. } | Front::Shrink => {}
        }
        cfg.store.pending_limit = 32;
        cfg.store.shrink = Some(ShrinkPolicy {
            every: if self == Front::Shrink { 2 } else { 0 },
            live_bound: WRITTEN as usize,
            snapshot: 2,
        });
        cfg.store.retry = RetryPolicy {
            attempts: 2,
            backoff: Duration::ZERO,
        };
        if durable {
            cfg.store.durability = Durability::epoch();
        }
        cfg
    }

    /// Key index → key: the identity on the ORAM store (its key space is
    /// `0..PROBED`); elsewhere a multiplicative hash, index 15 `u64::MAX`.
    pub fn key(self, index: u64) -> u64 {
        match (self, index) {
            (Front::Oram { .. }, _) => index,
            (_, 15) => u64::MAX,
            _ => index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Decode drawn `(code, a, b)` triples into a script: mostly submits
    /// (`a` picks the key, `b` the value), a burst of puts on one key that
    /// skews its epoch onto one shard, commits, waits, `read_now` of
    /// `1 + b % 300` keys, checkpoints and crashes.
    pub fn decode(self, raw: &[(u8, u64, u64)]) -> Vec<Cmd> {
        let mut cmds = Vec::new();
        for &(code, a, b) in raw {
            let key = self.key(a % WRITTEN);
            let cmd = match code % 32 {
                0..=8 | 29..=31 => Cmd::Submit(Op::Put { key, val: b }),
                9..=12 => Cmd::Submit(Op::Get { key }),
                13..=15 => Cmd::Submit(Op::Delete { key }),
                16 => Cmd::Submit(Op::Aggregate),
                17 => {
                    let burst = (0..8 + b % 24).map(|i| Cmd::Submit(Op::Put { key, val: b + i }));
                    cmds.extend(burst);
                    continue;
                }
                18..=20 => Cmd::Commit,
                21 | 22 => Cmd::TryCommit,
                23 | 24 => Cmd::Wait(code % 2 == 1),
                25 | 26 => {
                    let index = |i: u64| (a ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
                    Cmd::ReadNow((0..1 + b % 300).map(|i| self.key(index(i))).collect())
                }
                27 => Cmd::Checkpoint,
                _ => Cmd::Crash(b % 2 == 0),
            };
            cmds.push(cmd);
        }
        cmds
    }

    /// A fixed `len`-triple script drawn from `seed` (splitmix64).
    pub fn script(self, seed: u64, len: usize) -> Vec<Cmd> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let raw: Vec<_> = (0..len)
            .map(|_| (next() as u8, next(), next() % 1_000_000))
            .collect();
        self.decode(&raw)
    }
}

/// One step of a script.
#[derive(Clone, Debug)]
pub enum Cmd {
    Submit(Op),
    /// Seal the open ops as one epoch: `execute_epoch` / `commit_async`.
    Commit,
    /// `try_commit` on the pipelined front, `Commit` on the synchronous one.
    TryCommit,
    /// Redeem the oldest (`true`) or newest outstanding pipelined epoch.
    Wait(bool),
    ReadNow(Vec<u64>),
    /// Seal the open ops, take the engine home and `checkpoint()` it.
    Checkpoint,
    /// Durable runs only: drop the store and recover it from the durable
    /// image, on `SeqCtx` (`true`) or on the run's executor.
    Crash(bool),
}

/// The store behind the front (one per run: its size does not matter).
#[allow(clippy::large_enum_variant)]
enum Live {
    Sync(ShardedStore),
    Pipelined(PipelinedStore),
}

/// A pipelined epoch committed but not yet redeemed.
struct Outstanding {
    handle: EpochHandle,
    ops: Vec<Op>,
    want: Vec<OpResult>,
}

/// A store behind one front, and the oracle and public counters it must
/// agree with.
struct Model<'a, C: Ctx> {
    c: &'a C,
    sp: Arc<ScratchPool>,
    front: Front,
    vfs: Option<Arc<FaultVfs>>,
    /// `None` once a rejected epoch stopped the run, with `fault` its error.
    live: Option<Live>,
    fault: Option<StoreError>,
    oracle: Oracle,
    /// Submitted, not committed.
    open: Vec<Op>,
    outstanding: VecDeque<Outstanding>,
    /// Batches whose results came back, in acknowledgment order.
    acked: Vec<Vec<Op>>,
    /// `(epochs, merges)` and pending-log length the engine must report.
    counts: (u64, u64),
    pending: usize,
}

impl<'a, C: Ctx> Model<'a, C> {
    /// `front` with nothing committed, in memory or durable in [`DIR`] on
    /// `vfs`. A durable open that fails leaves the run stopped.
    fn open(c: &'a C, front: Front, vfs: Option<Arc<FaultVfs>>) -> Self {
        let sp = Arc::new(ScratchPool::new());
        let cfg = front.config(vfs.is_some());
        let store = match &vfs {
            None => Ok(ShardedStore::new(cfg)),
            Some(vfs) => ShardedStore::recover_with(c, &sp, DIR, cfg, vfs.clone()),
        };
        let mut model = Model {
            c,
            sp,
            front,
            vfs,
            live: None,
            fault: None,
            oracle: Oracle::default(),
            open: Vec::new(),
            outstanding: VecDeque::new(),
            acked: Vec::new(),
            counts: (0, 0),
            pending: 0,
        };
        match store {
            Ok(store) => model.install(store),
            Err(e) => model.fault = Some(e),
        }
        model
    }

    fn install(&mut self, store: ShardedStore) {
        let open_limit = match self.front {
            Front::Pipelined { open_limit, .. } => Some(open_limit),
            Front::Oram { pipelined } => pipelined.then_some(usize::MAX),
            Front::Sync { .. } | Front::Shrink => None,
        };
        self.live = Some(match open_limit {
            None => Live::Sync(store),
            Some(limit) => {
                let p = PipelinedStore::with_scratch(store, Arc::clone(&self.sp));
                Live::Pipelined(p.with_open_limit(limit))
            }
        });
    }

    /// The engine, unless it is away with an in-flight merge.
    fn engine(&self) -> Option<&ShardedStore> {
        match self.live.as_ref()? {
            Live::Sync(s) => Some(s),
            Live::Pipelined(p) => p.inner(),
        }
    }

    /// Take the engine home: every pipelined epoch must be redeemed.
    fn bare(&mut self) -> ShardedStore {
        match self.live.take() {
            Some(Live::Sync(s)) => s,
            Some(Live::Pipelined(p)) => p.into_inner(self.c),
            None => unreachable!("the run stopped"),
        }
    }

    fn run(&mut self, script: &[Cmd]) {
        for cmd in script {
            if self.live.is_none() {
                return;
            }
            match cmd {
                Cmd::Submit(op) => {
                    self.open.push(*op);
                    if let Some(Live::Pipelined(p)) = &mut self.live {
                        p.submit(*op);
                    }
                }
                Cmd::Commit => self.commit(false),
                Cmd::TryCommit => self.commit(true),
                Cmd::Wait(oldest) => {
                    let o = match oldest {
                        true => self.outstanding.pop_front(),
                        false => self.outstanding.pop_back(),
                    };
                    if let Some(o) = o {
                        self.redeem(o);
                    }
                }
                Cmd::ReadNow(keys) => self.read_now(keys),
                Cmd::Checkpoint => self.checkpoint(),
                Cmd::Crash(seq) => self.crash(*seq),
            }
            self.check_engine(cmd);
        }
    }

    /// Seal the open ops as one epoch (`opportunistic`: only if the
    /// pipelined front's cadence commits).
    fn commit(&mut self, opportunistic: bool) {
        let handle = match &mut self.live {
            Some(Live::Pipelined(p)) if opportunistic => match p.try_commit(self.c) {
                Some(h) => Some(h),
                None => return,
            },
            Some(Live::Pipelined(p)) => Some(p.commit_async(self.c)),
            Some(Live::Sync(_)) if !self.open.is_empty() => None,
            _ => return,
        };
        let ops = std::mem::take(&mut self.open);
        let want = self.expect(&ops);
        match (handle, &mut self.live) {
            (Some(handle), _) => self
                .outstanding
                .push_back(Outstanding { handle, ops, want }),
            (None, Some(Live::Sync(s))) => {
                let got = s.execute_epoch(self.c, &self.sp, &ops);
                self.settle(ops, want, got);
            }
            _ => unreachable!(),
        }
    }

    /// The oracle's answers to a committed epoch, advancing the public
    /// counters: its path follows from sizes.
    fn expect(&mut self, ops: &[Op]) -> Vec<OpResult> {
        if ops.is_empty() {
            return Vec::new();
        }
        let cfg = self.front.config(false).store;
        let b = store::size_class(ops.len());
        let oram = cfg.oram_key_space.is_some() && self.pending + b <= cfg.pending_limit;
        self.counts.0 += 1;
        self.counts.1 += !oram as u64;
        self.pending = if oram { self.pending + b } else { 0 };
        self.oracle.epoch(ops, !oram)
    }

    fn redeem(&mut self, o: Outstanding) {
        let Some(Live::Pipelined(p)) = &mut self.live else {
            unreachable!("only the pipelined front has outstanding epochs")
        };
        let got = p.wait(&o.handle);
        self.settle(o.ops, o.want, got);
    }

    fn redeem_all(&mut self) {
        while let Some(o) = self.outstanding.pop_front() {
            self.redeem(o);
        }
    }

    fn settle(
        &mut self,
        ops: Vec<Op>,
        want: Vec<OpResult>,
        got: Result<Vec<OpResult>, StoreError>,
    ) {
        match got {
            Ok(got) => {
                assert_eq!(got, want, "{:?}: answers to {ops:?}", self.front);
                if !ops.is_empty() {
                    self.acked.push(ops);
                }
            }
            Err(e) => self.stop(e),
        }
    }

    /// A rejected epoch or checkpoint: every later commit would be refused
    /// too. Join what is in flight, so no merge outlives the run.
    fn stop(&mut self, e: StoreError) {
        if let Some(Live::Pipelined(p)) = &mut self.live {
            for o in self.outstanding.drain(..) {
                let _ = p.wait(&o.handle);
            }
        }
        self.live = None;
        self.fault.get_or_insert(e);
    }

    fn read_now(&mut self, keys: &[u64]) {
        let mut view = self.oracle.clone();
        let got = match self.live.take() {
            Some(Live::Pipelined(p)) => {
                view.epoch(&self.open, false);
                let got = p.read_now(self.c, keys);
                self.live = Some(Live::Pipelined(p));
                got
            }
            Some(Live::Sync(s)) => {
                let (s, got) = peek(self.c, s, keys);
                self.live = Some(Live::Sync(s));
                got
            }
            None => return,
        };
        let want: Vec<_> = keys.iter().map(|&k| view.get(k)).collect();
        assert_eq!(got, want, "{:?}: read_now", self.front);
    }

    fn checkpoint(&mut self) {
        self.commit(false);
        if let Some(Live::Pipelined(_)) = self.live {
            self.redeem_all();
        }
        if self.live.is_none() {
            return;
        }
        let mut s = self.bare();
        let got = s.checkpoint();
        let health = s.health();
        self.install(s);
        let durable = self.vfs.is_some();
        match got {
            Err(StoreError::CheckpointPending { pending }) => {
                assert!(durable && pending > 0 && pending == self.pending);
                assert_eq!(health, Health::Ok, "a refused checkpoint degraded");
            }
            Ok(()) => assert!(!durable || self.pending == 0, "checkpointed a pending log"),
            Err(e) => self.stop(e),
        }
    }

    /// Drop the store as a crash would and recover it from what is
    /// durable: every committed epoch, and nothing open, at the same
    /// capacity.
    fn crash(&mut self, seq: bool) {
        let Some(vfs) = &self.vfs else { return };
        let image = Arc::new(vfs.durable_image());
        let capacity = self.engine().map(ShardedStore::capacity);
        self.live = None;
        self.open.clear();
        self.outstanding.clear();
        let (front, cfg, sp) = (self.front, self.front.config(true), &self.sp);
        let recovered = match seq {
            true => ShardedStore::recover_with(&SeqCtx::new(), sp, DIR, cfg, image.clone()),
            false => ShardedStore::recover_with(self.c, sp, DIR, cfg, image.clone()),
        };
        let s = recovered.unwrap_or_else(|e| panic!("{front:?}: recovery failed: {e}"));
        assert!(
            capacity.is_none_or(|c| c == s.capacity()),
            "{front:?}: capacity"
        );
        self.vfs = Some(image);
        let s = self.assert_holds(self.c, s, "recovered");
        self.install(s);
    }

    /// Every key of the universe reads the oracle's value on `s`.
    fn assert_holds(&self, c: &C, s: ShardedStore, what: &str) -> ShardedStore {
        let keys: Vec<u64> = (0..PROBED).map(|i| self.front.key(i)).collect();
        let (s, got) = peek(c, s, &keys);
        let want: Vec<_> = keys.iter().map(|&k| self.oracle.get(k)).collect();
        assert_eq!(got, want, "{:?}: {what} store != oracle", self.front);
        s
    }

    /// The public counters, wherever the engine is home and every epoch
    /// it ran has answered (an unredeemed one may have been rejected).
    fn check_engine(&self, after: &Cmd) {
        let Some(s) = self.engine().filter(|_| self.outstanding.is_empty()) else {
            return;
        };
        let got = (s.stats(), s.epoch_counts(), s.pending_len());
        let want = (self.oracle.snapshot, self.counts, self.pending);
        let front = self.front;
        assert_eq!(got, want, "{front:?} after {after:?}");
        assert_eq!(s.shard_count(), front.shards());
    }
}

/// `read_now` on a bare store: wrapped for one consult, then taken back.
fn peek<C: Ctx>(c: &C, store: ShardedStore, keys: &[u64]) -> (ShardedStore, Vec<Option<u64>>) {
    let p = PipelinedStore::new(store);
    let got = p.read_now(c, keys);
    (p.into_inner(c), got)
}

/// Run `script` from an empty store, in memory or durable on an unfaulted
/// in-memory vfs, checking every step; then commit what is open, redeem
/// everything and check the final state. Returns the durable vfs.
pub fn check<C: Ctx>(c: &C, front: Front, durable: bool, script: &[Cmd]) -> Option<Arc<FaultVfs>> {
    let vfs = durable.then(|| Arc::new(FaultVfs::unfaulted()));
    let mut m = Model::open(c, front, vfs);
    m.run(script);
    m.commit(false);
    m.redeem_all();
    assert!(m.fault.is_none(), "{front:?}: {:?}", m.fault);
    m.check_engine(&Cmd::Commit);
    let s = m.bare();
    assert_eq!(s.health(), Health::Ok);
    m.assert_holds(c, s, "finished");
    m.vfs
}

/// The fixed-seed regression of every front `which` picks: a 400-triple
/// script, in memory and durable.
pub fn regress<C: Ctx>(c: &C, seed: u64, which: impl Fn(Front) -> bool) {
    for front in Front::all().into_iter().filter(|&f| which(f)) {
        for durable in [false, true] {
            check(c, front, durable, &front.script(seed, 400));
        }
    }
}

/// A durable script through the synchronous and the pipelined front — at
/// 1 and 4 shards, and on the ORAM store — leaves byte-identical snapshot
/// and WAL files: the pipelined pre-log is the synchronous record.
pub fn assert_fronts_write_alike(script: impl Fn(Front) -> Vec<Cmd>) {
    let files = |front: Front, script: &[Cmd]| {
        let vfs = check(&SeqCtx::new(), front, true, script).unwrap();
        let snapshots = (0..front.shards()).map(|i| format!("snap-{i}.bin"));
        let names = snapshots.chain(["wal-0.log".to_string()]);
        let read = |name: String| vfs.read(&Path::new(DIR).join(name)).ok();
        names.map(read).collect::<Vec<_>>()
    };
    let pairs = [1, 4].map(|shards| (Front::sync(shards), Front::pipelined(shards)));
    let oram = |pipelined| Front::Oram { pipelined };
    for (sync, pipelined) in pairs.into_iter().chain([(oram(false), oram(true))]) {
        let script = script(sync);
        let (a, b) = (files(sync, &script), files(pipelined, &script));
        assert_eq!(a, b, "{pipelined:?} wrote other bytes than {sync:?}");
    }
}

/// Run `script` durable on `vfs`, stopping at the first rejected epoch;
/// returns the acknowledged batches.
pub fn drive<C: Ctx>(c: &C, front: Front, vfs: Arc<FaultVfs>, script: &[Cmd]) -> Vec<Vec<Op>> {
    let mut model = Model::open(c, front, Some(vfs));
    model.run(script);
    model.acked
}
