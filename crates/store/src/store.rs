//! The store engine: [`ShardedStore`] (oblivious routing + parallel
//! per-shard commits, with [`Store`] as its 1-shard constructor) and the
//! [`Epoch`] batch builder.
//!
//! # State and path selection
//!
//! The authoritative state of each shard is its resident **table** (flat,
//! key-sorted, padded to a public power-of-two capacity) — the §F merge
//! path resolves whole epochs against it. When the key space is bounded
//! ([`StoreConfig::oram_key_space`]), a 1-shard store additionally keeps a
//! recursive tree-ORAM **mirror** ([`pram::Opram`], §4.2) of the same
//! key→value map. An epoch is served as one OPRAM step (one walk per op,
//! [`pram::Opram::step`]) unless its padded class would take the pending
//! log past [`StoreConfig::pending_limit`]; then it pays a full merge. The
//! two representations stay consistent LSM-style (see [`crate::shard`]).
//! Path selection reads only public quantities (padded batch class,
//! pending-log length), so the dispatch itself leaks nothing about the
//! operations.
//!
//! # Sharded epochs
//!
//! A [`ShardedStore`] partitions the key space across `shards` shards by
//! the public hash [`shard_of`](crate::shard_of). Each epoch's ops are
//! sorted once, as op cells keyed `(key ‖ seq)`; every shard masks and
//! compacts its own ops out of that one order, merges them (one public
//! class per shard) in parallel with the others via [`fj::par_zip_mut`],
//! and the results are obliviously routed back to submission order — the
//! adversary trace of the whole epoch is a function of `(batch class,
//! shard count, capacity history)` only. With one shard there is nothing
//! to route or gather: the padded batch is the shard's job and its
//! results are the epoch's. Every other step — validation, the WAL
//! append, snapshots, health — is the same code at every shard count.
//! The WAL logs the padded client batch, so the durability point comes
//! before routing and the log does not depend on the shard count.
//! See DESIGN.md §9.

use crate::error::{Health, RetryPolicy, StoreError};
use crate::merge::sorted_ops;
use crate::op::{kind, size_class, EpochPath, FlatOp, Op, OpResult, StoreStats};
use crate::recovery::recover_store;
use crate::router::{gather_results, overflows, shard_class, shard_lane};
use crate::shard::Shard;
use crate::vfs::{OsVfs, Vfs};
use crate::wal::{self, Durability, SnapMeta, Wal};
use fj::{par_zip_mut, Ctx};
use metrics::{par_fill, Lane, ScratchPool, Tracked};
use obliv_core::TagCell;
use pram::OramConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Public compaction schedule: every [`every`](ShrinkPolicy::every)-th
/// merge, a shard's capacity is obliviously compacted back to the size
/// class of [`live_bound`](ShrinkPolicy::live_bound) instead of growing
/// monotonically. The schedule is a function of the merge counter only;
/// `live_bound` is a *client-declared public bound* on the number of
/// distinct live keys (per shard, for sharded stores) — exceeding it is a
/// contract violation caught by the merge's candidate-count assert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShrinkPolicy {
    /// Compact every `every` merges (`0` disables the schedule).
    pub every: u64,
    /// Public upper bound on distinct live keys at compaction points.
    pub live_bound: usize,
    /// Snapshot cadence for [`Durability::Epoch`] stores: every
    /// `snapshot`-th merge, write the packed table to disk and truncate
    /// the WAL (`0` disables scheduled snapshots; see
    /// [`ShardedStore::checkpoint`] for the explicit variant). Like
    /// `every`, this reads only the public merge counter, so snapshot
    /// points — and thus WAL file lengths — stay public functions of
    /// batch sizes.
    pub snapshot: u64,
}

/// Tuning for each shard of a [`ShardedStore`] — and, converted into a
/// [`ShardConfig`], the whole configuration of a 1-shard [`Store`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Bounded key space enabling the ORAM path: all keys must be
    /// `< oram_key_space`. `None` disables the ORAM path (arbitrary `u64`
    /// keys, every epoch merges).
    pub oram_key_space: Option<usize>,
    /// The one path rule: an epoch merges once `pending + batch` would
    /// exceed this, bounding the pending log; every other epoch takes the
    /// ORAM path (when enabled).
    pub pending_limit: usize,
    /// Tree-ORAM tuning (bucket size, stash, layout).
    pub oram: OramConfig,
    /// Seed for the ORAM's position-map coins.
    pub seed: u64,
    /// Optional public shrink schedule (capacity compaction).
    pub shrink: Option<ShrinkPolicy>,
    /// Durability mode. [`Durability::Epoch`] takes effect only through
    /// [`ShardedStore::recover`], which binds the store to an on-disk
    /// directory; the default keeps every path in-memory and
    /// filesystem-free.
    pub durability: Durability,
    /// Retry policy for transient durable-path faults (WAL appends and
    /// syncs, snapshot writes). Irrelevant — and alloc-free — on
    /// in-memory stores and on the durable no-fault path.
    pub retry: RetryPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            oram_key_space: None,
            pending_limit: 512,
            oram: OramConfig::default(),
            seed: 0xD0B_5707,
            shrink: None,
            durability: Durability::None,
            retry: RetryPolicy::default(),
        }
    }
}

impl StoreConfig {
    /// Default config with the ORAM path enabled over `key_space` keys.
    pub fn with_oram(key_space: usize) -> Self {
        StoreConfig {
            oram_key_space: Some(key_space),
            ..StoreConfig::default()
        }
    }
}

/// Check the epoch-wide client contracts and pad the batch to its public
/// size class — the one place caller-supplied ops enter the engine (the
/// pipelined wrapper pads its in-flight op log through here too, to the
/// same public class). A violating op is a typed
/// [`StoreError::InvalidOp`], found before anything is logged or applied.
pub(crate) fn validate_and_pad(cfg: &StoreConfig, ops: &[Op]) -> Result<Vec<FlatOp>, StoreError> {
    let batch: Vec<FlatOp> = ops
        .iter()
        .map(FlatOp::of)
        .chain(std::iter::repeat_with(FlatOp::dummy))
        .take(size_class(ops.len()))
        .collect();
    match first_breach(cfg, &batch) {
        Some((index, reason)) => Err(StoreError::InvalidOp { index, reason }),
        None => Ok(batch),
    }
}

/// The first op of `batch` that breaks the client contract, and which
/// rule it breaks: an op kind the engine never emits, a key outside the
/// configured ORAM key space (the mirror asserts it), a put of `u64::MAX`
/// (the mirror stores `val + 1`). Clients are held to it on the way in,
/// and so are the bytes recovery reads back — a logged batch, and a
/// snapshot record as the put that left it.
pub(crate) fn first_breach(cfg: &StoreConfig, batch: &[FlatOp]) -> Option<(usize, &'static str)> {
    batch.iter().enumerate().find_map(|(index, f)| {
        let reason = match (cfg.oram_key_space, f.kind) {
            (_, k) if k > kind::DUMMY => "unknown op kind",
            (Some(space), _) if f.key >= space.max(1) as u64 => {
                "key outside the configured ORAM key space"
            }
            (_, kind::PUT) if f.val == u64::MAX => "values must be < u64::MAX",
            _ => return None,
        };
        Some((index, reason))
    })
}

/// The one reading of an answer word (an answer cell's `aux = kind << 72
/// | found << 64 | val`, [`crate::merge::answer_cell`]) at every shard
/// count and on both paths. An `Aggregate` answers with `snapshot`, the global snapshot as
/// of the epoch's start; every other op with the value its key held just
/// before it ran.
pub(crate) fn decode(answer: u128, snapshot: StoreStats) -> OpResult {
    if (answer >> 72) as u8 == kind::AGG {
        OpResult::Stats(snapshot)
    } else {
        OpResult::Value(((answer >> 64) & 1 == 1).then_some(answer as u64))
    }
}

/// Builder collecting one epoch's operations; [`Epoch::commit`] executes
/// them as a single oblivious batch.
///
/// The builder owns its op log and holds **no borrow of the store** (a
/// historical version did, which made `stats()`/`last_path()` unreadable
/// while an epoch was being assembled).
#[derive(Default)]
pub struct Epoch {
    ops: Vec<Op>,
}

impl Epoch {
    pub fn new() -> Self {
        Epoch { ops: Vec::new() }
    }

    /// Queue an op; the returned ticket indexes its result in the slice
    /// [`Epoch::commit`] returns.
    pub fn submit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Execute the collected ops as one epoch against `store`. `Ok` is
    /// the durable acknowledgement (and always the outcome of a valid
    /// batch on in-memory stores); see [`ShardedStore::execute_epoch`]
    /// for the error contract.
    pub fn commit<C: Ctx>(
        self,
        c: &C,
        scratch: &ScratchPool,
        store: &mut ShardedStore,
    ) -> Result<Vec<OpResult>, StoreError> {
        store.execute_epoch(c, scratch, &self.ops)
    }
}

/// Tuning for a [`ShardedStore`].
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of shards (a power of two). `1` routes and gathers nothing:
    /// the padded batch goes straight to the single shard.
    pub shards: usize,
    /// Per-shard sub-batch provisioning (see
    /// [`shard_class`](crate::shard_class)): `0` provisions every shard
    /// for the full batch class `b` — routing can never overflow and the
    /// epoch trace is *unconditionally* shape-only; `k ≥ 1` provisions
    /// `zcap = size_class(k·b/shards)`, so each shard merges `cap + zcap`
    /// cells instead of `cap + b`, and an epoch whose key skew overflows a
    /// shard publicly falls back to full provisioning (the fallback — one
    /// bit per epoch — is the only data-dependent signal, and only under
    /// this opt-in policy).
    pub route_slack: usize,
    /// Per-shard configuration. The ORAM path requires `shards == 1`;
    /// multi-shard stores are merge-only. A configured
    /// [`StoreConfig::shrink`] bound applies *per shard*.
    pub store: StoreConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            route_slack: 0,
            store: StoreConfig::default(),
        }
    }
}

impl ShardConfig {
    /// Default config with `shards` shards.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }
}

/// A bare [`StoreConfig`] configures a 1-shard store: this is what lets
/// `Store::new(StoreConfig::default())` name the engine's constructor.
impl From<StoreConfig> for ShardConfig {
    fn from(store: StoreConfig) -> Self {
        ShardConfig {
            shards: 1,
            route_slack: 0,
            store,
        }
    }
}

/// The 1-shard store: the same engine, constructed from a bare
/// [`StoreConfig`] (or any [`ShardConfig`] with `shards: 1`).
pub type Store = ShardedStore;

/// The epoch engine: an oblivious batched key-value / private-analytics
/// store over one or more shards — oblivious op routing, parallel
/// per-shard commits, oblivious result gather; WAL-before-merge
/// durability when opened via [`ShardedStore::recover`]. See the
/// [crate docs](crate) for the architecture and DESIGN.md §13 for the
/// durability model.
///
/// ```
/// use fj::SeqCtx;
/// use metrics::ScratchPool;
/// use store::{Op, ShardConfig, ShardedStore};
///
/// let c = SeqCtx::new();
/// let scratch = ScratchPool::new();
/// let mut store = ShardedStore::new(ShardConfig::with_shards(4));
/// let mut epoch = store.epoch();
/// epoch.submit(Op::Put { key: 7, val: 700 });
/// let get = epoch.submit(Op::Get { key: 7 });
/// let results = epoch.commit(&c, &scratch, &mut store).unwrap();
/// assert_eq!(results[get].value(), Some(700));
/// ```
pub struct ShardedStore {
    cfg: ShardConfig,
    shards: Vec<Shard>,
    /// Global analytics snapshot (sum of shard snapshots) as of the last
    /// epoch close; what `Aggregate` ops observe.
    snapshot: StoreStats,
    epochs: u64,
    fallbacks: u64,
    last_path: Option<EpochPath>,
    /// `Some` iff this store logs epochs (built via
    /// [`ShardedStore::recover`] with [`Durability::Epoch`]): one WAL for
    /// the whole store, one record per epoch holding its padded client
    /// batch, whatever the shard count.
    durable: Option<DurableLog>,
    /// Sticky durable health: [`Health::Degraded`] after a terminal
    /// durable-path failure (reads keep working, commits are refused).
    health: Health,
    /// Display form of the fault that degraded the store.
    fault: Option<String>,
    /// The gather's `S·zcap`-cell lane of answer windows, kept across
    /// epochs. Every shard's readout writes its whole window before the
    /// gather reads it, so the lane is filled only when the public
    /// `S·zcap` changes.
    gather: Lane<TagCell>,
}

/// Directory and WAL append handle of a durable store, plus the
/// filesystem they write through.
struct DurableLog {
    dir: PathBuf,
    wal: Wal,
    vfs: Arc<dyn Vfs>,
}

impl ShardedStore {
    /// The three shapes no engine exists for. One check for both
    /// constructors, made before anything is allocated or written:
    /// [`ShardedStore::new`] panics with the reason,
    /// [`ShardedStore::recover_with`] returns it.
    fn check_cfg(cfg: &ShardConfig) -> Result<(), &'static str> {
        if !cfg.shards.is_power_of_two() {
            return Err("shard count must be a power of two");
        }
        if cfg.store.oram_key_space.is_some() && cfg.shards != 1 {
            return Err("the ORAM path requires a single shard (sharded stores are merge-only)");
        }
        if cfg
            .store
            .oram_key_space
            .is_some_and(|space| space > u32::MAX as usize)
        {
            return Err("oram_key_space exceeds u32::MAX (the ORAM stores addresses as u32)");
        }
        Ok(())
    }

    /// An in-memory store: [`ShardConfig`] for a sharded one, a bare
    /// [`StoreConfig`] for a single shard. [`StoreConfig::durability`] is
    /// ignored here — there is no directory to log into; use
    /// [`ShardedStore::recover`] to open (or create) a durable store.
    ///
    /// # Panics
    ///
    /// If the shard count is not a power of two, or the ORAM path is
    /// configured with more than one shard or with an
    /// [`oram_key_space`](StoreConfig::oram_key_space) above `u32::MAX`.
    pub fn new(cfg: impl Into<ShardConfig>) -> Self {
        let cfg = cfg.into();
        if let Err(reason) = Self::check_cfg(&cfg) {
            panic!("{reason}");
        }
        let shards = (0..cfg.shards)
            .map(|i| Shard::new(cfg.store, i as u64))
            .collect();
        Self::assemble(cfg, shards, 0)
    }

    /// A healthy, in-memory store over `shards` (fresh or restored from
    /// snapshots) whose next epoch is `epochs`.
    pub(crate) fn assemble(cfg: ShardConfig, shards: Vec<Shard>, epochs: u64) -> Self {
        let mut store = ShardedStore {
            cfg,
            shards,
            snapshot: StoreStats::default(),
            epochs,
            fallbacks: 0,
            last_path: None,
            durable: None,
            health: Health::Ok,
            fault: None,
            gather: Lane::default(),
        };
        store.snapshot = store.summed_stats();
        store
    }

    /// Open the store persisted in `dir`, creating the directory (and an
    /// empty store) on first use: restore every shard's latest snapshot,
    /// then replay each WAL record since the oldest of them through the
    /// live commit path — route, shard commits, gather — so the recovered
    /// table, counters, and adversary trace are the same public functions
    /// of the logged batch classes as the original run's (see DESIGN.md
    /// §13). A crash mid-append leaves a torn record — an epoch that was
    /// never acknowledged — which recovery drops.
    ///
    /// With `cfg.durability == Durability::Epoch` the returned store
    /// keeps logging into `dir`; with [`Durability::None`] it is a
    /// read-only-ish revival — fully functional in memory, but new epochs
    /// are not persisted and `dir` is left untouched.
    ///
    /// [`ShardedStore::routing_fallbacks`] restarts at 0, though replay
    /// routes: the fallback count is diagnostic, not state, and is not
    /// persisted.
    ///
    /// A configuration [`ShardedStore::new`] would panic on is
    /// [`StoreError::InvalidConfig`] here, returned before `dir` is
    /// created or read. A directory holding a non-empty `wal-{i}.log` for
    /// some `i ≥ 1` — the per-shard logs of an older layout — is
    /// [`StoreError::WalCorrupt`], returned before anything is replayed
    /// or written.
    pub fn recover<C: Ctx>(
        c: &C,
        scratch: &ScratchPool,
        dir: impl AsRef<Path>,
        cfg: impl Into<ShardConfig>,
    ) -> Result<ShardedStore, StoreError> {
        Self::recover_with(c, scratch, dir, cfg, Arc::new(OsVfs))
    }

    /// [`ShardedStore::recover`] through an explicit [`Vfs`] — how the
    /// chaos suite opens stores on a [`FaultVfs`](crate::vfs::FaultVfs);
    /// plain `recover` binds [`OsVfs`].
    pub fn recover_with<C: Ctx>(
        c: &C,
        scratch: &ScratchPool,
        dir: impl AsRef<Path>,
        cfg: impl Into<ShardConfig>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<ShardedStore, StoreError> {
        let cfg = cfg.into();
        Self::check_cfg(&cfg).map_err(|reason| StoreError::InvalidConfig { reason })?;
        let dir = dir.as_ref();
        vfs.create_dir_all(dir).map_err(|source| StoreError::Io {
            context: "store directory create",
            source,
        })?;
        let mut store = recover_store(c, scratch, &*vfs, dir, cfg)?;
        // The replay's fallbacks were the original run's.
        store.fallbacks = 0;
        if cfg.store.durability == Durability::Epoch {
            let wal =
                Wal::open(&*vfs, &wal::wal_path(dir, 0)).map_err(|source| StoreError::Io {
                    context: "wal open",
                    source,
                })?;
            store.durable = Some(DurableLog {
                dir: dir.to_path_buf(),
                wal,
                vfs,
            });
        }
        Ok(store)
    }

    /// The path an epoch of `n_ops` operations would take right now — a
    /// public function of the padded class and the pending-log length
    /// (always [`EpochPath::Merge`] on multi-shard stores).
    pub fn epoch_path(&self, n_ops: usize) -> EpochPath {
        self.shards[0].epoch_path(size_class(n_ops))
    }

    /// Execute one epoch: pad `ops` to the public batch class, log the
    /// padded batch (durable stores), route it to shards obliviously,
    /// commit every shard in parallel, and obliviously gather the results
    /// back to submission order — one result per op. A 1-shard store has
    /// nothing to route or gather: the padded batch runs on the path
    /// [`epoch_path`](Self::epoch_path) selects and the shard's results
    /// are returned as they are.
    ///
    /// An **empty epoch is a public no-op**: the batch length is public,
    /// so branching on `ops.is_empty()` leaks nothing, and nothing runs —
    /// no padding, no routing, no merge, no counter bump, no trace.
    /// (`Aggregate` answers are defined against merge closes, so a no-op
    /// heartbeat would have refreshed nothing anyway.)
    ///
    /// **Aggregate semantics (all shard counts):** an [`Op::Aggregate`]
    /// observes the global snapshot as of the most recent merge-epoch
    /// close *strictly before* this epoch, regardless of its position in
    /// the batch — epoch-atomic, never sequential-within-the-epoch. A
    /// 1-shard store answers from its single shard's pre-epoch snapshot
    /// and an n-shard store from the pre-epoch sum over shards, which are
    /// the same number for the same op history (the wrapping fold of
    /// [`StoreStats::merged`] is associative), so answers are identical
    /// across shard counts; `tests/sharded.rs` pins this cross-config.
    ///
    /// # Errors
    ///
    /// `Ok(results)` *is* the acknowledgement: the epoch is durable (per
    /// the configured cadence) and applied. An op that breaks the client
    /// contract (a key outside [`StoreConfig::oram_key_space`], a value
    /// of `u64::MAX`) rejects the whole epoch with
    /// [`StoreError::InvalidOp`] before anything is logged or applied;
    /// the store stays healthy and the next valid epoch commits. On a
    /// durable store, a WAL append that fails terminally (after
    /// [`StoreConfig::retry`]) rejects the epoch **atomically** — no
    /// counter, table, or log mutation survives — and degrades the store
    /// ([`ShardedStore::health`]); further commits return
    /// [`StoreError::Poisoned`]. A snapshot failure *after* the epoch's
    /// durability point keeps the epoch acknowledged (`Ok`) but likewise
    /// degrades the store, since the next scheduled truncation cannot be
    /// trusted.
    pub fn execute_epoch<C: Ctx>(
        &mut self,
        c: &C,
        scratch: &ScratchPool,
        ops: &[Op],
    ) -> Result<Vec<OpResult>, StoreError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        if self.health == Health::Degraded {
            return Err(StoreError::Poisoned);
        }
        let batch = validate_and_pad(&self.cfg.store, ops)?;
        self.append_epoch(&batch)?;
        Ok(self.apply_logged(c, scratch, &batch, ops.len()))
    }

    /// The rest of an epoch once its padded `batch` is logged: commit it,
    /// decode the answers of its first `n` slots (the client's ops) and,
    /// at a merge close, run the scheduled checkpoint.
    pub(crate) fn apply_logged<C: Ctx>(
        &mut self,
        c: &C,
        scratch: &ScratchPool,
        batch: &[FlatOp],
        n: usize,
    ) -> Vec<OpResult> {
        let before = self.snapshot;
        let answers = self.commit(c, scratch, batch, &[]);
        let results = answers[..n].iter().map(|&a| decode(a, before)).collect();
        if self.last_path == Some(EpochPath::Merge) {
            if let Err(e) = self.maybe_snapshot() {
                // The epoch itself is acknowledged — its WAL record is
                // durable and the merge applied — so the failure only
                // degrades the *store* for future commits.
                let _ = self.degrade(e);
            }
        }
        results
    }

    /// Sum of the shards' analytics snapshots.
    fn summed_stats(&self) -> StoreStats {
        self.shards
            .iter()
            .fold(StoreStats::default(), |acc, s| acc.merged(s.stats()))
    }

    /// WAL-before-merge: append the padded batch as the record of epoch
    /// `self.epochs` before any state changes. The append that returns
    /// `Ok` is synced: it is the epoch's durability point. The pipelined
    /// front end calls it on the caller's thread and hands the batch to
    /// [`apply_logged`](Self::apply_logged) in a detached task. No-op on
    /// non-durable stores. A terminal failure leaves no record behind
    /// ([`Wal::append`] truncates it off) and degrades the store; a
    /// degraded store refuses with [`StoreError::Poisoned`].
    pub(crate) fn append_epoch(&mut self, batch: &[FlatOp]) -> Result<(), StoreError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        if self.health == Health::Degraded {
            return Err(StoreError::Poisoned);
        }
        let appended = d.wal.append(self.cfg.store.retry, self.epochs, batch);
        appended.map_err(|f| self.degrade(f.on("wal append")))
    }

    /// Everything after the durability point, live or replayed: run the
    /// validated, padded `batch` as epoch `self.epochs` — on one shard, on
    /// the path [`epoch_path`](Self::epoch_path) selects; on more, routed,
    /// committed in parallel and gathered — and close it. Returns one
    /// answer word per batch slot, in submission order. A shard whose
    /// snapshot already holds the epoch (`bases[s] > seq`, only after a
    /// crash inside a checkpoint) sits it out; a live epoch passes none.
    pub(crate) fn commit<C: Ctx>(
        &mut self,
        c: &C,
        scratch: &ScratchPool,
        batch: &[FlatOp],
        bases: &[u64],
    ) -> Vec<u128> {
        let seq = self.epochs;
        self.epochs += 1;
        let (path, answers) = if self.shards.len() == 1 {
            let shard = &mut self.shards[0];
            let path = shard.epoch_path(batch.len());
            (path, shard.execute(c, scratch, batch, path))
        } else {
            let answers = self.commit_split(c, scratch, batch, |s| {
                bases.get(s).is_none_or(|&base| base <= seq)
            });
            (EpochPath::Merge, answers)
        };
        self.last_path = Some(path);
        self.snapshot = self.summed_stats();
        answers
    }

    /// Sort `batch` once (`seq` = 1 + submission index), commit every shard
    /// `runs` admits on its own lane of it ([`shard_lane`]) in parallel,
    /// and obliviously gather their answer windows, as the merges leave
    /// them, back to submission order ([`gather_results`]).
    /// A heavily skewed epoch that overflows the scaled class `zcap`
    /// publicly falls back to full provisioning.
    fn commit_split<C: Ctx>(
        &mut self,
        c: &C,
        scratch: &ScratchPool,
        batch: &[FlatOp],
        runs: impl Fn(usize) -> bool + Sync,
    ) -> Vec<u128> {
        let (shards, b) = (self.shards.len(), batch.len());
        let mut sorted = sorted_ops(c, scratch, &[], batch);
        let ops = Tracked::new(c, &mut sorted);
        let mut zcap = shard_class(b, shards, self.cfg.route_slack);
        if zcap < b && overflows(c, &ops, shards, zcap) {
            self.fallbacks += 1;
            zcap = b;
        }
        let entries = self.gather.fit(shards * zcap, TagCell::filler());
        let mut outs: Vec<&mut [TagCell]> = entries.chunks_mut(zcap).collect();
        let cfg = self.cfg.store;
        // Every shard owns its table and leases scratch from the shared
        // pool, so the commits are independent fork-join tasks. A shard
        // that sits the epoch out merges into a blank stand-in instead:
        // only a replay skips shards and it drops the answers, but the
        // gather wants one per op.
        par_zip_mut(c, &mut self.shards, &mut outs, &|c, s, shard, out| {
            let mut stand_in = (!runs(s)).then(|| Shard::new(cfg, 0));
            let shard = stand_in.as_mut().unwrap_or(shard);
            let lane = shard_lane(c, scratch, &ops, s, shards);
            // The answer window is tagged by slot, which with no pending
            // log is the submission index; it goes to the gather unsorted.
            let mut window = Tracked::new(c, out);
            shard.merge(c, scratch, lane, zcap, |t| {
                par_fill(c, &mut window, &|c, j| t.get(c, j))
            });
        });
        gather_results(c, scratch, &mut Tracked::new(c, entries), b)
    }

    /// Scheduled snapshot: at every `snapshot`-th merge (a public cadence;
    /// see [`ShrinkPolicy::snapshot`]) persist the packed tables and
    /// truncate the WALs. Only called at merge closes, where the pending
    /// log is empty and the ORAM mirror equals the table.
    fn maybe_snapshot(&mut self) -> Result<(), StoreError> {
        match self.cfg.store.shrink {
            Some(pol)
                if self.durable.is_some()
                    && pol.snapshot != 0
                    && self.shards[0].merges().is_multiple_of(pol.snapshot) =>
            {
                self.checkpoint()
            }
            _ => Ok(()),
        }
    }

    /// Persist every shard's table as a snapshot, then truncate the WAL,
    /// now. An explicit, caller-scheduled snapshot point (the scheduled
    /// variant is [`ShrinkPolicy::snapshot`]): calling it is a public
    /// action, so invoke it on public schedule only. No-op (`Ok`) on
    /// non-durable stores. The snapshots land one shard at a time, then
    /// the log is truncated once. A crash in between leaves shards on
    /// different snapshot bases over a log that still holds every epoch
    /// since the oldest of them, which recovery replays to each shard
    /// from its own base.
    ///
    /// # Errors
    ///
    /// [`StoreError::CheckpointPending`] — state untouched, store not
    /// degraded — if the pending log is non-empty (the last epoch took
    /// the ORAM path): snapshots only capture the table, so checkpoint
    /// after a merge epoch. A terminal snapshot-write or truncate
    /// failure (after retries) returns [`StoreError::SnapshotFailed`] /
    /// [`StoreError::Io`]; no acknowledged epoch is lost (the WAL is only
    /// truncated after every snapshot landed), but the store degrades
    /// (re-open via [`ShardedStore::recover`] to resume).
    /// [`StoreError::Poisoned`] if it already had.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        if self.health == Health::Degraded {
            return Err(StoreError::Poisoned);
        }
        let pending = self.pending_len();
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        if pending != 0 {
            return Err(StoreError::CheckpointPending { pending });
        }
        let (retry, next_seq) = (self.cfg.store.retry, self.epochs);
        // Every step is idempotent, so each retries wholesale. Every epoch
        // a snapshot covers is already synced in the log: its append
        // returned `Ok`.
        let snapshots = self.shards.iter().enumerate().try_for_each(|(i, shard)| {
            let meta = SnapMeta {
                next_seq,
                merges: shard.merges(),
                live_upper: shard.live_upper() as u64,
                stats: shard.stats(),
            };
            retry
                .run(|| wal::write_snapshot(&*d.vfs, &d.dir, i, &meta, shard.records()))
                .map_err(|f| f.snapshot(i))
        });
        let truncated = snapshots.and_then(|()| {
            retry
                .run(|| d.wal.truncate())
                .map_err(|f| f.on("wal truncate"))
        });
        truncated.map_err(|e| self.degrade(e))
    }

    /// Record a terminal durable-path failure: flip to
    /// [`Health::Degraded`] (sticky) and remember the first fault.
    fn degrade(&mut self, e: StoreError) -> StoreError {
        self.health = Health::Degraded;
        if self.fault.is_none() {
            self.fault = Some(e.to_string());
        }
        e
    }

    /// Durable health: [`Health::Degraded`] once a durable path has
    /// failed terminally (commits refused until re-opened via
    /// [`ShardedStore::recover`]; reads fine). Always [`Health::Ok`] for
    /// in-memory stores.
    pub fn health(&self) -> Health {
        self.health
    }

    /// The fault that degraded this store, if any (display form).
    pub fn last_fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// Start collecting an epoch's operations. The builder is detached —
    /// it holds only its own op log, so the store stays readable
    /// ([`ShardedStore::stats`], [`ShardedStore::last_path`], …) while
    /// the epoch is open; pass the store back at [`Epoch::commit`] time.
    pub fn epoch(&self) -> Epoch {
        Epoch::new()
    }

    /// Global analytics snapshot as of the last epoch close.
    pub fn stats(&self) -> StoreStats {
        self.snapshot
    }

    /// Number of shards (public).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total public physical capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    /// Sum of the shards' public live-key upper bounds.
    pub fn live_upper_bound(&self) -> usize {
        self.shards.iter().map(|s| s.live_upper()).sum()
    }

    /// Total public pending-log length (nonzero only for 1-shard stores
    /// with the ORAM path enabled).
    pub fn pending_len(&self) -> usize {
        self.shards.iter().map(|s| s.pending_len()).sum()
    }

    /// Path the most recent epoch took.
    pub fn last_path(&self) -> Option<EpochPath> {
        self.last_path
    }

    /// Epochs executed (total, and merge epochs among them — every shard
    /// merges together, so shard 0's counter is the store's).
    pub fn epoch_counts(&self) -> (u64, u64) {
        (self.epochs, self.shards[0].merges())
    }

    /// Epochs that publicly fell back to full per-shard provisioning
    /// because the scaled class overflowed (always 0 with
    /// [`ShardConfig::route_slack`] `= 0`).
    pub fn routing_fallbacks(&self) -> u64 {
        self.fallbacks
    }

    pub(crate) fn config(&self) -> &StoreConfig {
        &self.cfg.store
    }

    /// A copy of every shard's resident table cells (each key-sorted,
    /// records leading, public length) — what a pipelined consult probes
    /// while the store itself is away merging.
    pub(crate) fn snapshot_records(&self) -> Vec<Vec<TagCell>> {
        self.shards.iter().map(|s| s.records().to_vec()).collect()
    }

    /// Un-merged pending ops, oldest first (only 1-shard ORAM stores ever
    /// have any).
    pub(crate) fn snapshot_pending(&self) -> Vec<FlatOp> {
        let pending = self.shards.iter().flat_map(|s| s.pending_ops());
        pending.copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::SeqCtx;
    use std::collections::HashMap;

    fn merge_only() -> Store {
        Store::new(StoreConfig::default())
    }

    #[test]
    fn aggregate_sees_last_merge_snapshot() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut s = merge_only();
        // Epoch 1 loads; its own aggregate still sees the empty snapshot.
        let res = s.execute_epoch(
            &c,
            &sp,
            &[
                Op::Put { key: 1, val: 10 },
                Op::Put { key: 2, val: 20 },
                Op::Aggregate,
            ],
        );
        let res = res.unwrap();
        assert_eq!(res[2], OpResult::Stats(StoreStats::default()));
        // Epoch 2 sees epoch 1's merge.
        let res = s.execute_epoch(&c, &sp, &[Op::Aggregate]).unwrap();
        assert_eq!(res[0], OpResult::Stats(StoreStats { count: 2, sum: 30 }));
        assert_eq!(s.stats(), StoreStats { count: 2, sum: 30 });
    }

    #[test]
    fn epoch_builder_tickets_index_results() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut s = merge_only();
        let mut e = s.epoch();
        let t0 = e.submit(Op::Put { key: 9, val: 90 });
        let t1 = e.submit(Op::Get { key: 9 });
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(e.len(), 2);
        let res = e.commit(&c, &sp, &mut s).unwrap();
        assert_eq!(res[t1], OpResult::Value(Some(90)));
    }

    #[test]
    fn store_stays_readable_while_an_epoch_is_open() {
        // Regression: the builder used to hold `&mut Store`, which made
        // every read accessor unusable between `epoch()` and `commit()`.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut s = merge_only();
        s.execute_epoch(&c, &sp, &[Op::Put { key: 1, val: 5 }])
            .unwrap();
        let mut e = s.epoch();
        e.submit(Op::Get { key: 1 });
        // All of these read the store while the epoch is open.
        assert_eq!(s.stats(), StoreStats { count: 1, sum: 5 });
        assert_eq!(s.last_path(), Some(EpochPath::Merge));
        assert_eq!(s.pending_len(), 0);
        assert!(s.capacity() >= 8);
        let res = e.commit(&c, &sp, &mut s).unwrap();
        assert_eq!(res[0], OpResult::Value(Some(5)));
    }

    #[test]
    fn empty_epoch_is_a_public_noop() {
        // Regression: an empty commit used to pad to the minimum class and
        // run a full merge. The batch length is public, so skipping is a
        // public branch — counters, capacity, pending and the adversary
        // trace must all be untouched.
        let sp = ScratchPool::new();
        let mut s = merge_only();
        let trace_of = |s: &mut Store, ops: &[Op]| {
            let (_, rep) = metrics::measure(
                metrics::CacheConfig::default(),
                metrics::TraceMode::Hash,
                |c| {
                    let _ = s.execute_epoch(c, &sp, ops);
                },
            );
            (rep.trace_hash, rep.trace_len)
        };

        let before = trace_of(&mut s, &[]);
        assert_eq!(before.1, 0, "empty epoch must leave no trace");
        assert_eq!(s.epoch_counts(), (0, 0));
        let cap = s.capacity();

        // Interleaving empty commits with a real one changes nothing: the
        // real epoch's trace is identical with or without them, and only
        // the real epoch is counted.
        let real = trace_of(&mut s, &[Op::Put { key: 1, val: 10 }]);
        let mut s2 = merge_only();
        assert_eq!(trace_of(&mut s2, &[]).1, 0);
        let real2 = trace_of(&mut s2, &[Op::Put { key: 1, val: 10 }]);
        assert_eq!(trace_of(&mut s2, &[]).1, 0);
        assert_eq!(real, real2, "empty commits perturbed the real trace");
        assert_eq!(s.epoch_counts(), (1, 1));
        assert_eq!(s2.epoch_counts(), (1, 1));
        assert_eq!(s.capacity(), s2.capacity());
        assert!(cap <= s.capacity());

        // Same discipline with routing in the picture.
        let c = SeqCtx::new();
        let mut sh = ShardedStore::new(ShardConfig::with_shards(4));
        assert!(sh.execute_epoch(&c, &sp, &[]).unwrap().is_empty());
        assert_eq!(sh.epoch_counts(), (0, 0));
    }

    #[test]
    fn capacity_grows_by_public_classes_only() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut s = merge_only();
        assert_eq!(s.capacity(), 8);
        let ops: Vec<Op> = (0..20).map(|i| Op::Put { key: i, val: i }).collect();
        s.execute_epoch(&c, &sp, &ops).unwrap();
        // live_upper = 32 (padded batch class), capacity = its class.
        assert_eq!(s.capacity(), 32);
        assert_eq!(s.live_upper_bound(), 32);
    }

    #[test]
    fn shrink_schedule_compacts_on_public_cadence() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let cfg = StoreConfig {
            shrink: Some(ShrinkPolicy {
                every: 2,
                live_bound: 8,
                snapshot: 0,
            }),
            ..StoreConfig::default()
        };
        let mut s = Store::new(cfg);
        // Merge 1 (unscheduled): capacity grows with the padded batch.
        let ops: Vec<Op> = (0..20).map(|i| Op::Put { key: i % 8, val: i }).collect();
        s.execute_epoch(&c, &sp, &ops).unwrap();
        assert_eq!(s.capacity(), 32);
        // Merge 2 (scheduled): compacts back to the declared bound's class.
        s.execute_epoch(&c, &sp, &[Op::Get { key: 0 }]).unwrap();
        assert_eq!(s.capacity(), 8, "live_upper is no longer monotone");
        // Contents survive the compaction.
        let res = s.execute_epoch(&c, &sp, &[Op::Get { key: 3 }]).unwrap();
        assert_eq!(res[0], OpResult::Value(Some(19)));
    }

    #[test]
    fn hybrid_paths_stay_consistent() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut cfg = StoreConfig::with_oram(256);
        cfg.pending_limit = 32;
        let mut s = Store::new(cfg);
        let mut oracle: HashMap<u64, u64> = HashMap::new();

        // Big load epoch, past the pending limit → merge path.
        let ops: Vec<Op> = (0..40)
            .map(|i| Op::Put {
                key: i,
                val: 100 + i,
            })
            .collect();
        assert_eq!(s.epoch_path(ops.len()), EpochPath::Merge);
        s.execute_epoch(&c, &sp, &ops).unwrap();
        for i in 0..40 {
            oracle.insert(i, 100 + i);
        }

        // Small epochs, within the limit → ORAM path, fully consistent with
        // the oracle.
        for round in 0..4u64 {
            let ops = vec![
                Op::Get { key: round * 7 },
                Op::Put {
                    key: 200 + round,
                    val: round,
                },
                Op::Delete { key: round },
            ];
            assert_eq!(s.epoch_path(ops.len()), EpochPath::Oram);
            let res = s.execute_epoch(&c, &sp, &ops).unwrap();
            assert_eq!(res[0].value(), oracle.get(&(round * 7)).copied());
            assert_eq!(res[1].value(), oracle.insert(200 + round, round));
            assert_eq!(res[2].value(), oracle.remove(&round));
        }
        assert_eq!(s.last_path(), Some(EpochPath::Oram));
        assert!(s.pending_len() > 0);

        // Another big epoch merges the pending log back into the table.
        let ops: Vec<Op> = (0..40)
            .map(|i| Op::Get {
                key: if i < 4 { 200 + i } else { i },
            })
            .collect();
        assert_eq!(s.epoch_path(ops.len()), EpochPath::Merge);
        let res = s.execute_epoch(&c, &sp, &ops).unwrap();
        for (i, r) in res.iter().enumerate() {
            let key = if i < 4 { 200 + i as u64 } else { i as u64 };
            assert_eq!(r.value(), oracle.get(&key).copied(), "key {key}");
        }
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn pending_limit_forces_merge() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        // On an empty log every class up to the default limit of 512 takes
        // the ORAM path, and class 1024 merges.
        let s = Store::new(StoreConfig::with_oram(64));
        for class in [64, 256, 512] {
            assert_eq!(s.epoch_path(class), EpochPath::Oram, "class {class}");
        }
        assert_eq!(s.epoch_path(1024), EpochPath::Merge);
        let mut cfg = StoreConfig::with_oram(64);
        cfg.pending_limit = 16;
        let mut s = Store::new(cfg);
        assert_eq!(s.epoch_path(1), EpochPath::Oram);
        s.execute_epoch(&c, &sp, &[Op::Put { key: 1, val: 1 }])
            .unwrap();
        assert_eq!(s.pending_len(), 8);
        s.execute_epoch(&c, &sp, &[Op::Put { key: 2, val: 2 }])
            .unwrap();
        assert_eq!(s.pending_len(), 16);
        // 16 + 8 > 16 → merge.
        assert_eq!(s.epoch_path(1), EpochPath::Merge);
        let res = s.execute_epoch(&c, &sp, &[Op::Get { key: 1 }]).unwrap();
        assert_eq!(res[0], OpResult::Value(Some(1)));
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn bounded_stores_reject_out_of_space_keys() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut s = Store::new(StoreConfig::with_oram(16));
        s.execute_epoch(&c, &sp, &[Op::Put { key: 3, val: 30 }])
            .unwrap();
        let before = (s.epoch_counts(), s.pending_len(), s.stats());
        // Hostile ops are typed errors naming the first offender, not
        // panics — the whole epoch is rejected before any state changes.
        let err = s.execute_epoch(&c, &sp, &[Op::Get { key: 3 }, Op::Get { key: 16 }]);
        assert!(
            matches!(err, Err(StoreError::InvalidOp { index: 1, .. })),
            "{err:?}"
        );
        let reserved = Op::Put {
            key: 3,
            val: u64::MAX,
        };
        let err = s.execute_epoch(&c, &sp, &[reserved]);
        assert!(
            matches!(err, Err(StoreError::InvalidOp { index: 0, .. })),
            "{err:?}"
        );
        assert_eq!(before, (s.epoch_counts(), s.pending_len(), s.stats()));
        assert_eq!(
            s.health(),
            Health::Ok,
            "a bad op must not degrade the store"
        );
        // The next valid epoch still commits, and sees the earlier state.
        let res = s.execute_epoch(&c, &sp, &[Op::Get { key: 3 }]).unwrap();
        assert_eq!(res[0], OpResult::Value(Some(30)));
    }

    #[test]
    fn sharded_crud_roundtrip_across_shards() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut s = ShardedStore::new(ShardConfig::with_shards(4));
        // Keys chosen to spread over several shards; duplicates exercise
        // the stable within-shard ordering.
        let res = s.execute_epoch(
            &c,
            &sp,
            &[
                Op::Put { key: 3, val: 30 },
                Op::Put { key: 11, val: 110 },
                Op::Get { key: 3 },
                Op::Put { key: 3, val: 31 },
                Op::Get { key: 3 },
                Op::Delete { key: 11 },
                Op::Get { key: 11 },
            ],
        );
        let res = res.unwrap();
        assert_eq!(res[2], OpResult::Value(Some(30)));
        assert_eq!(res[4], OpResult::Value(Some(31)));
        assert_eq!(res[5], OpResult::Value(Some(110)));
        assert_eq!(res[6], OpResult::Value(None));
        assert_eq!(s.epoch_counts(), (1, 1));
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.routing_fallbacks(), 0, "slack 0 never falls back");
    }

    #[test]
    fn sharded_aggregates_see_the_global_snapshot() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut s = ShardedStore::new(ShardConfig::with_shards(4));
        let load: Vec<Op> = (0..32).map(|i| Op::Put { key: i, val: i }).collect();
        s.execute_epoch(&c, &sp, &load).unwrap();
        let want = StoreStats {
            count: 32,
            sum: (0..32).sum(),
        };
        assert_eq!(s.stats(), want, "snapshot sums all shards");
        let res = s.execute_epoch(&c, &sp, &[Op::Aggregate]).unwrap();
        assert_eq!(res[0], OpResult::Stats(want));
    }

    #[test]
    fn scaled_routing_falls_back_publicly_on_skew() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let mut cfg = ShardConfig::with_shards(4);
        cfg.route_slack = 1;
        let mut s = ShardedStore::new(cfg);
        // 30 ops on one key: they all hash to one shard, overflowing the
        // slack-1 class (8 of 32). The epoch must still be correct.
        let ops: Vec<Op> = (0..30)
            .map(|i| Op::Put { key: 7, val: i })
            .chain([Op::Get { key: 7 }])
            .collect();
        let res = s.execute_epoch(&c, &sp, &ops).unwrap();
        assert_eq!(res[30], OpResult::Value(Some(29)));
        assert_eq!(s.routing_fallbacks(), 1);
    }

    #[test]
    #[should_panic(expected = "single shard")]
    fn sharded_rejects_oram_configs() {
        let mut cfg = ShardConfig::with_shards(4);
        cfg.store = StoreConfig::with_oram(64);
        ShardedStore::new(cfg);
    }

    /// Refused by the store's own check, before the ORAM (whose
    /// constructor asserts the same bound) is built.
    #[test]
    #[should_panic(expected = "oram_key_space exceeds u32::MAX")]
    fn new_rejects_an_oram_key_space_past_u32() {
        ShardedStore::new(StoreConfig::with_oram(u32::MAX as usize + 1));
    }
}
