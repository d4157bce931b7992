//! Pipelined epochs: a double-buffered front end that overlaps one
//! epoch's merge with the next epoch's submission.
//!
//! [`PipelinedStore`] wraps a [`ShardedStore`] (at any shard count,
//! [`Store`](crate::Store) included) and splits the synchronous
//! `submit → commit → results` cycle into two buffers:
//!
//! * the **open epoch** — an op log accepting [`submit`]s at memory speed;
//! * the **in-flight epoch** — at most one batch whose merge runs as a
//!   detached fork-join task ([`Ctx::spawn_detached`]) while the open
//!   epoch keeps filling.
//!
//! [`commit_async`] seals the open epoch and hands it to the engine,
//! first joining the previous in-flight epoch (the **handoff**): merges
//! are serialized through ownership of the wrapped store, so the engine
//! sees exactly the synchronous epoch sequence — same results, same
//! sequential consistency — only the *caller* stops waiting for it.
//! [`try_commit`] is the opportunistic variant that skips the handoff
//! while the engine is busy, which is what turns a stream of small client
//! batches into fewer, larger merges (group commit).
//!
//! # Leakage
//!
//! The handoff schedule is **public**. Every quantity the cadence reads —
//! open-buffer length, the [`open_limit`](PipelinedStore::open_limit),
//! whether an epoch is in flight, and [`Deferred::is_done`] of a merge
//! whose instruction and memory trace are data-independent by
//! construction — is a function of batch *sizes* (plus machine
//! scheduling), never of key contents. Likewise every padded shape below
//! derives from public counts. See DESIGN.md §11.
//!
//! # Read-your-writes
//!
//! A `Get` submitted while its key's `Put` is still mid-merge must
//! observe it. [`read_now`](PipelinedStore::read_now) therefore consults,
//! obliviously, the **padded op logs** of the in-flight and open epochs
//! and the per-shard tables as copied at the last handoff. The consult
//! ([`crate::merge`], "The read-only consult") is not a merge: it sorts
//! log and queries over their own small class to give every query its
//! log verdict, probes each shard's table copy in place with one bitonic
//! merge of the query window into it, and combines the per-shard windows
//! position by position — no table is sorted, rebuilt or even cloned,
//! and the executor is entered once. Its trace is a function of the
//! per-shard capacities, the logs' public size classes and the query
//! class only.
//!
//! # Durability and drop
//!
//! Wrapping a durable store (one opened via
//! [`ShardedStore::recover`] with
//! [`Durability::Epoch`](crate::Durability::Epoch)) keeps the WAL-before-
//! merge contract: [`commit_async`] appends and flushes the epoch's WAL
//! record on the **caller's** thread *before* spawning the detached merge
//! task, so an acknowledged commit is on disk even if the process dies
//! while the merge is still in flight. Dropping a `PipelinedStore` with
//! an epoch in flight is therefore safe on both axes: the epoch's record
//! is already durable (a crash replays it), and the `fj` pool's drop
//! barrier runs every spawned detached task to completion before the
//! workers terminate (a graceful shutdown finishes the merge) — see
//! [`fj::Pool`]'s drop documentation and `tests/durability.rs`.
//!
//! [`submit`]: PipelinedStore::submit
//! [`commit_async`]: PipelinedStore::commit_async
//! [`try_commit`]: PipelinedStore::try_commit

use crate::error::{Health, StoreError};
use crate::merge::consult;
use crate::op::{FlatOp, Op, OpResult, StoreStats};
use crate::store::{decode, validate_and_pad, ShardedStore, StoreConfig};
use fj::{Ctx, Deferred};
use metrics::ScratchPool;
use obliv_core::TagCell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Names one committed epoch; redeem it with
/// [`PipelinedStore::wait`] for that epoch's results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochHandle {
    id: u64,
}

impl EpochHandle {
    /// Sequence number of the epoch (0-based, public).
    pub fn epoch(&self) -> u64 {
        self.id
    }
}

/// Receipt for one submitted op: result `index` within epoch `epoch`'s
/// result slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// Epoch the op will commit in (matches [`EpochHandle::epoch`]).
    pub epoch: u64,
    /// Index of the op's result in that epoch's results.
    pub index: usize,
}

struct InFlight<T> {
    id: u64,
    /// The epoch's op log, padded to its public size class — what the
    /// detached task commits and `read_now` consults while it runs.
    log: Arc<Vec<FlatOp>>,
    task: Deferred<(T, Vec<OpResult>)>,
}

/// Double-buffered epoch front end; see the [crate docs](crate) for where
/// it sits in the epoch engine.
///
/// ```
/// use fj::SeqCtx;
/// use store::{Op, PipelinedStore, Store, StoreConfig};
///
/// let c = SeqCtx::new();
/// let mut p = PipelinedStore::new(Store::new(StoreConfig::default()));
/// let put = p.submit(Op::Put { key: 7, val: 700 });
/// let h = p.commit_async(&c);
/// // The merge may still be running; reads consult its padded log.
/// assert_eq!(p.read_now(&c, &[7]), vec![Some(700)]);
/// let results = p.wait(&h).unwrap();
/// assert_eq!(results[put.index].value(), None); // first put: no prior value
/// ```
///
/// The engine is [`ShardedStore`]; the type parameter only spells that
/// out at use sites (`PipelinedStore<ShardedStore>`).
pub struct PipelinedStore<T = ShardedStore> {
    /// `None` exactly while an epoch is in flight (the store travels into
    /// the detached task and comes back at the handoff).
    store: Option<T>,
    scratch: Arc<ScratchPool>,
    cfg: StoreConfig,
    /// Every shard's resident table cells as of the last handoff (each
    /// key-sorted with records leading, public length).
    snapshot: Vec<Vec<TagCell>>,
    /// Pre-handoff pending log (nonzero only for ORAM-path stores).
    snapshot_pending: Vec<FlatOp>,
    open: Vec<Op>,
    inflight: Option<InFlight<T>>,
    /// Outcomes of retired epochs awaiting
    /// [`wait`](PipelinedStore::wait) — a commit that failed its WAL
    /// pre-log (or whose merge panicked) parks its error here under the
    /// same handle.
    done: VecDeque<(u64, Result<Vec<OpResult>, StoreError>)>,
    next_epoch: u64,
    open_limit: usize,
    started: u64,
    retired: u64,
    /// A detached merge panicked and took the store with it: every later
    /// commit is refused with [`StoreError::Poisoned`].
    poisoned: bool,
}

impl PipelinedStore<ShardedStore> {
    /// Wrap `store` with a private scratch arena.
    pub fn new(store: ShardedStore) -> Self {
        Self::with_scratch(store, Arc::new(ScratchPool::new()))
    }

    /// Wrap `store`, leasing consult/merge scratch from `scratch` (shared
    /// arenas amortize across stores; the pool is thread-safe).
    pub fn with_scratch(store: ShardedStore, scratch: Arc<ScratchPool>) -> Self {
        let cfg = *store.config();
        PipelinedStore {
            snapshot: store.snapshot_records(),
            snapshot_pending: store.snapshot_pending(),
            cfg,
            store: Some(store),
            scratch,
            open: Vec::new(),
            inflight: None,
            done: VecDeque::new(),
            next_epoch: 0,
            open_limit: usize::MAX,
            started: 0,
            retired: 0,
            poisoned: false,
        }
    }

    /// Cap the open buffer at `limit` ops (public): once reached,
    /// [`try_commit`](PipelinedStore::try_commit) commits even if the
    /// handoff must block. This bounds memory and is the knob that sets
    /// the maximum group-commit batch.
    pub fn with_open_limit(mut self, limit: usize) -> Self {
        self.open_limit = limit.max(1);
        self
    }

    /// Public open-buffer cap (see
    /// [`with_open_limit`](PipelinedStore::with_open_limit)).
    pub fn open_limit(&self) -> usize {
        self.open_limit
    }

    /// Queue `op` into the open epoch. Never blocks, never runs engine
    /// work; the returned ticket locates the op's result once its epoch
    /// commits.
    pub fn submit(&mut self, op: Op) -> Ticket {
        self.open.push(op);
        Ticket {
            epoch: self.next_epoch,
            index: self.open.len() - 1,
        }
    }

    /// Number of ops in the open epoch (public).
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// True while an epoch's merge is running (or queued) in the engine.
    pub fn in_flight(&self) -> bool {
        self.inflight.is_some()
    }

    /// True when [`commit_async`](PipelinedStore::commit_async) would
    /// block on the handoff: an in-flight merge has not finished. Public:
    /// the merge's running time is a function of its data-independent
    /// trace (shapes), never of key contents.
    pub fn handoff_would_block(&self) -> bool {
        self.inflight.as_ref().is_some_and(|i| !i.task.is_done())
    }

    /// `(started, retired)` engine epochs: epochs handed off, and epochs
    /// whose merge has been joined back. Empty commits are public no-ops
    /// and counted in neither (mirroring
    /// [`ShardedStore::execute_epoch`]).
    pub fn epoch_counts(&self) -> (u64, u64) {
        (self.started, self.retired)
    }

    /// The wrapped store, available while no epoch is in flight (it
    /// travels into the detached merge task otherwise).
    pub fn inner(&self) -> Option<&ShardedStore> {
        self.store.as_ref()
    }

    /// Seal the open epoch and hand it to the engine as a detached task,
    /// joining the previous in-flight epoch first (double buffer: at most
    /// one epoch in flight). Returns immediately after the handoff; the
    /// merge runs in the background on pool executors and inline on
    /// sequential/metered ones.
    ///
    /// Committing an **empty** open epoch is a public no-op, exactly like
    /// the synchronous engines: no handoff, no merge, no trace — the
    /// returned handle redeems to an empty result slice.
    ///
    /// A commit that holds an invalid op ([`StoreError::InvalidOp`]) or
    /// fails its durable pre-log does not panic and does not merge: the
    /// epoch is rejected atomically and the typed error is parked under
    /// the returned handle, surfacing at [`wait`](PipelinedStore::wait).
    pub fn commit_async<C: Ctx>(&mut self, c: &C) -> EpochHandle {
        let id = self.next_epoch;
        self.next_epoch += 1;
        if self.open.is_empty() {
            self.done.push_back((id, Ok(Vec::new())));
            return EpochHandle { id };
        }
        self.join_inflight();
        let Some(mut store) = self.store.take() else {
            // A previous detached merge panicked and the store was lost
            // with it; refuse (and drop) the batch rather than unwind.
            self.open.clear();
            self.done.push_back((id, Err(StoreError::Poisoned)));
            return EpochHandle { id };
        };
        // Pad the log to the epoch's public class *before* the handoff:
        // this validates the batch on the caller's thread, once; the
        // detached task commits this log and `read_now` consults it while
        // the merge runs.
        //
        // Then pre-log (durable stores only): the epoch's WAL record is
        // written on the *caller's* thread, before the merge is handed to
        // a detached task. With `sync_every == 1` that write is flushed
        // and this method returning is the durability point; with group
        // commit (`sync_every == k`) consecutive pre-logs share one
        // `sync_data` per k appends, so the durability point is the
        // append completing the group and a crash drops at most the
        // k − 1 trailing un-synced epochs (a clean suffix — see
        // `Durability::Epoch`).
        let ops = std::mem::take(&mut self.open);
        let logged = validate_and_pad(&self.cfg, &ops)
            .and_then(|log| store.append_epoch(&log).map(|()| log));
        let log = match logged {
            Ok(log) => log,
            Err(e) => {
                // An invalid op, or an epoch that never reached its
                // durability point: nothing merged, nothing acknowledged.
                // The store (degraded, if the pre-log failed) stays here
                // for reads and recovery.
                self.store = Some(store);
                self.done.push_back((id, Err(e)));
                return EpochHandle { id };
            }
        };
        let (n, log) = (ops.len(), Arc::new(log));
        let (scratch, batch) = (Arc::clone(&self.scratch), Arc::clone(&log));
        let task = c.spawn_detached(move |c| {
            let mut store = store;
            let results = store.apply_logged(c, &scratch, &batch, n);
            (store, results)
        });
        self.inflight = Some(InFlight { id, log, task });
        self.started += 1;
        EpochHandle { id }
    }

    /// Commit the open epoch only if the handoff would not block (or the
    /// open buffer hit [`open_limit`](PipelinedStore::open_limit), which
    /// forces the commit). This is the group-commit cadence: while a
    /// merge is in flight, client batches coalesce into the open epoch
    /// and the engine runs fewer, larger merges. Returns `None` when
    /// nothing was committed (empty buffer, or engine busy below the
    /// cap).
    pub fn try_commit<C: Ctx>(&mut self, c: &C) -> Option<EpochHandle> {
        if self.open.is_empty() {
            return None;
        }
        if self.handoff_would_block() && self.open.len() < self.open_limit {
            return None;
        }
        Some(self.commit_async(c))
    }

    /// Block until epoch `h` has merged and take its results (one per
    /// submitted op, in submission order).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownEpoch`] for a handle this store never issued
    /// or whose results were already taken; the commit's own error
    /// ([`StoreError::InvalidOp`], [`StoreError::RetriesExhausted`],
    /// [`StoreError::Io`]…) if its batch was invalid or its WAL pre-log
    /// failed; [`StoreError::Poisoned`] if the epoch's
    /// detached merge panicked (the panic is contained to the worker —
    /// it does not unwind through `wait`).
    pub fn wait(&mut self, h: &EpochHandle) -> Result<Vec<OpResult>, StoreError> {
        if self.inflight.as_ref().is_some_and(|i| i.id == h.id) {
            self.join_inflight();
        }
        let pos = self.done.iter().position(|(id, _)| *id == h.id);
        match pos {
            Some(pos) => self.done.remove(pos).expect("position just found").1,
            None => Err(StoreError::UnknownEpoch { epoch: h.id }),
        }
    }

    /// Commit any open ops and retire the in-flight epoch. Afterwards
    /// [`inner`](PipelinedStore::inner) is `Some` and every committed
    /// handle is redeemable without blocking.
    pub fn drain<C: Ctx>(&mut self, c: &C) {
        if !self.open.is_empty() {
            let _ = self.commit_async(c);
        }
        self.join_inflight();
    }

    /// Drain and unwrap the engine. Panics only if a detached merge
    /// panicked and the store was lost with it (see
    /// [`health`](PipelinedStore::health)) — not on durable I/O faults,
    /// which surface as typed errors at [`wait`](PipelinedStore::wait).
    pub fn into_inner<C: Ctx>(mut self, c: &C) -> ShardedStore {
        self.drain(c);
        self.store
            .take()
            .expect("store lost: a detached merge panicked")
    }

    /// Observable health of the pipeline and its wrapped store:
    /// [`Health::Degraded`] once a durable path failed terminally or a
    /// detached merge panicked. Degradation is sticky; later commits are
    /// refused with [`StoreError::Poisoned`].
    pub fn health(&self) -> Health {
        if self.poisoned {
            return Health::Degraded;
        }
        match &self.store {
            Some(s) => s.health(),
            // In flight: the store travels with the merge task; the
            // pipeline itself is healthy.
            None => Health::Ok,
        }
    }

    fn join_inflight(&mut self) {
        if let Some(inf) = self.inflight.take() {
            match inf.task.try_join() {
                Ok((store, results)) => {
                    // Refresh the handoff snapshot: consults between now
                    // and the next handoff read the just-merged table
                    // (plus any pending log the epoch left behind on the
                    // ORAM path).
                    self.snapshot = store.snapshot_records();
                    self.snapshot_pending = store.snapshot_pending();
                    self.done.push_back((inf.id, Ok(results)));
                    self.store = Some(store);
                    self.retired += 1;
                }
                Err(_panic) => {
                    // The merge panicked on a worker; the store moved
                    // into the task and is gone. Contain the panic as a
                    // typed error under the epoch's handle and poison
                    // the pipeline.
                    self.poisoned = true;
                    self.done.push_back((inf.id, Err(StoreError::Poisoned)));
                    self.retired += 1;
                }
            }
        }
    }

    /// Read `keys` **now**, observing the committed table, the in-flight
    /// epoch and the open buffer — strict read-your-writes: a `Put`
    /// submitted before this call is visible even while its merge is
    /// still running. Results do not consume tickets; the keys' ops still
    /// resolve normally in their epochs.
    ///
    /// Obliviously: `pending ++ in-flight log ++ open` (each already
    /// padded to a public class) and the queries are sorted together,
    /// over their own class, so each query learns what the un-merged log
    /// does to its key; the key-sorted query window is then merged into
    /// every shard's table copy (one bitonic merge, one scan and one
    /// compaction per shard, as parallel tasks) and the per-shard answers
    /// are combined position by position. The trace is a function of the
    /// per-shard capacities and those public classes plus the query class
    /// — never of key contents, of which shard owns a key, or of whether
    /// an answer came from a log or a table. Nothing is written back: the
    /// snapshot and the engine's state are untouched. The caller's thread
    /// enters the executor once for the whole consult.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidOp`] if a queried key — or an op sitting in
    /// the open buffer — breaks the client contract. Nothing ran, the
    /// store stays healthy, and a commit reports the same op under its
    /// handle.
    pub fn try_read_now<C: Ctx>(
        &self,
        c: &C,
        keys: &[u64],
    ) -> Result<Vec<Option<u64>>, StoreError> {
        // Queries as a padded Get batch (validates key-space contracts
        // the same way a real epoch would).
        let queries: Vec<Op> = keys.iter().map(|&key| Op::Get { key }).collect();
        let queries = validate_and_pad(&self.cfg, &queries)?;

        // The consult log: everything the engine has accepted but not
        // merged, oldest first. All three parts have public lengths.
        let mut log = self.snapshot_pending.clone();
        if let Some(inf) = &self.inflight {
            log.extend_from_slice(&inf.log);
        }
        if !self.open.is_empty() {
            log.extend(validate_and_pad(&self.cfg, &self.open)?);
        }

        let tables: Vec<&[TagCell]> = self.snapshot.iter().map(Vec::as_slice).collect();
        let scratch = &*self.scratch;
        // One entry into the executor: a pool runs the whole consult on a
        // worker, where its nested forks are deque pushes instead of an
        // inject and a park apiece.
        let run = |c: &C| consult(c, scratch, &tables, &log, &queries);
        let answers = c.join(run, |_| ()).0;
        // Every query is a `Get`: no answer reads the snapshot.
        let snapshot = StoreStats::default();
        Ok(answers[..keys.len()]
            .iter()
            .map(|a| decode(a, snapshot).value())
            .collect())
    }

    /// [`try_read_now`](PipelinedStore::try_read_now) for callers with no
    /// error channel.
    ///
    /// # Panics
    ///
    /// If a queried key — or an op sitting in the open buffer — breaks the
    /// client contract (see [`StoreError::InvalidOp`]).
    pub fn read_now<C: Ctx>(&self, c: &C, keys: &[u64]) -> Vec<Option<u64>> {
        self.try_read_now(c, keys)
            .unwrap_or_else(|e| panic!("read_now: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ShardConfig, ShrinkPolicy, Store};
    use fj::SeqCtx;

    #[test]
    fn read_now_sees_inflight_and_open_writes() {
        let c = SeqCtx::new();
        let mut p = PipelinedStore::new(Store::new(StoreConfig::default()));
        p.submit(Op::Put { key: 1, val: 10 });
        p.submit(Op::Put { key: 2, val: 20 });
        let h = p.commit_async(&c);
        // Put still "mid-merge" from the caller's perspective.
        p.submit(Op::Put { key: 2, val: 21 }); // open overwrite
        p.submit(Op::Delete { key: 1 }); // open delete
        p.submit(Op::Put { key: 3, val: 30 });
        assert_eq!(
            p.read_now(&c, &[1, 2, 3, 4]),
            vec![None, Some(21), Some(30), None]
        );
        let _ = p.wait(&h).unwrap();
        // After the handoff the snapshot serves the merged keys.
        assert_eq!(p.read_now(&c, &[2]), vec![Some(21)]);
        p.drain(&c);
        assert_eq!(p.read_now(&c, &[1, 2, 3]), vec![None, Some(21), Some(30)]);
    }

    #[test]
    fn read_now_on_sharded_store_probes_every_shard() {
        let c = SeqCtx::new();
        let mut p = PipelinedStore::new(ShardedStore::new(ShardConfig::with_shards(4)));
        for i in 0..32u64 {
            p.submit(Op::Put {
                key: i * 3,
                val: i + 1,
            });
        }
        let h = p.commit_async(&c);
        let _ = p.wait(&h).unwrap();
        let keys: Vec<u64> = (0..32).map(|i| i * 3).collect();
        let got = p.read_now(&c, &keys);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, Some(i as u64 + 1));
        }
        // And mid-flight on the sharded engine too.
        p.submit(Op::Put { key: 3, val: 999 });
        let h2 = p.commit_async(&c);
        assert_eq!(p.read_now(&c, &[3, 6]), vec![Some(999), Some(3)]);
        let _ = p.wait(&h2).unwrap();
    }

    #[test]
    fn empty_commit_is_a_public_noop() {
        let c = SeqCtx::new();
        let mut p = PipelinedStore::new(Store::new(StoreConfig::default()));
        let h = p.commit_async(&c);
        assert_eq!(p.epoch_counts(), (0, 0));
        assert!(p.wait(&h).unwrap().is_empty());
        p.submit(Op::Put { key: 9, val: 90 });
        let h2 = p.commit_async(&c);
        let h3 = p.commit_async(&c); // empty again
        assert_eq!(p.wait(&h2).unwrap().len(), 1);
        assert!(p.wait(&h3).unwrap().is_empty());
        assert_eq!(p.epoch_counts(), (1, 1));
    }

    #[test]
    fn try_commit_coalesces_while_busy() {
        // Under SeqCtx the spawn resolves inline, so the handoff never
        // blocks and try_commit always commits; the cadence logic itself
        // is driven by `handoff_would_block`, which is false here.
        let c = SeqCtx::new();
        let mut p = PipelinedStore::new(Store::new(StoreConfig::default())).with_open_limit(64);
        for i in 0..10u64 {
            p.submit(Op::Put { key: i, val: i });
        }
        assert!(p.try_commit(&c).is_some());
        assert!(p.try_commit(&c).is_none(), "empty buffer must not commit");
        p.drain(&c);
        assert_eq!(p.epoch_counts(), (1, 1));
    }

    #[test]
    fn shrink_pinned_store_pipelines_correctly() {
        // The consult must also be right when capacity is pinned by a
        // shrink schedule (cap_new == cap path in the replay).
        let c = SeqCtx::new();
        let cfg = StoreConfig {
            shrink: Some(ShrinkPolicy {
                every: 1,
                live_bound: 64,
                snapshot: 0,
            }),
            ..StoreConfig::default()
        };
        let mut p = PipelinedStore::new(Store::new(cfg));
        for round in 0..4u64 {
            for i in 0..48u64 {
                p.submit(Op::Put {
                    key: i,
                    val: round * 1000 + i,
                });
            }
            let h = p.commit_async(&c);
            assert_eq!(
                p.read_now(&c, &[0, 47]),
                vec![Some(round * 1000), Some(round * 1000 + 47)]
            );
            let _ = p.wait(&h).unwrap();
        }
    }

    #[test]
    fn unknown_and_spent_handles_return_typed_errors() {
        // Regression: both used to panic inside `wait`.
        let c = SeqCtx::new();
        let mut p = PipelinedStore::new(Store::new(StoreConfig::default()));
        p.submit(Op::Put { key: 1, val: 1 });
        let h = p.commit_async(&c);
        assert_eq!(p.wait(&h).unwrap().len(), 1);
        // Already taken: the same handle no longer redeems.
        assert!(matches!(
            p.wait(&h),
            Err(StoreError::UnknownEpoch { epoch }) if epoch == h.epoch()
        ));
        // Foreign handle: an epoch some *other* store committed.
        let mut q = PipelinedStore::new(Store::new(StoreConfig::default()));
        for i in 0..3u64 {
            q.submit(Op::Put { key: i, val: i });
            let _ = q.commit_async(&c);
        }
        q.submit(Op::Put { key: 9, val: 9 });
        let foreign = q.commit_async(&c); // epoch 3: p never issued it
        assert!(matches!(
            p.wait(&foreign),
            Err(StoreError::UnknownEpoch { epoch: 3 })
        ));
        // The error path consumed nothing: p keeps working.
        p.submit(Op::Put { key: 2, val: 2 });
        let h2 = p.commit_async(&c);
        assert_eq!(p.wait(&h2).unwrap().len(), 1);
        assert_eq!(p.health(), crate::Health::Ok);
    }

    #[test]
    fn invalid_op_is_parked_under_its_handle() {
        // A hostile op rejects its whole epoch as a typed error at
        // `wait`, like a failed pre-log — and unlike one it leaves the
        // store healthy, so the next epoch commits.
        let c = SeqCtx::new();
        let mut p = PipelinedStore::new(Store::new(StoreConfig::default()));
        p.submit(Op::Put { key: 1, val: 10 });
        p.submit(Op::Put {
            key: 2,
            val: u64::MAX,
        });
        let bad = p.commit_async(&c);
        assert!(matches!(
            p.wait(&bad),
            Err(StoreError::InvalidOp { index: 1, .. })
        ));
        assert_eq!(p.health(), crate::Health::Ok);
        assert_eq!(p.epoch_counts(), (0, 0), "nothing was handed off");
        p.submit(Op::Put { key: 2, val: 20 });
        let good = p.commit_async(&c);
        assert_eq!(p.wait(&good).unwrap().len(), 1);
        assert_eq!(p.read_now(&c, &[1, 2]), vec![None, Some(20)]);
    }

    #[test]
    fn detached_merge_panic_is_contained_as_poisoned() {
        // A shrink bound the epoch violates passes the caller-thread
        // validation (it is checked inside the merge), so the panic
        // strikes on the detached task — `wait` must hand back a typed
        // error, not unwind through the join.
        let c = SeqCtx::new();
        let cfg = StoreConfig {
            shrink: Some(ShrinkPolicy {
                every: 1,
                live_bound: 4,
                snapshot: 0,
            }),
            ..StoreConfig::default()
        };
        let mut p = PipelinedStore::new(Store::new(cfg));
        for i in 0..32u64 {
            p.submit(Op::Put { key: i, val: i });
        }
        let h = p.commit_async(&c);
        assert!(matches!(p.wait(&h), Err(StoreError::Poisoned)));
        assert_eq!(p.health(), crate::Health::Degraded);
        // Later commits are refused, not unwound.
        p.submit(Op::Put { key: 1, val: 1 });
        let h2 = p.commit_async(&c);
        assert!(matches!(p.wait(&h2), Err(StoreError::Poisoned)));
    }
}
