//! The adapter: every call into the repository's public API is in this
//! file, so a later API change is a one-file benchmark change. The rest
//! of the benchmark sees executors, stores and kernels through the thin
//! types below and never names a `dob::` item.
//!
//! Nothing here times anything or draws a random number: callers pass
//! generated inputs in and take answers out.

use dob::fj::{grain_for, par_for, Ctx, Pool, SeqCtx};
use dob::graphs::{
    connected_components, connected_components_insecure, contract_eval, kruskal_msf_weight,
    list_rank_insecure_unit, list_rank_oblivious_unit, msf, random_expr_tree, random_graph,
    random_list, random_tree, random_weighted_graph, rooted_tree_stats, tree_stats_dfs, ExprTree,
};
use dob::metrics::{measure, CacheConfig, ScratchPool, TraceMode, Tracked};
use dob::obliv_core::scan::{prefix_sum_in, Schedule};
use dob::obliv_core::slot::composite_key;
use dob::obliv_core::{
    compact_cells, oblivious_scatter, oblivious_sort_kv, oblivious_sort_u64, orp_into,
    rec_sort_items, Engine, Item, OSortParams, OrbaParams, Slot, TagCell,
};
use dob::pram::{run_oblivious_sb, MaxProgram, Opram, OramConfig, Program};
use dob::sortnet::{active_backend, cells_merge_rec, cells_sort_rec_with, cex_cells_slab, Backend};
use dob::store::vfs::{FaultPlan, FaultVfs};
use dob::store::{
    shard_of, Durability, EpochHandle, EpochPath, PipelinedStore, ShardConfig, ShardedStore,
    ShrinkPolicy, Store, StoreConfig,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

pub use dob::store::vfs::{OsVfs, Vfs, VfsFile};
pub use dob::store::{Op, OpResult, StoreStats};

// --- Executors ---------------------------------------------------------

/// The two executors the workloads run under.
pub enum Exec {
    Seq(SeqCtx),
    Pool(Pool),
}

/// Run `$body` with `$c` bound to the executor's context: inline for the
/// sequential one, on a pool worker (the caller blocks) for the pool.
macro_rules! on {
    ($exec:expr, $c:ident => $body:expr) => {
        match $exec {
            Exec::Seq($c) => $body,
            Exec::Pool(pool) => pool.run(|$c| $body),
        }
    };
}

/// Run `$body` on the calling thread with the executor itself as the
/// context — for front ends that hand work to the pool themselves.
macro_rules! direct {
    ($exec:expr, $c:ident => $body:expr) => {
        match $exec {
            Exec::Seq($c) => $body,
            Exec::Pool($c) => $body,
        }
    };
}

impl Exec {
    pub fn seq() -> Exec {
        Exec::Seq(SeqCtx::new())
    }

    /// `Pool::pinned(threads)`: worker *i* pinned to core *i* (best effort).
    pub fn pinned(threads: usize) -> Exec {
        Exec::Pool(Pool::pinned(threads))
    }

    pub fn name(&self) -> &'static str {
        match self {
            Exec::Seq(_) => "SeqCtx",
            Exec::Pool(_) => "Pool::pinned",
        }
    }

    pub fn threads(&self) -> usize {
        match self {
            Exec::Seq(_) => 1,
            Exec::Pool(p) => p.num_threads(),
        }
    }

    pub fn pinned_workers(&self) -> usize {
        match self {
            Exec::Seq(_) => 0,
            Exec::Pool(p) => p.pinned_workers(),
        }
    }
}

/// Name of the compare-exchange backend the process dispatched to.
pub fn backend_name() -> &'static str {
    active_backend().name()
}

// --- Scratch arena -------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
pub struct ScratchStats {
    pub fresh_allocs: u64,
    pub lane_hits: u64,
    pub spills: u64,
    pub resident_bytes: u64,
}

pub struct Scratch(Arc<ScratchPool>);

impl Scratch {
    pub fn new() -> Scratch {
        Scratch(Arc::new(ScratchPool::new()))
    }

    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            fresh_allocs: self.0.fresh_allocs(),
            lane_hits: self.0.lane_hits(),
            spills: self.0.spill_leases(),
            resident_bytes: self.0.resident_bytes(),
        }
    }

    /// Lease and return `cells` filler cells (the lease fills them).
    pub fn lease_cells(&self, cells: usize) {
        let guard = self.0.lease(cells, TagCell::filler());
        black_box(&guard[..]);
    }
}

// --- The paper's cost model ----------------------------------------------

/// Work, span and cache misses of one metered run under the default
/// cache geometry — the paper's W, T∞ and Q(M,B).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Model {
    pub work: u64,
    pub span: u64,
    pub cache_misses: u64,
}

// --- Stores ----------------------------------------------------------------

/// The public shape of one (shard of a) store.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Resident keys: the declared live bound, which with
    /// `ShrinkPolicy { every: 1, .. }` pins the table capacity.
    pub keys: usize,
    /// Snapshot every this-many merges (0 = never).
    pub snapshot_every: u64,
    /// Bounded key space enabling the ORAM point path.
    pub oram_key_space: Option<usize>,
    /// `Durability::epoch()`: one sync per append.
    pub durable: bool,
}

fn store_config(shape: Shape) -> StoreConfig {
    StoreConfig {
        oram_key_space: shape.oram_key_space,
        shrink: Some(ShrinkPolicy {
            every: 1,
            live_bound: shape.keys,
            snapshot: shape.snapshot_every,
        }),
        durability: if shape.durable {
            Durability::epoch()
        } else {
            Durability::None
        },
        ..StoreConfig::default()
    }
}

/// A single-shard `Store` with its scratch arena.
pub struct Kv {
    store: Store,
    scratch: Scratch,
}

impl Kv {
    pub fn in_memory(shape: Shape) -> Kv {
        Kv {
            store: Store::new(store_config(shape)),
            scratch: Scratch::new(),
        }
    }

    /// `Store::recover_with`: open (or create) the store persisted in
    /// `dir` through `vfs`, replaying snapshot and WAL.
    pub fn open(dir: &Path, shape: Shape, vfs: Arc<dyn Vfs>) -> Result<Kv, String> {
        let scratch = Scratch::new();
        let store = Store::recover_with(&SeqCtx::new(), &scratch.0, dir, store_config(shape), vfs)
            .map_err(|e| e.to_string())?;
        Ok(Kv { store, scratch })
    }

    pub fn epoch(&mut self, exec: &Exec, ops: &[Op]) -> Result<Vec<OpResult>, String> {
        let (store, scratch) = (&mut self.store, &*self.scratch.0);
        on!(exec, c => store.execute_epoch(c, scratch, ops)).map_err(|e| e.to_string())
    }

    /// Whether the most recent epoch took the merge path (public state).
    pub fn last_epoch_merged(&self) -> bool {
        self.store.last_path() == Some(EpochPath::Merge)
    }

    /// `(epochs, merges)` executed so far.
    pub fn counts(&self) -> (u64, u64) {
        self.store.epoch_counts()
    }

    pub fn scratch(&self) -> &Scratch {
        &self.scratch
    }

    /// Snapshot the table and truncate the WAL, now.
    pub fn checkpoint(&mut self) -> Result<(), String> {
        self.store.checkpoint().map_err(|e| e.to_string())
    }

    /// One epoch under `metrics::measure`.
    pub fn model_epoch(&mut self, ops: &[Op]) -> Result<Model, String> {
        let (store, scratch) = (&mut self.store, &*self.scratch.0);
        let (res, rep) = measure(CacheConfig::default(), TraceMode::Off, |c| {
            store.execute_epoch(c, scratch, ops)
        });
        res.map_err(|e| e.to_string())?;
        Ok(Model {
            work: rep.work,
            span: rep.span,
            cache_misses: rep.cache_misses,
        })
    }
}

/// `total` keys loading each of `shards` shards with exactly
/// `total / shards` keys, so the per-shard live bound is tight.
pub fn balanced_keys(total: usize, shards: usize) -> Vec<u64> {
    let per = total / shards;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); shards];
    let mut key = 0u64;
    while buckets.iter().any(|b| b.len() < per) {
        let s = shard_of(key, shards);
        if buckets[s].len() < per {
            buckets[s].push(key);
        }
        key += 1;
    }
    buckets.concat()
}

/// A synchronous `ShardedStore` (route slack 0) with its scratch arena.
pub struct Sharded {
    store: ShardedStore,
    scratch: Scratch,
}

fn shard_config(shards: usize, per_shard: Shape) -> ShardConfig {
    ShardConfig {
        shards,
        route_slack: 0,
        store: store_config(per_shard),
    }
}

impl Sharded {
    pub fn new(shards: usize, per_shard: Shape) -> Sharded {
        Sharded {
            store: ShardedStore::new(shard_config(shards, per_shard)),
            scratch: Scratch::new(),
        }
    }

    pub fn epoch(&mut self, exec: &Exec, ops: &[Op]) -> Result<Vec<OpResult>, String> {
        let (store, scratch) = (&mut self.store, &*self.scratch.0);
        on!(exec, c => store.execute_epoch(c, scratch, ops)).map_err(|e| e.to_string())
    }
}

pub struct Handle(EpochHandle);

/// `PipelinedStore<ShardedStore>`: the double-buffered front end.
pub struct Piped {
    p: PipelinedStore<ShardedStore>,
    scratch: Scratch,
}

impl Piped {
    pub fn new(shards: usize, per_shard: Shape) -> Piped {
        let scratch = Scratch::new();
        let store = ShardedStore::new(shard_config(shards, per_shard));
        Piped {
            p: PipelinedStore::with_scratch(store, Arc::clone(&scratch.0)),
            scratch,
        }
    }

    pub fn submit(&mut self, op: Op) {
        self.p.submit(op);
    }

    pub fn read_now(&self, exec: &Exec, keys: &[u64]) -> Vec<Option<u64>> {
        direct!(exec, c => self.p.read_now(c, keys))
    }

    /// Seal the open epoch and hand it to the engine, joining the
    /// previous in-flight epoch first (the handoff).
    pub fn commit_async(&mut self, exec: &Exec) -> Handle {
        Handle(direct!(exec, c => self.p.commit_async(c)))
    }

    pub fn wait(&mut self, h: &Handle) -> Result<Vec<OpResult>, String> {
        self.p.wait(&h.0).map_err(|e| e.to_string())
    }

    /// `(started, retired)` engine epochs, i.e. merges.
    pub fn counts(&self) -> (u64, u64) {
        self.p.epoch_counts()
    }

    pub fn scratch(&self) -> &Scratch {
        &self.scratch
    }

    /// One submit-commit-wait cycle of `ops` under `metrics::measure`
    /// (the metered executor runs the detached merge inline).
    pub fn model_epoch(&mut self, ops: &[Op]) -> Result<Model, String> {
        let p = &mut self.p;
        let (res, rep) = measure(CacheConfig::default(), TraceMode::Off, |c| {
            for &op in ops {
                p.submit(op);
            }
            let h = p.commit_async(c);
            p.wait(&h)
        });
        res.map_err(|e| e.to_string())?;
        Ok(Model {
            work: rep.work,
            span: rep.span,
            cache_misses: rep.cache_misses,
        })
    }
}

// --- Fault injection -------------------------------------------------------

/// The store's in-memory fault-injecting filesystem, used for the
/// crash-recovery check.
#[derive(Clone)]
pub struct CrashFs(FaultVfs);

impl CrashFs {
    pub fn unfaulted() -> CrashFs {
        CrashFs(FaultVfs::unfaulted())
    }

    /// Crash at the `k`-th I/O operation: it and every later one fail,
    /// and what was synced before it is all that survives.
    pub fn crash_at(k: u64) -> CrashFs {
        CrashFs(FaultVfs::new(FaultPlan {
            crash_at: Some(k),
            ..FaultPlan::default()
        }))
    }

    pub fn io_ops(&self) -> u64 {
        self.0.io_ops()
    }

    pub fn crashed(&self) -> bool {
        self.0.crashed()
    }

    /// What stable storage holds: a fault-free filesystem with each
    /// file's durable bytes.
    pub fn durable_image(&self) -> CrashFs {
        CrashFs(self.0.durable_image())
    }

    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::new(self.0.clone())
    }
}

// --- sortnet: cells, compare-exchange, sort, merge -----------------------------

pub const CELL_BYTES: usize = std::mem::size_of::<TagCell>();

/// Which compare-exchange backend a cell sort runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cex {
    /// The one the process dispatched to.
    Active,
    Scalar,
}

/// A power-of-two array of packed 32-byte cells plus equally sized
/// scratch, with the contents it was built with kept for `restore`.
pub struct Cells {
    orig: Vec<TagCell>,
    data: Vec<TagCell>,
    tmp: Vec<TagCell>,
}

impl Cells {
    /// Cells tagged `words[i] ‖ i` (distinct tags, arbitrary order); a
    /// `None` is a filler.
    pub fn from_words(words: impl IntoIterator<Item = Option<u64>>) -> Cells {
        let orig: Vec<TagCell> = words
            .into_iter()
            .enumerate()
            .map(|(i, w)| match w {
                Some(w) => TagCell::new(((w as u128) << 64) | i as u128, i as u128),
                None => TagCell::filler(),
            })
            .collect();
        assert!(orig.len().is_power_of_two());
        Cells {
            data: orig.clone(),
            tmp: vec![TagCell::filler(); orig.len()],
            orig,
        }
    }

    /// Put the original contents back (outside any timed span).
    pub fn restore(&mut self) {
        self.data.copy_from_slice(&self.orig);
    }

    /// Make the contents bitonic: ascending first half, descending second.
    pub fn make_bitonic(&mut self) {
        let half = self.orig.len() / 2;
        self.orig[..half].sort_by_key(|c| c.tag);
        self.orig[half..].sort_by_key(|c| std::cmp::Reverse(c.tag));
        self.restore();
    }

    /// `passes` compare-exchange slabs over the whole array: the
    /// `len / 2` independent pairs `(k, k + len/2)` of one bitonic level.
    pub fn cex_passes(&mut self, passes: usize) {
        let c = SeqCtx::new();
        let stride = self.data.len() / 2;
        let mut t = Tracked::new(&c, &mut self.data);
        let raw = t.as_raw();
        for _ in 0..passes {
            // SAFETY: `raw` views `self.data`, exclusively borrowed for
            // this call and touched by no other task; `2 * stride` is its
            // length, so every pair is in bounds.
            unsafe { cex_cells_slab(&c, &raw, 0, stride, true) };
        }
        black_box(&self.data[0]);
    }

    /// `passes` plain copies of the array's lower half onto its upper
    /// half — the stream-copy roofline the compare-exchange rate is held
    /// against, over the same cells a slab pass touches.
    pub fn copy_passes(&mut self, passes: usize) {
        let half = self.data.len() / 2;
        for _ in 0..passes {
            black_box(&mut self.data).copy_within(..half, half);
        }
        black_box(&self.data[half]);
    }

    pub fn sort(&mut self, exec: &Exec, cex: Cex) {
        let backend = match cex {
            Cex::Active => active_backend(),
            Cex::Scalar => Backend::Scalar,
        };
        let (data, tmp) = (&mut self.data, &mut self.tmp);
        on!(exec, c => {
            let mut t = Tracked::new(c, data);
            let mut s = Tracked::new(c, tmp);
            cells_sort_rec_with(backend, c, &mut t, &mut s, true);
        });
    }

    pub fn merge(&mut self, exec: &Exec) {
        let (data, tmp) = (&mut self.data, &mut self.tmp);
        on!(exec, c => {
            let mut t = Tracked::new(c, data);
            let mut s = Tracked::new(c, tmp);
            cells_merge_rec(c, &mut t, &mut s, true);
        });
    }

    /// Stable tight compaction: non-fillers to the front.
    pub fn compact(&mut self, exec: &Exec, scratch: &Scratch) {
        let data = &mut self.data;
        on!(exec, c => {
            let mut t = Tracked::new(c, data);
            compact_cells(c, &scratch.0, &mut t);
        });
    }

    pub fn is_sorted(&self) -> bool {
        self.data.windows(2).all(|w| w[0].tag <= w[1].tag)
    }

    /// Non-fillers lead, in their original relative order.
    pub fn is_compacted(&self) -> bool {
        let want = self.orig.iter().filter(|c| !c.is_filler());
        let n_real = want.clone().count();
        self.data[..n_real].iter().eq(want) && self.data[n_real..].iter().all(|c| c.is_filler())
    }
}

// --- obliv_core: scan, key-value sort, scatter, ORP, REC-SORT, the full sort ---

pub fn prefix_sum(exec: &Exec, scratch: &Scratch, data: &mut [u64]) {
    on!(exec, c => {
        let mut t = Tracked::new(c, data);
        prefix_sum_in(c, &scratch.0, &mut t, false, Schedule::Tree);
    });
}

pub fn sort_kv(exec: &Exec, scratch: &Scratch, data: &mut [(u64, u64)]) {
    on!(exec, c => oblivious_sort_kv(c, &scratch.0, data, Engine::BitonicRec));
}

/// The router's scatter at the shape a `keys.len()`-op batch induces on
/// `shards` shards with route slack 0: every bin as large as the batch.
pub struct Scatter {
    slots: Vec<Slot<[u64; 3]>>,
    shards: usize,
}

impl Scatter {
    pub fn new(keys: &[u64], shards: usize) -> Scatter {
        Scatter {
            slots: keys
                .iter()
                .enumerate()
                .map(|(j, &k)| {
                    Slot::real(Item::new(j as u128, [k, 0, 0]), shard_of(k, shards) as u64)
                })
                .collect(),
            shards,
        }
    }

    /// Returns whether every op landed in its shard's bin.
    pub fn run(&self, exec: &Exec, scratch: &Scratch) -> bool {
        let zcap = self.slots.len();
        let routed = on!(exec, c => {
            oblivious_scatter(c, &scratch.0, &self.slots, self.shards, zcap, Engine::BitonicRec)
        });
        let Ok(routed) = routed else { return false };
        let placed = routed
            .chunks(zcap)
            .enumerate()
            .flat_map(|(bin, chunk)| chunk.iter().map(move |s| (bin, s)))
            .filter(|(bin, s)| s.is_real() && shard_of(s.item.val[0], self.shards) == *bin)
            .count();
        placed == self.slots.len()
    }
}

/// Items with distinct composite keys `words[i] ‖ i`.
pub fn items_of(words: &[u64]) -> Vec<Item<u64>> {
    words
        .iter()
        .enumerate()
        .map(|(i, &w)| Item::new(composite_key(w, i as u64), w))
        .collect()
}

/// Oblivious random permutation of `items` into `out` under the paper's
/// parameters for their count; returns the attempts taken.
pub fn permute(
    exec: &Exec,
    scratch: &Scratch,
    items: &[Item<u64>],
    coin: u64,
    out: &mut [Item<u64>],
) -> u32 {
    let params = OrbaParams::for_n(items.len());
    on!(exec, c => orp_into(c, &scratch.0, items, params, coin, out))
}

/// REC-SORT on (randomly ordered, distinct-key) `items`, retried with
/// fresh coins on pivot overflow exactly as the full sort does.
pub fn rec_sort(exec: &Exec, scratch: &Scratch, items: &mut [Item<u64>], coin: u64) -> bool {
    let params = OrbaParams::for_n(items.len());
    on!(exec, c => {
        (0..64u64).any(|attempt| {
            rec_sort_items(c, &scratch.0, items, params.engine, params.gamma, coin ^ attempt)
                .is_ok()
        })
    })
}

pub fn items_sorted(items: &[Item<u64>]) -> bool {
    items.windows(2).all(|w| w[0].key < w[1].key)
}

/// The paper's full pipeline (ORP + REC-SORT), practical parameters.
pub fn paper_sort(exec: &Exec, scratch: &Scratch, keys: &mut [u64], coin: u64) {
    let params = OSortParams::practical(keys.len());
    on!(exec, c => {
        oblivious_sort_u64(c, &scratch.0, keys, params, coin);
    });
}

// --- fj: the runtime's own costs ---------------------------------------------

/// `n` back-to-back binary joins of empty closures.
pub fn joins(exec: &Exec, n: usize) {
    on!(exec, c => {
        for _ in 0..n {
            black_box(c.join(|_| black_box(1u64), |_| black_box(2u64)));
        }
    });
}

/// One `par_for` over `n` empty iterations at the executor's own grain.
pub fn par_for_empty(exec: &Exec, n: usize) {
    on!(exec, c => par_for(c, 0, n, grain_for(c), &|_, i| {
        black_box(i);
    }));
}

/// `n` empty entries into the executor from the calling thread (for the
/// pool: inject, wake a worker, block until it ran).
pub fn enter(exec: &Exec, n: usize) {
    for _ in 0..n {
        on!(exec, _c => black_box(()));
    }
}

/// `n` detached empty tasks, each joined before the next is spawned.
pub fn spawn_detached(exec: &Exec, n: usize) {
    for _ in 0..n {
        black_box(direct!(exec, c => c.spawn_detached(|_| black_box(1u64))).join());
    }
}

// --- pram -----------------------------------------------------------------------

pub struct Oram(Opram);

impl Oram {
    pub fn new(space: usize, seed: u64) -> Oram {
        Oram(Opram::new(
            space,
            OramConfig::default(),
            Engine::BitonicRec,
            seed,
        ))
    }

    /// One oblivious access; returns the previous value at `addr`.
    pub fn access(&mut self, exec: &Exec, addr: u64, write: Option<u64>) -> u64 {
        let o = &mut self.0;
        on!(exec, c => o.access(c, addr, write))
    }
}

/// The Theorem 4.1 oblivious simulation of the max-finding PRAM program
/// on `vals.len()` processors. Returns `(steps simulated, answer right)`.
pub fn pram_max(exec: &Exec, scratch: &Scratch, vals: &[u64]) -> (usize, bool) {
    let prog = MaxProgram::new(vals.len());
    let mem = on!(exec, c => run_oblivious_sb(c, &scratch.0, &prog, vals, Engine::BitonicRec));
    (prog.steps(), mem.first() == vals.iter().max())
}

// --- graphs: the paper's applications --------------------------------------------

/// Seeded inputs for the five application probes.
pub struct GraphInputs {
    cc: (usize, Vec<(usize, usize)>),
    msf: (usize, Vec<(usize, usize, u64)>),
    list: Vec<usize>,
    tree: (usize, Vec<(usize, usize)>),
    expr: ExprTree,
}

impl GraphInputs {
    /// `cc_n`-vertex / `2·cc_n`-edge graph, `msf_n`-vertex / `2·msf_n`-edge
    /// weighted graph, `list_n`-node list, `tree_n`-vertex tree and a
    /// `leaves`-leaf expression tree.
    pub fn new(
        seed: u64,
        cc_n: usize,
        msf_n: usize,
        list_n: usize,
        tree_n: usize,
        leaves: usize,
    ) -> GraphInputs {
        GraphInputs {
            cc: (cc_n, random_graph(cc_n, 2 * cc_n, seed)),
            msf: (msf_n, random_weighted_graph(msf_n, 2 * msf_n, seed ^ 1)),
            list: random_list(list_n, seed ^ 2).0,
            tree: (tree_n, random_tree(tree_n, seed ^ 3)),
            expr: random_expr_tree(leaves, seed ^ 4),
        }
    }

    // Each probe returns whether its answer matched the insecure
    // reference the `graphs` crate ships.

    pub fn cc(&self, exec: &Exec, scratch: &Scratch) -> bool {
        let (n, edges) = (self.cc.0, &self.cc.1);
        let got = on!(exec, c => connected_components(c, &scratch.0, n, edges, Engine::BitonicRec));
        got == connected_components_insecure(&SeqCtx::new(), n, edges)
    }

    pub fn msf(&self, exec: &Exec, scratch: &Scratch) -> bool {
        let (n, edges) = (self.msf.0, &self.msf.1);
        let got = on!(exec, c => msf(c, &scratch.0, n, edges, Engine::BitonicRec));
        got.total_weight == kruskal_msf_weight(n, edges)
    }

    pub fn list_rank(&self, exec: &Exec, scratch: &Scratch, coin: u64) -> bool {
        let succ = &self.list;
        let got = on!(exec, c => list_rank_oblivious_unit(c, &scratch.0, succ, coin));
        got == list_rank_insecure_unit(&SeqCtx::new(), &scratch.0, succ)
    }

    pub fn euler(&self, exec: &Exec, scratch: &Scratch, coin: u64) -> bool {
        let (n, edges) = (self.tree.0, &self.tree.1);
        let got = on!(exec, c => {
            rooted_tree_stats(c, &scratch.0, n, edges, 0, Engine::BitonicRec, coin)
        });
        got == tree_stats_dfs(n, edges, 0)
    }

    pub fn contract(&self, exec: &Exec, scratch: &Scratch, coin: u64) -> bool {
        let expr = &self.expr;
        let got = on!(exec, c => contract_eval(c, &scratch.0, expr, Engine::BitonicRec, coin));
        got == expr.eval()
    }
}
