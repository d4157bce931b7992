//! Batched recursive tree ORAM — the large-space simulation substrate of
//! Theorem 4.2.
//!
//! Structural skeleton of Chan–Chung–Shi's Circuit OPRAM \[CCS17\] as the
//! paper uses it (see DESIGN.md §4 for the documented simplifications):
//!
//! * a binary **bucket tree** per recursion level, stored in a
//!   [`TreeLayout`] (vEB by default — §4.2's cache modification);
//! * **recursion levels of position maps**, packed by leaf width: a map
//!   over a tree whose leaves are `h − 1` bits wide stores them in
//!   `w`-bit fields, `w` = that width rounded up to a power of two and at
//!   least 8, so one 64-bit entry holds χ = 64 / w leaves (χ = 4 for
//!   10-bit leaves, 8 for 5- to 8-bit ones). The levels stop at a flat top
//!   map, scanned in full (fixed pattern), at the depth that minimises an
//!   access's tracked touches: the per-tree count below, summed over the
//!   trees, plus 2 per top entry;
//! * **fixed-capacity stash** with deterministic reverse-lexicographic
//!   eviction of two paths per access, evicted *jointly* (overflow is
//!   monitored, not proven);
//! * **batched accesses**: conflict resolution by oblivious sort, one walk
//!   per request — the head of each address run served, every duplicate a
//!   dummy walk of the same shape on fresh uniform leaves — and results
//!   broadcast back with oblivious send-receive — the fetch/route structure
//!   of \[CCS17\]'s per-step simulation.
//!
//! # One fused pass per tree
//!
//! [`TreeOram::access`] touches tracked memory in one fixed sequence, a
//! function of `(height, bucket, stash, layout, read leaf, evict_ctr)` and
//! nothing else. With `h` = height and `b` = bucket (the two eviction paths
//! of one access are `evict_ctr` and `evict_ctr + 1` bit-reversed, `evict_ctr`
//! even: they differ in their top bit and share the root only):
//!
//! 1. the `h·b` slots of the read path are read and rewritten (the
//!    looked-up block blinded in passing);
//! 2. the `(2h − 1)·b` bucket slots of the two eviction paths and then the
//!    `stash` slots are read once each — the shared root once, not once per
//!    path;
//! 3. in private, untraced staging the looked-up block is dropped and the
//!    re-leafed block added, every slot is keyed by the deepest bucket on
//!    either path that its leaf allows (`leading_zeros` of `leaf ⊕ path`;
//!    free slots sort last), the slots are counting-sorted by that bucket
//!    and the buckets filled deepest-first — linear in the staged slots,
//!    and every loop of it runs a public number of times: free slots are
//!    staged, sorted and written like real ones, so the work of an access
//!    does not follow how full the tree is or where the block was;
//! 4. the same `(2h − 1)·b` bucket slots and `stash` slots are written
//!    once each, leaves first, then the root, then the stash.
//!
//! That is `2b·h + 2b·(2h − 1) + 2·stash` tracked slot touches per tree —
//! `30h + 192` at the default `b = 5`, `stash = 96`, less the `10` of the
//! shared root — whatever the tree holds and wherever the block is found.
//! At `s = 4096` the depth rule builds the data tree (`h = 11`), maps over
//! 1024 and 128 addresses (`h = 9` and `6`) and a 128-entry top: 1582
//! touches an access. At `s ≤ 128` no map pays for itself.
//!
//! Path choices are fresh uniform leaves independent of the address
//! sequence (the classic tree-ORAM argument); bucket and stash scans are
//! fixed-size, and the number of trees, their heights and χ are functions
//! of `s` and [`OramConfig`] alone, so the trace for a fixed
//! `(s, #accesses, seed)` depends on the *coins*, not on the stored values.

use crate::veb::{tree_nodes, TreeLayout};
use fj::Ctx;
use metrics::{ScratchPool, Tracked};
use obliv_core::slot::composite_key;
use obliv_core::{send_receive, Engine, Schedule, TagCell};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `OramSlot::addr` of a free slot.
const EMPTY: u32 = u32::MAX;

/// One storage slot in a bucket, the stash, or private staging: 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OramSlot {
    /// Block address; `u32::MAX` marks a free slot.
    pub addr: u32,
    pub leaf: u32,
    pub val: u64,
}

impl Default for OramSlot {
    /// The free slot.
    fn default() -> Self {
        OramSlot {
            addr: EMPTY,
            leaf: 0,
            val: 0,
        }
    }
}

/// Tuning for the tree ORAM.
#[derive(Clone, Copy, Debug)]
pub struct OramConfig {
    /// Slots per bucket (classic Path-ORAM uses 4-5).
    pub bucket: usize,
    /// Stash capacity (fixed; scans always cover all of it).
    pub stash: usize,
    /// Tree layout — `Veb` is the §4.2 cache-efficient choice.
    pub layout: TreeLayout,
}

impl Default for OramConfig {
    fn default() -> Self {
        OramConfig {
            bucket: 5,
            stash: 96,
            layout: TreeLayout::Veb,
        }
    }
}

/// A single-level bucket tree with a fixed stash.
pub struct TreeOram {
    height: usize,
    bucket: usize,
    layout: TreeLayout,
    store: Vec<OramSlot>,
    stash: Vec<OramSlot>,
    evict_ctr: u64,
    /// Most real blocks any one access has written back to the stash — the
    /// quantity the overflow assert bounds by the stash capacity
    /// (monitoring, §4.2 simplification).
    pub max_stash: usize,
    /// Private, untraced staging, sized once in [`TreeOram::new`] so
    /// steady-state accesses perform no heap allocation: every gathered
    /// slot, the same slots counting-sorted by deepest legal bucket, the
    /// first slot of every bucket the access visits, and where each
    /// bucket's blocks end in `sorted`.
    pool: Vec<OramSlot>,
    sorted: Vec<OramSlot>,
    bases: Vec<usize>,
    ends: Vec<usize>,
}

impl TreeOram {
    /// A tree with at least `capacity` leaves-worth of room.
    pub fn new(capacity: usize, cfg: OramConfig) -> Self {
        let height = tree_height(capacity, cfg);
        let staged = 2 * height * cfg.bucket + cfg.stash + 1;
        TreeOram {
            height,
            bucket: cfg.bucket,
            layout: cfg.layout,
            store: vec![OramSlot::default(); tree_nodes(height) * cfg.bucket],
            stash: vec![OramSlot::default(); cfg.stash],
            evict_ctr: 0,
            max_stash: 0,
            pool: Vec::with_capacity(staged),
            sorted: vec![OramSlot::default(); staged],
            bases: vec![0; 3 * height - 1],
            ends: vec![0; 2 * height],
        }
    }

    /// Number of leaves (valid leaf labels are `0..leaves`).
    pub fn leaves(&self) -> u64 {
        1u64 << (self.height - 1)
    }

    /// Read-and-remove `addr` along the path to `leaf`, then reinsert it
    /// with `new_leaf` and value `new_val(old)`; returns the old value
    /// (`None` if absent), and evict the next two reverse-lexicographic
    /// paths jointly — one fused pass, see the module doc.
    ///
    /// The two eviction paths and the stash form one pool. A block may sit
    /// in any bucket whose path prefix its leaf shares, on either path; the
    /// buckets are refilled deepest-first, each taking `min(bucket,
    /// |eligible|)` of the blocks not yet placed, and what is left returns
    /// to the stash. Which slots are real, where the looked-up block was
    /// found and where anything is placed live only in private memory: the
    /// tracked pattern reads every slot it visits and unconditionally
    /// rewrites it, and every staging loop runs a public number of times.
    pub fn access<C: Ctx>(
        &mut self,
        c: &C,
        addr: u64,
        leaf: u64,
        new_leaf: u64,
        new_val: impl FnOnce(Option<u64>) -> u64,
    ) -> Option<u64> {
        // Slots hold addresses and leaves as `u32`, `u32::MAX` = free.
        assert!(
            addr < EMPTY as u64 && leaf < self.leaves() && new_leaf < self.leaves(),
            "ORAM access out of range: addr {addr}, leaves {leaf} → {new_leaf}"
        );
        let addr = addr as u32;
        self.walk(c, addr, leaf as u32, |found| OramSlot {
            addr,
            leaf: new_leaf as u32,
            val: new_val(found),
        })
    }

    /// A walk that looks up, removes and adds nothing: the path to `leaf`
    /// read and rewritten, the next two eviction paths evicted — the
    /// tracked pattern of [`TreeOram::access`] on the same leaf and
    /// counter.
    fn dummy_access<C: Ctx>(&mut self, c: &C, leaf: u64) {
        assert!(leaf < self.leaves(), "ORAM dummy leaf {leaf} out of range");
        self.walk(c, EMPTY, leaf as u32, |_| OramSlot::default());
    }

    /// The fused pass behind both accesses: `addr` (`EMPTY` for none) is
    /// blinded wherever it is found, and `added(found)` joins the staged
    /// slots last.
    fn walk<C: Ctx>(
        &mut self,
        c: &C,
        addr: u32,
        leaf: u32,
        added: impl FnOnce(Option<u64>) -> OramSlot,
    ) -> Option<u64> {
        let TreeOram {
            height: h,
            bucket,
            layout,
            ref mut store,
            ref mut stash,
            ref mut evict_ctr,
            ref mut max_stash,
            ref mut pool,
            ref mut sorted,
            ref mut bases,
            ref mut ends,
        } = *self;

        // `evict_ctr` is even, so the two paths differ in their top bit:
        // they share the root and nothing below it, whatever the counter.
        let bits = (h - 1) as u32;
        let paths = [
            reverse_bits(*evict_ctr, bits),
            reverse_bits(*evict_ctr + 1, bits),
        ];
        *evict_ctr += 2;
        debug_assert_eq!(meet(h, paths[0], paths[1]), 0);
        // The eviction buckets are numbered along the walk from path 1's
        // leaf up to the root (`0..root`) and down to path 0's leaf
        // (`root + 1..nodes`): depth `d` is `root − d` on path 1 and
        // `root + d` on path 0, and a block may sit anywhere between its
        // deepest legal bucket and the root.
        let (root, nodes) = (h - 1, 2 * h - 1);
        let node_of = |block_leaf: u32| {
            let d = paths.map(|path| meet(h, block_leaf, path));
            if d[1] > d[0] {
                root - d[1]
            } else {
                root + d[0]
            }
        };

        // The only place bucket positions are computed: the read path, then
        // the eviction buckets in their numbering.
        let base_of =
            |path: u32, d: usize| layout.pos(h, d, (path >> (h - 1 - d)) as usize) * bucket;
        let (read_bases, evict_bases) = bases.split_at_mut(h);
        for d in 0..h {
            read_bases[d] = base_of(leaf, d);
            evict_bases[root + d] = base_of(paths[0], d);
            evict_bases[root - d] = base_of(paths[1], d);
        }
        let evict_bases = &*evict_bases;

        let mut found: Option<u64> = None;
        // The slot as it goes on: freed, and its value kept, if it is the
        // looked-up block.
        let mut blind = |sl: OramSlot| {
            if sl.addr == addr && addr != EMPTY {
                found = Some(sl.val);
                OramSlot::default()
            } else {
                sl
            }
        };
        let mut st = Tracked::new(c, store);
        let mut ss = Tracked::new(c, stash);

        // 1. Read path: read + conditional blind + unconditional rewrite.
        for &base in read_bases.iter() {
            for k in base..base + bucket {
                let sl = blind(st.get(c, k));
                st.set(c, k, sl);
            }
        }

        // 2. Gather both eviction paths and the stash, once: every slot is
        // staged, free or not. The looked-up block is dropped here if the
        // stash held it, and the re-leafed block joins last.
        pool.clear();
        for &base in evict_bases {
            for k in base..base + bucket {
                pool.push(st.get(c, k));
            }
        }
        for k in 0..ss.len() {
            pool.push(blind(ss.get(c, k)));
        }
        pool.push(added(found));

        // 3. Counting sort by deepest legal bucket, free slots last:
        // afterwards `ends[n − 1]..ends[n]` of `sorted` holds the blocks of
        // bucket `n`. One unit of work per staged slot for the sort, one for
        // the fill.
        c.work(2 * pool.len() as u64);
        let class = |sl: &OramSlot| {
            if sl.addr == EMPTY {
                nodes
            } else {
                node_of(sl.leaf)
            }
        };
        let counts = &mut ends[..nodes + 1];
        counts.fill(0);
        for sl in pool.iter() {
            counts[class(sl)] += 1;
        }
        let mut at = 0;
        for n in counts.iter_mut() {
            at += std::mem::replace(n, at);
        }
        for sl in pool.iter() {
            let n = class(sl);
            sorted[ends[n]] = *sl;
            ends[n] += 1;
        }
        // Slot `i` of `sorted` if `live`, else a free slot.
        let pick = |i: usize, live: bool| {
            if live {
                sorted[i]
            } else {
                OramSlot::default()
            }
        };

        // 4. Deepest-first fill and write-back, every slot written once.
        // Path 1's blocks lie deepest-first from the left of `sorted`, path
        // 0's deepest-first from the right end of the real blocks, the
        // root's own in between: each bucket takes from its path's end what
        // its level and the deeper ones have left, so the two ends close in
        // on exactly the blocks that the root, and then the stash, may hold.
        let (mut lo, mut hi) = (0, ends[nodes - 1]);
        for n in 0..root {
            let take = bucket.min(ends[n] - lo);
            for k in 0..bucket {
                st.set(c, evict_bases[n] + k, pick(lo + k, k < take));
            }
            lo += take;
        }
        for n in (root + 1..nodes).rev() {
            let take = bucket.min(hi - ends[n - 1]);
            for k in 0..bucket {
                st.set(
                    c,
                    evict_bases[n] + k,
                    pick(hi.wrapping_sub(k + 1), k < take),
                );
            }
            hi -= take;
        }
        let left = hi - lo;
        assert!(
            left <= bucket + ss.len(),
            "ORAM stash overflow (capacity {})",
            ss.len()
        );
        *max_stash = (*max_stash).max(left.saturating_sub(bucket));
        for k in 0..bucket {
            st.set(c, evict_bases[root] + k, pick(lo + k, k < left));
        }
        for k in 0..ss.len() {
            ss.set(c, k, pick(lo + bucket + k, bucket + k < left));
        }
        found
    }
}

/// Height of the tree [`TreeOram::new`] builds for `capacity` blocks:
/// `capacity / bucket` leaves rounded up to a power of two (at least one),
/// plus the root level.
fn tree_height(capacity: usize, cfg: OramConfig) -> usize {
    let leaves = capacity.div_ceil(cfg.bucket).next_power_of_two().max(1);
    leaves.trailing_zeros() as usize + 1
}

/// Tracked slot touches of one access to a tree of `height` levels, the
/// module doc's `2b·h + 2b·(2h − 1) + 2·stash`: the read path read and
/// rewritten, the two eviction paths (sharing the root) and the stash read
/// and written once each.
fn touches(height: usize, cfg: OramConfig) -> usize {
    2 * cfg.bucket * height + 2 * cfg.bucket * (2 * height - 1) + 2 * cfg.stash
}

/// Depth of the deepest bucket the paths to leaves `a` and `b` share in a
/// tree of `height` levels: the length of their common prefix in the
/// `(height − 1)`-bit window (0 = the root only).
fn meet(height: usize, a: u32, b: u32) -> usize {
    height - 1 - (32 - (a ^ b).leading_zeros() as usize)
}

fn reverse_bits(x: u64, bits: u32) -> u32 {
    if bits == 0 {
        return 0;
    }
    (x.reverse_bits() >> (64 - bits)) as u32
}

// ---------------------------------------------------------------------------
// Recursive OPRAM
// ---------------------------------------------------------------------------

/// Bits of one packed leaf in a map over a tree of `height` levels: its
/// leaves' width `height − 1`, rounded up to a power of two and at least
/// 8, so a 64-bit entry holds `64 / w` of them.
fn field_width(height: usize) -> u32 {
    ((height - 1) as u32).next_power_of_two().max(8)
}

/// Field `i` of a map entry packed in `w`-bit fields.
fn unpack(entry: u64, w: u32, i: u64) -> u64 {
    (entry >> (w as u64 * i)) & ((1 << w) - 1)
}

/// `entry` with field `i` (of width `w`) set to `leaf`.
fn repack(entry: u64, w: u32, i: u64, leaf: u64) -> u64 {
    let shift = w as u64 * i;
    (entry & !(((1 << w) - 1) << shift)) | (leaf << shift)
}

/// `Opram::access_batch`'s source key for a dummy walk's result: above
/// every address, so no request receives it.
const NOWHERE: u64 = u64::MAX;

/// Recursive position-map ORAM over `s` addresses with batched access.
pub struct Opram {
    s: usize,
    data: TreeOram,
    /// `maps[k]` stores, at its address `j`, the leaves of level-`k`
    /// addresses `χj … χj + χ − 1` packed in `w`-bit fields, with `w` =
    /// [`field_width`] of the level-`k` tree and `χ = 64 / w` (level 0 =
    /// data tree, level `k + 1` = `maps[k]`).
    maps: Vec<TreeOram>,
    /// Flat top map: leaf of `maps.last()`'s address `j` (or of the data
    /// tree when there are no maps).
    top: Vec<u64>,
    rng: StdRng,
    engine: Engine,
    /// Private scratch arena: batched accesses reuse sort/routing buffers
    /// across the ORAM's lifetime instead of allocating per batch.
    scratch: ScratchPool,
}

impl Opram {
    /// An ORAM over addresses `0..s`, every value 0, its map levels
    /// chosen by the depth rule (module doc) from `s` and `cfg` alone.
    ///
    /// # Panics
    ///
    /// If `s` exceeds `u32::MAX`: slots store addresses as `u32`.
    pub fn new(s: usize, cfg: OramConfig, engine: Engine, seed: u64) -> Self {
        // Addresses and leaves are stored as `u32`, `u32::MAX` = free slot.
        assert!(s <= u32::MAX as usize, "ORAM address space exceeds u32");
        let mut rng = StdRng::seed_from_u64(seed);
        let data = TreeOram::new(s.max(1), cfg);
        // Each map level folds the one below χ addresses to an entry. Keep
        // the levels whose trees' touches plus 2 per top entry are least.
        let (mut space, mut height) = (s.max(1), data.height);
        let mut cost = touches(height, cfg);
        let (mut best, mut spaces) = ((cost + 2 * space, 0), Vec::new());
        while space > 1 {
            space = space.div_ceil((64 / field_width(height)) as usize);
            height = tree_height(space, cfg);
            cost += touches(height, cfg);
            spaces.push(space);
            if cost + 2 * space < best.0 {
                best = (cost + 2 * space, spaces.len());
            }
        }
        spaces.truncate(best.1);
        let maps: Vec<TreeOram> = spaces.iter().map(|&n| TreeOram::new(n, cfg)).collect();
        // The flat top covers the addresses of the deepest structure built.
        let covered: &TreeOram = maps.last().unwrap_or(&data);
        let top_len = spaces.last().copied().unwrap_or(s.max(1));
        let top: Vec<u64> = (0..top_len)
            .map(|_| rng.gen_range(0..covered.leaves()))
            .collect();
        Opram {
            s,
            data,
            maps,
            top,
            rng,
            engine,
            scratch: ScratchPool::new(),
        }
    }

    /// Peak stash occupancy across all levels (monitoring).
    pub fn max_stash(&self) -> usize {
        self.maps
            .iter()
            .map(|t| t.max_stash)
            .chain(std::iter::once(self.data.max_stash))
            .max()
            .unwrap_or(0)
    }

    /// The level-`k` tree: the data tree at 0, `maps[k − 1]` above.
    fn level(&self, k: usize) -> &TreeOram {
        if k == 0 {
            &self.data
        } else {
            &self.maps[k - 1]
        }
    }

    /// Single oblivious access: returns the previous value of `addr`;
    /// `write` installs a new value.
    pub fn access<C: Ctx>(&mut self, c: &C, addr: u64, write: Option<u64>) -> u64 {
        assert!((addr as usize) < self.s);
        let levels = self.maps.len();
        // Level `k + 1` folds `log₂ χ` address bits of level `k` into one
        // entry; `shift` is how many the current level has folded.
        let fold = |w: u32| 6 - w.trailing_zeros();
        let mut shift: u32 = (0..levels)
            .map(|k| fold(field_width(self.level(k).height)))
            .sum();

        // Top map: fixed full scan, fetching + remapping the deepest level.
        let top_addr = (addr >> shift) as usize;
        let new_top_leaf = self.rng.gen_range(0..self.level(levels).leaves());
        let mut leaf = 0u64;
        {
            let mut t = Tracked::new(c, &mut self.top);
            for j in 0..t.len() {
                let cur = t.get(c, j);
                let hit = j == top_addr;
                if hit {
                    leaf = cur;
                }
                t.set(c, j, if hit { new_top_leaf } else { cur });
            }
        }
        let mut incoming_new_leaf = new_top_leaf;

        // Walk the map levels from coarsest (deepest index) to finest.
        for k in (0..levels).rev() {
            let (w, child_leaves) = (field_width(self.level(k).height), self.level(k).leaves());
            let new_child_leaf = self.rng.gen_range(0..child_leaves);
            let map_addr = addr >> shift;
            shift -= fold(w);
            let field = (addr >> shift) & (64 / w as u64 - 1);
            let mut fetched_child_leaf = 0;
            self.maps[k].access(c, map_addr, leaf, incoming_new_leaf, |old| {
                let entry = old.unwrap_or(0);
                fetched_child_leaf = unpack(entry, w, field);
                repack(entry, w, field, new_child_leaf)
            });
            leaf = fetched_child_leaf;
            incoming_new_leaf = new_child_leaf;
        }

        // Data tree.
        let mut old_val = 0u64;
        self.data.access(c, addr, leaf, incoming_new_leaf, |old| {
            old_val = old.unwrap_or(0);
            write.unwrap_or(old_val)
        });
        old_val
    }

    /// An access that reads and changes nothing, with the tracked shape of
    /// [`Opram::access`]: the top scanned and rewritten as it is, then
    /// every tree, coarsest first, walked on a fresh uniform leaf — the
    /// leaves a real access reads are uniform and unlinked to the address
    /// too.
    fn dummy_access<C: Ctx>(&mut self, c: &C) {
        let Opram {
            data,
            maps,
            top,
            rng,
            ..
        } = self;
        let mut t = Tracked::new(c, top);
        for j in 0..t.len() {
            let cur = t.get(c, j);
            t.set(c, j, cur);
        }
        for tree in maps.iter_mut().rev().chain(std::iter::once(data)) {
            let leaf = rng.gen_range(0..tree.leaves());
            tree.dummy_access(c, leaf);
        }
    }

    /// Batched access (the per-PRAM-step fetch of \[CCS17\]): conflict
    /// resolution by oblivious sort, exactly one walk per request, results
    /// broadcast with oblivious send-receive. `reqs[j] = (addr, write)`;
    /// returns the pre-step value of each request's address.
    ///
    /// The trace is a function of `reqs.len()` and the coins: a request
    /// whose address an earlier one already names walks a dummy path, so
    /// how many requests collide changes neither the number of walks nor
    /// the broadcast's length.
    pub fn access_batch<C: Ctx>(&mut self, c: &C, reqs: &[(u64, Option<u64>)]) -> Vec<u64> {
        if reqs.is_empty() {
            return Vec::new();
        }
        // Conflict resolution: sort by (addr, index); head of each run is
        // the representative (priority: earliest request's write wins).
        // Requests ride in packed 32-byte `TagCell`s (DESIGN.md §10):
        // tag = composite (addr ‖ request index) — distinct, so the
        // unstable cell network is safe — and aux = (has-write ‖ value).
        let p = reqs.len();
        // In sorted order: each request's address, its write, and whether
        // it heads its address's run.
        let sorted: Vec<(u64, Option<u64>, bool)> = {
            // Scoped so the scratch lease ends before the mutable tree
            // walks below.
            let mut cells = self.scratch.lease(p, TagCell::filler());
            for (cell, (j, &(a, w))) in cells.iter_mut().zip(reqs.iter().enumerate()) {
                *cell = TagCell::new(
                    composite_key(a, j as u64),
                    ((w.is_some() as u128) << 64) | w.unwrap_or(0) as u128,
                );
            }
            {
                let mut t = Tracked::new(c, &mut cells);
                self.engine.sort_cells(c, &self.scratch, &mut t);
            }
            let addr = |i: usize| (cells[i].tag >> 64) as u64;
            (0..p)
                .map(|i| {
                    c.work(1);
                    let aux = cells[i].aux;
                    let w = ((aux >> 64) == 1).then_some(aux as u64);
                    (addr(i), w, i == 0 || addr(i - 1) != addr(i))
                })
                .collect()
        };

        // One walk per request (sequential tree walks, as in [CCS17]'s
        // level-sequential fetch phase): heads are served, the rest walk
        // dummy paths and send their result nowhere.
        let fetched: Vec<(u64, u64)> = sorted
            .into_iter()
            .map(|(a, w, head)| {
                if head {
                    (a, self.access(c, a, w))
                } else {
                    self.dummy_access(c);
                    (NOWHERE, 0)
                }
            })
            .collect();

        // Broadcast results to every request via oblivious send-receive,
        // `p` sources to `p` requests.
        let dests: Vec<u64> = reqs.iter().map(|&(a, _)| a).collect();
        send_receive(
            c,
            &self.scratch,
            &fetched,
            &dests,
            self.engine,
            Schedule::Tree,
        )
        .into_iter()
        .map(|o| o.expect("every request address was served"))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::SeqCtx;
    use metrics::{measure, CacheConfig, TraceMode};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn single_tree_roundtrip() {
        let c = SeqCtx::new();
        let mut t = TreeOram::new(64, OramConfig::default());
        let leaves = t.leaves();
        let mut rng = StdRng::seed_from_u64(1);
        let mut pos: HashMap<u64, u64> = HashMap::new();
        for a in 0..32u64 {
            let leaf = rng.gen_range(0..leaves);
            let stored_at = pos.get(&a).copied().unwrap_or(0);
            let _ = t.access(&c, a, stored_at, leaf, |_| a * 10);
            pos.insert(a, leaf);
        }
        for a in 0..32u64 {
            let leaf = rng.gen_range(0..leaves);
            let got = t.access(&c, a, pos[&a], leaf, |old| old.unwrap_or(0));
            pos.insert(a, leaf);
            assert_eq!(got, Some(a * 10), "addr {a}");
        }
    }

    /// Every map shape the depth rule builds: none (`s ≤ 128`), one, two,
    /// and at 2¹⁹ a first map packing the data tree's 17-bit leaves in
    /// 32-bit fields. The highest and lowest addresses are always visited.
    #[test]
    fn opram_matches_hashmap_reference() {
        let c = SeqCtx::new();
        for s in [1usize, 64, 128, 200, 500, 512, 4096, 1 << 19] {
            let mut o = Opram::new(s, OramConfig::default(), Engine::BitonicRec, 42);
            let mut reference: HashMap<u64, u64> = HashMap::new();
            let mut rng = StdRng::seed_from_u64(7);
            for step in 0..400u64 {
                let addr = match step % 5 {
                    0 => s as u64 - 1,
                    1 => 0,
                    _ => rng.gen_range(0..s as u64),
                };
                if rng.gen_bool(0.5) {
                    let v = step * 3 + 1;
                    o.access(&c, addr, Some(v));
                    reference.insert(addr, v);
                } else {
                    let got = o.access(&c, addr, None);
                    let want = reference.get(&addr).copied().unwrap_or(0);
                    assert_eq!(got, want, "s {s}, addr {addr}");
                }
            }
            assert!(
                o.max_stash() < 90,
                "s {s}: stash peaked at {}",
                o.max_stash()
            );
        }
    }

    #[test]
    fn packed_fields_round_trip_at_every_width() {
        for w in [8u32, 16, 32] {
            let fields = 64 / w as u64;
            let max = (1u64 << w) - 1;
            // Every field set to a distinct value, the highest to all ones.
            let mut entry = u64::MAX;
            for i in 0..fields {
                let leaf = if i == fields - 1 { max } else { i * 3 + 1 };
                entry = repack(entry, w, i, leaf);
            }
            for i in 0..fields {
                let leaf = if i == fields - 1 { max } else { i * 3 + 1 };
                assert_eq!(unpack(entry, w, i), leaf, "w {w}, field {i}");
            }
            // Clearing the highest field leaves every other one alone.
            let cleared = repack(entry, w, fields - 1, 0);
            assert_eq!(unpack(cleared, w, fields - 1), 0, "w {w}");
            assert_eq!(cleared, entry & (u64::MAX >> w), "w {w}");
        }
        assert_eq!(field_width(11), 16);
        assert_eq!((field_width(6), field_width(9), field_width(1)), (8, 8, 8));
        assert_eq!(field_width(18), 32);
    }

    /// What the depth rule counts for `o`'s shape: every tree's touches
    /// plus 2 per top entry.
    fn rule_cost(o: &Opram) -> usize {
        let trees = std::iter::once(&o.data).chain(&o.maps);
        let cost: usize = trees
            .map(|t| touches(t.height, OramConfig::default()))
            .sum();
        cost + 2 * o.top.len()
    }

    /// The depth rule's picks: at 4096 the data tree (`h = 11`, 10-bit
    /// leaves, χ = 4), maps over 1024 and 128 addresses and a 128-entry top
    /// (1582 touches, against 2880 for the six trees of χ = 2); at 128 and
    /// below the flat top alone.
    #[test]
    fn depth_rule_picks_the_fewest_touches() {
        let shape = |s: usize| {
            let o = Opram::new(s, OramConfig::default(), Engine::BitonicRec, 1);
            let heights: Vec<usize> = o.maps.iter().map(|t| t.height).collect();
            (o.data.height, heights, o.top.len(), rule_cost(&o))
        };
        assert_eq!(shape(4096), (11, vec![9, 6], 128, 1582));
        assert_eq!(shape(128), (6, vec![], 128, 618));
        assert_eq!(shape(1), (1, vec![], 1, 214));
        assert_eq!(shape(1 << 19).1[0], 17);
    }

    /// One metered `Opram::access` touches exactly what the depth rule
    /// counted.
    #[test]
    fn one_access_touches_what_the_rule_counts() {
        for s in [128usize, 200, 4096] {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut o = Opram::new(s, OramConfig::default(), Engine::BitonicRec, 2);
                o.access(c, s as u64 / 3, Some(1));
            });
            let o = Opram::new(s, OramConfig::default(), Engine::BitonicRec, 2);
            assert_eq!(rep.trace_len, rule_cost(&o) as u64, "s {s}");
        }
    }

    /// Requests that collide make as many walks, and as long a trace, as
    /// requests that do not — and the duplicates change no value.
    #[test]
    fn colliding_batches_leave_as_long_a_trace() {
        let run = |reqs: &[(u64, Option<u64>)]| {
            let mut got = Vec::new();
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut o = Opram::new(300, OramConfig::default(), Engine::BitonicRec, 4);
                o.access_batch(c, &[(9, Some(90))]);
                got = o.access_batch(c, reqs);
                got.extend(o.access_batch(c, &[(9, None), (10, None)]));
            });
            (rep.trace_len, got)
        };
        let same: Vec<(u64, Option<u64>)> = (0..12).map(|j| (9, Some(77 + j))).collect();
        let distinct: Vec<(u64, Option<u64>)> = (0..12).map(|j| (j * 25, None)).collect();
        let (same_len, same_got) = run(&same);
        let (distinct_len, _) = run(&distinct);
        assert_eq!(same_len, distinct_len);
        // Every request saw 90, the first request's write won, and the
        // dummy walks wrote nothing anywhere.
        assert_eq!(same_got[..12], [90; 12]);
        assert_eq!(same_got[12..], [77, 0]);
    }

    #[test]
    fn batched_access_serves_duplicates_and_priority() {
        let c = SeqCtx::new();
        let mut o = Opram::new(100, OramConfig::default(), Engine::BitonicRec, 3);
        o.access_batch(&c, &[(5, Some(50)), (6, Some(60))]);
        // Duplicate reads of 5; a write to 6 from a later request than a
        // read: the read still sees the pre-step... the first request wins
        // conflict resolution, so the batch observes 6 = 60 and writes 61.
        let got = o.access_batch(&c, &[(5, None), (6, Some(61)), (5, None), (6, None)]);
        assert_eq!(got, vec![50, 60, 50, 60]);
        let after = o.access_batch(&c, &[(6, None)]);
        assert_eq!(after, vec![61]);
    }

    #[test]
    fn slot_is_16_bytes() {
        assert_eq!(std::mem::size_of::<OramSlot>(), 16);
        assert_eq!(OramSlot::default().addr, EMPTY);
    }

    /// Buckets too small for the load, so blocks really do wait in the
    /// stash: the monitor must see them, and stay under the capacity the
    /// overflow assert enforces.
    #[test]
    fn starved_buckets_show_up_in_max_stash() {
        let c = SeqCtx::new();
        let s = 300usize;
        for layout in [TreeLayout::Veb, TreeLayout::Level] {
            let cfg = OramConfig {
                bucket: 1,
                stash: 64,
                layout,
            };
            let mut o = Opram::new(s, cfg, Engine::BitonicRec, 5);
            let mut reference: HashMap<u64, u64> = HashMap::new();
            let mut rng = StdRng::seed_from_u64(1);
            for step in 0..1500u64 {
                let addr = rng.gen_range(0..s as u64);
                let write = rng.gen_bool(0.5).then_some(step + 1);
                let got = o.access(&c, addr, write);
                assert_eq!(got, reference.get(&addr).copied().unwrap_or(0));
                if let Some(v) = write {
                    reference.insert(addr, v);
                }
            }
            let peak = o.max_stash();
            assert!(peak > 0, "{layout:?}: the monitor saw nothing");
            assert!(peak <= cfg.stash, "{layout:?}: peak {peak}");
        }
    }

    /// Every real block of `t`, as `(addr, leaf, val)`, sorted; panics if a
    /// block sits in a bucket off its own leaf's path.
    fn blocks_on_their_paths(t: &TreeOram) -> Vec<(u32, u32, u64)> {
        let mut all = Vec::new();
        for d in 0..t.height {
            for idx in 0..1usize << d {
                let base = t.layout.pos(t.height, d, idx) * t.bucket;
                for sl in &t.store[base..base + t.bucket] {
                    if sl.addr != EMPTY {
                        assert_eq!(
                            sl.leaf as usize >> (t.height - 1 - d),
                            idx,
                            "block {sl:?} is off its path at depth {d}"
                        );
                        all.push((sl.addr, sl.leaf, sl.val));
                    }
                }
            }
        }
        all.extend(
            t.stash
                .iter()
                .filter(|sl| sl.addr != EMPTY)
                .map(|sl| (sl.addr, sl.leaf, sl.val)),
        );
        all.sort_unstable();
        all
    }

    #[test]
    fn placement_keeps_every_block_legal_and_is_greedy() {
        let c = SeqCtx::new();
        let mut leftovers_seen = 0;
        for (seed, capacity, bucket, layout) in [
            (1u64, 100usize, 1usize, TreeLayout::Veb),
            (2, 100, 2, TreeLayout::Level),
            (3, 37, 3, TreeLayout::Veb),
            (4, 1, 2, TreeLayout::Veb),
        ] {
            let cfg = OramConfig {
                bucket,
                stash: 64,
                layout,
            };
            let mut t = TreeOram::new(capacity, cfg);
            let (h, leaves) = (t.height, t.leaves());
            let mut rng = StdRng::seed_from_u64(seed);
            // addr → (leaf, val): what the tree must hold.
            let mut held: HashMap<u64, (u64, u64)> = HashMap::new();
            for step in 0..600u64 {
                let addr = rng.gen_range(0..capacity as u64);
                let new_leaf = rng.gen_range(0..leaves);
                let (at, old) = match held.get(&addr) {
                    Some(&(leaf, val)) => (leaf, Some(val)),
                    None => (rng.gen_range(0..leaves), None),
                };
                let ctr = t.evict_ctr;
                assert_eq!(t.access(&c, addr, at, new_leaf, |_| step), old);
                held.insert(addr, (new_leaf, step));

                // Nothing lost, nothing duplicated, everything on its path
                // (a bucket is `bucket` slots, so none can hold more).
                let mut expect: Vec<(u32, u32, u64)> = held
                    .iter()
                    .map(|(&a, &(l, v))| (a as u32, l as u32, v))
                    .collect();
                expect.sort_unstable();
                assert_eq!(blocks_on_their_paths(&t), expect, "step {step}");

                // Greedy maximality: a block left in the stash found every
                // bucket it could have used, on either path, full.
                for sl in t.stash.iter().filter(|sl| sl.addr != EMPTY) {
                    leftovers_seen += 1;
                    for path in [ctr, ctr + 1].map(|x| reverse_bits(x, (h - 1) as u32)) {
                        for d in 0..=meet(h, sl.leaf, path) {
                            let idx = (path >> (h - 1 - d)) as usize;
                            let base = t.layout.pos(h, d, idx) * bucket;
                            assert!(
                                t.store[base..base + bucket].iter().all(|b| b.addr != EMPTY),
                                "step {step}: {sl:?} fits depth {d} of path {path}"
                            );
                        }
                    }
                }
            }
        }
        assert!(leftovers_seen > 0, "no config ever left a block behind");
    }

    /// A tree of every height from 1 to 12, real and dummy accesses: the
    /// metered touches are the closed form the depth rule adds up.
    #[test]
    fn metered_touches_match_the_formula_at_every_height() {
        let cfg = OramConfig::default();
        for h in 1..=12 {
            let mut t = TreeOram::new(cfg.bucket << (h - 1), cfg);
            assert_eq!(t.height, h);
            let c = SeqCtx::new();
            t.access(&c, 1, 0, 0, |_| 5);
            let leaf = t.leaves() - 1;
            let (_, real) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                t.access(c, 1, 0, leaf, |old| old.unwrap_or(0));
            });
            let (_, dummy) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                t.dummy_access(c, leaf);
            });
            assert_eq!(real.trace_len, touches(h, cfg) as u64, "h {h}");
            assert_eq!(dummy.trace_len, real.trace_len, "h {h}");
            assert_eq!(t.access(&c, 1, leaf, 0, |old| old.unwrap_or(0)), Some(5));
        }
        assert_eq!(touches(11, cfg), 30 * 11 + 182);
    }

    #[test]
    fn tracked_events_per_access_are_a_constant() {
        let traced = |t: &mut TreeOram, addr: u64, leaf: u64| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                t.access(c, addr, leaf, 0, |old| old.unwrap_or(7));
            });
            (rep.trace_hash, rep.trace_len)
        };
        let starved = OramConfig {
            bucket: 1,
            stash: 40,
            layout: TreeLayout::Level,
        };
        for (capacity, cfg) in [
            (64usize, starved),
            (200, OramConfig::default()),
            (1, OramConfig::default()),
        ] {
            // A loaded tree: with `bucket = 1` some blocks wait in the stash.
            let mut full = TreeOram::new(capacity, cfg);
            let leaves = full.leaves();
            let mut rng = StdRng::seed_from_u64(3);
            let mut pos: HashMap<u64, u64> = HashMap::new();
            let c = SeqCtx::new();
            let waiting = |t: &TreeOram| t.stash.iter().find(|sl| sl.addr != EMPTY).copied();
            for round in 0.. {
                // Load it, then (starved tree) go on until a block waits.
                if round >= 4 * capacity && (cfg.bucket > 1 || waiting(&full).is_some()) {
                    break;
                }
                let a = (round % capacity) as u64;
                let leaf = rng.gen_range(0..leaves);
                let at = pos.insert(a, leaf).unwrap_or(0);
                full.access(&c, a, at, leaf, |_| a);
            }
            let want = touches(full.height, cfg) as u64;

            // Hit in the stash (starved tree only), hit in a bucket, absent —
            // each picked from the tree as the access before left it.
            for case in ["stash", "bucket", "absent"] {
                let (addr, leaf) = match (case, waiting(&full)) {
                    ("stash", Some(sl)) => (sl.addr as u64, sl.leaf as u64),
                    ("stash", None) => {
                        assert!(cfg.bucket > 1, "a starved tree keeps blocks waiting");
                        continue;
                    }
                    ("bucket", _) => {
                        let in_stash = |a: u64| full.stash.iter().any(|sl| sl.addr as u64 == a);
                        let a = (0..capacity as u64).find(|&a| !in_stash(a)).unwrap();
                        (a, pos[&a])
                    }
                    _ => (capacity as u64, 0),
                };
                let ctr = full.evict_ctr;
                let on_full = traced(&mut full, addr, leaf);
                // Re-leafed to 0 by `traced`; keep the map in step.
                pos.insert(addr, 0);
                assert_eq!(on_full.1, want, "addr {addr}");
                // An empty tree at the same counter, reading the same leaf:
                // the same events, not just as many.
                let mut empty = TreeOram::new(capacity, cfg);
                empty.evict_ctr = ctr;
                assert_eq!(traced(&mut empty, addr, leaf), on_full, "addr {addr}");
            }
        }
    }

    #[test]
    fn trace_independent_of_stored_values() {
        // Same address sequence, different values ⇒ identical traces.
        let addr_seq: Vec<u64> = (0..40).map(|i| (i * 13) % 64).collect();
        let run = |scale: u64| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut o = Opram::new(64, OramConfig::default(), Engine::BitonicRec, 9);
                for (i, &a) in addr_seq.iter().enumerate() {
                    let w = (i % 2 == 0).then_some(scale * (i as u64 + 1));
                    o.access(c, a, w);
                }
            });
            (rep.trace_hash, rep.trace_len)
        };
        assert_eq!(run(1), run(1_000_003));
    }

    #[test]
    fn veb_layout_reduces_path_misses() {
        // Same workload, tiny cache: vEB must miss less than level order.
        let workload = |layout: TreeLayout| {
            let (_, rep) = measure(CacheConfig::new(256, 8), TraceMode::Off, |c| {
                let cfg = OramConfig {
                    layout,
                    ..OramConfig::default()
                };
                let mut o = Opram::new(2048, cfg, Engine::BitonicRec, 11);
                for i in 0..64u64 {
                    o.access(c, (i * 37) % 2048, Some(i));
                }
            });
            rep.cache_misses
        };
        let veb = workload(TreeLayout::Veb);
        let lvl = workload(TreeLayout::Level);
        assert!(
            veb < lvl,
            "vEB misses {veb} should undercut level-order {lvl}"
        );
    }
}
