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
//!   map, scanned in full (fixed pattern), at the depth that minimises a
//!   single access's tracked touches: the per-tree count below at `p = 1`,
//!   summed over the trees, plus 2 per top entry;
//! * **fixed-capacity stash** with deterministic reverse-lexicographic
//!   eviction, two paths per request, all of a step's paths evicted
//!   *jointly* (overflow is monitored, not proven);
//! * **one step per batch** ([`Opram::step`]): the top map scanned once for
//!   all `p` requests, then every tree, coarsest first, walked by one
//!   `TreeOram` step — requests that share an address at that level make
//!   one real walk, the rest dummy walks of the same shape on fresh uniform
//!   leaves, and the real walk writes back its map entry with every group
//!   member's new leaf. [`Opram::access_batch`] (the PRAM step: priority
//!   writes, every request sees the pre-step value) and the store's
//!   sequential epochs are resolution layers over it.
//!
//! # One pass per tree per step
//!
//! A step of `p` walks on a tree touches tracked memory in one fixed
//! sequence, a function of `(height, bucket, stash, layout, p, the read
//! leaves, evict_ctr)` and nothing else. The step evicts the next `2p`
//! reverse-lexicographic paths, `evict_ctr … evict_ctr + 2p − 1` bit-reversed.
//! Their union is a public subtree: at depth `d` it holds the buckets on the
//! paths of those counters mod `2^d`, `min(2^d, 2p)` of them, so it has
//! `U = Σ_{d<h} min(2^d, 2p)` buckets whatever the counter (`2h − 1` at
//! `p = 1`: two paths sharing the root). With `h` = height and `b` =
//! bucket:
//!
//! 1. the `h·b` slots of each of the `p` read paths are read and rewritten,
//!    one path after another (each looked-up block blinded in passing);
//! 2. the `U·b` union slots, in the union's in-order, and then the `stash`
//!    slots are read once each — the stash once for all `p` lookups;
//! 3. in private, untraced staging, in passes over slices of the step's
//!    public length:
//!    * every bucket position, here and in step 1, is one read of a table
//!      the tree builds once (a node's first slot by heap index,
//!      [`TreeLayout::pos`] times the bucket size);
//!    * a dummy walk looks up `DUMMY = u32::MAX − 1`, an address no slot
//!      ever holds (a free slot's is `u32::MAX`), so every lookup, on a
//!      path or in the stash, is `sl.addr == addr` and nothing tests
//!      whether the walk is real;
//!    * the staged stash is looked up for all walks at once: one
//!      OR-reduction per walk over the whole stash yields the walk's
//!      found flag and value and marks the slot it hit, then one pass
//!      frees the marked slots;
//!    * the `p` re-leafed blocks are added (a dummy walk adds a free slot);
//!    * the keys come in two passes: a table pass gives every slot the
//!      deepest union bucket its leaf allows (one lookup: slots keep their
//!      leaves bit-reversed), then a masked pass moves every free slot to
//!      one of eight spare keys;
//!    * a histogram and a scatter counting-sort the slots by key;
//!    * the buckets are filled deepest-first from a stack of the sorted
//!      stretches.
//!
//!    It is linear in the staged slots, and every loop of it runs a public
//!    number of times with no branch on a slot's contents (masks and
//!    selects only): free slots are staged, sorted and written like real
//!    ones, so the work of a step does not follow how full the tree is,
//!    where the blocks were or how many requests share an address. That
//!    holds in the machine code too, as `objdump -d` of a release build
//!    shows: no conditional jump on a compare with the free address in
//!    `Opram::step` or `Union::sort`, and none on a slot's address in the
//!    stash lookup. Where LLVM would turn an equality mask back into a
//!    branch (a vectorised loop's scalar remainder), the mask is an
//!    arithmetic shift by an amount passed through `black_box` once per
//!    pass;
//! 4. the same `U·b` union slots are written once each, in post-order
//!    (every bucket after the buckets below it), then the `stash` slots.
//!
//! That is `2b·p·h + 2b·U + 2·stash` tracked slot touches per tree —
//! `10ph + 10U + 192` at the default `b = 5`, `stash = 96` — whatever the
//! tree holds and wherever the blocks are found. At `p = 1` it is
//! `30h + 182`, one access: at `s = 4096` the depth rule builds the data
//! tree (`h = 11`), maps over 1024 and 128 addresses (`h = 9` and `6`) and
//! a 128-entry top: 1582 touches an access. At `s ≤ 128` no map pays for
//! itself. A step of `p = 8` on the same shape touches
//! `(880 + 1270 + 192) + (720 + 950 + 192) + (480 + 470 + 192) + 256 =
//! 5602` slots where eight accesses touched 12 656.
//!
//! Path choices are fresh uniform leaves independent of the address
//! sequence (the classic tree-ORAM argument); bucket and stash scans are
//! fixed-size, and the number of trees, their heights and χ are functions
//! of `s` and [`OramConfig`] alone, so the trace for a fixed
//! `(s, step sizes, seed)` depends on the *coins*, not on the addresses'
//! values beyond which requests of a step share them, nor on the stored
//! values.

use crate::veb::{tree_nodes, TreeLayout};
use fj::Ctx;
use metrics::{ScratchPool, Tracked};
use obliv_core::slot::composite_key;
use obliv_core::{select_u64, Engine, TagCell};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `OramSlot::addr` of a free slot.
const EMPTY: u32 = u32::MAX;

/// The address a dummy walk looks up: above every real address and below
/// [`EMPTY`], so no slot ever holds it and a lookup is `sl.addr == addr`
/// whatever the walk.
const DUMMY: u32 = u32::MAX - 1;

/// One storage slot in a bucket, the stash, or private staging: 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OramSlot {
    /// Block address; `u32::MAX` marks a free slot, and `u32::MAX − 1` is
    /// never stored.
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

/// `b` if `cond`, else `a`, by masks (no branch on `cond`).
#[inline(always)]
fn select_slot(cond: bool, a: OramSlot, b: OramSlot) -> OramSlot {
    let ids = |s: OramSlot| s.addr as u64 | (s.leaf as u64) << 32;
    let both = select_u64(cond, ids(a), ids(b));
    OramSlot {
        addr: both as u32,
        leaf: (both >> 32) as u32,
        val: select_u64(cond, a.val, b.val),
    }
}

/// `sl` freed if `mask` is all ones, as it was if zero: masks, no branch.
#[inline(always)]
fn free_if(mask: u64, sl: OramSlot) -> OramSlot {
    OramSlot {
        addr: sl.addr | mask as u32,
        leaf: sl.leaf & !mask as u32,
        val: sl.val & !mask,
    }
}

/// `sl` as it goes on, freed if `hit` — its value then kept in `found`: masks,
/// no branch. A block is in one place, so at most one slot hits a lookup.
#[inline(always)]
fn take_if(hit: bool, found: &mut (bool, u64), sl: OramSlot) -> OramSlot {
    let mask = (hit as u64).wrapping_neg();
    *found = (found.0 | hit, found.1 | (sl.val & mask));
    free_if(mask, sl)
}

/// All ones if `a == b`, else zero, with no branch: `x | −x`, for `x = a ^
/// b`, has its top bit set exactly when the two differ, so an arithmetic
/// shift right by `shift` = 31 spreads that bit over the word, and the
/// complement is the mask. Callers pass `shift` through `black_box` once
/// per pass: a mask LLVM can read as a comparison it may turn back into a
/// branch, in a vectorised loop's scalar remainder for one.
#[inline(always)]
fn eq_mask(a: u32, b: u32, shift: u32) -> u64 {
    let x = a ^ b;
    !(((x | x.wrapping_neg()) as i32 >> shift) as i64 as u64)
}

/// Look every walk's address up in `held` at once: one OR-reduction per
/// walk over all of `held` folds the hits into `found` and marks them in
/// `hits` (one mask per slot, cleared here), then one pass frees every
/// marked slot. Masks only, and the passes are fixed by `walks.len()` and
/// `held.len()`. It does what one [`take_if`] per walk and slot does, since
/// the real addresses are distinct and a dummy's is in no slot.
fn take_all(
    walks: &[(u32, u32)],
    held: &mut [OramSlot],
    hits: &mut [u64],
    found: &mut [(bool, u64)],
) {
    hits.fill(0);
    let shift = std::hint::black_box(31);
    for (&(addr, _), got) in walks.iter().zip(found.iter_mut()) {
        let (mut any, mut val) = (0, 0);
        for (sl, hit) in held.iter().zip(hits.iter_mut()) {
            let mask = eq_mask(sl.addr, addr, shift);
            any |= mask;
            val |= sl.val & mask;
            *hit |= mask;
        }
        *got = (got.0 | (any != 0), got.1 | val);
    }
    for (sl, &hit) in held.iter_mut().zip(hits.iter()) {
        *sl = free_if(hit, *sl);
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

/// The union of `m` consecutive reverse-lexicographic eviction paths in a
/// tree of some height: a function of `(height, m)` alone, whatever the
/// counter. At depth `d` the paths of counters `ctr … ctr + m − 1` meet
/// `min(2^d, m)` buckets, bucket `j` lying on the path of `ctr + j` (mod
/// `2^d`); its children are buckets `j` and `j + 2^d` one level down, when
/// there. A bucket's id is `first[d] + j` (depth-major).
///
/// A step reads the buckets in an in-order — child `j + 2^d` before its
/// parent and child `j` after it, an only child on the side its parent
/// hangs on — and writes them in the matching post-order. At `m = 2` that
/// is one path leaf to root and then the other root to leaf, written leaves
/// first and the root last.
#[derive(Debug)]
struct Union {
    m: usize,
    /// `deepest[x]`: the id of the deepest bucket on the path of the leaf
    /// whose bits reversed are `ctr + x` (mod the leaf count) — the same
    /// for every counter `ctr`. That path meets the union at depth `d` iff
    /// `x mod 2^d < m`, at bucket `x mod 2^d`.
    deepest: Vec<u32>,
    /// `first[d]`: the id of depth `d`'s bucket 0.
    first: Vec<usize>,
    /// Each bucket's parent's id; the root's is the bucket count.
    parent: Vec<usize>,
    /// Ids in the read order.
    inorder: Vec<usize>,
    /// Ids in the write order: every bucket after its children.
    post: Vec<usize>,
}

impl Union {
    fn new(height: usize, m: usize) -> Self {
        let mut first = Vec::with_capacity(height + 1);
        let mut at = 0;
        for d in 0..=height {
            first.push(at);
            if d < height {
                at += m.min(1 << d);
            }
        }
        let deepest = (0..1usize << (height - 1))
            .map(|x| {
                let d = (0..height).rev().find(|&d| x % (1 << d) < m).unwrap_or(0);
                (first[d] + x % (1 << d)) as u32
            })
            .collect();
        let mut u = Union {
            m,
            deepest,
            first,
            parent: vec![at; at],
            inorder: Vec::with_capacity(at),
            post: Vec::with_capacity(at),
        };
        u.visit(height, 0, 0, true);
        u
    }

    /// Order bucket `(d, j)`'s subtree, which hangs before its parent if
    /// `before`.
    fn visit(&mut self, height: usize, d: usize, j: usize, before: bool) {
        let id = self.first[d] + j;
        let mut kids = [None, None];
        if d + 1 < height {
            let (lower, upper) = (self.first[d + 1] + j, j + (1 << d));
            if upper < self.m {
                kids = [Some((upper, true)), Some((j, false))];
            } else {
                kids[!before as usize] = Some((j, before));
            }
            self.parent[lower] = id;
            if upper < self.m {
                self.parent[self.first[d + 1] + upper] = id;
            }
        }
        if let Some((k, side)) = kids[0] {
            self.visit(height, d + 1, k, side);
        }
        self.inorder.push(id);
        if let Some((k, side)) = kids[1] {
            self.visit(height, d + 1, k, side);
        }
        self.post.push(id);
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    /// Counting-sort `pool` by the deepest union bucket each slot's leaf
    /// allows, for the union of counters `ctr …`: afterwards `ends[u −
    /// 1]..ends[u]` of `sorted` holds bucket `u`'s blocks and
    /// `sorted[pool.len()]` is free. Free slots are counted on eight spare
    /// keys (not all on one, which would chain every count) and stored over
    /// that free slot. The keys come in two passes, then the histogram and
    /// the scatter read them, each over slices of the step's public length.
    fn sort(
        &self,
        ctr: u64,
        pool: &[OramSlot],
        keys: &mut Vec<u32>,
        ends: &mut Vec<usize>,
        sorted: &mut Vec<OramSlot>,
    ) {
        let (n, nodes) = (pool.len(), self.len());
        keys.resize(n, 0);
        ends.clear();
        ends.resize(nodes + 8, 0);
        sorted.resize(n + 1, OramSlot::default());
        let (keys, ends, sorted) = (&mut keys[..], &mut ends[..], &mut sorted[..]);
        // The keys come in two passes, because fused, the select between
        // the loaded bucket and a spare key compiles to a branch. First
        // every slot's deepest bucket: for leaf `rev` it is `deepest[rev −
        // ctr]`, the index taken mod the leaf count, a power of two: the
        // low bits of the `u32` difference. Then the free slots' spares.
        let (deepest, wrap) = (&self.deepest[..], self.deepest.len() - 1);
        for (key, sl) in keys.iter_mut().zip(pool) {
            *key = deepest[sl.leaf.wrapping_sub(ctr as u32) as usize & wrap];
        }
        let (shift, spare) = (std::hint::black_box(31), nodes as u32);
        for (i, (key, sl)) in keys.iter_mut().zip(pool).enumerate() {
            let free = eq_mask(sl.addr, EMPTY, shift) as u32;
            *key ^= (*key ^ (spare + (i as u32 & 7))) & free;
        }
        for &key in keys.iter() {
            ends[key as usize] += 1;
        }
        let mut at = 0;
        for e in ends[..nodes].iter_mut() {
            at += std::mem::replace(e, at);
        }
        for (sl, &key) in pool.iter().zip(keys.iter()) {
            let key = key as usize;
            let i = ends[key];
            sorted[select_u64(key >= nodes, i as u64, n as u64) as usize] = *sl;
            ends[key] = i + 1;
        }
        sorted[n] = OramSlot::default();
    }
}

/// The stretches of a step's sorted slots not yet placed, as a stack: the
/// top two in registers, the bottom an empty stretch at the free slot that
/// is never popped. A stretch `lo..hi` is packed as `lo << 32 | hi`. Pushes
/// and pops go by masks, so the fill branches on nothing it stages.
struct Stretches<'a> {
    stack: &'a mut [u64],
    /// Entries of `stack` in use: `stack[depth − 1]` is `under`.
    depth: usize,
    top: u64,
    under: u64,
    /// Index of the free slot.
    free: u64,
}

impl<'a> Stretches<'a> {
    /// `stack` must hold a push per bucket and two more, filled with the
    /// empty stretch at `free`.
    fn new(stack: &'a mut [u64], free: usize) -> Self {
        Stretches {
            stack,
            depth: 1,
            top: Self::at(free),
            under: Self::at(free),
            free: free as u64,
        }
    }

    /// The empty stretch at `free`, which `new`'s `stack` is filled with.
    fn at(free: usize) -> u64 {
        (free as u64) << 32 | free as u64
    }

    /// Push stretch `lo..hi` if it is not empty.
    #[inline(always)]
    fn push(&mut self, lo: usize, hi: usize) {
        let on = hi > lo;
        self.stack[self.depth] = self.top;
        self.depth += on as usize;
        self.under = select_u64(on, self.under, self.top);
        self.top = select_u64(on, self.top, (lo as u64) << 32 | hi as u64);
    }

    /// The index of the last slot of the top stretch, removed from it, if
    /// `live`; else the free slot's. A live pop needs a slot on the stack.
    #[inline(always)]
    fn pop(&mut self, live: bool) -> usize {
        let i = select_u64(live, self.free, (self.top as u32).wrapping_sub(1) as u64) as usize;
        self.top -= live as u64;
        let empty = live & ((self.top >> 32) as u32 == self.top as u32);
        self.top = select_u64(empty, self.top, self.under);
        self.depth -= empty as usize;
        self.under = select_u64(empty, self.under, self.stack[self.depth - 1]);
        i
    }
}

/// Unions a tree keeps, one per recent step size, most recent first: the
/// store alternates two sizes (its class and the merge's mirror steps), so
/// a bounded few rebuild nothing after warm-up.
const UNIONS: usize = 4;

/// A single-level bucket tree with a fixed stash.
pub(crate) struct TreeOram {
    height: usize,
    bucket: usize,
    /// `slots[v]`: the first slot in `store` of the node with heap index
    /// `v` — node `(d, i)` at `2^d − 1 + i` — under the tree's layout,
    /// `layout.pos(height, d, i) · bucket`. Built once, so a step reads a
    /// node's position instead of walking the layout's recursion.
    slots: Vec<u32>,
    /// Buckets and stash. A slot here keeps its leaf bit-reversed — in the
    /// eviction counter's coordinates, where a step's union is a range.
    store: Vec<OramSlot>,
    stash: Vec<OramSlot>,
    evict_ctr: u64,
    /// Most real blocks any one step has written back to the stash — the
    /// quantity the overflow assert bounds by the stash capacity
    /// (monitoring, §4.2 simplification).
    pub max_stash: usize,
    /// The eviction unions of the last few step sizes, the current step's
    /// first (at most [`UNIONS`]).
    unions: Vec<Union>,
    /// Private, untraced staging, grown to the largest step seen so that
    /// steady-state steps perform no heap allocation: the union's bucket
    /// positions, every staged slot (the union's, the stash's, then each
    /// walk's added block) and its key, the same slots counting-sorted
    /// (one free slot behind them), where each key's slots end in
    /// `sorted`, how many blocks each bucket's children pass up to it, the
    /// stack of stretches of `sorted` not yet placed, each walk's lookup,
    /// and which stash slots the lookups hit (one mask per slot).
    bases: Vec<u32>,
    pool: Vec<OramSlot>,
    keys: Vec<u32>,
    sorted: Vec<OramSlot>,
    ends: Vec<usize>,
    carry: Vec<usize>,
    stack: Vec<u64>,
    found: Vec<(bool, u64)>,
    hits: Vec<u64>,
}

impl TreeOram {
    /// A tree with at least `capacity` leaves-worth of room.
    pub fn new(capacity: usize, cfg: OramConfig) -> Self {
        let height = tree_height(capacity, cfg);
        let union = Union::new(height, 2);
        let staged = union.len() * cfg.bucket + cfg.stash + 1;
        let slots = tree_nodes(height) * cfg.bucket;
        assert!(slots <= u32::MAX as usize, "ORAM tree exceeds u32 slots");
        TreeOram {
            height,
            bucket: cfg.bucket,
            slots: (0..height)
                .flat_map(|d| (0..1 << d).map(move |i| cfg.layout.pos(height, d, i)))
                .map(|pos| (pos * cfg.bucket) as u32)
                .collect(),
            store: vec![OramSlot::default(); slots],
            stash: vec![OramSlot::default(); cfg.stash],
            evict_ctr: 0,
            max_stash: 0,
            bases: Vec::with_capacity(union.len()),
            pool: Vec::with_capacity(staged),
            keys: Vec::with_capacity(staged),
            sorted: Vec::with_capacity(staged + 1),
            ends: Vec::with_capacity(union.len() + 8),
            carry: Vec::with_capacity(union.len() + 1),
            stack: Vec::with_capacity(union.len() + 2),
            found: Vec::with_capacity(1),
            hits: vec![0; cfg.stash],
            unions: vec![union],
        }
    }

    /// Put the union of `m` eviction paths first in `unions`, building it
    /// only if none of the last [`UNIONS`] step sizes had it.
    fn union_first(&mut self, m: usize) {
        match self.unions.iter().position(|u| u.m == m) {
            Some(i) => self.unions[..=i].rotate_right(1),
            None => {
                self.unions.truncate(UNIONS - 1);
                self.unions.insert(0, Union::new(self.height, m));
            }
        }
    }

    /// Number of leaves (valid leaf labels are `0..leaves`).
    pub fn leaves(&self) -> u64 {
        1u64 << (self.height - 1)
    }

    /// Read-and-remove `addr` along the path to `leaf`, then reinsert it
    /// with `new_leaf` and value `new_val(old)`; returns the old value
    /// (`None` if absent). A one-walk step (module doc): the next two
    /// reverse-lexicographic paths are evicted jointly.
    #[cfg(test)]
    fn access<C: Ctx>(
        &mut self,
        c: &C,
        addr: u64,
        leaf: u64,
        new_leaf: u64,
        new_val: impl FnOnce(Option<u64>) -> u64,
    ) -> Option<u64> {
        // Slots hold addresses and leaves as `u32`, `u32::MAX` = free and
        // `u32::MAX − 1` the dummy walks' address.
        assert!(
            addr < DUMMY as u64 && leaf < self.leaves() && new_leaf < self.leaves(),
            "ORAM access out of range: addr {addr}, leaves {leaf} → {new_leaf}"
        );
        let addr = addr as u32;
        let mut old = None;
        self.step(c, &[(addr, leaf as u32)], |found, added| {
            old = found[0].0.then_some(found[0].1);
            added[0] = OramSlot {
                addr,
                leaf: new_leaf as u32,
                val: new_val(old),
            };
        });
        old
    }

    /// One step of `walks.len()` walks, `walks[i] = (addr, leaf)`: the path
    /// to each `leaf` read and rewritten with `addr` ([`DUMMY`] for a dummy
    /// walk) blinded wherever it is found, then the next `2p` eviction
    /// paths evicted jointly — one pass, see the module doc. The real
    /// addresses must be distinct.
    ///
    /// `finish(found, added)` runs once every lookup is done: `found[i]` is
    /// whether walk `i`'s block was there and its value (0 if not), and it
    /// sets `added[i]`, the block walk `i` puts back (a free slot, as
    /// given, for none).
    ///
    /// The union of the eviction paths, the stash and the added blocks
    /// form one pool. A block may sit in any union bucket whose path prefix
    /// its leaf shares; the buckets are refilled deepest-first, each taking
    /// `min(bucket, |eligible|)` of the blocks not yet placed, and what is
    /// left returns to the stash. Which slots are real, where the blocks
    /// were found and where anything is placed live only in private memory:
    /// the tracked pattern reads every slot it visits and unconditionally
    /// rewrites it, and every staging loop runs a public number of times.
    fn step<C: Ctx>(
        &mut self,
        c: &C,
        walks: &[(u32, u32)],
        finish: impl FnOnce(&[(bool, u64)], &mut [OramSlot]),
    ) {
        let p = walks.len();
        assert!(p > 0, "an ORAM step makes at least one walk");
        assert!(
            walks.iter().all(|&(_, leaf)| (leaf as u64) < self.leaves()),
            "ORAM walk leaf out of range"
        );
        self.union_first(2 * p);
        let TreeOram {
            height: h,
            bucket,
            ref slots,
            ref mut store,
            ref mut stash,
            ref mut evict_ctr,
            ref mut max_stash,
            ref unions,
            ref mut bases,
            ref mut pool,
            ref mut keys,
            ref mut sorted,
            ref mut ends,
            ref mut carry,
            ref mut stack,
            ref mut found,
            ref mut hits,
        } = *self;
        let union = &unions[0];
        let bits = h - 1;
        let ctr = *evict_ctr;
        *evict_ctr += 2 * p as u64;

        // The union's bucket positions, by id: depth `d`'s bucket `j` is
        // that depth's node `ctr + j` (mod `2^d`) bit-reversed.
        bases.clear();
        for d in 0..h {
            let depth = &slots[(1 << d) - 1..(2 << d) - 1];
            bases.extend(
                (0..union.first[d + 1] - union.first[d])
                    .map(|j| depth[reverse_bits(ctr + j as u64, d as u32) as usize]),
            );
        }

        let free = OramSlot::default();
        found.clear();
        found.resize(p, (false, 0));
        let mut st = Tracked::new(c, store);
        let mut ss = Tracked::new(c, stash);

        // 1. Read paths, one per walk: read + blind + rewrite. The leaf's
        // heap index is `2^bits + leaf` counted from 1; its ancestor at
        // depth `d` is that shifted right by `bits − d`.
        for (&(addr, leaf), got) in walks.iter().zip(found.iter_mut()) {
            let mut acc = *got;
            let node = 1 << bits | leaf as usize;
            for d in 0..h {
                let base = slots[(node >> (bits - d)) - 1] as usize;
                for k in base..base + bucket {
                    let sl = st.get(c, k);
                    st.set(c, k, take_if(sl.addr == addr, &mut acc, sl));
                }
            }
            *got = acc;
        }

        // 2. Gather the union and the stash, once: every slot is staged,
        // free or not. The stash is blinded against every walk at once.
        let (nodes, stashed) = (union.len(), union.len() * bucket);
        let n = stashed + ss.len() + p;
        pool.resize(n, free);
        let (tree, rest) = pool.split_at_mut(stashed);
        let (held, fetched) = rest.split_at_mut(ss.len());
        for (&u, dst) in union.inorder.iter().zip(tree.chunks_exact_mut(bucket)) {
            let base = bases[u] as usize;
            for (k, sl) in dst.iter_mut().enumerate() {
                *sl = st.get(c, base + k);
            }
        }
        for (k, sl) in held.iter_mut().enumerate() {
            *sl = ss.get(c, k);
        }
        take_all(walks, held, hits, found);
        fetched.fill(free);
        finish(found, fetched);
        for a in fetched.iter_mut() {
            a.leaf = reverse_bits(a.leaf as u64, bits as u32);
        }

        // 3. Counting sort by deepest legal union bucket. One unit of work
        // per staged slot for the sort, one for the fill.
        c.work(2 * n as u64);
        union.sort(ctr, pool, keys, ends, sorted);

        // 4. Deepest-first fill and write-back, every slot written once.
        // In post-order, the blocks of a bucket's subtree not yet placed
        // are the top stretches of a stack: a bucket pushes its own
        // stretch and pops what fits — its own blocks first, then what its
        // children passed up — and passes the rest to its parent.
        carry.clear();
        carry.resize(nodes + 1, 0);
        stack.clear();
        stack.resize(nodes + 2, Stretches::at(n));
        let mut open = Stretches::new(stack, n);
        for &u in union.post.iter() {
            let own = (if u == 0 { 0 } else { ends[u - 1] }, ends[u]);
            open.push(own.0, own.1);
            let reach = own.1 - own.0 + carry[u];
            let take = bucket.min(reach);
            carry[union.parent[u]] += reach - take;
            let base = bases[u] as usize;
            for k in 0..bucket {
                st.set(c, base + k, sorted[open.pop(k < take)]);
            }
        }
        let left = carry[nodes];
        assert!(
            left <= ss.len(),
            "ORAM stash overflow (capacity {})",
            ss.len()
        );
        *max_stash = (*max_stash).max(left);
        for k in 0..ss.len() {
            ss.set(c, k, sorted[open.pop(k < left)]);
        }
    }
}

/// Height of the tree [`TreeOram::new`] builds for `capacity` blocks:
/// `capacity / bucket` leaves rounded up to a power of two (at least one),
/// plus the root level.
fn tree_height(capacity: usize, cfg: OramConfig) -> usize {
    let leaves = capacity.div_ceil(cfg.bucket).next_power_of_two().max(1);
    leaves.trailing_zeros() as usize + 1
}

/// Tracked slot touches of one step of `p` walks on a tree of `height`
/// levels, the module doc's `2b·p·h + 2b·U + 2·stash`: the read paths read
/// and rewritten, the union of the `2p` eviction paths (`U` buckets) and
/// the stash read and written once each.
fn touches(height: usize, p: usize, cfg: OramConfig) -> usize {
    let union: usize = (0..height).map(|d| (2 * p).min(1 << d)).sum();
    2 * cfg.bucket * (p * height + union) + 2 * cfg.stash
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

/// Per-request staging of [`Opram::step`], reused across steps: each
/// request's leaf to read in the current tree, the leaf it drew for the
/// current tree (a run head's new leaf, a duplicate's read leaf) and for
/// the tree below, its walk, the map entry its run has built so far, its
/// pre-step value; and, per top entry, the request that fetches it.
#[derive(Default)]
struct Lanes {
    read: Vec<u32>,
    drawn: Vec<u32>,
    below: Vec<u32>,
    walks: Vec<(u32, u32)>,
    entry: Vec<u64>,
    vals: Vec<u64>,
    top_hit: Vec<usize>,
}

/// Recursive position-map ORAM over `s` addresses with batched access.
pub struct Opram {
    s: usize,
    data: TreeOram,
    /// `maps[k]` stores, at its address `j`, the leaves of level-`k`
    /// addresses `χj … χj + χ − 1` packed in `w`-bit fields, with `w` =
    /// [`field_width`] of the level-`k` tree and `χ = 64 / w` (level 0 =
    /// data tree, level `k + 1` = `maps[k]`).
    maps: Vec<TreeOram>,
    /// `shifts[k]`: address bits folded below level `k` — a data address
    /// `a` is address `a >> shifts[k]` of the level-`k` tree, and the top
    /// map's address `a >> shifts[maps.len()]`.
    shifts: Vec<u32>,
    /// Flat top map: leaf of `maps.last()`'s address `j` (or of the data
    /// tree when there are no maps).
    top: Vec<u64>,
    rng: StdRng,
    engine: Engine,
    /// Private scratch arena: batched accesses reuse sort buffers across
    /// the ORAM's lifetime instead of allocating per batch.
    scratch: ScratchPool,
    lanes: Lanes,
}

impl Opram {
    /// An ORAM over addresses `0..s`, every value 0, its map levels
    /// chosen by the depth rule (module doc) from `s` and `cfg` alone.
    ///
    /// # Panics
    ///
    /// If `s` exceeds `u32::MAX − 1`: slots store addresses as `u32`, and
    /// `u32::MAX − 1` is the dummy walks' address.
    pub fn new(s: usize, cfg: OramConfig, engine: Engine, seed: u64) -> Self {
        // Addresses and leaves are stored as `u32`, `u32::MAX` = free slot
        // and `u32::MAX − 1` the dummy walks' address.
        assert!(s <= DUMMY as usize, "ORAM address space exceeds u32");
        let mut rng = StdRng::seed_from_u64(seed);
        let data = TreeOram::new(s.max(1), cfg);
        // Each map level folds the one below χ addresses to an entry. Keep
        // the levels whose trees' touches plus 2 per top entry are least.
        let (mut space, mut height) = (s.max(1), data.height);
        let mut cost = touches(height, 1, cfg);
        let (mut best, mut spaces) = ((cost + 2 * space, 0), Vec::new());
        while space > 1 {
            space = space.div_ceil((64 / field_width(height)) as usize);
            height = tree_height(space, cfg);
            cost += touches(height, 1, cfg);
            spaces.push(space);
            if cost + 2 * space < best.0 {
                best = (cost + 2 * space, spaces.len());
            }
        }
        spaces.truncate(best.1);
        let maps: Vec<TreeOram> = spaces.iter().map(|&n| TreeOram::new(n, cfg)).collect();
        // Level `k + 1` folds `log₂ χ` address bits of level `k`.
        let mut shifts = vec![0];
        for t in std::iter::once(&data).chain(&maps).take(maps.len()) {
            shifts.push(shifts.last().unwrap() + 6 - field_width(t.height).trailing_zeros());
        }
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
            shifts,
            lanes: Lanes {
                top_hit: vec![0; top.len()],
                ..Lanes::default()
            },
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

    /// Single oblivious access: returns the previous value of `addr`;
    /// `write` installs a new value. A one-request [`Opram::step`].
    pub fn access<C: Ctx>(&mut self, c: &C, addr: u64, write: Option<u64>) -> u64 {
        self.step(c, &[(addr, write)])[0]
    }

    /// One OPRAM step over `reqs = [(addr, write)]`, sorted by address;
    /// returns each request's pre-step value. The first request of each
    /// address's run installs its write (if any); the others write nothing.
    ///
    /// The top map is scanned once for all requests, then every tree,
    /// coarsest first, is walked by one tree step (module doc) of `p =
    /// reqs.len()` walks. At each level the requests whose address at that
    /// level is the same — a run, since the requests are sorted — make one
    /// real walk, by the run's first request; the others walk dummy paths on
    /// fresh uniform leaves. The real walk at a map level writes its entry
    /// back with the new leaf of every run one level down that it indexes.
    /// Each request draws one leaf per tree whatever the runs, so the
    /// trace is a function of `p`, the coins and which requests share
    /// addresses at each level — never of the values.
    ///
    /// # Panics
    ///
    /// If an address is out of range or the requests are not sorted.
    pub fn step<C: Ctx>(&mut self, c: &C, reqs: &[(u64, Option<u64>)]) -> &[u64] {
        let p = reqs.len();
        assert!(
            reqs.iter().all(|&(a, _)| (a as usize) < self.s),
            "ORAM address out of range (space {})",
            self.s
        );
        assert!(
            reqs.windows(2).all(|w| w[0].0 <= w[1].0),
            "an OPRAM step's requests are sorted by address"
        );
        let Opram {
            data,
            maps,
            shifts,
            top,
            rng,
            lanes,
            ..
        } = self;
        let Lanes {
            read,
            drawn,
            below,
            walks,
            entry,
            vals,
            top_hit,
        } = lanes;
        vals.clear();
        if p == 0 {
            return vals;
        }
        let levels = maps.len();
        let at = |i: usize, n: usize| reqs[i].0 >> shifts[n];
        // Request `i` heads its run of level-`n` addresses.
        let head = |i: usize, n: usize| i == 0 || at(i - 1, n) != at(i, n);
        let draw = |rng: &mut StdRng, lane: &mut Vec<u32>, tree: &TreeOram| {
            let leaves = tree.leaves();
            lane.clear();
            lane.extend((0..p).map(|_| rng.gen_range(0..leaves) as u32));
        };

        // Top map: one full scan, each run of the coarsest tree's addresses
        // fetching its entry and remapping it to its head's draw.
        draw(rng, drawn, maps.last().unwrap_or(data));
        read.clone_from(drawn);
        // Every request writes its entry's slot, last to first, so the run
        // head's index is what stays: as many writes whatever the runs.
        for i in (0..p).rev() {
            top_hit[at(i, levels) as usize] = i + 1;
        }
        let mut t = Tracked::new(c, top);
        for (j, fetch) in top_hit.iter_mut().enumerate() {
            let cur = t.get(c, j);
            let (hit, i) = (*fetch != 0, fetch.saturating_sub(1));
            read[i] = select_u64(hit, read[i] as u64, cur) as u32;
            t.set(c, j, select_u64(hit, cur, drawn[i] as u64));
            *fetch = 0;
        }

        // Every tree, coarsest first.
        for n in (0..=levels).rev() {
            walks.clear();
            walks.extend((0..p).map(|i| {
                let addr = select_u64(head(i, n), DUMMY as u64, at(i, n));
                (addr as u32, read[i])
            }));
            if n == 0 {
                vals.resize(p, 0);
                data.step(c, walks, |found, added| {
                    let mut pre = 0;
                    for i in 0..p {
                        let real = head(i, 0);
                        pre = select_u64(real, pre, found[i].1);
                        vals[i] = pre;
                        let (has, w) = (reqs[i].1.is_some(), reqs[i].1.unwrap_or(0));
                        let block = OramSlot {
                            addr: reqs[i].0 as u32,
                            leaf: drawn[i],
                            val: select_u64(has, pre, w),
                        };
                        added[i] = select_slot(real, added[i], block);
                    }
                });
                break;
            }
            // Entries of tree `n` hold level-`(n − 1)` leaves in `w`-bit
            // fields; each request draws its level-`(n − 1)` leaf first.
            let child = if n == 1 { &*data } else { &maps[n - 2] };
            let w = field_width(child.height);
            let fields = 64 / w as u64;
            draw(rng, below, child);
            entry.resize(p, 0);
            maps[n - 1].step(c, walks, |found, added| {
                // Forward: each run of tree `n` starts from its found entry
                // and re-leafs, in turn, every level-`(n − 1)` run it
                // indexes; a level-`(n − 1)` head reads the leaf it held.
                let mut e = 0;
                for i in 0..p {
                    e = select_u64(head(i, n), e, found[i].1);
                    let (sub, field) = (head(i, n - 1), at(i, n - 1) & (fields - 1));
                    read[i] = select_u64(sub, below[i] as u64, unpack(e, w, field)) as u32;
                    e = select_u64(sub, e, repack(e, w, field, below[i] as u64));
                    entry[i] = e;
                }
                // Backward: each head puts back its run's final entry.
                let mut last = 0;
                for i in (0..p).rev() {
                    last = select_u64(i + 1 == p || head(i + 1, n), last, entry[i]);
                    let block = OramSlot {
                        addr: at(i, n) as u32,
                        leaf: drawn[i],
                        val: last,
                    };
                    added[i] = select_slot(head(i, n), added[i], block);
                }
            });
            std::mem::swap(drawn, below);
        }
        vals
    }

    /// Batched access (the PRAM step of \[CCS17\]): conflict resolution by
    /// oblivious sort, one [`Opram::step`], the results sorted back to the
    /// requests. `reqs[j] = (addr, write)`; returns the pre-step value of
    /// each request's address, and the earliest request naming an address
    /// wins its write (priority CRCW).
    ///
    /// The trace is a function of `reqs.len()`, the coins and which
    /// requests share addresses: a request whose address an earlier one
    /// already names walks dummy paths, so how many requests collide
    /// changes neither the number of walks nor the length of the trace.
    pub fn access_batch<C: Ctx>(&mut self, c: &C, reqs: &[(u64, Option<u64>)]) -> Vec<u64> {
        if reqs.is_empty() {
            return Vec::new();
        }
        // Requests ride in packed 32-byte `TagCell`s (DESIGN.md §10): tag =
        // composite (addr ‖ request index) — distinct, so the unstable cell
        // network is safe — and aux = (has-write ‖ value).
        let p = reqs.len();
        let mut order = Vec::with_capacity(p);
        let sorted: Vec<(u64, Option<u64>)> = {
            // Scoped so the scratch lease ends before the step below.
            let mut cells = self.scratch.lease(p, TagCell::filler());
            for (cell, (j, &(a, w))) in cells.iter_mut().zip(reqs.iter().enumerate()) {
                *cell = TagCell::new(
                    composite_key(a, j as u64),
                    ((w.is_some() as u128) << 64) | w.unwrap_or(0) as u128,
                );
            }
            self.engine
                .sort_cells(c, &self.scratch, &mut Tracked::new(c, &mut cells));
            c.work(p as u64);
            order.extend(cells.iter().map(|cell| cell.tag as u64));
            cells
                .iter()
                .map(|cell| {
                    let w = ((cell.aux >> 64) == 1).then_some(cell.aux as u64);
                    ((cell.tag >> 64) as u64, w)
                })
                .collect()
        };
        let vals = self.step(c, &sorted).to_vec();

        // Back to request order: re-key each value by its request's index.
        let mut cells = self.scratch.lease(p, TagCell::filler());
        for (cell, (&j, &v)) in cells.iter_mut().zip(order.iter().zip(&vals)) {
            *cell = TagCell::new(j as u128, v as u128);
        }
        self.engine
            .sort_cells(c, &self.scratch, &mut Tracked::new(c, &mut cells));
        c.work(p as u64);
        cells.iter().map(|cell| cell.aux as u64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::SeqCtx;
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;
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
            .map(|t| touches(t.height, 1, OramConfig::default()))
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

    /// The position table is the layout's definition: every node's first
    /// slot is `layout.pos(h, d, i) · bucket`, at every height a tree of
    /// up to 2¹⁵ leaves has, on both layouts.
    #[test]
    fn slot_table_is_the_layout_at_every_height() {
        for layout in [TreeLayout::Veb, TreeLayout::Level] {
            for bucket in [1, 5] {
                let cfg = OramConfig {
                    bucket,
                    stash: 8,
                    layout,
                };
                for h in 1..=16 {
                    let t = TreeOram::new(bucket << (h - 1), cfg);
                    assert_eq!(t.height, h);
                    assert_eq!(t.slots.len(), tree_nodes(h));
                    for d in 0..h {
                        for i in 0..1 << d {
                            assert_eq!(
                                t.slots[(1 << d) - 1 + i] as usize,
                                layout.pos(h, d, i) * bucket,
                                "{layout:?}, bucket {bucket}, h {h}, node ({d}, {i})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Steps that alternate sizes build each size's union once: a tree
    /// keeps the unions of its last [`UNIONS`] step sizes, the current
    /// one first, and a new size drops the oldest.
    #[test]
    fn unions_of_recent_step_sizes_are_kept() {
        let mut t = TreeOram::new(1024, OramConfig::default());
        let leaf = t.leaves() as u32 - 1;
        let c = SeqCtx::new();
        let step = |t: &mut TreeOram, p: usize| {
            t.step(&c, &vec![(DUMMY, leaf); p], |_, _| {});
            let sizes: Vec<usize> = t.unions.iter().map(|u| u.m).collect();
            let built: Vec<*const u32> = t.unions.iter().map(|u| u.deepest.as_ptr()).collect();
            (sizes, built)
        };
        for p in [8, 4, 8] {
            step(&mut t, p);
        }
        let (sizes, built) = step(&mut t, 4);
        assert_eq!(sizes, [8, 16, 2]);
        let (sizes, again) = step(&mut t, 8);
        assert_eq!(sizes, [16, 8, 2]);
        assert_eq!(
            again,
            [built[1], built[0], built[2]],
            "a kept union was rebuilt"
        );
        assert_eq!(step(&mut t, 2).0, [4, 16, 8, 2]);
        assert_eq!(step(&mut t, 3).0, [6, 4, 16, 8]);
    }

    /// The dummy walks' address is above every address a tree is given.
    #[test]
    #[should_panic(expected = "ORAM access out of range")]
    fn access_rejects_the_dummy_address() {
        let mut t = TreeOram::new(8, OramConfig::default());
        t.access(&SeqCtx::new(), DUMMY as u64, 0, 0, |_| 1);
    }

    /// Every slot of every tree of `o`, stash included.
    fn every_slot(o: &Opram) -> impl Iterator<Item = &OramSlot> {
        std::iter::once(&o.data)
            .chain(&o.maps)
            .flat_map(|t| t.store.iter().chain(&t.stash))
    }

    /// Dummy walks look up [`DUMMY`] and put back free slots: after steps
    /// of 1 to 32 requests, most of them colliding, on every map shape,
    /// no slot holds it — and every value read back is right.
    #[test]
    fn no_slot_ever_holds_the_dummy_address() {
        let c = SeqCtx::new();
        let mut rng = StdRng::seed_from_u64(43);
        for s in [3usize, 200, 4096] {
            let mut o = Opram::new(s, OramConfig::default(), Engine::BitonicRec, 8);
            let mut reference: HashMap<u64, u64> = HashMap::new();
            for step in 0..60u64 {
                let p = [1, 2, 8, 13, 32][step as usize % 5];
                // A narrow window of addresses, so most requests collide
                // at the map levels and many at the data level.
                let lo = rng.gen_range(0..s as u64);
                let mut reqs: Vec<(u64, Option<u64>)> = (0..p)
                    .map(|j| {
                        let addr = (lo + rng.gen_range(0..4)) % s as u64;
                        (addr, rng.gen_bool(0.5).then_some(step * 100 + j as u64))
                    })
                    .collect();
                reqs.sort_by_key(|r| r.0);
                let got = o.step(&c, &reqs).to_vec();
                for (&(addr, _), &v) in reqs.iter().zip(&got) {
                    assert_eq!(v, reference.get(&addr).copied().unwrap_or(0));
                }
                // Each run's first request writes.
                for (i, &(addr, w)) in reqs.iter().enumerate() {
                    if let (Some(v), true) = (w, i == 0 || reqs[i - 1].0 != addr) {
                        reference.insert(addr, v);
                    }
                }
                assert!(
                    every_slot(&o).all(|sl| sl.addr != DUMMY),
                    "s {s}, step {step}: a slot holds the dummy address"
                );
            }
        }
    }

    /// The address stash slot `j` holds, when real, in
    /// [`prop_batched_lookup_matches_the_take_if_chain`]: `2j`, or `DUMMY −
    /// 1 − 2j` near the top of the range. Real addresses are distinct, and
    /// `addr ^ 1` of one is in no slot.
    fn real_addr(j: usize, high: bool) -> u32 {
        if high {
            DUMMY - 1 - 2 * j as u32
        } else {
            2 * j as u32
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The batched stash lookup against the per-walk `take_if` chain it
        /// replaces: any stash occupancy, walks that hit, miss or are
        /// dummies (real addresses distinct), lookups already found on a
        /// path. Same freed stash, same lookups.
        #[test]
        fn prop_batched_lookup_matches_the_take_if_chain(
            slots in proptest::collection::vec((0u8..3, (any::<u32>(), any::<u64>())), 0..48),
            picks in proptest::collection::vec((0u8..3, 0usize..48), 1..16),
            prior in proptest::collection::vec((any::<bool>(), any::<u64>()), 16),
            high in any::<bool>(),
        ) {
            // Free slots (kind 0) keep a leaf and a value too: a lookup
            // must not read them.
            let held: Vec<OramSlot> = slots
                .iter()
                .enumerate()
                .map(|(j, &(kind, (leaf, val)))| OramSlot {
                    addr: if kind == 0 { EMPTY } else { real_addr(j, high) },
                    leaf,
                    val,
                })
                .collect();
            let mut walks: Vec<(u32, u32)> = Vec::new();
            for &(kind, j) in &picks {
                // A hit names a slot's address (a real one or not), a miss
                // one no slot holds.
                let at = real_addr(j, high);
                let addr = match kind {
                    0 => DUMMY,
                    1 => at,
                    _ => at ^ 1,
                };
                let repeat = walks.iter().any(|&(a, _)| a == addr);
                walks.push((if repeat { DUMMY } else { addr }, 0));
            }
            let p = walks.len();

            let (mut want, mut want_found) = (held.clone(), prior[..p].to_vec());
            for (&(addr, _), got) in walks.iter().zip(want_found.iter_mut()) {
                for sl in want.iter_mut() {
                    *sl = take_if(sl.addr == addr, got, *sl);
                }
            }
            let (mut got, mut found) = (held.clone(), prior[..p].to_vec());
            let mut hits = vec![u64::MAX; held.len()];
            take_all(&walks, &mut got, &mut hits, &mut found);
            prop_assert_eq!(got, want);
            prop_assert_eq!(found, want_found);
        }
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

    /// The leaf of a block stored in `t` (which keeps it bit-reversed).
    fn leaf_of(t: &TreeOram, sl: &OramSlot) -> u32 {
        reverse_bits(sl.leaf as u64, (t.height - 1) as u32)
    }

    /// Every real block of `t`, laid out by `layout`, as `(addr, leaf,
    /// val)`, sorted; panics if a block sits in a bucket off its own leaf's
    /// path.
    fn blocks_on_their_paths(t: &TreeOram, layout: TreeLayout) -> Vec<(u32, u32, u64)> {
        let mut all = Vec::new();
        for d in 0..t.height {
            for idx in 0..1usize << d {
                let base = layout.pos(t.height, d, idx) * t.bucket;
                for sl in &t.store[base..base + t.bucket] {
                    if sl.addr != EMPTY {
                        assert_eq!(
                            leaf_of(t, sl) as usize >> (t.height - 1 - d),
                            idx,
                            "block {sl:?} is off its path at depth {d}"
                        );
                        all.push((sl.addr, leaf_of(t, sl), sl.val));
                    }
                }
            }
        }
        all.extend(
            t.stash
                .iter()
                .filter(|sl| sl.addr != EMPTY)
                .map(|sl| (sl.addr, leaf_of(t, sl), sl.val)),
        );
        all.sort_unstable();
        all
    }

    /// Depth of the deepest bucket the paths to leaves `a` and `b` share in
    /// a tree of `height` levels (0 = the root only).
    fn meet(height: usize, a: u32, b: u32) -> usize {
        height - 1 - (32 - (a ^ b).leading_zeros() as usize)
    }

    /// One step of `p` walks on `t` against `held` (addr → (leaf, val)): up
    /// to `p` distinct addresses below `space` drawn from `rng`, a repeat
    /// walking a dummy path; every real walk re-leafs its block and writes
    /// `val`. Checks every lookup.
    fn random_step(
        t: &mut TreeOram,
        rng: &mut StdRng,
        held: &mut HashMap<u64, (u64, u64)>,
        (p, space, val): (usize, u64, u64),
    ) {
        let c = SeqCtx::new();
        let leaves = t.leaves();
        let mut walks = Vec::new();
        let mut want = Vec::new();
        for _ in 0..p {
            let addr = rng.gen_range(0..space);
            if walks.iter().any(|&(a, _)| a as u64 == addr) {
                walks.push((DUMMY, rng.gen_range(0..leaves) as u32));
                want.push(None);
                continue;
            }
            let (at, old) = match held.get(&addr) {
                Some(&(leaf, v)) => (leaf, Some(v)),
                None => (rng.gen_range(0..leaves), None),
            };
            walks.push((addr as u32, at as u32));
            want.push(Some((old, rng.gen_range(0..leaves))));
        }
        t.step(&c, &walks, |found, added| {
            for i in 0..p {
                if let Some((old, new_leaf)) = want[i] {
                    assert_eq!(found[i].0.then_some(found[i].1), old, "walk {i}");
                    added[i] = OramSlot {
                        addr: walks[i].0,
                        leaf: new_leaf as u32,
                        val,
                    };
                    held.insert(walks[i].0 as u64, (new_leaf, val));
                } else {
                    assert_eq!(found[i], (false, 0), "dummy walk {i}");
                }
            }
        });
    }

    /// Steps of every size the store and the PRAM step use, on trees whose
    /// buckets are too small for the load: after each step nothing is lost
    /// or duplicated, every block sits on its own path, and a block left in
    /// the stash found every bucket it could have used on the step's `2p`
    /// eviction paths full.
    #[test]
    fn placement_keeps_every_block_legal_and_is_greedy() {
        let mut leftovers_seen = 0;
        for p in [1usize, 2, 8, 32] {
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
                let h = t.height;
                let mut rng = StdRng::seed_from_u64(seed * 100 + p as u64);
                let mut held: HashMap<u64, (u64, u64)> = HashMap::new();
                for step in 0..(1200 / p as u64).max(40) {
                    let ctr = t.evict_ctr;
                    random_step(&mut t, &mut rng, &mut held, (p, capacity as u64, step));
                    assert_eq!(t.evict_ctr, ctr + 2 * p as u64);

                    let mut expect: Vec<(u32, u32, u64)> = held
                        .iter()
                        .map(|(&a, &(l, v))| (a as u32, l as u32, v))
                        .collect();
                    expect.sort_unstable();
                    assert_eq!(
                        blocks_on_their_paths(&t, layout),
                        expect,
                        "p {p}, step {step}"
                    );

                    for sl in t.stash.iter().filter(|sl| sl.addr != EMPTY) {
                        leftovers_seen += 1;
                        for x in ctr..ctr + 2 * p as u64 {
                            let path = reverse_bits(x, (h - 1) as u32);
                            for d in 0..=meet(h, leaf_of(&t, sl), path) {
                                let idx = (path >> (h - 1 - d)) as usize;
                                let base = layout.pos(h, d, idx) * bucket;
                                assert!(
                                    t.store[base..base + bucket].iter().all(|b| b.addr != EMPTY),
                                    "p {p}, step {step}: {sl:?} fits depth {d} of path {path}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(leftovers_seen > 0, "no config ever left a block behind");
    }

    /// A tree of every height from 1 to 12 and steps of 1, 2, 8 and 32
    /// walks, real and dummy: the metered touches are the closed form
    /// `2b·p·h + 2b·Σ_{d<h} min(2^d, 2p) + 2·stash`.
    #[test]
    fn metered_touches_match_the_formula_at_every_height() {
        let cfg = OramConfig::default();
        for h in 1..=12 {
            for p in [1usize, 2, 8, 32] {
                let mut t = TreeOram::new(cfg.bucket << (h - 1), cfg);
                assert_eq!(t.height, h);
                let leaves = t.leaves() as u32;
                let c = SeqCtx::new();
                let addrs: Vec<(u32, u32)> = (0..p as u32).map(|a| (a, 0)).collect();
                t.step(&c, &addrs, |_, added| {
                    for (a, slot) in added.iter_mut().enumerate() {
                        *slot = OramSlot {
                            addr: a as u32,
                            leaf: a as u32 % leaves,
                            val: 5 + a as u64,
                        };
                    }
                });
                let reads: Vec<(u32, u32)> = (0..p as u32).map(|a| (a, a % leaves)).collect();
                let (_, real) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                    t.step(c, &reads, |found, added| {
                        for (a, (&got, slot)) in found.iter().zip(added.iter_mut()).enumerate() {
                            assert_eq!(got, (true, 5 + a as u64), "h {h}, p {p}");
                            *slot = OramSlot {
                                addr: a as u32,
                                leaf: leaves - 1,
                                val: got.1,
                            };
                        }
                    });
                });
                let dummies: Vec<(u32, u32)> = (0..p as u32).map(|_| (DUMMY, leaves - 1)).collect();
                let (_, dummy) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                    t.step(c, &dummies, |_, _| {});
                });
                assert_eq!(real.trace_len, touches(h, p, cfg) as u64, "h {h}, p {p}");
                assert_eq!(dummy.trace_len, real.trace_len, "h {h}, p {p}");
                assert_eq!(
                    t.access(&c, 0, leaves as u64 - 1, 0, |old| old.unwrap_or(0)),
                    Some(5)
                );
            }
        }
        assert_eq!(touches(11, 1, cfg), 30 * 11 + 182);
        // The union of 2p paths: the top log₂ 2p levels in full, 2p tails.
        assert_eq!(touches(11, 8, cfg), 10 * 8 * 11 + 10 * (15 + 16 * 7) + 192);
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
            let want = touches(full.height, 1, cfg) as u64;

            // Hit in the stash (starved tree only), hit in a bucket, absent —
            // each picked from the tree as the access before left it.
            for case in ["stash", "bucket", "absent"] {
                let (addr, leaf) = match (case, waiting(&full)) {
                    ("stash", Some(sl)) => (sl.addr as u64, leaf_of(&full, &sl) as u64),
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
