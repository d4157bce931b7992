//! The batched §F merge path: one epoch's operations are resolved against
//! the resident table with the paper's sort-and-scan routing pattern
//! (Ramachandran & Shi §F; cf. [`obliv_core::send_receive`]), evaluated on
//! the **tag-sort fast path** (DESIGN.md §10): every element is a packed
//! 32-byte [`TagCell`] — a 16-byte `key ‖ seq` tag and a 16-byte payload
//! lane — instead of the ~96-byte `Slot<MergeVal>` record a naive
//! implementation would push through every comparator layer.
//!
//! Pipeline, all fixed-pattern given the public shape `(cap, |pending|,
//! |batch|)`:
//!
//! 1. the caller packs the pending-log ops and the padded batch into cells
//!    keyed `(key ‖ seq)` and sorts them ([`sorted_ops`]; a sharded epoch
//!    sorts its batch once for all its shards) — the only full sort left,
//!    over the op class `p + b = |pending| + |batch|`, both public, and
//!    padded to nothing;
//! 2. lay out `[sorted ops descending | table ascending]` over the
//!    shard's `m = cap + p + b`-cell merge array ([`Lanes`]) in one
//!    parallel pass — bitonic, because the resident table is
//!    key-sorted by the previous rebuild — and run **one bitonic merge**
//!    (`O(m log m)` comparators, not an `O(m log² m)` sort; `m` need not be
//!    a power of two, [`Engine::merge_cells`]) to group each key's history
//!    contiguously, the record (seq 0) leading its run;
//! 3. one walk over the merged array ([`map_scan`]: an exclusive scan
//!    whose leaves are recomputed from the cells in both sweeps, so no
//!    element lane is stored) carries the last-writer-wins state, the
//!    batch answers so far and the candidates so far. A cell ends its
//!    key's run where the next cell's key differs — the map reads it — so
//!    no boundary lane is stored either;
//! 4. its down-sweep writes three lanes at every position: the op's
//!    answer (the state its key held just before it, sequential
//!    within-epoch semantics) over the merged cell itself, the record a
//!    run's last cell leaves if the run's final state is `SET` in a
//!    *candidates* lane, and one packed rank word — the answers before the
//!    position in the low half, the candidates in the high half;
//! 5. rebuild: the candidates lane is key-ordered with fillers between
//!    its records, and no record moves left by more than `2(p + b)` (fillers
//!    trail every real, and a real op leaves at most two non-candidates
//!    ahead of a later record: itself and the record it supersedes or
//!    clears), so one [`compact_bounded`] by that shift writes the
//!    resident table at its new public capacity, fillers past `m` when a
//!    full table grows beyond the merge array;
//! 6. results: the answers number at most `|batch|`, so one
//!    [`compact_bounded`] by that count brings them, in key order, into a
//!    `|batch|`-cell window — the front of the spent candidates lane. The
//!    caller restores submission order: a single shard sorts its window
//!    for the fixed-prefix readout ([`crate::shard::Shard::execute`]); a
//!    sharded epoch hands every window over unsorted and sorts once, in
//!    the gather ([`crate::router::gather_results`]).
//!
//! Relative to the record-sort pipeline this replaces three full wide-slot
//! sorts with one small sort + one merge + one walk + two compactions of
//! `log` of their bounds levels over dense cells — several-fold less work
//! and far less data through the cache (the `store_bench`/`bench_diff`
//! rows gate both).
//!
//! Because every comparator network, compaction swap level, walk and
//! parallel map above touches addresses that depend only on the public
//! shape, two epochs with the same shape but different keys/values/op-kinds
//! generate identical traces (`tests/store.rs`, `obliv_check`).
//!
//! # The read-only consult
//!
//! [`consult`] answers a batch of point reads against tables it must not
//! change — the pipelined front end's read-your-writes path — and is §F's
//! send-receive in its plain form: sort and scan *the requests*, leave the
//! table where it is. Same cells, same LWW walk, three steps: collapse
//! the un-merged log onto the queries (one sort over the log-and-query
//! class), probe every shard's table with them (one merge, one walk and
//! one compaction per shard, in parallel), and combine the per-shard
//! answers position by position. Nothing is rebuilt and nothing but the
//! query window is ever sorted; see DESIGN.md §11.

use crate::op::{kind, FlatOp, StoreStats};
use fj::{grain_for, par_chunks_mut, par_reduce, Ctx};
use metrics::{par_fill, par_tracked_chunks, Lane, ScratchGuard, ScratchPool, Tracked};
use obliv_core::{
    compact_bounded, map_scan, select_u128, select_u64, Bound, Engine, Ranks, TagCell,
};

/// The sorting engine of every store path (the ORAM's conflict resolution
/// included).
pub(crate) const ENGINE: Engine = Engine::BitonicRec;

/// Last-writer-wins transformer: what an element does to its key's value
/// state. `KEEP` (gets, aggregates, padding) is the monoid identity. The
/// three are numbered like the client ops that cause them, so a composed
/// state is itself an op cell — the consult hands a query its log verdict
/// that way.
const T_KEEP: u8 = kind::GET;
const T_SET: u8 = kind::PUT;
const T_CLEAR: u8 = kind::DELETE;

// --- Cell packing -----------------------------------------------------------
//
// The store has two cell layouts (DESIGN.md §10).
//
// Op / record cell: tag = `(key << 64) | seq`, aux = `(kind << 64) | val`.
// An op's seq is its 1-based position in `pending ++ batch`; a resident
// record is the cell with seq 0 and aux = `val`, and an absent table slot
// is a canonical filler (`TagCell::filler()`: tag `u128::MAX`, aux 0). A
// real tag can never reach the all-ones pattern: seq ≤ |pending| + |batch|
// ≪ 2^64. Sorting by the tag groups runs by key with the record first and
// ops in submission order — and keeps every comparison strict, so the
// networks need no stability argument. The resident table is a `Vec` of
// these cells, and a snapshot file holds them byte for byte.
//
// Answer cell: tag = slot in the batch, aux = `(kind << 72) | (found << 64)
// | prev_val` ([`answer_cell`]). Every epoch path answers in it and
// `store::decode` is its one reader.

#[inline]
fn op_cell(key: u64, seq: u64, op_kind: u8, val: u64) -> TagCell {
    TagCell::new(
        ((key as u128) << 64) | seq as u128,
        ((op_kind as u128) << 64) | val as u128,
    )
}

/// The resident record `key → val`.
#[inline]
pub(crate) fn record_cell(key: u64, val: u64) -> TagCell {
    TagCell::new((key as u128) << 64, val as u128)
}

#[inline]
pub(crate) fn cell_key(cell: &TagCell) -> u64 {
    (cell.tag >> 64) as u64
}

#[inline]
pub(crate) fn cell_kind(cell: &TagCell) -> u8 {
    (cell.aux >> 64) as u8
}

#[inline]
pub(crate) fn cell_val(cell: &TagCell) -> u64 {
    cell.aux as u64
}

#[inline]
pub(crate) fn cell_seq(cell: &TagCell) -> u64 {
    cell.tag as u64
}

/// A value state, or what an element does to one: `(kind, val)` with a
/// transformer kind, `val` meaningful under `SET`.
type State = (u8, u64);

/// Transformer composition: the right transformer wins unless it is
/// `KEEP`. Branchless: transformer kinds are secret cell contents, so the
/// rule goes through word selects, not control flow (DESIGN.md §14).
#[inline]
fn compose(a: State, b: State) -> State {
    let keep = b.0 == T_KEEP;
    (
        select_u64(keep, b.0 as u64, a.0 as u64) as u8,
        select_u64(keep, b.1, a.1),
    )
}

#[inline]
fn transformer_of(cell: &TagCell) -> State {
    // Branchless: filler-ness, record-ness and op kind are secret; fold
    // them through word selects. A record (seq 0) sets its key's state.
    let real = !cell.is_filler();
    let k = cell_kind(cell);
    let is_set = real & ((cell_seq(cell) == 0) | (k == kind::PUT));
    let is_clear = real & (k == kind::DELETE);
    (
        select_u64(
            is_set,
            select_u64(is_clear, T_KEEP as u64, T_CLEAR as u64),
            T_SET as u64,
        ) as u8,
        select_u64(is_set, 0, cell_val(cell)),
    )
}

/// The element of the one walk ([`map_scan`]) over a key-sorted lane, for
/// a range of its positions. `ends` says whether the range's last position
/// ends its key's run (the next cell's key or filler-ness differs, or
/// there is no next cell), `inner` whether any earlier position in it
/// does. `kind`/`val` is the state composed since the last run start inside
/// the range (since its first position if there is none); `count` the
/// cells the caller counts; `cands[x]` the candidates it leaves — a run's
/// last position leaves one iff the run's final state is `SET` — when the
/// state entering the range is `SET` (`x = 1`) or not (`x = 0`). Both
/// counts keep the combine a monoid: the first run's verdict depends on
/// the entering state only through that bit.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    val: u64,
    cands: [u32; 2],
    count: u32,
    kind: u8,
    ends: bool,
    inner: bool,
}

/// Whether two cells belong to different runs.
#[inline]
fn differ(a: &TagCell, b: &TagCell) -> bool {
    (a.is_filler() != b.is_filler()) | (cell_key(a) != cell_key(b))
}

/// The walk's element of position `i` of the key-sorted lane `t`, counted
/// iff `counted(t[i])`, and the cell itself. `i` ends its run where the
/// next cell differs or `t` does: [`map_scan`] maps a position whose
/// successor lies in another piece before it splits them, so only the
/// whole lane's last position sees `t` end.
#[inline]
fn run_at<C: Ctx>(
    c: &C,
    t: &Tracked<'_, TagCell>,
    i: usize,
    counted: &impl Fn(&TagCell) -> bool,
) -> (Run, TagCell) {
    let s = t.get(c, i);
    let ends = if i + 1 == t.len() {
        true
    } else {
        let next = t.get(c, i + 1);
        c.work(1);
        differ(&s, &next)
    };
    let (kind, val) = transformer_of(&s);
    // A run's last cell leaves a candidate if it sets, or keeps a `SET`.
    let sets = ends & (kind == T_SET);
    let keeps = ends & (kind == T_KEEP);
    let run = Run {
        val,
        cands: [sets as u32, (sets | keeps) as u32],
        count: counted(&s) as u32,
        kind,
        ends,
        inner: false,
    };
    (run, s)
}

#[inline]
fn run_combine(a: Run, b: Run) -> Run {
    // `a`'s state carries into `b` unless a run starts at or inside `b`.
    let fresh = a.ends | b.inner;
    let carry = !fresh & (b.kind == T_KEEP);
    // The state leaving `a` is `SET` if `a` set it, or kept whatever
    // entered it — the second only for `x = 1`.
    let set = a.kind == T_SET;
    let passes = !a.inner & (a.kind == T_KEEP);
    let into_b = |x: bool| {
        let set_in = !a.ends & (set | (passes & x));
        select_u64(set_in, b.cands[0] as u64, b.cands[1] as u64) as u32
    };
    Run {
        val: select_u64(carry, b.val, a.val),
        cands: [a.cands[0] + into_b(false), a.cands[1] + into_b(true)],
        count: a.count + b.count,
        kind: select_u64(carry, b.kind as u64, a.kind as u64) as u8,
        ends: b.ends,
        inner: a.inner | a.ends | b.inner,
    }
}

/// The state position `i`'s run has reached before it, given the walk's
/// element of `[0, i)`: `KEEP` where `i` heads its run.
#[inline]
fn entering(i: usize, prefix: &Run) -> State {
    let head = (i == 0) | prefix.ends;
    (
        select_u64(head, prefix.kind as u64, T_KEEP as u64) as u8,
        select_u64(head, prefix.val, 0),
    )
}

/// The answer to the op in batch slot `slot`: its kind, and the value its
/// key held just before it ran.
#[inline]
pub(crate) fn answer_cell(slot: u64, op_kind: u8, found: bool, val: u64) -> TagCell {
    TagCell::new(
        slot as u128,
        ((op_kind as u128) << 72) | ((found as u128) << 64) | val as u128,
    )
}

/// Sort the answer window `t` — one cell per slot of a padded class `b =
/// |t|`, answers tagged by slot and fillers in any order — back to slot
/// order with one `b`-cell sort, and read it out as answer words: the
/// payload lane of slot `j`'s answer cell at `j` (what [`decode`] reads).
/// The readout covers the whole padded class — reading only the real
/// answers would leak their count within the class — and moves the payload
/// lanes only.
///
/// [`decode`]: crate::store::decode
pub(crate) fn read_answers<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, TagCell>,
) -> Vec<u128> {
    ENGINE.sort_cells(c, scratch, t);
    metrics::par_collect(c, t.len(), &|c, j| {
        let s = t.get(c, j);
        debug_assert!(s.is_filler() || s.tag == j as u128);
        s.aux
    })
}

/// The three `m`-cell lanes of a merge epoch, `m = cap + p + b`: the merge
/// array, the candidates lane and the packed rank lane. A shard owns its
/// lanes and keeps them from epoch to epoch; they are resized, and only
/// then filled, when the public `m` changes. No epoch fills them: the
/// layout writes every cell of the merge array, and the walk every
/// position of the other two, before anything reads them (DESIGN.md §7).
#[derive(Default)]
pub(crate) struct Lanes {
    cells: Lane<TagCell>,
    cand: Lane<TagCell>,
    rank: Lane<u64>,
}

impl Lanes {
    /// The merge array, the candidates lane and the rank lane, `m` long.
    fn at(&mut self, m: usize) -> (&mut [TagCell], &mut [TagCell], &mut [u64]) {
        (
            self.cells.fit(m, TagCell::filler()),
            self.cand.fit(m, TagCell::filler()),
            self.rank.fit(m, 0),
        )
    }

    /// The lanes as they stand, for a test to dirty them.
    #[cfg(test)]
    pub(crate) fn raw(&mut self) -> (&mut [TagCell], &mut [TagCell], &mut [u64]) {
        (&mut self.cells, &mut self.cand, &mut self.rank)
    }
}

/// Run one merge epoch on the shard's `lanes`. `table` holds the resident
/// records sorted by key (padded, public length) and is rebuilt at public
/// capacity `cap_new`. `ops` holds `p` pending ops and a padded batch of
/// `b` as [`sorted_ops`] leaves them, `p + b` cells; the lease goes back
/// once they are laid into the merge array. `readout` reads the `b`-cell
/// answer window — answer cells tagged by slot, in key order, fillers
/// last — and may sort it in place; what it returns comes back with the
/// refreshed analytics snapshot.
/// `enforce_live_bound` — a public config bit, set iff a shrink schedule
/// is configured — checks the candidate count before the rebuild.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_epoch<C: Ctx, R>(
    c: &C,
    scratch: &ScratchPool,
    table: &mut Vec<TagCell>,
    lanes: &mut Lanes,
    cap_new: usize,
    ops: ScratchGuard<'_, TagCell>,
    (p, b): (usize, usize),
    enforce_live_bound: bool,
    readout: impl FnOnce(&mut Tracked<'_, TagCell>) -> R,
) -> (R, StoreStats) {
    let cap = table.len();
    let class = p + b;
    // The merge array is the table and the op class side by side: no
    // power-of-two padding (the merge and the compactions take any length).
    let m = cap + class;
    assert!(m < 1 << 32, "ranks are packed two to a word");
    let (cells, cand, rank) = lanes.at(m);

    // 2. Merged array: the resident table is key-sorted (reals ascending,
    //    fillers last) by the previous rebuild, so one merge butterfly
    //    replaces the full sort of the concatenation.
    lay_out(c, cells, table, &ops[..class]);
    // The op cells live on in `cells`; their lease goes back before the
    // merge draws its own.
    drop(ops);
    let mut t = Tracked::new(c, cells);
    ENGINE.merge_cells(c, scratch, &mut t);

    // 3–4. One walk over the key-sorted array writes three lanes at every
    //    position `i`, unconditionally: the answer of a batch op (the
    //    state its key held just before it) over the merged cell itself;
    //    the record a run's last cell leaves if the run's final state is
    //    `SET` in the candidates lane; and the answers (low half) and
    //    candidates (high half) before `i` in one packed rank lane.
    let mut cand = Tracked::new(c, cand);
    let mut rank = Tracked::new(c, rank);
    let is_batch_op = |s: &TagCell| !s.is_filler() & (cell_seq(s) > p as u64);
    map_scan(
        c,
        scratch,
        (t.borrow_mut(), cand.borrow_mut(), rank.borrow_mut()),
        Run::default(),
        &run_combine,
        &|c, (t, _, _), k| run_at(c, t, k, &is_batch_op),
        &|c, (t, cand, rank), k, i, prefix, own, s| {
            let pre = entering(i, &prefix);
            let found = pre.0 == T_SET;
            // The batch slot is computed unconditionally (wrapping: table
            // records carry seq 0) and selected away for non-batch
            // positions.
            let slot = cell_seq(&s).wrapping_sub(1 + p as u64);
            let mut result = answer_cell(slot, cell_kind(&s), found, select_u64(found, 0, pre.1));
            result.tag = select_u128(is_batch_op(&s), u128::MAX, result.tag);
            t.set(c, k, result);
            let (kind, val) = compose(pre, (own.kind, own.val));
            let leaves = own.ends & (kind == T_SET);
            let record = record_cell(cell_key(&s), val);
            let candidate = TagCell {
                tag: select_u128(leaves, u128::MAX, record.tag),
                aux: select_u128(leaves, 0, record.aux),
            };
            cand.set(c, k, candidate);
            rank.set(c, k, prefix.count as u64 | (prefix.cands[0] as u64) << 32);
        },
    );

    // Guard the rebuild: the surviving final states must fit the new
    // public capacity. Without a shrink schedule this holds by
    // construction (`cap_new` ≥ the grown live bound); with one it is the
    // client's declared-bound contract, and violating it must fail loudly
    // instead of silently dropping records. The count is the walk's: two
    // reads at the public position `m − 1`, gated only by the public
    // config bit.
    if enforce_live_bound {
        let live = (rank.get(c, m - 1) >> 32) + !cand.get(c, m - 1).is_filler() as u64;
        assert!(
            live as usize <= cap_new,
            "{live} live records exceed the public capacity bound {cap_new} \
             (shrink-policy contract violated)"
        );
    }

    // 5. Rebuild: the candidates lane is key-ordered records with fillers
    //    between them. A real op leaves at most two non-candidates ahead of
    //    a record (itself, and a record it supersedes or clears) and
    //    fillers trail every real, so no candidate moves left by more than
    //    `2(p + b)`: one compaction bounded by that shift writes the
    //    new table at its public capacity — fillers past `m` when a full
    //    table grows beyond the merge array.
    table.resize(cap_new, TagCell::filler());
    let stats = {
        let mut tt = Tracked::new(c, table.as_mut_slice());
        let ranks = Ranks::high(&rank);
        compact_bounded(c, &mut cand, ranks, Bound::Shift(2 * class), &mut tt);
        // Refresh the analytics snapshot with one reduce over the new table.
        par_reduce(
            c,
            0,
            cap_new,
            grain_for(c),
            &|c, i| {
                let r = tt.get(c, i);
                let present = !r.is_filler();
                (present as u64, select_u64(present, 0, cell_val(&r)))
            },
            // One overflow policy for both fields (see `StoreStats`):
            // wrap, exactly like the cross-shard fold.
            &|a, b| (a.0.wrapping_add(b.0), a.1.wrapping_add(b.1)),
        )
        .map(|(count, sum)| StoreStats { count, sum })
        .unwrap_or_default()
    };

    // 6. Results: at most `b` answers, so one compaction bounded by the
    //    batch brings them, still in key order, to a `b`-cell window — the
    //    front of the spent candidates lane — for the caller to read.
    let mut win = cand.range(0, b);
    compact_bounded(c, &mut t, Ranks::low(&rank), Bound::Count(b), &mut win);
    (readout(&mut win), stats)
}

/// Pack `first ++ second` into cells keyed `(key ‖ 1-based position)`, one
/// a position, and sort them. Dummies become fillers — every position is
/// written exactly once regardless of contents.
pub(crate) fn sorted_ops<'s, C: Ctx>(
    c: &C,
    scratch: &'s ScratchPool,
    first: &[FlatOp],
    second: &[FlatOp],
) -> ScratchGuard<'s, TagCell> {
    let len = first.len() + second.len();
    let mut ops = scratch.lease(len, TagCell::filler());
    for (j, (cell, f)) in ops.iter_mut().zip(first.iter().chain(second)).enumerate() {
        *cell = if f.kind == kind::DUMMY {
            TagCell::filler()
        } else {
            op_cell(f.key, 1 + j as u64, f.kind, f.val)
        };
    }
    c.charge_par(len as u64);
    ENGINE.sort_cells(c, scratch, &mut Tracked::new(c, &mut ops));
    ops
}

/// Host leaves of [`lay_out`]: 128 KiB of cells each.
const LAYOUT_GRAIN: usize = 4096;

/// Write `[lane reversed | table]` over `cells`, `|lane| + |table|` of
/// them. `lane` is sorted with fillers last and `table` is key-sorted with
/// its records leading, so the result — fillers, descending ops, ascending
/// records, fillers — is bitonic: one [`Engine::merge_cells`] sorts it,
/// each record (seq 0) heading its key's run. One parallel pass writes
/// every cell, whatever `cells` held. The meter charges it as the parallel
/// map it is and runs it as one leaf, so the pass forks on hosts only.
fn lay_out<C: Ctx>(c: &C, cells: &mut [TagCell], table: &[TagCell], lane: &[TagCell]) {
    let (m, class) = (cells.len(), lane.len());
    assert_eq!(m, class + table.len(), "the layout covers lane and table");
    let chunks = match c.is_metered() {
        true => 1,
        false => m.div_ceil(LAYOUT_GRAIN),
    };
    par_chunks_mut(c, cells, chunks, &|_, j, chunk| {
        // Chunk `j` starts at `j·m/chunks`; position `i` holds
        // `lane[class − 1 − i]` below `class`, `table[i − class]` above.
        let lo = j * m / chunks;
        let split = class.saturating_sub(lo).min(chunk.len());
        let (ops, records) = chunk.split_at_mut(split);
        let from = class.saturating_sub(lo + split);
        for (cell, op) in ops.iter_mut().zip(lane[from..from + split].iter().rev()) {
            *cell = *op;
        }
        let first = (lo + split).saturating_sub(class);
        records.copy_from_slice(&table[first..first + records.len()]);
    });
    c.charge_par(m as u64);
}

/// Over a key-sorted lane `t`: one walk gives every cell the value state
/// its key's run has reached *at* it and rewrites it in place as
/// `fix(cell, kind, val)` of that state; `rank[i]` becomes the number of
/// cells before `i` that `keep` holds for. `fix` and `keep` must be
/// branch-free.
fn resolve_runs<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, TagCell>,
    rank: &mut Tracked<'_, u64>,
    keep: &(impl Fn(&TagCell) -> bool + Sync),
    fix: &(impl Fn(TagCell, u8, u64) -> TagCell + Sync),
) {
    map_scan(
        c,
        scratch,
        (t.borrow_mut(), rank.borrow_mut()),
        Run::default(),
        &run_combine,
        &|c, (t, _), k| run_at(c, t, k, keep),
        &|c, (t, rank), k, i, prefix, own, s| {
            let (kind, val) = compose(entering(i, &prefix), (own.kind, own.val));
            t.set(c, k, fix(s, kind, val));
            rank.set(c, k, prefix.count as u64);
        },
    );
}

/// Answer `queries` (a padded `Get` batch of public class `q`, its real
/// slots leading) against `tables` — one key-sorted table per shard, keys
/// unique across them — as the tables will read once `log` (every
/// accepted but un-merged op, oldest first, public length) has been
/// applied, in one answer cell per query slot. Read-only: nothing is
/// rebuilt.
///
/// 1. `log ++ queries` are sorted as cells over their own class and one
///    walk hands every query its **log verdict** — `KEEP`, `SET v` or
///    `CLEAR`, written back as the `Get`, `Put` or `Delete` the log
///    amounts to for that key — and ranks the queries. One compaction
///    bounded by `q` brings the `q`-cell window of key-sorted queries out.
/// 2. Per shard, in parallel: `[queries descending | table ascending]` is
///    bitonic, so **one merge** groups each query behind
///    its record, one walk composes table state and verdict into the
///    query's answer, and one compaction bounded by `q` writes the window.
/// 3. Every window lists the same queries in the same order. A key lives
///    in at most one table and a `SET`/`CLEAR` verdict reads the same
///    everywhere, so `or`-ing the windows position by position is the
///    answer; one `q`-cell sort restores submission order.
///
/// Trace: a function of the table capacities, `|log|` and `q`.
pub(crate) fn consult<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    tables: &[&[TagCell]],
    log: &[FlatOp],
    queries: &[FlatOp],
) -> Vec<u128> {
    let l = log.len() as u64;
    let q = queries.len();
    debug_assert!(q.is_power_of_two());
    let mut window_store = scratch.lease(q, TagCell::filler());
    let mut window = Tracked::new(c, &mut window_store);
    {
        // 1. Verdicts. Queries follow the whole log in `seq`, so the state
        //    a query's run has reached at it is the log's net effect on
        //    its key.
        let mut ops = sorted_ops(c, scratch, log, queries);
        let mut rank_store = scratch.lease(ops.len(), 0u64);
        let mut asked = Tracked::new(c, &mut ops);
        let mut rank = Tracked::new(c, &mut rank_store);
        let is_query = |s: &TagCell| !s.is_filler() & (cell_seq(s) > l);
        resolve_runs(
            c,
            scratch,
            &mut asked,
            &mut rank,
            &is_query,
            &|s, verdict, val| TagCell {
                tag: select_u128(is_query(&s), u128::MAX, s.tag),
                aux: ((verdict as u128) << 64) | val as u128,
            },
        );
        let ranks = Ranks::of(&rank);
        compact_bounded(c, &mut asked, ranks, Bound::Count(q), &mut window);
    }

    {
        // 2. One probe per shard, each into its own window of `wins`.
        let asked = window.raw();
        let mut wins_store = scratch.lease(tables.len() * q, TagCell::filler());
        let mut wins = Tracked::new(c, &mut wins_store);
        par_tracked_chunks(c, wins.borrow_mut(), q, &|c, s, mut win| {
            let mut cells = scratch.lease(q + tables[s].len(), TagCell::filler());
            lay_out(c, &mut cells, tables[s], asked);
            let mut rank_store = scratch.lease(cells.len(), 0u64);
            let mut t = Tracked::new(c, &mut cells);
            let mut rank = Tracked::new(c, &mut rank_store);
            ENGINE.merge_cells(c, scratch, &mut t);
            // Records carry seq 0; a query keeps its tag and learns
            // whether its key ends up set, and to what: the answer
            // payload of a `Get` (kind 0).
            let is_query = |s: &TagCell| !s.is_filler() & (cell_seq(s) != 0);
            resolve_runs(
                c,
                scratch,
                &mut t,
                &mut rank,
                &is_query,
                &|s, state, val| {
                    let found = state == T_SET;
                    TagCell {
                        tag: select_u128(is_query(&s), u128::MAX, s.tag),
                        aux: ((found as u128) << 64) | select_u64(found, 0, val) as u128,
                    }
                },
            );
            compact_bounded(c, &mut t, Ranks::of(&rank), Bound::Count(q), &mut win);
        });

        // 3. Combine: each answer goes back where its question stood,
        //    tagged by submission index now.
        par_fill(c, &mut window, &|c, j| {
            let mut cell = wins.get(c, j);
            for s in 1..tables.len() {
                cell.aux |= wins.get(c, s * q + j).aux;
            }
            let index = cell_seq(&cell).wrapping_sub(1 + l);
            cell.tag = select_u128(cell.is_filler(), index as u128, u128::MAX);
            cell
        });
    }
    // One small sort restores submission order.
    read_answers(c, scratch, &mut window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpResult};
    use crate::store::decode;
    use fj::SeqCtx;
    use metrics::{measure, CacheConfig, TraceMode};

    /// One merge epoch as a 1-shard store runs it: sort `pending ++
    /// batch`, merge, read the answers out by batch slot.
    fn epoch(
        table: &mut Vec<TagCell>,
        cap_new: usize,
        pending: &[FlatOp],
        batch: &[FlatOp],
    ) -> (Vec<u128>, StoreStats) {
        let c = SeqCtx::new();
        let scratch = ScratchPool::new();
        let ops = sorted_ops(&c, &scratch, pending, batch);
        let shape = (pending.len(), batch.len());
        merge_epoch(
            &c,
            &scratch,
            table,
            &mut Lanes::default(),
            cap_new,
            ops,
            shape,
            true,
            |t| read_answers(&c, &scratch, t),
        )
    }

    fn run(
        table: &mut Vec<TagCell>,
        cap_new: usize,
        pending: &[FlatOp],
        ops: &[Op],
        pad_to: usize,
    ) -> Vec<OpResult> {
        let mut batch: Vec<FlatOp> = ops.iter().map(FlatOp::of).collect();
        batch.resize(pad_to, FlatOp::dummy());
        let (answers, _) = epoch(table, cap_new, pending, &batch);
        assert_eq!(answers.len(), pad_to, "one answer per padded slot");
        answers[..ops.len()]
            .iter()
            .map(|&a| decode(a, StoreStats::default()))
            .collect()
    }

    fn live(table: &[TagCell]) -> Vec<(u64, u64)> {
        table
            .iter()
            .filter(|r| !r.is_filler())
            .map(|r| (cell_key(r), cell_val(r)))
            .collect()
    }

    #[test]
    fn put_get_delete_sequential_semantics() {
        let mut table = vec![TagCell::filler(); 8];
        let ops = vec![
            Op::Put { key: 5, val: 50 },
            Op::Get { key: 5 },
            Op::Put { key: 5, val: 51 },
            Op::Get { key: 5 },
            Op::Delete { key: 5 },
            Op::Get { key: 5 },
        ];
        let res = run(&mut table, 8, &[], &ops, 8);
        assert_eq!(
            res,
            vec![
                OpResult::Value(None),
                OpResult::Value(Some(50)),
                OpResult::Value(Some(50)),
                OpResult::Value(Some(51)),
                OpResult::Value(Some(51)),
                OpResult::Value(None),
            ]
        );
        assert_eq!(live(&table), vec![]);
    }

    #[test]
    fn table_records_head_their_runs() {
        let mut table = vec![
            record_cell(3, 30),
            record_cell(9, 90),
            TagCell::filler(),
            TagCell::filler(),
        ];
        let ops = vec![
            Op::Get { key: 3 },
            Op::Delete { key: 9 },
            Op::Put { key: 7, val: 70 },
            Op::Get { key: 9 },
        ];
        let res = run(&mut table, 8, &[], &ops, 8);
        assert_eq!(
            res,
            vec![
                OpResult::Value(Some(30)),
                OpResult::Value(Some(90)),
                OpResult::Value(None),
                OpResult::Value(None),
            ]
        );
        assert_eq!(live(&table), vec![(3, 30), (7, 70)]);
    }

    #[test]
    fn pending_ops_apply_before_batch() {
        let mut table = vec![TagCell::filler(); 8];
        let pending = vec![
            FlatOp {
                kind: kind::PUT,
                key: 2,
                val: 20,
            },
            FlatOp::dummy(),
        ];
        let ops = vec![Op::Get { key: 2 }, Op::Delete { key: 2 }];
        let res = run(&mut table, 8, &pending, &ops, 8);
        assert_eq!(
            res,
            vec![OpResult::Value(Some(20)), OpResult::Value(Some(20))]
        );
        assert_eq!(live(&table), vec![]);
    }

    #[test]
    fn stats_reflect_new_table_and_aggregates_see_snapshot() {
        let mut table = vec![TagCell::filler(); 8];
        let batch: Vec<FlatOp> = [
            Op::Put { key: 1, val: 10 },
            Op::Put { key: 2, val: 5 },
            Op::Aggregate,
        ]
        .iter()
        .map(FlatOp::of)
        .chain(std::iter::repeat_with(FlatOp::dummy))
        .take(8)
        .collect();
        let snapshot = StoreStats { count: 9, sum: 99 };
        let (res, stats) = epoch(&mut table, 8, &[], &batch);
        // Aggregates answer from the pre-epoch snapshot...
        assert_eq!(decode(res[2], snapshot), OpResult::Stats(snapshot));
        // ...while the refreshed snapshot covers the new table.
        assert_eq!(stats, StoreStats { count: 2, sum: 15 });
    }

    #[test]
    fn capacity_growth_keeps_records() {
        let mut table = vec![record_cell(100, 1)];
        table.resize(8, TagCell::filler());
        let ops: Vec<Op> = (0..12).map(|i| Op::Put { key: i, val: i }).collect();
        let res = run(&mut table, 16, &[], &ops, 16);
        assert!(res.iter().all(|r| *r == OpResult::Value(None)));
        assert_eq!(table.len(), 16);
        let mut want: Vec<(u64, u64)> = (0..12).map(|i| (i, i)).collect();
        want.push((100, 1));
        assert_eq!(live(&table), want);
    }

    #[test]
    fn rebuilt_table_is_key_sorted_with_reals_leading() {
        // The bitonic-merge step relies on the rebuild invariant: records
        // (seq 0, bare value) ascending by key, canonical fillers after.
        let mut table = vec![TagCell::filler(); 8];
        let ops: Vec<Op> = [9u64, 2, 7, 4]
            .iter()
            .map(|&k| Op::Put {
                key: k,
                val: k * 10,
            })
            .collect();
        run(&mut table, 8, &[], &ops, 8);
        let first_absent = table.iter().position(TagCell::is_filler).unwrap_or(8);
        assert_eq!(first_absent, 4);
        assert!(table[first_absent..]
            .iter()
            .all(|r| *r == TagCell::filler()));
        assert!(table[..first_absent]
            .iter()
            .all(|r| *r == record_cell(cell_key(r), cell_val(r))));
        assert!(table[..first_absent]
            .windows(2)
            .all(|w| w[0].tag < w[1].tag));
    }

    #[test]
    fn consult_composes_table_state_and_log_verdict_across_tables() {
        // Two shard tables with disjoint keys; the log overwrites one
        // record, deletes another and creates a key neither table holds.
        let c = SeqCtx::new();
        let scratch = ScratchPool::new();
        let rec = record_cell;
        let mut left = vec![rec(2, 20), rec(4, 40), rec(u64::MAX, 9)];
        left.resize(8, TagCell::filler());
        let mut right = vec![rec(1, 10), rec(3, 30)];
        right.resize(8, TagCell::filler());
        let before = (left.clone(), right.clone());
        let mut log: Vec<FlatOp> = [
            Op::Put { key: 4, val: 41 },
            Op::Delete { key: 3 },
            Op::Put { key: 7, val: 70 },
            Op::Get { key: 2 },
            Op::Put { key: 4, val: 42 },
        ]
        .iter()
        .map(FlatOp::of)
        .collect();
        log.resize(8, FlatOp::dummy());
        let keys = [7u64, 4, 3, 2, 4, 5, u64::MAX, 1, 0];
        let mut queries: Vec<FlatOp> = keys
            .iter()
            .map(|&key| FlatOp::of(&Op::Get { key }))
            .collect();
        queries.resize(16, FlatOp::dummy());
        let got: Vec<Option<u64>> = consult(&c, &scratch, &[&left, &right], &log, &queries)
            [..keys.len()]
            .iter()
            .map(|&a| decode(a, StoreStats::default()).value())
            .collect();
        assert_eq!(
            got,
            vec![
                Some(70), // SET verdict, in no table
                Some(42), // SET verdict over a record: last write wins
                None,     // CLEAR verdict over a record
                Some(20), // KEEP verdict (a logged get): the left table's record
                Some(42), // duplicate query
                None,     // absent everywhere
                Some(9),  // key u64::MAX is a key like any other
                Some(10), // untouched, in the right table
                None,
            ]
        );
        assert_eq!((left, right), before, "the consult is read-only");
    }

    /// Run `ops` as one epoch against `table`, check every answer and the
    /// rebuilt table (length `cap_new`, the oracle's records in key order,
    /// canonical fillers after) against the `HashMap` oracle, and apply
    /// them to it.
    fn epoch_matches_oracle(
        table: &mut Vec<TagCell>,
        oracle: &mut std::collections::HashMap<u64, u64>,
        cap_new: usize,
        ops: &[Op],
        pad_to: usize,
    ) {
        let res = run(table, cap_new, &[], ops, pad_to);
        for (op, got) in ops.iter().zip(res) {
            let want = match *op {
                Op::Put { key, val } => oracle.insert(key, val),
                Op::Delete { key } => oracle.remove(&key),
                Op::Get { key } => oracle.get(&key).copied(),
                _ => unreachable!(),
            };
            assert_eq!(got, OpResult::Value(want), "{op:?}");
        }
        assert_eq!(table.len(), cap_new);
        let mut want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_unstable();
        assert_eq!(live(table), want);
        assert!(table[want.len()..].iter().all(|r| *r == TagCell::filler()));
    }

    #[test]
    fn full_table_grows_past_the_merge_array() {
        // 32 records and a 16-op class merge over 48 cells; the grown table
        // has 64, so its last 16 slots are fillers the merge array never
        // held. A second epoch merges the grown table (64 + 16 cells).
        let mut oracle = std::collections::HashMap::new();
        let mut table: Vec<TagCell> = (0..32u64).map(|k| record_cell(3 * k, k)).collect();
        oracle.extend((0..32u64).map(|k| (3 * k, k)));
        let fresh: Vec<Op> = (0..9u64)
            .map(|i| Op::Put {
                key: 3 * i + 1,
                val: 100 + i,
            })
            .collect();
        epoch_matches_oracle(&mut table, &mut oracle, 64, &fresh, 16);
        let mixed = [
            Op::Get { key: 4 },
            Op::Delete { key: 0 },
            Op::Put { key: 93, val: 7 },
            Op::Get { key: 93 },
            Op::Put { key: 4, val: 8 },
            Op::Get { key: 90 },
            Op::Get { key: 2 },
        ];
        epoch_matches_oracle(&mut table, &mut oracle, 64, &mixed, 16);
    }

    #[test]
    fn op_class_wider_than_the_table() {
        // 40 puts against the 8-slot `MIN_CLASS` table: `p + b = 64 > cap`,
        // so the merge's first level pairs ops with ops and table records.
        let mut oracle = std::collections::HashMap::new();
        let mut table: Vec<TagCell> = [5u64, 17, 29, 41, 53]
            .iter()
            .map(|&k| record_cell(k, k * 2))
            .collect();
        table.resize(8, TagCell::filler());
        oracle.extend([5u64, 17, 29, 41, 53].map(|k| (k, k * 2)));
        let ops: Vec<Op> = (0..40u64)
            .map(|i| match i % 5 {
                4 => Op::Get { key: i * 3 % 60 },
                _ => Op::Put {
                    key: i * 7 % 61,
                    val: i,
                },
            })
            .collect();
        epoch_matches_oracle(&mut table, &mut oracle, 64, &ops, 64);
    }

    /// One merge epoch on `c`, shrink guard on: the answers, and the table
    /// rebuilt in place.
    fn epoch_on<C: Ctx>(
        c: &C,
        table: &mut Vec<TagCell>,
        cap_new: usize,
        pending: &[FlatOp],
        batch: &[FlatOp],
    ) -> Vec<u128> {
        let scratch = ScratchPool::new();
        let ops = sorted_ops(c, &scratch, pending, batch);
        let shape = (pending.len(), batch.len());
        merge_epoch(
            c,
            &scratch,
            table,
            &mut Lanes::default(),
            cap_new,
            ops,
            shape,
            true,
            |t| read_answers(c, &scratch, t),
        )
        .0
    }

    fn flat(raw: &[(u8, u64, u64)]) -> Vec<FlatOp> {
        let op = |&(k, key, val): &(u8, u64, u64)| match k % 4 {
            0 | 1 => Op::Put { key, val },
            2 => Op::Delete { key },
            _ => Op::Get { key },
        };
        raw.iter().map(|r| FlatOp::of(&op(r))).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// Random epochs — tables of up to 300 records, pending logs, batches
        /// up to 200 ops and a padded class, growing or shrunk to fit —
        /// against a sequential replay, on `SeqCtx` and on a metered
        /// context, whose two-position leaf runs put the walk's combine
        /// at nearly every seam (a host run's leaf runs span whole
        /// small tables).
        #[test]
        fn random_epochs_match_a_replay(
            keys in proptest::collection::vec(0u64..500, 0..300),
            pending in proptest::collection::vec((0u8..4, 0u64..500, 0u64..1000), 0..40),
            batch in proptest::collection::vec((0u8..4, 0u64..500, 0u64..1000), 0..200),
            pad in 0usize..3,
            shrink in proptest::prelude::any::<bool>(),
        ) {
            let mut oracle: std::collections::BTreeMap<u64, u64> =
                keys.iter().map(|&k| (k, k + 1)).collect();
            let mut table: Vec<TagCell> = oracle.iter().map(|(&k, &v)| record_cell(k, v)).collect();
            table.resize(crate::op::size_class(table.len()), TagCell::filler());
            let (pending, mut batch) = (flat(&pending), flat(&batch));
            batch.resize(crate::op::size_class(batch.len() + pad), FlatOp::dummy());
            let mut want = Vec::new();
            for (j, f) in pending.iter().chain(&batch).enumerate() {
                let before = oracle.get(&f.key).copied();
                match f.kind {
                    kind::PUT => drop(oracle.insert(f.key, f.val)),
                    kind::DELETE => drop(oracle.remove(&f.key)),
                    _ => {}
                }
                if j >= pending.len() && f.kind != kind::DUMMY {
                    want.push(OpResult::Value(before));
                }
            }
            let records: Vec<(u64, u64)> = oracle.into_iter().collect();
            let cap_new = match shrink {
                true => crate::op::size_class(records.len()),
                false => crate::op::size_class(table.len() + pending.len() + batch.len()),
            };
            let metered = measure(CacheConfig::default(), TraceMode::Off, |c| {
                let mut t = table.clone();
                (epoch_on(c, &mut t, cap_new, &pending, &batch), t)
            }).0;
            let c = SeqCtx::new();
            let seq = (epoch_on(&c, &mut table, cap_new, &pending, &batch), table);
            proptest::prop_assert!(metered == seq, "metered and SeqCtx epochs differ");
            let got: Vec<OpResult> = seq.0[..want.len()]
                .iter()
                .map(|&a| decode(a, StoreStats::default()))
                .collect();
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(seq.1.len(), cap_new);
            proptest::prop_assert_eq!(live(&seq.1), records);
        }

        /// The consult on a metered context answers as on `SeqCtx`, and
        /// as a replay of the log over the tables would.
        #[test]
        fn random_consults_match_a_replay(
            keys in proptest::collection::vec(0u64..300, 0..200),
            log in proptest::collection::vec((0u8..4, 0u64..300, 0u64..1000), 0..60),
            asked in proptest::collection::vec(0u64..320, 1..40),
        ) {
            let mut oracle: std::collections::BTreeMap<u64, u64> =
                keys.iter().map(|&k| (k, k + 1)).collect();
            let tables: Vec<Vec<TagCell>> = (0..2u64)
                .map(|s| {
                    let mut t: Vec<TagCell> = oracle
                        .iter()
                        .filter(|(&k, _)| k % 2 == s)
                        .map(|(&k, &v)| record_cell(k, v))
                        .collect();
                    t.resize(crate::op::size_class(t.len()), TagCell::filler());
                    t
                })
                .collect();
            let mut log = flat(&log);
            log.resize(crate::op::size_class(log.len()), FlatOp::dummy());
            for f in &log {
                match f.kind {
                    kind::PUT => drop(oracle.insert(f.key, f.val)),
                    kind::DELETE => drop(oracle.remove(&f.key)),
                    _ => {}
                }
            }
            let mut queries: Vec<FlatOp> = asked.iter().map(|&key| FlatOp::of(&Op::Get { key })).collect();
            queries.resize(crate::op::size_class(queries.len()), FlatOp::dummy());
            let refs: Vec<&[TagCell]> = tables.iter().map(Vec::as_slice).collect();
            let metered = measure(CacheConfig::default(), TraceMode::Off, |c| {
                consult(c, &ScratchPool::new(), &refs, &log, &queries)
            }).0;
            let seq = consult(&SeqCtx::new(), &ScratchPool::new(), &refs, &log, &queries);
            proptest::prop_assert!(metered == seq, "metered and SeqCtx consults differ");
            for (j, &key) in asked.iter().enumerate() {
                let got = decode(seq[j], StoreStats::default()).value();
                proptest::prop_assert_eq!(got, oracle.get(&key).copied(), "key {}", key);
            }
        }
    }

    /// A shard's lanes outlive its epochs and no epoch fills them, so
    /// every position must be written before it is read. One shard runs
    /// epochs whose class and capacity grow and shrink — a full table
    /// growing past the merge array, ORAM epochs that lengthen the pending
    /// log, shrink merges — with its lanes dirtied before every other
    /// epoch. Answers, table and stats must match a replay, and a twin
    /// whose lanes are fresh at every epoch.
    #[test]
    fn dirty_lanes_change_no_epoch() {
        use crate::op::{size_class, EpochPath};
        use crate::shard::Shard;
        use crate::store::{ShrinkPolicy, StoreConfig};

        fn drive<C: Ctx>(c: &C) -> usize {
            let cfg = StoreConfig {
                oram_key_space: Some(128),
                pending_limit: 16,
                shrink: Some(ShrinkPolicy {
                    every: 4,
                    live_bound: 48,
                    snapshot: 0,
                }),
                ..StoreConfig::default()
            };
            let scratch = ScratchPool::new();
            let (mut dirty, mut fresh) = (Shard::new(cfg, 1), Shard::new(cfg, 1));
            let mut oracle = std::collections::BTreeMap::new();
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = move |bound: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % bound
            };
            // 32 distinct puts fill a 32-slot table; 5 gets go to the ORAM
            // path; 16 more merge with them into 32 + 24 cells and grow the
            // full table to 64.
            let mut epochs: Vec<Vec<Op>> = vec![
                (0..32).map(|key| Op::Put { key, val: key }).collect(),
                (0..5).map(|key| Op::Get { key }).collect(),
                (0..16).map(|key| Op::Get { key: 2 * key }).collect(),
            ];
            for _ in 0..24 {
                let len = 1 + next(100) as usize;
                epochs.push(
                    (0..len)
                        .map(|_| match (next(4), next(44)) {
                            (0 | 1, key) => Op::Put {
                                key,
                                val: next(1000),
                            },
                            (2, key) => Op::Delete { key },
                            (_, key) => Op::Get { key },
                        })
                        .collect(),
                );
            }
            let (mut merges, mut grew_past, mut caps) = (0, false, Vec::new());
            for (e, ops) in epochs.iter().enumerate() {
                let mut batch: Vec<FlatOp> = ops.iter().map(FlatOp::of).collect();
                batch.resize(size_class(ops.len()), FlatOp::dummy());
                let path = dirty.epoch_path(batch.len());
                let full = oracle.len() == dirty.capacity();
                let m = dirty.capacity() + dirty.pending_len() + batch.len();
                if e % 2 == 1 {
                    let (cells, cand, rank) = dirty.lanes_mut().raw();
                    for cell in cells.iter_mut().chain(cand) {
                        *cell = op_cell(next(64), next(9), next(4) as u8, next(1 << 40));
                    }
                    rank.iter_mut().for_each(|r| *r = next(u64::MAX));
                }
                *fresh.lanes_mut() = Lanes::default();
                let got = dirty.execute(c, &scratch, &batch, path);
                assert_eq!(got, fresh.execute(c, &scratch, &batch, path), "epoch {e}");
                for (op, &answer) in ops.iter().zip(&got) {
                    let want = match *op {
                        Op::Put { key, val } => oracle.insert(key, val),
                        Op::Delete { key } => oracle.remove(&key),
                        Op::Get { key } => oracle.get(&key).copied(),
                        _ => unreachable!(),
                    };
                    assert_eq!(decode(answer, StoreStats::default()), OpResult::Value(want));
                }
                assert_eq!(dirty.records(), fresh.records(), "epoch {e}");
                assert_eq!(dirty.stats(), fresh.stats(), "epoch {e}");
                if path == EpochPath::Merge {
                    merges += 1;
                    grew_past |= full && dirty.capacity() > m;
                    caps.push(dirty.capacity());
                    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(live(dirty.records()), want, "epoch {e}");
                    let sum = want.iter().fold(0u64, |s, r| s.wrapping_add(r.1));
                    let stats = StoreStats {
                        count: want.len() as u64,
                        sum,
                    };
                    assert_eq!(dirty.stats(), stats, "epoch {e}");
                }
            }
            assert!(grew_past, "no full table grew past its merge array");
            assert!(
                caps.windows(2).any(|w| w[1] < w[0]),
                "capacity never shrank: {caps:?}"
            );
            merges
        }
        let merges = drive(&SeqCtx::new());
        assert!(merges >= 12, "{merges} merges");
        measure(CacheConfig::default(), TraceMode::Off, drive);
    }

    /// The layout on a host splits `m` into [`LAYOUT_GRAIN`]-cell chunks;
    /// on every split, on a pool too, it is the reversed lane and the table.
    #[test]
    fn layout_is_the_reversed_lane_then_the_table() {
        let cells = |n: usize, salt: u64| -> Vec<TagCell> {
            (0..n as u64)
                .map(|i| record_cell(i * 7 + salt, i))
                .collect()
        };
        let pool = fj::Pool::new(2);
        for (class, cap) in [
            (8, 8),
            (1, LAYOUT_GRAIN),
            (LAYOUT_GRAIN + 3, 5),
            (5000, 9000),
            (16384, 1024),
        ] {
            let (lane, table) = (cells(class, 1), cells(cap, 2));
            let want: Vec<TagCell> = lane.iter().rev().chain(&table).copied().collect();
            let mut got = vec![TagCell::filler(); class + cap];
            lay_out(&SeqCtx::new(), &mut got, &table, &lane);
            assert!(got == want, "SeqCtx, {class} + {cap}");
            got.fill(record_cell(3, 3));
            pool.run(|c| lay_out(c, &mut got, &table, &lane));
            assert!(got == want, "pool, {class} + {cap}");
        }
    }

    #[test]
    fn extreme_keys_do_not_collide_with_fillers() {
        // key u64::MAX packs to a tag below u128::MAX (seq keeps it real).
        let mut table = vec![TagCell::filler(); 8];
        let ops = vec![
            Op::Put {
                key: u64::MAX,
                val: 1,
            },
            Op::Get { key: u64::MAX },
            Op::Put { key: 0, val: 2 },
        ];
        let res = run(&mut table, 8, &[], &ops, 8);
        assert_eq!(res[1], OpResult::Value(Some(1)));
        assert_eq!(live(&table), vec![(0, 2), (u64::MAX, 1)]);
    }
}
