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
//!    over the small op class `b₂ = pow2(|pending| + |batch|)`;
//! 2. lay out `[sorted ops descending | table ascending]` over
//!    `m = cap + b₂` cells — bitonic, because the resident table is
//!    key-sorted by the previous rebuild — and run **one bitonic merge**
//!    (`O(m log m)` comparators, not an `O(m log² m)` sort; `m` need not be
//!    a power of two, [`Engine::merge_cells`]) to group each key's history
//!    contiguously, the record (seq 0) leading its run;
//! 3. a segmented *exclusive* scan with the last-writer-wins transformer
//!    monoid hands every op the value state produced by the record and all
//!    earlier writes of its run (sequential within-epoch semantics), and
//!    every run-last element the key's final state;
//! 4. the fix-up projects two cell lanes from the (still key-sorted)
//!    merged array: a *results* lane of answer cells tagged by batch
//!    slot, written over the merged cells themselves, and a fresh
//!    *candidates* lane of the records each key's final state leaves —
//!    the wide per-element state never rides through another network;
//! 5. results: one stable [`compact_cells`] pass moves the batch answers
//!    to the front, then one small sort of the `|batch|`-cell window
//!    restores submission order for the fixed-prefix readout;
//! 6. rebuild: because the merged array kept key order, the candidates
//!    lane is already key-sorted — one stable [`compact_cells`] pass (no
//!    sort at all) and a copy of its prefix rebuild the resident table at
//!    its new public capacity, filled with fillers past `m` when a full
//!    table grows beyond the merge array.
//!
//! Relative to the record-sort pipeline this replaces three full wide-slot
//! sorts with one small sort + one merge + one small sort + two
//! compactions over dense cells — several-fold less work and far less data
//! through the cache (the `store_bench`/`bench_diff` rows gate both).
//!
//! Because every comparator network, compaction swap level, scan and
//! parallel map above touches addresses that depend only on the public
//! shape, two epochs with the same shape but different keys/values/op-kinds
//! generate identical traces (`tests/store.rs`, `obliv_check`).
//!
//! # The read-only consult
//!
//! [`consult`] answers a batch of point reads against tables it must not
//! change — the pipelined front end's read-your-writes path — and is §F's
//! send-receive in its plain form: sort and scan *the requests*, leave the
//! table where it is. Same cells, same LWW monoid, three steps: collapse
//! the un-merged log onto the queries (one sort over the log-and-query
//! class), probe every shard's table with them (one merge, one scan and
//! one compaction per shard, in parallel), and combine the per-shard
//! answers position by position. Nothing is rebuilt and nothing but the
//! query window is ever sorted; see DESIGN.md §11.

use crate::op::{kind, FlatOp, StoreStats};
use fj::{grain_for, par_reduce, Ctx};
use metrics::{
    par_fill, par_fill2, par_tracked_chunks, par_update, par_update_fill, ScratchGuard,
    ScratchPool, Tracked,
};
use obliv_core::scan::{scan_in, Schedule};
use obliv_core::{compact_cells, select_u128, select_u64, Engine, TagCell};

/// The sorting engine and scan schedule of every store path (the ORAM's
/// conflict resolution included).
pub(crate) const ENGINE: Engine = Engine::BitonicRec;
const SCHED: Schedule = Schedule::Tree;

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
fn cell_kind(cell: &TagCell) -> u8 {
    (cell.aux >> 64) as u8
}

#[inline]
pub(crate) fn cell_val(cell: &TagCell) -> u64 {
    cell.aux as u64
}

#[inline]
fn cell_seq(cell: &TagCell) -> u64 {
    cell.tag as u64
}

/// Scan element: segment head flag plus a value-state transformer. The
/// combine below is the standard segmented-scan monoid over transformer
/// composition (right transformer wins unless it is `KEEP`), so an
/// exclusive scan yields, at every position, the composition of the run
/// prefix before it.
#[derive(Clone, Copy, Debug, Default)]
struct Lww {
    head: bool,
    kind: u8,
    val: u64,
}

#[inline]
fn compose(a: Lww, b: Lww) -> (u8, u64) {
    // Branchless: transformer kinds are secret cell contents, so the
    // right-wins-unless-KEEP rule goes through word selects, not control
    // flow (DESIGN.md §14).
    let keep = b.kind == T_KEEP;
    (
        select_u64(keep, b.kind as u64, a.kind as u64) as u8,
        select_u64(keep, b.val, a.val),
    )
}

#[inline]
fn lww_combine(a: Lww, b: Lww) -> Lww {
    let (k, v) = compose(a, b);
    Lww {
        head: a.head | b.head,
        kind: select_u64(b.head, k as u64, b.kind as u64) as u8,
        val: select_u64(b.head, v, b.val),
    }
}

/// Head/last run boundaries, computed once from the merged array.
#[derive(Clone, Copy, Debug, Default)]
struct Bounds {
    head: bool,
    last: bool,
}

#[inline]
fn transformer_of(cell: &TagCell) -> Lww {
    // Branchless: filler-ness, record-ness and op kind are secret; fold
    // them through word selects. A record (seq 0) sets its key's state.
    let real = !cell.is_filler();
    let k = cell_kind(cell);
    let is_set = real && (cell_seq(cell) == 0 || k == kind::PUT);
    let is_clear = real && k == kind::DELETE;
    Lww {
        head: false,
        kind: select_u64(
            is_set,
            select_u64(is_clear, T_KEEP as u64, T_CLEAR as u64),
            T_SET as u64,
        ) as u8,
        val: select_u64(is_set, 0, cell_val(cell)),
    }
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

/// Read out the `b`-cell answer window `t[..b]`. The readout covers the
/// whole padded class — reading only the real answers would leak their
/// count within the class — and moves the payload lanes only; each cell is
/// re-tagged with its slot host-side.
pub(crate) fn read_answers<C: Ctx>(c: &C, t: &Tracked<'_, TagCell>, b: usize) -> Vec<TagCell> {
    let lanes = metrics::par_collect(c, b, &|c, j| {
        let s = t.get(c, j);
        debug_assert!(s.is_filler() || s.tag == j as u128);
        s.aux
    });
    (0..b as u128)
        .zip(lanes)
        .map(|(j, aux)| TagCell::new(j, aux))
        .collect()
}

/// Run one merge epoch. `table` holds the resident records sorted by key
/// (padded, public length) and is rebuilt at public capacity `cap_new`.
/// `ops` holds `p` pending ops and a padded batch of `b` as [`sorted_ops`]
/// leaves them, its reals within the first `pow2(p + b)` cells; the lease
/// goes back once they are laid into the merge array. `readout` reads the
/// `b`-cell answer window (answer cells tagged by slot, ascending, fillers
/// last); it is returned with the refreshed analytics snapshot.
/// `enforce_live_bound` — a public config bit, set iff a shrink schedule
/// is configured — adds the candidate-count guard pass before the rebuild.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_epoch<C: Ctx, R>(
    c: &C,
    scratch: &ScratchPool,
    table: &mut Vec<TagCell>,
    cap_new: usize,
    ops: ScratchGuard<'_, TagCell>,
    (p, b): (usize, usize),
    enforce_live_bound: bool,
    readout: impl FnOnce(&Tracked<'_, TagCell>) -> R,
) -> (R, StoreStats) {
    let cap = table.len();
    let b2 = (p + b).next_power_of_two();
    // The merge array is the table and the op class side by side: no
    // power-of-two padding (the merge and the compactions take any length).
    let m = cap + b2;

    // 2. Merged array: the resident table is key-sorted (reals ascending,
    //    fillers last) by the previous rebuild, so one merge butterfly
    //    replaces the full sort of the concatenation.
    let mut cells = bitonic_with_table(c, scratch, table, &ops[..b2]);
    // The op cells live on in `cells`; their lease goes back before the
    // `m`-sized lanes below are drawn.
    drop(ops);

    let mut t = Tracked::new(c, &mut cells);
    ENGINE.merge_cells(c, scratch, &mut t);

    // 3. Mark run boundaries and run the segmented exclusive LWW scan —
    //    the merged array itself stays key-sorted and is never sorted
    //    again.
    let mut cand_store = scratch.lease(m, TagCell::filler());
    {
        let mut bounds_store = scratch.lease(m, Bounds::default());
        let mut lww_store = scratch.lease(m, Lww::default());
        let mut bounds = Tracked::new(c, &mut bounds_store);
        let mut lww = Tracked::new(c, &mut lww_store);
        par_fill2(c, &mut bounds, &mut lww, &|c, i| {
            let s = t.get(c, i);
            let head = if i == 0 {
                true
            } else {
                let prev = t.get(c, i - 1);
                c.work(1);
                prev.is_filler() != s.is_filler() || cell_key(&prev) != cell_key(&s)
            };
            let last = if i + 1 == m {
                true
            } else {
                let next = t.get(c, i + 1);
                c.work(1);
                next.is_filler() != s.is_filler() || cell_key(&next) != cell_key(&s)
            };
            let mut l = transformer_of(&s);
            l.head = head;
            (Bounds { head, last }, l)
        });

        // Segmented exclusive scan: position i receives the composed state
        // of its run's prefix [run start, i).
        scan_in(
            c,
            scratch,
            &mut lww,
            Lww::default(),
            &lww_combine,
            false,
            false,
            SCHED,
        );

        // 4. Fix-up: every op learns its pre-op state; every run-last
        //    element learns its key's final state. Both lanes written
        //    unconditionally at every position — the results lane over
        //    the merged cell it was computed from (nothing reads the
        //    merged array after this pass), the candidates lane in a
        //    lease of its own.
        let mut cand_t = Tracked::new(c, &mut cand_store);
        par_update_fill(c, &mut t, &mut cand_t, &|c, i, s| {
            let bd = bounds.get(c, i);
            let scanned = lww.get(c, i);
            // Run heads see the empty state no matter what the scan
            // carried over from the previous run. Selected, not branched:
            // the head flag derives from secret keys.
            let pre = Lww {
                head: !bd.head & scanned.head,
                kind: select_u64(bd.head, scanned.kind as u64, T_KEEP as u64) as u8,
                val: select_u64(bd.head, scanned.val, 0),
            };
            let own = transformer_of(&s);
            let (inc_kind, inc_val) = compose(pre, own);
            let found = pre.kind == T_SET;
            let prev_val = select_u64(found, 0, pre.val);
            let is_batch_op = !s.is_filler() && cell_seq(&s) > p as u64;
            // The batch slot is computed unconditionally (wrapping: table
            // records carry seq 0) and selected away for non-batch
            // positions.
            let slot = cell_seq(&s).wrapping_sub(1 + p as u64);
            let mut result = answer_cell(slot, cell_kind(&s), found, prev_val);
            result.tag = select_u128(is_batch_op, u128::MAX, result.tag);
            // A candidate is the record its key's final state leaves
            // behind; every other position a canonical filler.
            let cand = bd.last && inc_kind == T_SET && !s.is_filler();
            let record = record_cell(cell_key(&s), inc_val);
            let candidate = TagCell {
                tag: select_u128(cand, u128::MAX, record.tag),
                aux: select_u128(cand, 0, record.aux),
            };
            (result, candidate)
        });
    }

    // 5. Results: stable-compact the batch answers to the front, then one
    //    small sort of the padded-batch window restores submission order.
    compact_cells(c, scratch, &mut t);
    ENGINE.sort_cells(c, scratch, &mut t.range(0, b));
    let answers = readout(&t);

    // 6. Rebuild: the candidates lane inherited key order from the merged
    //    array, so one stable compaction (no sort) moves the surviving
    //    final states to the front at the new public capacity.
    let mut cand_t = Tracked::new(c, &mut cand_store);
    compact_cells(c, scratch, &mut cand_t);

    // Guard the rebuild: the surviving final states must fit the new
    // public capacity. Without a shrink schedule this holds by
    // construction (`cap_new` ≥ the grown live bound), so the pass is
    // skipped; with one it is the client's declared-bound contract, and
    // violating it must fail loudly instead of silently dropping records.
    // The count is a fixed-pattern reduce over the whole (public-length)
    // array, gated only by the public config bit.
    if enforce_live_bound {
        let cand_total = par_reduce(
            c,
            0,
            m,
            grain_for(c),
            &|c, i| !cand_t.get(c, i).is_filler() as u64,
            &|a, b| a + b,
        )
        .unwrap_or(0);
        assert!(
            cand_total as usize <= cap_new,
            "{cand_total} live records exceed the public capacity bound {cap_new} \
             (shrink-policy contract violated)"
        );
    }

    // The candidates already are records: the new table is the
    // compacted prefix, copied. A full table that grows outruns the merge
    // array (`cap_new > m`, a public fact): its tail stays fillers.
    table.clear();
    table.resize(cap_new, TagCell::filler());
    let stats = {
        let mut tt = Tracked::new(c, table.as_mut_slice());
        par_fill(c, &mut tt.range(0, cap_new.min(m)), &|c, i| {
            cand_t.get(c, i)
        });
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
    (answers, stats)
}

/// Pack `first ++ second` into cells keyed `(key ‖ 1-based position)` over
/// their class `pow2(|first| + |second|)` and sort them. Dummies become
/// fillers — every position is written exactly once regardless of contents.
pub(crate) fn sorted_ops<'s, C: Ctx>(
    c: &C,
    scratch: &'s ScratchPool,
    first: &[FlatOp],
    second: &[FlatOp],
) -> ScratchGuard<'s, TagCell> {
    let b2 = (first.len() + second.len()).next_power_of_two();
    let mut ops = scratch.lease(b2, TagCell::filler());
    for (j, (cell, f)) in ops.iter_mut().zip(first.iter().chain(second)).enumerate() {
        *cell = if f.kind == kind::DUMMY {
            TagCell::filler()
        } else {
            op_cell(f.key, 1 + j as u64, f.kind, f.val)
        };
    }
    c.charge_par(b2 as u64);
    ENGINE.sort_cells(c, scratch, &mut Tracked::new(c, &mut ops));
    ops
}

/// `[lane reversed | table]` over `|lane| + |table|` cells. `lane` is
/// sorted with fillers last and `table` is key-sorted with its records
/// leading, so the result — fillers, descending ops, ascending records,
/// fillers, and any number of fillers after it — is bitonic: one
/// [`Engine::merge_cells`] sorts it, each record (seq 0) heading its key's
/// run.
fn bitonic_with_table<'s, C: Ctx>(
    c: &C,
    scratch: &'s ScratchPool,
    table: &[TagCell],
    lane: &[TagCell],
) -> ScratchGuard<'s, TagCell> {
    let m = lane.len() + table.len();
    let mut cells = scratch.lease(m, TagCell::filler());
    let (ops, records) = cells.split_at_mut(lane.len());
    ops.copy_from_slice(lane);
    ops.reverse();
    records.copy_from_slice(table);
    c.charge_par(m as u64);
    cells
}

/// Over a key-sorted lane: give every cell the value state its key's run
/// has reached *at* it — one boundary-marking map and one inclusive
/// segmented LWW scan — and rewrite the cell in place as
/// `fix(cell, kind, val)` of that state. `fix` must be branch-free.
fn resolve_runs<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, TagCell>,
    fix: &(impl Fn(TagCell, u8, u64) -> TagCell + Sync),
) {
    let m = t.len();
    let mut lww_store = scratch.lease(m, Lww::default());
    let mut lww = Tracked::new(c, &mut lww_store);
    par_fill(c, &mut lww, &|c, i| {
        let s = t.get(c, i);
        let mut l = transformer_of(&s);
        l.head = i == 0 || {
            let prev = t.get(c, i - 1);
            c.work(1);
            prev.is_filler() != s.is_filler() || cell_key(&prev) != cell_key(&s)
        };
        l
    });
    scan_in(
        c,
        scratch,
        &mut lww,
        Lww::default(),
        &lww_combine,
        true,
        false,
        SCHED,
    );
    par_update(c, t, &|c, i, cell| {
        let state = lww.get(c, i);
        fix(cell, state.kind, state.val)
    });
}

/// Answer `queries` (a padded `Get` batch of public class `q`, its real
/// slots leading) against `tables` — one key-sorted table per shard, keys
/// unique across them — as the tables will read once `log` (every
/// accepted but un-merged op, oldest first, public length) has been
/// applied, in one answer cell per query slot. Read-only: nothing is
/// rebuilt.
///
/// 1. `log ++ queries` are sorted as cells over their own class and the
///    LWW scan hands every query its **log verdict** — `KEEP`, `SET v` or
///    `CLEAR`, written back as the `Get`, `Put` or `Delete` the log
///    amounts to for that key. One stable compaction brings the `q`-cell
///    window of key-sorted queries to the front.
/// 2. Per shard, in parallel: `[queries descending | table ascending]` is
///    bitonic, so **one merge** groups each query behind
///    its record, one scan composes table state and verdict into the
///    query's answer, and one compaction returns the window.
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
) -> Vec<TagCell> {
    let l = log.len() as u64;
    let q = queries.len();
    debug_assert!(q.is_power_of_two());
    // 1. Verdicts. Queries follow the whole log in `seq`, so the state a
    //    query's run has reached at it is the log's net effect on its key.
    let mut ops = sorted_ops(c, scratch, log, queries);
    let mut asked = Tracked::new(c, &mut ops);
    resolve_runs(c, scratch, &mut asked, &|s, verdict, val| {
        let is_query = !s.is_filler() && cell_seq(&s) > l;
        TagCell {
            tag: select_u128(is_query, u128::MAX, s.tag),
            aux: ((verdict as u128) << 64) | val as u128,
        }
    });
    compact_cells(c, scratch, &mut asked);

    {
        // 2. One probe per shard, each into its own window of `wins`.
        let window = &asked.raw()[..q];
        let mut wins_store = scratch.lease(tables.len() * q, TagCell::filler());
        let mut wins = Tracked::new(c, &mut wins_store);
        par_tracked_chunks(c, wins.borrow_mut(), q, &|c, s, mut win| {
            let mut cells = bitonic_with_table(c, scratch, tables[s], window);
            let mut t = Tracked::new(c, &mut cells);
            ENGINE.merge_cells(c, scratch, &mut t);
            resolve_runs(c, scratch, &mut t, &|s, state, val| {
                // Records carry seq 0; a query keeps its tag and learns
                // whether its key ends up set, and to what: the answer
                // payload of a `Get` (kind 0).
                let is_query = !s.is_filler() && cell_seq(&s) != 0;
                let found = state == T_SET;
                TagCell {
                    tag: select_u128(is_query, u128::MAX, s.tag),
                    aux: ((found as u128) << 64) | select_u64(found, 0, val) as u128,
                }
            });
            compact_cells(c, scratch, &mut t);
            win.copy_from(c, &t, 0, 0, q);
        });

        // 3. Combine: each answer goes back where its question stood,
        //    tagged by submission index now.
        par_fill(c, &mut asked.range(0, q), &|c, j| {
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
    let mut win = asked.range(0, q);
    ENGINE.sort_cells(c, scratch, &mut win);
    read_answers(c, &win, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Op, OpResult};
    use crate::store::decode;
    use fj::SeqCtx;

    /// One merge epoch as a 1-shard store runs it: sort `pending ++
    /// batch`, merge, read the answers out by batch slot.
    fn epoch(
        table: &mut Vec<TagCell>,
        cap_new: usize,
        pending: &[FlatOp],
        batch: &[FlatOp],
    ) -> (Vec<TagCell>, StoreStats) {
        let c = SeqCtx::new();
        let scratch = ScratchPool::new();
        let ops = sorted_ops(&c, &scratch, pending, batch);
        let shape = (pending.len(), batch.len());
        merge_epoch(&c, &scratch, table, cap_new, ops, shape, true, |t| {
            read_answers(&c, t, batch.len())
        })
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
            .map(|a| decode(a, StoreStats::default()))
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
        assert_eq!(decode(&res[2], snapshot), OpResult::Stats(snapshot));
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
            .map(|a| decode(a, StoreStats::default()).value())
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
        // 40 puts against the 8-slot `MIN_CLASS` table: `b₂ = 64 > cap`,
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
