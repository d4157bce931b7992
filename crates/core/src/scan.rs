//! Scans: prefix sums, segmented propagation and aggregation (§F).
//!
//! The paper realizes oblivious *aggregation* and *propagation* in a sorted
//! array with segmented prefix/suffix scans: `O(n)` work, `O(n/B)` cache
//! complexity, and `O(log n)` span in the binary fork-join model — a
//! `log n`-factor span improvement over the prior best, which forked `n`
//! threads per PRAM step of the doubling algorithm (Table 2 rows "Aggr" and
//! "Prop"). Both schedules are implemented here:
//!
//! * [`Schedule::Tree`] — one up/down walk over a reduce tree whose nodes
//!   are constant-work forks, so the span is `O(log n)` (ours). It is
//!   [`map_scan`], the tree walk every scan in the workspace runs (the
//!   store's merge walk and the expansion's first ranks too): a leaf is a
//!   sequential run of [`fj::grain_for`] positions, but at least two,
//!   reduced and re-swept in place, and the tree stores one left total
//!   per run.
//!   A suffix scan walks the same tree over a mirrored view of the lane;
//! * [`Schedule::Levels`] — the Blelloch up/down sweeps evaluated level by
//!   level with a parallel loop (and its fork tree) per level:
//!   `Σ_d O(log(n/2^d)) = O(log² n)` span (prior best).
//!
//! Scans are trivially data-oblivious: the access pattern depends only on
//! `n`.

use crate::slot::Val;
use fj::{grain_for, Ctx};
use metrics::{par_fill, par_tracked_chunks, ScratchPool, Tracked};
use sortnet::select_u64;

/// Which parallel schedule evaluates the scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Recursive tree, span `O(log n)` — the paper's construction.
    Tree,
    /// Level-by-level sweeps, span `O(log² n)` — the naive baseline.
    Levels,
}

/// Generic scan with an associative `combine` and a seed `id`.
///
/// * `inclusive` — include the element itself in its result;
/// * `reverse` — scan right-to-left (suffix scan).
///
/// `id` is position 0's exclusive result. The results depend on it only
/// through `combine(id, x)`, `x` the combined elements of a range that
/// starts at position 0 (in scan direction); the level sweeps also pad the
/// tree with it, but no padding reaches a result. So `combine(id, x) = x`
/// is needed for those `x` alone: [`seg_propagate_in`]'s `id` is no
/// identity, but every such range there starts with a segment head.
///
/// Work `O(n)`, cache `O(n/B)`, span per [`Schedule`]. The tree scratch is
/// a [`ScratchPool`] lease.
#[allow(clippy::too_many_arguments)]
pub fn scan_in<C, S, OP>(
    c: &C,
    scratch: &ScratchPool,
    data: &mut Tracked<'_, S>,
    id: S,
    combine: &OP,
    inclusive: bool,
    reverse: bool,
    sched: Schedule,
) where
    C: Ctx,
    S: Val,
    OP: Fn(S, S) -> S + Sync,
{
    if data.is_empty() {
        return;
    }
    match sched {
        Schedule::Tree if reverse => {
            tree_scan(c, scratch, Rev(data.borrow_mut()), id, combine, inclusive)
        }
        Schedule::Tree => tree_scan(c, scratch, data.borrow_mut(), id, combine, inclusive),
        Schedule::Levels => levels_scan(c, scratch, data, id, combine, inclusive, reverse),
    }
}

/// [`Schedule::Tree`]: a [`map_scan`] that maps each position to its own
/// element and writes back its prefix, combined with the element when
/// `inclusive`.
fn tree_scan<C, L, S, OP>(
    c: &C,
    scratch: &ScratchPool,
    lane: L,
    id: S,
    combine: &OP,
    inclusive: bool,
) where
    C: Ctx,
    L: Lane<S>,
    S: Val,
    OP: Fn(S, S) -> S + Sync,
{
    let map = |c: &C, lane: &L, k| (lane.at(c, k), ());
    // One consumer per mode, not one that tests `inclusive`: the write may
    // alias the captured flag, so a host leaf would reload and test it at
    // every position.
    if inclusive {
        let consume = |c: &C, lane: &mut L, k, _, prefix, own, ()| {
            c.work(1);
            lane.put(c, k, combine(prefix, own))
        };
        map_scan(c, scratch, lane, id, combine, &map, &consume);
    } else {
        let consume = |c: &C, lane: &mut L, k, _, prefix, _, ()| lane.put(c, k, prefix);
        map_scan(c, scratch, lane, id, combine, &map, &consume);
    }
}

/// One lane of elements in scan order.
trait Lane<S>: Lanes {
    fn at<C: Ctx>(&self, c: &C, k: usize) -> S;
    fn put<C: Ctx>(&mut self, c: &C, k: usize, v: S);
}

impl<S: Copy + Send + Sync> Lane<S> for Tracked<'_, S> {
    fn at<C: Ctx>(&self, c: &C, k: usize) -> S {
        self.get(c, k)
    }
    fn put<C: Ctx>(&mut self, c: &C, k: usize, v: S) {
        self.set(c, k, v)
    }
}

/// A lane read back to front: position `k` is the inner lane's
/// `len − 1 − k`, so a split at `mid` splits the inner lane at
/// `len − mid` and swaps the halves.
struct Rev<'a, S>(Tracked<'a, S>);

impl<S: Copy + Send + Sync> Lanes for Rev<'_, S> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split(self, mid: usize) -> (Self, Self) {
        let at = self.0.len() - mid;
        let (front, back) = self.0.split(at);
        (Rev(back), Rev(front))
    }
}

impl<S: Copy + Send + Sync> Lane<S> for Rev<'_, S> {
    fn at<C: Ctx>(&self, c: &C, k: usize) -> S {
        self.0.get(c, self.0.len() - 1 - k)
    }
    fn put<C: Ctx>(&mut self, c: &C, k: usize, v: S) {
        let i = self.0.len() - 1 - k;
        self.0.set(c, i, v)
    }
}

fn levels_scan<C, S, OP>(
    c: &C,
    scratch: &ScratchPool,
    data: &mut Tracked<'_, S>,
    id: S,
    combine: &OP,
    inclusive: bool,
    reverse: bool,
) where
    C: Ctx,
    S: Val,
    OP: Fn(S, S) -> S + Sync,
{
    let n = data.len();
    let m = n.next_power_of_two();
    // Physical index of logical (scan-order) position `j`.
    let at = |j: usize| if reverse { n - 1 - j } else { j };

    // Gather leaves in logical order into a padded scratch tree of size
    // 2m; leaves live at [m, 2m).
    let mut tree_store = scratch.lease(2 * m, id);
    let mut tree = Tracked::new(c, &mut tree_store);
    par_fill(c, &mut tree.range(m, m + n), &|c, j| data.get(c, at(j)));

    // Work on the leaf row [m, 2m) of the scratch; keep original leaves for
    // the inclusive fix-up.
    let mut orig_store = scratch.lease(if inclusive { m } else { 0 }, id);
    let mut orig = Tracked::new(c, &mut orig_store);
    if inclusive {
        par_fill(c, &mut orig, &|c, j| tree.get(c, m + j));
    }

    // Up-sweep: each run of `step` leaves stores its total in its last.
    let mut step = 2;
    while step <= m {
        par_tracked_chunks(c, tree.range(m, 2 * m), step, &|c, _, mut run| {
            let a = run.get(c, step / 2 - 1);
            let b = run.get(c, step - 1);
            c.work(1);
            run.set(c, step - 1, combine(a, b));
        });
        step *= 2;
    }
    // Down-sweep (exclusive).
    tree.set(c, 2 * m - 1, id);
    while step > 2 {
        step /= 2;
        par_tracked_chunks(c, tree.range(m, 2 * m), step, &|c, _, mut run| {
            let t = run.get(c, step / 2 - 1);
            let top = run.get(c, step - 1);
            c.work(1);
            run.set(c, step / 2 - 1, top);
            // `top` is the prefix arriving from the parent and `t` the
            // left subtotal: parent-prefix first (combine need not be
            // commutative — segmented scans are not).
            run.set(c, step - 1, combine(top, t));
        });
    }
    // Write back (with inclusive fix-up); a suffix scan lands mirrored.
    par_fill(c, data, &|c, i| {
        let ex = tree.get(c, m + at(i));
        if inclusive {
            c.work(1);
            combine(ex, orig.get(c, at(i)))
        } else {
            ex
        }
    });
}

// ---------------------------------------------------------------------------
// Map-scan-consume
// ---------------------------------------------------------------------------

/// The lanes a [`map_scan`] walks together: every lane has one length, and
/// a split at a position splits them all.
pub trait Lanes: Sized + Send + Sync {
    /// The number of positions.
    fn len(&self) -> usize;
    /// Whether there are none.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// `[0, mid)` and `[mid, len)` of every lane.
    fn split(self, mid: usize) -> (Self, Self);
}

impl<T: Copy + Send + Sync> Lanes for Tracked<'_, T> {
    fn len(&self) -> usize {
        Tracked::len(self)
    }
    fn split(self, mid: usize) -> (Self, Self) {
        Tracked::split(self, mid)
    }
}

impl<A: Lanes, B: Lanes> Lanes for (A, B) {
    fn len(&self) -> usize {
        debug_assert_eq!(self.0.len(), self.1.len());
        self.0.len()
    }
    fn split(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.0.split(mid);
        let (b0, b1) = self.1.split(mid);
        ((a0, b0), (a1, b1))
    }
}

impl<A: Lanes, B: Lanes, D: Lanes> Lanes for (A, B, D) {
    fn len(&self) -> usize {
        debug_assert!(self.1.len() == self.0.len() && self.2.len() == self.0.len());
        self.0.len()
    }
    fn split(self, mid: usize) -> (Self, Self) {
        let ((a0, b0), (a1, b1)) = (self.0, self.1).split(mid);
        let (d0, d1) = self.2.split(mid);
        ((a0, b0, d0), (a1, b1, d1))
    }
}

/// An exclusive scan of a *mapped* input, consumed where it is computed —
/// no element lane is stored. `map(c, lanes, k)` returns the element of
/// position `k` of the lanes it is given and whatever else the consumer
/// needs of them there; it is recomputed from the lanes in both sweeps of
/// the [`Schedule::Tree`] schedule. The down-sweep then calls
/// `consume(c, lanes, k, i, prefix, own, x)` once per position, in order
/// within a leaf run, with the combined elements of `[0, i)` (`id` at 0)
/// and of `i` itself and `map`'s extra `x`: `lanes` is the leaf run's
/// piece and `k` is `i`'s index in it. `combine` is associative. `id` is
/// combined only on the left, and only of the combined elements of some
/// `[0, i]`, so it need be a left identity of those alone.
///
/// `map` may read position `k` and the one after it, where there is one
/// (`k + 1 < lanes.len()`: a position whose successor lies in another
/// piece is mapped before that piece is split off), and `consume` may
/// overwrite its position: a position is always mapped before anything at
/// or after it is consumed.
///
/// The tree stores one element per leaf run, the left total of the node
/// whose right child starts there, and hands every total up the recursion
/// as a value; the rightmost spine's totals, which no prefix needs, are
/// never formed. Work `O(n)` (two maps a position), span `O(log n)`; host
/// and meter run the same code, leaf runs of [`fj::grain_for`] positions
/// but never fewer than two. Oblivious when `map` and `consume` are: the
/// walk touches the tree by `n` alone.
pub fn map_scan<C, L, S, X, OP, M, F>(
    c: &C,
    scratch: &ScratchPool,
    lanes: L,
    id: S,
    combine: &OP,
    map: &M,
    consume: &F,
) where
    C: Ctx,
    L: Lanes,
    S: Val,
    X: Send,
    OP: Fn(S, S) -> S + Sync,
    M: Fn(&C, &L, usize) -> (S, X) + Sync,
    F: Fn(&C, &mut L, usize, usize, S, S, X) + Sync,
{
    let n = lanes.len();
    if n == 0 {
        return;
    }
    // Leaf runs of at least two positions: one-position runs (the metered
    // grain) would store a tree slot per position — the element lane this
    // walk exists not to store.
    let grain = grain_for(c).max(2);
    let blocks = n.div_ceil(grain);
    let mut tree_store = scratch.lease(blocks - 1, id);
    let mut tree = Tracked::new(c, &mut tree_store);
    let walk = MapScan {
        combine,
        map,
        consume,
        grain,
        id,
    };
    walk.up(c, &lanes, 0, blocks, true, tree.borrow_mut());
    walk.down(c, lanes, 0, blocks, id, None, tree.borrow_mut());
}

/// One [`map_scan`]: leaf runs of `grain` positions, and a node over the
/// runs `[lo, hi)` owning the tree slots `(lo, hi)` — its own at its split
/// point `mid`, its children's on either side.
struct MapScan<'a, S, OP, M, F> {
    combine: &'a OP,
    map: &'a M,
    consume: &'a F,
    grain: usize,
    id: S,
}

impl<S: Val, OP: Fn(S, S) -> S + Sync, M, F: Sync> MapScan<'_, S, OP, M, F> {
    /// The node's total (`id` on the rightmost spine, `spine`), after
    /// storing its left child's.
    fn up<C: Ctx, L: Lanes, X>(
        &self,
        c: &C,
        lanes: &L,
        lo: usize,
        hi: usize,
        spine: bool,
        tree: Tracked<'_, S>,
    ) -> S
    where
        M: Fn(&C, &L, usize) -> (S, X) + Sync,
    {
        if hi - lo == 1 {
            if spine {
                return self.id;
            }
            let (a, b) = (lo * self.grain, (hi * self.grain).min(lanes.len()));
            let mut acc = (self.map)(c, lanes, a).0;
            for i in a + 1..b {
                let (x, _) = (self.map)(c, lanes, i);
                c.work(1);
                acc = (self.combine)(acc, x);
            }
            return acc;
        }
        let mid = lo + (hi - lo) / 2;
        let (left, rest) = tree.split(mid - lo - 1);
        let (mut slot, right) = rest.split(1);
        let (l, r) = c.join(
            move |c| self.up(c, lanes, lo, mid, false, left),
            move |c| self.up(c, lanes, mid, hi, spine, right),
        );
        slot.set(c, 0, l);
        if spine {
            return self.id;
        }
        c.work(1);
        (self.combine)(l, r)
    }

    /// Hand every position under the node its prefix: `acc` is the total
    /// of everything before it, and `last` the mapped last position when
    /// its successor lies past the node.
    #[allow(clippy::too_many_arguments)]
    fn down<C: Ctx, L: Lanes, X: Send>(
        &self,
        c: &C,
        mut lanes: L,
        lo: usize,
        hi: usize,
        acc: S,
        last: Option<(S, X)>,
        tree: Tracked<'_, S>,
    ) where
        M: Fn(&C, &L, usize) -> (S, X) + Sync,
        F: Fn(&C, &mut L, usize, usize, S, S, X) + Sync,
    {
        if hi - lo == 1 {
            // Bounded by the lanes' length, the loop keeps no index check
            // a position (over `0..len − 1` the compiler keeps one).
            let (first, mut acc, mut k) = (lo * self.grain, acc, 0);
            while k + 1 < lanes.len() {
                let (own, x) = (self.map)(c, &lanes, k);
                (self.consume)(c, &mut lanes, k, first + k, acc, own, x);
                c.work(1);
                acc = (self.combine)(acc, own);
                k += 1;
            }
            let (own, x) = last.unwrap_or_else(|| (self.map)(c, &lanes, k));
            return (self.consume)(c, &mut lanes, k, first + k, acc, own, x);
        }
        let mid = lo + (hi - lo) / 2;
        let (left, rest) = tree.split(mid - lo - 1);
        let (slot, right) = rest.split(1);
        let l = slot.get(c, 0);
        c.work(1);
        let right_acc = (self.combine)(acc, l);
        let at = (mid - lo) * self.grain;
        let seam = (self.map)(c, &lanes, at - 1);
        let (lanes_lo, lanes_hi) = lanes.split(at);
        c.join(
            move |c| self.down(c, lanes_lo, lo, mid, acc, Some(seam), left),
            move |c| self.down(c, lanes_hi, mid, hi, right_acc, last, right),
        );
    }
}

// ---------------------------------------------------------------------------
// Concrete scans
// ---------------------------------------------------------------------------

/// In-place prefix sum over `u64` (wrapping).
pub fn prefix_sum_in<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, u64>,
    inclusive: bool,
    sched: Schedule,
) {
    scan_in(
        c,
        scratch,
        t,
        0u64,
        &|a, b| a.wrapping_add(b),
        inclusive,
        false,
        sched,
    );
}

// ---------------------------------------------------------------------------
// Segmented scans: propagation and aggregation (§F)
// ---------------------------------------------------------------------------

/// A segmented-scan element: `head` marks the first element of its segment
/// *in scan direction*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Seg<V> {
    pub head: bool,
    pub v: V,
}

impl<V> Seg<V> {
    pub fn new(head: bool, v: V) -> Self {
        Seg { head, v }
    }
}

/// Branchless segmented combine over `u64` values: the inner-loop gate of
/// the store's segmented LWW/aggregation scans. `head` composes with
/// boolean arithmetic and the value lane with a [`select_u64`] mask — no
/// secret-dependent branch, and the compiler lowers the select to a
/// conditional move / vector blend.
#[inline(always)]
pub fn seg_combine_u64(
    op: impl Fn(u64, u64) -> u64 + Sync,
) -> impl Fn(Seg<u64>, Seg<u64>) -> Seg<u64> + Sync {
    move |a, b| Seg {
        head: a.head | b.head,
        v: select_u64(b.head, op(a.v, b.v), b.v),
    }
}

/// Oblivious **propagation** (§F): every element learns the value held by
/// its segment's head (the group representative). Requires `t[0].head`
/// (the first element always starts a segment — true for every use in this
/// workspace).
///
/// `O(n)` work, `O(n/B)` cache, span `O(log n)` with [`Schedule::Tree`].
pub fn seg_propagate_in<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, Seg<V>>,
    sched: Schedule,
) {
    debug_assert!(
        t.is_empty() || t.get(c, 0).head,
        "element 0 must head a segment"
    );
    // The last head wins. `id` is no identity of that, but the scan
    // combines it only on the left of ranges that start at element 0, and
    // each of those holds a head. The head flags are secret, but only
    // addresses are observable (Definition 1), so the branch leaks nothing;
    // `V` cannot be mask-selected generically.
    scan_in(
        c,
        scratch,
        t,
        Seg::new(false, V::default()),
        &|a: Seg<V>, b: Seg<V>| if b.head { b } else { a },
        true,
        false,
        sched,
    );
}

/// Oblivious **aggregation** (§F): every element learns the sum of the
/// values of its own group at its position and to its right. Heads must
/// mark each segment's *last* element (the first in right-to-left scan
/// order).
pub fn seg_sum_right_in<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    t: &mut Tracked<'_, Seg<u64>>,
    sched: Schedule,
) {
    scan_in(
        c,
        scratch,
        t,
        Seg::new(false, 0u64),
        &seg_combine_u64(|a, b| a.wrapping_add(b)),
        true,
        true,
        sched,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::SeqCtx;
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;

    #[test]
    fn prefix_sum_inclusive_and_exclusive() {
        let sp = ScratchPool::new();
        let c = SeqCtx::new();
        for sched in [Schedule::Tree, Schedule::Levels] {
            let mut v: Vec<u64> = (1..=10).collect();
            let mut t = Tracked::new(&c, &mut v);
            prefix_sum_in(&c, &sp, &mut t, true, sched);
            assert_eq!(v, vec![1, 3, 6, 10, 15, 21, 28, 36, 45, 55], "{sched:?}");

            let mut v: Vec<u64> = (1..=10).collect();
            let mut t = Tracked::new(&c, &mut v);
            prefix_sum_in(&c, &sp, &mut t, false, sched);
            assert_eq!(v, vec![0, 1, 3, 6, 10, 15, 21, 28, 36, 45], "{sched:?}");
        }
    }

    #[test]
    fn suffix_scan_reverses() {
        let sp = ScratchPool::new();
        let c = SeqCtx::new();
        for sched in [Schedule::Tree, Schedule::Levels] {
            let mut v: Vec<u64> = vec![1, 2, 3, 4, 5];
            let mut t = Tracked::new(&c, &mut v);
            scan_in(&c, &sp, &mut t, 0u64, &|a, b| a + b, true, true, sched);
            assert_eq!(v, vec![15, 14, 12, 9, 5], "{sched:?}");
        }
    }

    #[test]
    fn propagate_carries_head_values() {
        let sp = ScratchPool::new();
        let c = SeqCtx::new();
        for sched in [Schedule::Tree, Schedule::Levels] {
            // Segments: [10, _, _], [20, _], [30, _, _, _]
            let mut v = vec![
                Seg::new(true, 10u64),
                Seg::new(false, 0),
                Seg::new(false, 0),
                Seg::new(true, 20),
                Seg::new(false, 0),
                Seg::new(true, 30),
                Seg::new(false, 0),
                Seg::new(false, 0),
            ];
            let mut t = Tracked::new(&c, &mut v);
            seg_propagate_in(&c, &sp, &mut t, sched);
            let got: Vec<u64> = v.iter().map(|s| s.v).collect();
            assert_eq!(got, vec![10, 10, 10, 20, 20, 30, 30, 30], "{sched:?}");
        }
    }

    #[test]
    fn aggregate_sums_suffix_within_group() {
        let sp = ScratchPool::new();
        let c = SeqCtx::new();
        for sched in [Schedule::Tree, Schedule::Levels] {
            // Two groups of values: [1,2,3 | 4,5]; heads mark group *ends*.
            let mut v = vec![
                Seg::new(false, 1u64),
                Seg::new(false, 2),
                Seg::new(true, 3),
                Seg::new(false, 4),
                Seg::new(true, 5),
            ];
            let mut t = Tracked::new(&c, &mut v);
            seg_sum_right_in(&c, &sp, &mut t, sched);
            let got: Vec<u64> = v.iter().map(|s| s.v).collect();
            assert_eq!(got, vec![6, 5, 3, 9, 5], "{sched:?}");
        }
    }

    #[test]
    fn tree_schedule_has_log_span_levels_has_log_squared() {
        let sp = ScratchPool::new();
        let n = 1 << 14;
        let run = |sched| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                let mut v = vec![1u64; n];
                let mut t = Tracked::new(c, &mut v);
                prefix_sum_in(c, &sp, &mut t, true, sched);
            });
            rep
        };
        let tree = run(Schedule::Tree);
        let levels = run(Schedule::Levels);
        let lg = (n as f64).log2();
        // Tree: O(log n) with small constants; Levels: Θ(log² n)-ish.
        assert!(
            (tree.span as f64) < 20.0 * lg,
            "tree span {} not O(log n) (log n = {lg})",
            tree.span
        );
        assert!(
            (levels.span as f64) > 2.0 * lg * lg / 2.0,
            "levels span {} unexpectedly small",
            levels.span
        );
        assert!(
            tree.span * 3 < levels.span,
            "tree {} vs levels {}",
            tree.span,
            levels.span
        );
        // Both schedules are work-efficient.
        assert!(tree.work < 30 * n as u64);
        assert!(levels.work < 30 * n as u64);
    }

    #[test]
    fn scan_trace_is_input_independent() {
        let sp = ScratchPool::new();
        let run = |vals: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let mut v = vals.clone();
                let mut t = Tracked::new(c, &mut v);
                prefix_sum_in(c, &sp, &mut t, true, Schedule::Tree);
            });
            (rep.trace_hash, rep.trace_len)
        };
        assert_eq!(run((0..1000).collect()), run(vec![7; 1000]));
    }

    fn prefix_reference(v: &[u64], inclusive: bool) -> Vec<u64> {
        let mut acc = 0u64;
        v.iter()
            .map(|&x| {
                if inclusive {
                    acc = acc.wrapping_add(x);
                    acc
                } else {
                    let before = acc;
                    acc = acc.wrapping_add(x);
                    before
                }
            })
            .collect()
    }

    #[test]
    fn prefix_sum_degenerate_sizes() {
        let sp = ScratchPool::new();
        let c = SeqCtx::new();
        for sched in [Schedule::Tree, Schedule::Levels] {
            for n in [0usize, 1, 2] {
                for inclusive in [true, false] {
                    let mut v: Vec<u64> = (10..10 + n as u64).collect();
                    let expect = prefix_reference(&v, inclusive);
                    let mut t = Tracked::new(&c, &mut v);
                    prefix_sum_in(&c, &sp, &mut t, inclusive, sched);
                    assert_eq!(v, expect, "n = {n}, inclusive = {inclusive}, {sched:?}");
                }
            }
        }
    }

    #[test]
    fn prefix_sum_n_1000_non_power_of_two_matches_reference() {
        let sp = ScratchPool::new();
        // 1000 forces a padded scratch tree (next_power_of_two = 1024) with
        // a partial last level — the shape both schedules must prune.
        let c = SeqCtx::new();
        let input: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(2654435761) % 997)
            .collect();
        for sched in [Schedule::Tree, Schedule::Levels] {
            for inclusive in [true, false] {
                let mut v = input.clone();
                let expect = prefix_reference(&v, inclusive);
                let mut t = Tracked::new(&c, &mut v);
                prefix_sum_in(&c, &sp, &mut t, inclusive, sched);
                assert_eq!(v, expect, "inclusive = {inclusive}, {sched:?}");
            }
        }
    }

    #[test]
    fn seg_propagate_degenerate_and_odd_sizes() {
        let sp = ScratchPool::new();
        let c = SeqCtx::new();
        for sched in [Schedule::Tree, Schedule::Levels] {
            for n in [1usize, 2, 7, 1000] {
                // Segment heads every 3rd element (element 0 always heads).
                let mut v: Vec<Seg<u64>> = (0..n)
                    .map(|i| Seg::new(i % 3 == 0, (i * 7) as u64))
                    .collect();
                let mut expect = vec![0u64; n];
                let mut cur = 0;
                for i in 0..n {
                    if v[i].head {
                        cur = v[i].v;
                    }
                    expect[i] = cur;
                }
                let mut t = Tracked::new(&c, &mut v);
                seg_propagate_in(&c, &sp, &mut t, sched);
                let got: Vec<u64> = v.iter().map(|s| s.v).collect();
                assert_eq!(got, expect, "n = {n}, {sched:?}");
            }
        }
    }

    #[test]
    fn scan_preserves_total_sum_at_odd_sizes() {
        // Multiset-style invariant: the last inclusive prefix equals the
        // total, independent of the (non-power-of-two) length.
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [3usize, 5, 100, 1000] {
            let input: Vec<u64> = (1..=n as u64).collect();
            let total: u64 = input.iter().sum();
            for sched in [Schedule::Tree, Schedule::Levels] {
                let mut v = input.clone();
                let mut t = Tracked::new(&c, &mut v);
                prefix_sum_in(&c, &sp, &mut t, true, sched);
                assert_eq!(v[n - 1], total, "n = {n}, {sched:?}");
                assert!(
                    v.windows(2).all(|w| w[0] <= w[1]),
                    "monotone prefix, n = {n}"
                );
            }
        }
    }

    /// `scan_in` against a sequential fold, every direction and
    /// inclusivity, at sizes around the host leaf width `g` (odd and even
    /// ones, so the meter's two-position runs end short and full).
    fn check_against_fold<C: Ctx, S: Val + PartialEq + std::fmt::Debug>(
        c: &C,
        g: usize,
        gen: impl Fn(usize) -> S,
        id: S,
        combine: &(impl Fn(S, S) -> S + Sync),
    ) {
        let sp = ScratchPool::new();
        for n in [1, g - 1, g, g + 1, 3 * g + 7, 65536] {
            let input: Vec<S> = (0..n).map(&gen).collect();
            for (inclusive, reverse) in [(true, false), (false, false), (true, true), (false, true)]
            {
                let mut expect = input.clone();
                let mut acc = id;
                for j in 0..n {
                    let i = if reverse { n - 1 - j } else { j };
                    let next = combine(acc, input[i]);
                    expect[i] = if inclusive { next } else { acc };
                    acc = next;
                }
                let mut got = input.clone();
                let mut t = Tracked::new(c, &mut got);
                scan_in(
                    c,
                    &sp,
                    &mut t,
                    id,
                    combine,
                    inclusive,
                    reverse,
                    Schedule::Tree,
                );
                assert!(
                    got == expect,
                    "n = {n}, inclusive = {inclusive}, reverse = {reverse}"
                );
            }
        }
    }

    #[test]
    fn host_leaf_runs_match_a_sequential_fold() {
        // The host executors scan `grain_for` runs and the meter runs of
        // two positions, so every block seam, forwards and mirrored, is
        // tested here, with monoids that do not commute.
        let seg = |i: usize| Seg::new(i.wrapping_mul(0x9E37).is_multiple_of(5), i as u64 + 1);
        let seg_add = seg_combine_u64(|a, b| a.wrapping_add(b));
        // Last writer wins: the right operand, unless it is a no-op.
        let lww = |i: usize| (i.wrapping_mul(0x79B9).is_multiple_of(3), i as u64);
        let right_wins = |a: (bool, u64), b: (bool, u64)| if b.0 { b } else { a };

        let c = SeqCtx::new();
        let g = grain_for(&c);
        check_against_fold(&c, g, seg, Seg::new(false, 0), &seg_add);
        check_against_fold(&c, g, lww, (false, 0), &right_wins);
        fj::Pool::pinned(4).run(|c| {
            check_against_fold(c, g, seg, Seg::new(false, 0), &seg_add);
            check_against_fold(c, g, lww, (false, 0), &right_wins);
        });
        measure(CacheConfig::default(), TraceMode::Off, |c| {
            check_against_fold(c, g, seg, Seg::new(false, 0), &seg_add);
            check_against_fold(c, g, lww, (false, 0), &right_wins);
        });
    }

    #[test]
    fn metered_counters_not_above_the_leaf_copy_tree() {
        // `[work, span, cache_misses, trace_len]` at n = 4096 of the scan
        // that copied every leaf into a `2m` tree first (the parent of the
        // grain-leaf rewrite); the walk over metered leaf runs must not
        // cost more.
        let n = 4096;
        let at_most = |r: metrics::CostReport, old: [u64; 4], what: &str| {
            let new = [r.work, r.span, r.cache_misses, r.trace_len];
            assert!(
                new.iter().zip(&old).all(|(a, b)| a <= b),
                "{what}: {new:?} above {old:?}"
            );
        };
        for (inclusive, old) in [
            (false, [61428, 147, 768, 28668]),
            (true, [69620, 149, 768, 32764]),
        ] {
            let (_, r) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                let mut v = vec![1u64; n];
                let mut t = Tracked::new(c, &mut v);
                prefix_sum_in(c, &sp, &mut t, inclusive, Schedule::Tree);
            });
            at_most(r, old, "prefix_sum_in");
        }
        let (_, r) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let sp = ScratchPool::new();
            let mut v = vec![Seg::new(true, 1u64); n];
            let mut t = Tracked::new(c, &mut v);
            seg_propagate_in(c, &sp, &mut t, Schedule::Tree);
        });
        at_most(r, [69621, 150, 3555, 32765], "seg_propagate_in");
    }

    /// `map_scan` over `input`, each position's `(prefix, own)` written to
    /// an output lane, and the input overwritten as it is consumed; `map`
    /// also reads the next position, as the store's walks do.
    fn map_scan_pairs<C: Ctx>(c: &C, input: &[(bool, u64)]) -> Vec<((bool, u64), (bool, u64))> {
        let sp = ScratchPool::new();
        let mut data = input.to_vec();
        let mut out = vec![((false, 0), (false, 0)); input.len()];
        let right_wins = |a: (bool, u64), b: (bool, u64)| if b.0 { b } else { (a.0, a.1 + b.1) };
        map_scan(
            c,
            &sp,
            (Tracked::new(c, &mut data), Tracked::new(c, &mut out)),
            (false, 0),
            &right_wins,
            &|c, (d, _), k| {
                let next = if k + 1 < d.len() {
                    d.get(c, k + 1).1
                } else {
                    0
                };
                (d.get(c, k), next)
            },
            &|c, (d, o), k, i, prefix, own, next| {
                assert_eq!(own, input[i], "position {i} mapped off its input");
                let want = input.get(i + 1).map_or(0, |x| x.1);
                assert_eq!(next, want, "position {i} read a consumed successor");
                o.set(c, k, (prefix, own));
                d.set(c, k, (true, u64::MAX));
            },
        );
        assert!(
            data.iter().all(|&x| x == (true, u64::MAX)),
            "a position was never consumed"
        );
        out
    }

    #[test]
    fn map_scan_hands_every_position_its_exclusive_prefix() {
        // A monoid that does not commute (a reset-or-add), at sizes around
        // the host leaf width, on a sequential, a pooled and a metered
        // executor: one up-sweep total per node, the spine's skipped.
        let c = SeqCtx::new();
        let g = grain_for(&c);
        let pool = fj::Pool::pinned(4);
        for n in [0, 1, 2, 3, g - 1, g, g + 1, 3 * g + 7, 20_000] {
            let input: Vec<(bool, u64)> = (0..n)
                .map(|i| (i.wrapping_mul(0x9E37).is_multiple_of(7), i as u64 % 13))
                .collect();
            let mut expect = Vec::with_capacity(n);
            let mut acc = (false, 0u64);
            for &x in &input {
                expect.push((acc, x));
                acc = if x.0 { x } else { (acc.0, acc.1 + x.1) };
            }
            assert!(map_scan_pairs(&c, &input) == expect, "n = {n}: SeqCtx");
            assert!(
                pool.run(|c| map_scan_pairs(c, &input)) == expect,
                "n = {n}: pool"
            );
            if n <= 4096 {
                let (got, _) = measure(CacheConfig::default(), TraceMode::Off, |c| {
                    map_scan_pairs(c, &input)
                });
                assert!(got == expect, "n = {n}: metered");
            }
        }
    }

    #[test]
    fn map_scan_trace_is_input_independent() {
        let run = |input: Vec<(bool, u64)>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                map_scan_pairs(c, &input)
            });
            (rep.trace_hash, rep.trace_len, rep.work, rep.span)
        };
        let n = 1000u64;
        assert_eq!(
            run((0..n).map(|i| (i % 3 == 0, i)).collect()),
            run((0..n).map(|_| (false, 7)).collect())
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_prefix_sum_matches_reference(v in proptest::collection::vec(any::<u32>(), 1..200)) {
            let sp = ScratchPool::new();
            let v: Vec<u64> = v.into_iter().map(u64::from).collect();
            let mut expect = Vec::with_capacity(v.len());
            let mut acc = 0u64;
            for &x in &v {
                acc += x;
                expect.push(acc);
            }
            for sched in [Schedule::Tree, Schedule::Levels] {
                let c = SeqCtx::new();
                let mut got = v.clone();
                let mut t = Tracked::new(&c, &mut got);
                prefix_sum_in(&c, &sp, &mut t, true, sched);
                prop_assert_eq!(&got, &expect);
            }
        }

        #[test]
        fn prop_propagate_matches_reference(
            heads in proptest::collection::vec(any::<bool>(), 1..150),
            vals in proptest::collection::vec(any::<u64>(), 150),
        ) {
            let n = heads.len();
            let mut segs: Vec<Seg<u64>> = (0..n).map(|i| Seg::new(heads[i] || i == 0, vals[i])).collect();
            let mut expect = vec![0u64; n];
            let mut cur = 0;
            for i in 0..n {
                if segs[i].head { cur = segs[i].v; }
                expect[i] = cur;
            }
            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let mut t = Tracked::new(&c, &mut segs);
            seg_propagate_in(&c, &sp, &mut t, Schedule::Tree);
            let got: Vec<u64> = segs.iter().map(|s| s.v).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
