//! Scans: prefix sums, segmented propagation and aggregation (§F).
//!
//! The paper realizes oblivious *aggregation* and *propagation* in a sorted
//! array with segmented prefix/suffix scans: `O(n)` work, `O(n/B)` cache
//! complexity, and `O(log n)` span in the binary fork-join model — a
//! `log n`-factor span improvement over the prior best, which forked `n`
//! threads per PRAM step of the doubling algorithm (Table 2 rows "Aggr" and
//! "Prop"). Both schedules are implemented here:
//!
//! * [`Schedule::Tree`] — recursive reduce/distribute tree: each tree node
//!   is a constant-work fork, so the span is `O(log n)` (ours). A leaf of
//!   the tree is a sequential run of [`fj::grain_for`] elements, reduced
//!   and re-swept in place — the rule every loop and recursion cut-off in
//!   the workspace follows (`grain_for` / [`fj::base_for`]): one element
//!   on metered contexts, so the measured span is the model's; a
//!   fork-amortizing run on host executors, where the tree then spans
//!   only the `⌈n/grain⌉` block totals;
//! * [`Schedule::Levels`] — the Blelloch up/down sweeps evaluated level by
//!   level with a parallel loop (and its fork tree) per level:
//!   `Σ_d O(log(n/2^d)) = O(log² n)` span (prior best).
//!
//! Scans are trivially data-oblivious: the access pattern depends only on
//! `n`.

use crate::slot::Val;
use fj::{grain_for, par_for, Ctx};
use metrics::{par_fill, ScratchPool, Tracked};
use sortnet::select_u64;

/// Which parallel schedule evaluates the scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Recursive tree, span `O(log n)` — the paper's construction.
    Tree,
    /// Level-by-level sweeps, span `O(log² n)` — the naive baseline.
    Levels,
}

/// Generic scan with an associative `combine` and two-sided identity `id`
/// (identity is only ever combined on the right of live data, so a
/// right-identity suffices — see [`seg_propagate_in`]).
///
/// * `inclusive` — include the element itself in its result;
/// * `reverse` — scan right-to-left (suffix scan).
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
    let n = data.len();
    if n == 0 {
        return;
    }
    match sched {
        Schedule::Tree => {
            // Leaf width: see the module docs.
            let grain = grain_for(c);
            let blocks = n.div_ceil(grain);
            let m = blocks.next_power_of_two();
            // Block totals live at [m, m + blocks), their reduce tree
            // above them; the padding leaves keep the lease's `id`.
            let mut tree_store = scratch.lease(2 * m, id);
            let mut tree = Tracked::new(c, &mut tree_store);
            let t = TreeScan {
                tree: tree.as_raw(),
                data: data.as_raw(),
                combine,
                n,
                grain,
                blocks,
                m,
                inclusive,
                reverse,
            };
            t.up(c, 1);
            t.down(c, 1, id);
        }
        Schedule::Levels => levels_scan(c, scratch, data, id, combine, inclusive, reverse),
    }
}

/// One [`Schedule::Tree`] scan: `data` cut into `blocks` runs of `grain`
/// logical positions (the last may be short), and a reduce tree of `2m`
/// nodes over the block totals (root 1, block `b` at leaf `m + b`).
struct TreeScan<'a, S, OP> {
    tree: metrics::RawTracked<S>,
    data: metrics::RawTracked<S>,
    combine: &'a OP,
    n: usize,
    grain: usize,
    blocks: usize,
    m: usize,
    inclusive: bool,
    reverse: bool,
}

impl<S: Val, OP: Fn(S, S) -> S + Sync> TreeScan<'_, S, OP> {
    /// Physical index of logical (scan-order) position `j`.
    #[inline(always)]
    fn at(&self, j: usize) -> usize {
        if self.reverse {
            self.n - 1 - j
        } else {
            j
        }
    }

    /// Whether every leaf under `node` is padding (prunes the walks so
    /// work stays `O(n)` whatever `m − blocks` is).
    fn is_empty(&self, mut node: usize) -> bool {
        while node < self.m {
            node *= 2;
        }
        node - self.m >= self.blocks
    }

    /// Up-sweep: reduce every block straight out of `data`, then combine
    /// the totals pairwise up the tree.
    fn up<C: Ctx>(&self, c: &C, node: usize) {
        if self.is_empty(node) {
            return;
        }
        if node >= self.m {
            let b = node - self.m;
            // The last block's total is no position's prefix.
            if b + 1 < self.blocks {
                let lo = b * self.grain;
                // SAFETY: nothing writes `data` during the up-sweep; this
                // leaf is written only here.
                unsafe {
                    let mut acc = self.data.get(c, self.at(lo));
                    for j in lo + 1..lo + self.grain {
                        c.work(1);
                        acc = (self.combine)(acc, self.data.get(c, self.at(j)));
                    }
                    self.tree.set(c, node, acc);
                }
            }
            return;
        }
        c.join(|c| self.up(c, 2 * node), |c| self.up(c, 2 * node + 1));
        // SAFETY: children finished; this node written only here.
        unsafe {
            let l = self.tree.get(c, 2 * node);
            let r = self.tree.get(c, 2 * node + 1);
            c.work(1);
            self.tree.set(c, node, (self.combine)(l, r));
        }
    }

    /// Down-sweep: `acc` is the combined value of everything before the
    /// leaves under `node`; each block finishes with a sequential pass.
    fn down<C: Ctx>(&self, c: &C, node: usize, acc: S) {
        if self.is_empty(node) {
            return;
        }
        if node >= self.m {
            let lo = (node - self.m) * self.grain;
            let hi = (lo + self.grain).min(self.n);
            let mut acc = acc;
            // SAFETY: blocks are disjoint and `at` is a bijection, so each
            // data slot is read and written by this task alone.
            unsafe {
                if self.inclusive {
                    for j in lo..hi {
                        let i = self.at(j);
                        c.work(1);
                        acc = (self.combine)(acc, self.data.get(c, i));
                        self.data.set(c, i, acc);
                    }
                } else {
                    // The block's last element feeds no later prefix, so
                    // it is overwritten unread.
                    for j in lo..hi - 1 {
                        let i = self.at(j);
                        let x = self.data.get(c, i);
                        self.data.set(c, i, acc);
                        c.work(1);
                        acc = (self.combine)(acc, x);
                    }
                    self.data.set(c, self.at(hi - 1), acc);
                }
            }
            return;
        }
        // SAFETY: the left child's total was finalized during `up`.
        let left_total = unsafe { self.tree.get(c, 2 * node) };
        c.work(1);
        let right_acc = (self.combine)(acc, left_total);
        c.join(
            |c| self.down(c, 2 * node, acc),
            |c| self.down(c, 2 * node + 1, right_acc),
        );
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

    // Gather leaves (logical order: reversed for suffix scans) into a
    // padded scratch tree of size 2m; leaves live at [m, 2m).
    let mut tree_store = scratch.lease(2 * m, id);
    let mut tree = Tracked::new(c, &mut tree_store);
    par_fill(c, &mut tree.range(m, m + n), &|c, j| {
        data.get(c, if reverse { n - 1 - j } else { j })
    });

    // Work on the leaf row [m, 2m) of the scratch; keep original leaves for
    // the inclusive fix-up.
    let mut orig_store = scratch.lease(if inclusive { m } else { 0 }, id);
    let mut orig = Tracked::new(c, &mut orig_store);
    if inclusive {
        par_fill(c, &mut orig, &|c, j| tree.get(c, m + j));
    }

    let tr = tree.as_raw();
    // Up-sweep.
    let mut offset = 1;
    while offset < m {
        let step = offset * 2;
        par_for(c, 0, m / step, grain_for(c), &|c, i| {
            let idx = m + i * step;
            // SAFETY: disjoint `idx` ranges per i.
            unsafe {
                let a = tr.get(c, idx + offset - 1);
                let b = tr.get(c, idx + step - 1);
                c.work(1);
                tr.set(c, idx + step - 1, combine(a, b));
            }
        });
        offset = step;
    }
    // Down-sweep (exclusive).
    tree.set(c, 2 * m - 1, id);
    let tr = tree.as_raw();
    let mut offset = m / 2;
    while offset >= 1 {
        let step = offset * 2;
        par_for(c, 0, m / step, grain_for(c), &|c, i| {
            let idx = m + i * step;
            // SAFETY: disjoint `idx` ranges per i.
            unsafe {
                let t = tr.get(c, idx + offset - 1);
                let top = tr.get(c, idx + step - 1);
                c.work(1);
                tr.set(c, idx + offset - 1, top);
                // `top` is the prefix arriving from the parent and `t` the
                // left subtotal: parent-prefix first (combine need not be
                // commutative — segmented scans are not).
                tr.set(c, idx + step - 1, combine(top, t));
            }
        });
        offset /= 2;
    }
    // Write back (with inclusive fix-up); a suffix scan lands mirrored.
    let dr = data.as_raw();
    par_for(c, 0, n, grain_for(c), &|c, j| {
        let dst = if reverse { n - 1 - j } else { j };
        let ex = tree.get(c, m + j);
        let out = if inclusive {
            c.work(1);
            combine(ex, orig.get(c, j))
        } else {
            ex
        };
        // SAFETY: bijective logical-index map.
        unsafe { dr.set(c, dst, out) };
    });
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

fn seg_combine<V: Val, OP: Fn(V, V) -> V + Sync>(
    op: &OP,
) -> impl Fn(Seg<V>, Seg<V>) -> Seg<V> + Sync + '_ {
    // The head flags are secret-dependent values living in tracked
    // memory; under Definition 1 only the *addresses* are observable, so
    // this branch leaks nothing — the concrete `u64` scans below still
    // route through word selects as best-effort hardening, matching the
    // branchless discipline of the `sortnet::vec` kernel layer. The
    // generic combine keeps the branch because `V` cannot be mask-selected
    // generically.
    move |a, b| {
        if b.head {
            b
        } else {
            Seg {
                head: a.head || b.head,
                v: op(a.v, b.v),
            }
        }
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
    // Left projection is associative and right-identity for any id value,
    // which is all `scan` requires (identity only pads on the right).
    scan_in(
        c,
        scratch,
        t,
        Seg::new(false, V::default()),
        &seg_combine(&|a, _b| a),
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
    /// inclusivity, at sizes around the host leaf width `g`.
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
        // Metered contexts never see a leaf wider than one element; the
        // host executors scan `grain_for` runs, so the block seams are
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
    }

    #[test]
    fn metered_counters_not_above_the_leaf_copy_tree() {
        // `[work, span, cache_misses, trace_len]` at n = 4096 of the scan
        // that copied every leaf into a `2m` tree first (the parent of the
        // grain-leaf rewrite); one-element leaves must not cost more.
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
