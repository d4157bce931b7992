//! Euler tour and rooted-tree computations (§5.2).
//!
//! Input: the edge list of an unrooted tree. Every edge is doubled into two
//! arcs; sorting arcs by (tail, head) materializes the circular adjacency
//! lists; a fixed-pattern neighbour scan plus oblivious *propagation* gives
//! each arc its successor within its tail's adjacency list; and one
//! oblivious *send-receive* applies the classic rule
//! `τ(x → y) = Adjsucc(y → x)`, producing the Euler tour as a linked list
//! of arcs. Everything fits in the sorting bound.
//!
//! Rooting the tour at `r` and list-ranking it (with ±1 / indicator
//! weights) yields parent, depth, preorder, postorder, and subtree size —
//! the "tree computations with Euler tour" of §5.2, with the list-ranking
//! step dominating.

use crate::listrank::list_rank_oblivious;
use fj::Ctx;
use metrics::{ScratchPool, Tracked};
use obliv_core::scan::{seg_propagate_in, Schedule, Seg};
use obliv_core::{send_receive, send_receive_u64, Engine, OrbaParams, TagCell};

fn arc_key(u: usize, v: usize) -> u64 {
    ((u as u64) << 32) | v as u64
}

/// An Euler tour: arcs in sorted (tail, head) order plus the successor
/// permutation over arc indices.
#[derive(Clone, Debug)]
pub struct EulerTour {
    pub arcs: Vec<(u32, u32)>,
    pub succ: Vec<usize>,
}

/// Build the Euler tour of the tree given by `edges`, obliviously.
pub fn euler_tour<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    edges: &[(usize, usize)],
    engine: Engine,
) -> EulerTour {
    let l = 2 * edges.len();
    assert!(l >= 2, "tree must have at least one edge");
    // Both directions of every edge, as packed cells keyed by (tail, head):
    // the arc fits the 16-byte aux lane, so the sort moves 32-byte
    // `TagCell`s instead of ~96-byte slots (the PR-5 fast path, applied to
    // the Euler-tour keys). Arc keys are distinct in a tree, so the
    // unstable cell network needs no tiebreak.
    let mut cells = scratch.lease(l, TagCell::filler());
    for (cell, (u, v)) in cells
        .iter_mut()
        .zip(edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]))
    {
        *cell = TagCell::new(arc_key(u, v) as u128, ((u as u128) << 32) | v as u128);
    }
    {
        let mut t = Tracked::new(c, &mut cells);
        engine.sort_cells(c, scratch, &mut t);
    }
    let arcs: Vec<(u32, u32)> = cells
        .iter()
        .map(|s| ((s.aux >> 32) as u32, s.aux as u32))
        .collect();

    // Successor within each tail's circular adjacency list: next arc with
    // the same tail, wrapping to the group head (obliviously propagated).
    let mut heads: Vec<Seg<u64>> = (0..l)
        .map(|i| {
            let head = i == 0 || arcs[i - 1].0 != arcs[i].0;
            Seg::new(head, i as u64)
        })
        .collect();
    {
        let mut t = Tracked::new(c, &mut heads);
        seg_propagate_in(c, scratch, &mut t, Schedule::Tree);
    }
    let adj_succ: Vec<u64> = (0..l)
        .map(|i| {
            let last = i + 1 == l || arcs[i + 1].0 != arcs[i].0;
            if last {
                heads[i].v
            } else {
                (i + 1) as u64
            }
        })
        .collect();
    c.charge_par(2 * l as u64);

    // τ(x → y) = Adjsucc(y → x) via oblivious send-receive.
    let sources: Vec<(u64, u64)> = (0..l)
        .map(|i| (arc_key(arcs[i].0 as usize, arcs[i].1 as usize), adj_succ[i]))
        .collect();
    let dests: Vec<u64> = arcs
        .iter()
        .map(|&(u, v)| arc_key(v as usize, u as usize))
        .collect();
    let succ = send_receive_u64(c, scratch, &sources, &dests, engine)
        .into_iter()
        .map(|o| o.expect("reverse arc exists in a tree") as usize)
        .collect();

    EulerTour { arcs, succ }
}

/// Per-vertex results of the rooted tree computations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeStats {
    /// Parent in the tree rooted at `root` (root maps to itself).
    pub parent: Vec<usize>,
    /// Depth (root = 0).
    pub depth: Vec<u64>,
    /// Preorder number (root = 0, then 1..n-1).
    pub preorder: Vec<u64>,
    /// Postorder number (root = n-1).
    pub postorder: Vec<u64>,
    /// Subtree size (root = n).
    pub subtree: Vec<u64>,
}

/// Rooted tree computations via Euler tour + three weighted list rankings
/// (§5.2), all obliviously.
pub fn rooted_tree_stats<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    n: usize,
    edges: &[(usize, usize)],
    root: usize,
    engine: Engine,
    seed: u64,
) -> TreeStats {
    assert_eq!(edges.len(), n - 1, "not a tree");
    let tour = euler_tour(c, scratch, edges, engine);
    let l = tour.arcs.len();
    let params = OrbaParams::for_n(l);

    // Start arc: the first arc leaving the root in sorted order
    // (fixed-pattern min scan).
    let mut start = usize::MAX;
    for i in 0..l {
        if tour.arcs[i].0 as usize == root && start == usize::MAX {
            start = i;
        }
    }
    c.charge_par(l as u64); // min-index reduction

    // Break the circle: the arc whose successor is `start` becomes the
    // terminal (fixed-pattern pass).
    let succ_list: Vec<usize> = tour
        .succ
        .iter()
        .map(|&s| if s == start { usize::MAX } else { s })
        .collect();
    let succ_list: Vec<usize> = succ_list
        .iter()
        .enumerate()
        .map(|(i, &s)| if s == usize::MAX { i } else { s })
        .collect();
    c.charge_par(2 * l as u64);

    // Tour positions from an (unweighted) oblivious list ranking.
    let unit = vec![1u64; l];
    let rank = list_rank_oblivious(c, scratch, &succ_list, &unit, params, engine, seed);
    let pos: Vec<u64> = rank
        .iter()
        .map(|&r| (l as u64 - 1).wrapping_sub(r))
        .collect();

    // Position of each reverse arc (send-receive keyed by arc id).
    let pos_sources: Vec<(u64, u64)> = (0..l)
        .map(|i| {
            (
                arc_key(tour.arcs[i].0 as usize, tour.arcs[i].1 as usize),
                pos[i],
            )
        })
        .collect();
    let rev_dests: Vec<u64> = tour
        .arcs
        .iter()
        .map(|&(u, v)| arc_key(v as usize, u as usize))
        .collect();
    let rev_pos: Vec<u64> = send_receive_u64(c, scratch, &pos_sources, &rev_dests, engine)
        .into_iter()
        .map(|o| o.expect("reverse arc"))
        .collect();

    // Advance arcs descend from parent to child.
    let advance: Vec<bool> = (0..l).map(|i| pos[i] < rev_pos[i]).collect();

    // Weighted rankings: depth uses +1/−1, preorder counts advances,
    // postorder counts retreats.
    let w_depth: Vec<u64> = advance
        .iter()
        .map(|&a| if a { 1u64 } else { 1u64.wrapping_neg() })
        .collect();
    let w_pre: Vec<u64> = advance.iter().map(|&a| a as u64).collect();
    let w_post: Vec<u64> = advance.iter().map(|&a| !a as u64).collect();
    let r_depth = list_rank_oblivious(c, scratch, &succ_list, &w_depth, params, engine, seed ^ 1);
    let r_pre = list_rank_oblivious(c, scratch, &succ_list, &w_pre, params, engine, seed ^ 2);
    let r_post = list_rank_oblivious(c, scratch, &succ_list, &w_post, params, engine, seed ^ 3);

    // Per-arc prefix-inclusive values (totals minus strict suffixes; the
    // terminal arc is a retreat, so the +1/−1 total needs its weight back).
    let n_adv = (n - 1) as u64;
    let depth_at = |i: usize| {
        0u64.wrapping_sub(r_depth[i])
            .wrapping_add(w_depth[i])
            .wrapping_add(1)
    };
    let pre_at = |i: usize| n_adv - r_pre[i] + w_pre[i];
    // 1-based retreat count inclusive, shifted to 0-based postorder.
    // Wrapping like depth_at: for advance arcs the expression underflows,
    // but those values travel under dummy keys and are never delivered.
    let post_at = |i: usize| (n_adv - r_post[i] + w_post[i]).wrapping_sub(2);

    // Scatter per-vertex results: each advance arc (u → v) describes v.
    let mut parent = vec![root; n];
    let mut depth = vec![0u64; n];
    let mut preorder = vec![0u64; n];
    // The root closes last: postorder n−1 (every other vertex is overwritten).
    let mut postorder = vec![(n - 1) as u64; n];
    let mut subtree = vec![n as u64; n];

    // Advance arc (u → v) describes v's parent/depth/preorder/subtree; the
    // matching *retreat* arc (v → u) carries v's postorder.
    let vert_sources: Vec<(u64, (u64, u64, u64, u64))> = (0..l)
        .map(|i| {
            let (u, v) = tour.arcs[i];
            // Non-advance arcs use a dummy key (> any vertex id).
            let key = if advance[i] {
                v as u64
            } else {
                (1u64 << 32) + i as u64
            };
            let size = rev_pos[i].wrapping_sub(pos[i]).div_ceil(2);
            (key, (u as u64, depth_at(i), pre_at(i), size))
        })
        .collect();
    let post_sources: Vec<(u64, u64)> = (0..l)
        .map(|i| {
            let key = if advance[i] {
                (1u64 << 32) + i as u64
            } else {
                tour.arcs[i].0 as u64
            };
            (key, post_at(i))
        })
        .collect();
    let vert_dests: Vec<u64> = (0..n as u64).collect();
    let results = send_receive(
        c,
        scratch,
        &vert_sources,
        &vert_dests,
        engine,
        Schedule::Tree,
    );
    let post_results = send_receive_u64(c, scratch, &post_sources, &vert_dests, engine);
    for (v, res) in results.into_iter().enumerate() {
        if let Some((p, d, pre, size)) = res {
            parent[v] = p as usize;
            depth[v] = d;
            preorder[v] = pre;
            subtree[v] = size;
        }
    }
    for (v, res) in post_results.into_iter().enumerate() {
        if let Some(post) = res {
            postorder[v] = post;
        }
    }
    c.charge_par(2 * n as u64);

    TreeStats {
        parent,
        depth,
        preorder,
        postorder,
        subtree,
    }
}

/// Sequential DFS oracle for the same statistics.
///
/// The Euler tour enters each vertex's adjacency list in *circular order
/// starting after the arrival edge* (the `τ(x→y) = Adjsucc(y→x)` rule), so
/// the oracle replicates exactly that child order: neighbours greater than
/// the parent in ascending order, then those smaller (the root, entered
/// "from nowhere", uses plain ascending order).
pub fn tree_stats_dfs(n: usize, edges: &[(usize, usize)], root: usize) -> TreeStats {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u].push(v);
        adj[v].push(u);
    }
    for a in adj.iter_mut() {
        a.sort_unstable();
    }
    let mut stats = TreeStats {
        parent: vec![root; n],
        depth: vec![0; n],
        preorder: vec![0; n],
        postorder: vec![0; n],
        subtree: vec![1; n],
    };
    let mut pre_ctr = 0u64;
    let mut post_ctr = 0u64;
    let mut stack = vec![(root, usize::MAX, false)];
    while let Some((u, par, ready)) = stack.pop() {
        if ready {
            stats.postorder[u] = post_ctr;
            post_ctr += 1;
            continue;
        }
        stats.parent[u] = if par == usize::MAX { root } else { par };
        stats.preorder[u] = pre_ctr;
        pre_ctr += 1;
        stack.push((u, par, true));
        // Circular order after `par`: (> par) ascending, then (< par)
        // ascending. Pushed reversed so the stack pops them in order.
        let children: Vec<usize> = if par == usize::MAX {
            adj[u].clone()
        } else {
            adj[u]
                .iter()
                .copied()
                .filter(|&v| v > par)
                .chain(adj[u].iter().copied().filter(|&v| v < par))
                .collect()
        };
        for &v in children.iter().rev() {
            if v != par {
                stats.depth[v] = stats.depth[u] + 1;
                stack.push((v, u, false));
            }
        }
    }
    // Subtree sizes bottom-up in postorder.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| stats.postorder[v]);
    let mut subtree = vec![1u64; n];
    for &v in &order {
        if v != root {
            subtree[stats.parent[v]] += subtree[v];
        }
    }
    stats.subtree = subtree;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_tree;
    use fj::SeqCtx;

    #[test]
    fn tour_is_a_single_cycle_visiting_every_arc() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let edges = random_tree(40, 8);
        let tour = euler_tour(&c, &sp, &edges, Engine::BitonicRec);
        let l = tour.arcs.len();
        assert_eq!(l, 2 * edges.len());
        let mut seen = vec![false; l];
        let mut cur = 0usize;
        for _ in 0..l {
            assert!(!seen[cur], "tour revisited arc {cur}");
            seen[cur] = true;
            cur = tour.succ[cur];
        }
        assert_eq!(cur, 0, "tour must be a single cycle");
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn stats_match_dfs_on_path_and_star() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        // Path 0-1-2-3-4.
        let path: Vec<(usize, usize)> = (0..4).map(|i| (i, i + 1)).collect();
        let got = rooted_tree_stats(&c, &sp, 5, &path, 0, Engine::BitonicRec, 3);
        let expect = tree_stats_dfs(5, &path, 0);
        assert_eq!(got, expect);
        // Star centered at 0.
        let star: Vec<(usize, usize)> = (1..6).map(|v| (0, v)).collect();
        let got = rooted_tree_stats(&c, &sp, 6, &star, 0, Engine::BitonicRec, 4);
        let expect = tree_stats_dfs(6, &star, 0);
        assert_eq!(got, expect);
    }

    #[test]
    fn stats_match_dfs_on_random_trees() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for (n, seed) in [(17usize, 1u64), (64, 2), (150, 3)] {
            let edges = random_tree(n, seed);
            let root = (seed as usize * 7) % n;
            let got = rooted_tree_stats(&c, &sp, n, &edges, root, Engine::BitonicRec, seed);
            let expect = tree_stats_dfs(n, &edges, root);
            assert_eq!(got.parent, expect.parent, "parent n={n}");
            assert_eq!(got.depth, expect.depth, "depth n={n}");
            assert_eq!(got.preorder, expect.preorder, "preorder n={n}");
            assert_eq!(got.postorder, expect.postorder, "postorder n={n}");
            assert_eq!(got.subtree, expect.subtree, "subtree n={n}");
        }
    }
}
