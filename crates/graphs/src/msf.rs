//! Minimum spanning forest (§5.3, Table 1 row "MSF†") — oblivious Borůvka.
//!
//! A fixed budget of `⌈log₂ n⌉` Borůvka rounds (component count at least
//! halves per round, so the budget is always sufficient — and being fixed,
//! it keeps the trace data-independent). Each round:
//!
//! 1. flatten the hook forest with `⌈log₂ n⌉` pointer-doubling steps
//!    (send-receive each);
//! 2. fetch both endpoints' component labels (send-receive);
//! 3. every cross edge proposes itself to both components; one oblivious
//!    sort by `(component, weight, edge-id)` finds each component's
//!    minimum incident edge (ties broken by edge id — the same rule the
//!    Kruskal oracle uses);
//! 4. hook each component onto its chosen edge's other endpoint, then
//!    break the 2-cycles mutual hooks create (smaller label becomes root);
//! 5. deduplicate the chosen edges (sort by edge id) and add them to the
//!    forest.
//!
//! Per round `O(sort(n + m))` — total `O(log n · sort(m))`, the Table 1
//! shape `O(m log² n)` work / `Õ(log² n)` span (modulo the practical
//! engine's extra log, as everywhere).

use crate::cc::jump;
use fj::Ctx;
use metrics::{par_update, ScratchPool, Tracked};
use obliv_core::{send_receive, Engine, Schedule, TagCell};

const DUMMY: u64 = u64::MAX;

/// Result of the oblivious MSF computation.
#[derive(Clone, Debug)]
pub struct MsfResult {
    /// Total weight of the forest.
    pub total_weight: u64,
    /// Per input edge: is it in the forest?
    pub in_forest: Vec<bool>,
    /// Final component label per vertex.
    pub components: Vec<u64>,
}

/// Oblivious Borůvka MSF over `(u, v, w)` edges.
pub fn msf<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    n: usize,
    edges: &[(usize, usize, u64)],
    engine: Engine,
) -> MsfResult {
    let m = edges.len();
    let lg = (usize::BITS - n.max(2).leading_zeros()) as usize;
    let mut d: Vec<u64> = (0..n as u64).collect();
    let mut in_forest = vec![false; m];
    let mut total_weight = 0u64;
    let all_v: Vec<u64> = (0..n as u64).collect();

    for _round in 0..lg {
        // 1. Flatten.
        for _ in 0..lg {
            d = jump(c, scratch, &d, engine);
        }

        // 2. Endpoint components.
        let comp_sources: Vec<(u64, u64)> = (0..n).map(|v| (v as u64, d[v])).collect();
        let ends: Vec<u64> = edges
            .iter()
            .flat_map(|&(u, v, _)| [u as u64, v as u64])
            .collect();
        let end_comp = send_receive(c, scratch, &comp_sources, &ends, engine, Schedule::Tree);

        // 3. Per-component minimum incident edge: both half-edges propose.
        // Proposals ride in packed 32-byte `TagCell`s (DESIGN.md §10):
        // the (component ‖ weight ‖ edge id) composite key is the tag, and
        // (component ‖ other endpoint) packs into the 128-bit aux lane.
        // Distinct edge ids make real tags distinct (same-edge non-cross
        // duplicates are discarded regardless of order), so the unstable
        // cell network is safe.
        let mut proposals = scratch.lease(2 * m, TagCell::filler());
        for e in 0..m {
            let (cu, cv) = (
                end_comp[2 * e].expect("endpoint"),
                end_comp[2 * e + 1].expect("endpoint"),
            );
            let w = edges[e].2;
            for (side, &(mine, other)) in [(cu, cv), (cv, cu)].iter().enumerate() {
                let cross = cu != cv;
                let comp = if cross { mine } else { DUMMY };
                // (component ‖ weight ‖ edge id); weights and ids < 2^40.
                let tag = ((comp as u128) << 72) | ((w as u128) << 32) | e as u128;
                proposals[2 * e + side] = TagCell::new(tag, ((comp as u128) << 64) | other as u128);
            }
        }
        c.charge_par(2 * m as u64);
        {
            let mut t = Tracked::new(c, &mut proposals);
            engine.sort_cells(c, scratch, &mut t);
        }

        // Winners: head of each component run.
        let winners: Vec<(u64, (u64, u64))> = (0..2 * m)
            .map(|i| {
                let s = proposals[i];
                let comp = (s.aux >> 64) as u64;
                let head = i == 0 || (proposals[i - 1].aux >> 64) as u64 != comp;
                if head && comp != DUMMY {
                    let (eid, other) = (s.tag as u32 as u64, s.aux as u64);
                    (comp, (eid, other))
                } else {
                    (DUMMY - 1 - i as u64, (0, 0)) // distinct dummies
                }
            })
            .collect();
        c.charge_par(2 * m as u64);

        // 4. Hook each winning component onto the other endpoint.
        let hook_sources: Vec<(u64, u64)> = winners
            .iter()
            .map(|&(comp, (_, other))| (comp, other))
            .collect();
        let hooks = send_receive(c, scratch, &hook_sources, &all_v, engine, Schedule::Tree);
        par_update(c, &mut Tracked::new(c, &mut d), &|_, v, cur| {
            hooks[v].unwrap_or(cur)
        });
        // Break 2-cycles: if D[D[v]] == v, the smaller id becomes root.
        let dd = jump(c, scratch, &d, engine);
        par_update(c, &mut Tracked::new(c, &mut d), &|_, v, cur| {
            let two_cycle = dd[v] == v as u64 && cur != v as u64;
            let fix = two_cycle && (v as u64) < cur;
            if fix {
                v as u64
            } else {
                cur
            }
        });

        // 5. Deduplicate chosen edges (oblivious sort by edge id) and route
        // the selection flags back to the edges with send-receive, so the
        // forest bookkeeping never indexes memory by a secret edge id.
        // Chosen-edge dedup also rides in cells: tag = edge id for real
        // winners (duplicates of the same eid are identical cells, so the
        // unstable network is safe), `u128::MAX - 1` for non-winners, and
        // the aux lane carries (real flag ‖ eid) for the readout.
        let mut chosen = scratch.lease(2 * m, TagCell::filler());
        for (cell, &(comp, (eid, _))) in chosen.iter_mut().zip(winners.iter()) {
            let real = comp < DUMMY - (2 * m) as u64; // non-dummy winner
            let tag = if real { eid as u128 } else { u128::MAX - 1 };
            *cell = TagCell::new(tag, ((real as u128) << 64) | eid as u128);
        }
        {
            let mut t = Tracked::new(c, &mut chosen);
            engine.sort_cells(c, scratch, &mut t);
        }
        let flag_sources: Vec<(u64, u64)> = (0..chosen.len())
            .map(|i| {
                let s = chosen[i];
                let (real, eid) = ((s.aux >> 64) == 1, s.aux as u64);
                let head =
                    i == 0 || chosen[i - 1].aux as u64 != eid || (chosen[i - 1].aux >> 64) != 1;
                if real && head {
                    (eid, 1)
                } else {
                    ((1u64 << 48) + i as u64, 0) // distinct dummy keys
                }
            })
            .collect();
        c.charge_par(chosen.len() as u64);
        let edge_ids: Vec<u64> = (0..m as u64).collect();
        let flags = send_receive(c, scratch, &flag_sources, &edge_ids, engine, Schedule::Tree);
        for e in 0..m {
            let newly = flags[e].is_some() && !in_forest[e];
            in_forest[e] |= newly;
            total_weight += edges[e].2 * newly as u64;
        }
        c.charge_par(m as u64); // flag merge + weight reduction
    }

    // Final flatten for clean component labels.
    for _ in 0..lg {
        d = jump(c, scratch, &d, engine);
    }
    MsfResult {
        total_weight,
        in_forest,
        components: d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{kruskal_msf_weight, random_weighted_graph, UnionFind};
    use fj::{Pool, SeqCtx};

    fn check(n: usize, edges: &[(usize, usize, u64)]) {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let res = msf(&c, &sp, n, edges, Engine::BitonicRec);
        assert_eq!(
            res.total_weight,
            kruskal_msf_weight(n, edges),
            "weight mismatch"
        );
        // Selected edges must form a forest spanning each component.
        let mut uf = UnionFind::new(n);
        let mut count = 0;
        for (e, &(u, v, _)) in edges.iter().enumerate() {
            if res.in_forest[e] {
                assert!(uf.union(u, v), "cycle in claimed forest at edge {e}");
                count += 1;
            }
        }
        let mut uf2 = UnionFind::new(n);
        let mut comps = n;
        for &(u, v, _) in edges {
            if uf2.union(u, v) {
                comps -= 1;
            }
        }
        assert_eq!(count, n - comps, "forest edge count");
    }

    #[test]
    fn triangle() {
        check(3, &[(0, 1, 5), (1, 2, 3), (0, 2, 4)]);
    }

    #[test]
    fn random_graphs() {
        for (n, m, seed) in [
            (16usize, 30usize, 1u64),
            (40, 80, 2),
            (64, 64, 3),
            (30, 15, 4),
        ] {
            let edges = random_weighted_graph(n, m, seed);
            check(n, &edges);
        }
    }

    #[test]
    fn disconnected_graph() {
        // Two separate triangles.
        let edges = vec![
            (0usize, 1usize, 1u64),
            (1, 2, 2),
            (0, 2, 3),
            (3, 4, 4),
            (4, 5, 5),
            (3, 5, 6),
        ];
        check(6, &edges);
    }

    #[test]
    fn path_graph_takes_all_edges() {
        let n = 32;
        let edges: Vec<(usize, usize, u64)> = (0..n - 1)
            .map(|i| (i, i + 1, (i * 7 % 13) as u64 + 1))
            .collect();
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let res = msf(&c, &sp, n, &edges, Engine::BitonicRec);
        assert!(
            res.in_forest.iter().all(|&b| b),
            "every path edge is in the MSF"
        );
    }

    #[test]
    fn parallel_matches() {
        let pool = Pool::new(4);
        let edges = random_weighted_graph(50, 100, 9);
        let sp = ScratchPool::new();
        let seq = msf(&SeqCtx::new(), &sp, 50, &edges, Engine::BitonicRec);
        let par = pool.run(|c| msf(c, &sp, 50, &edges, Engine::BitonicRec));
        assert_eq!(seq.total_weight, par.total_weight);
        assert_eq!(seq.in_forest, par.in_forest);
    }
}
