//! Connected components (§5.3, Table 1 row "CC†").
//!
//! A Shiloach–Vishkin-family algorithm — hook each component onto the
//! minimum neighbouring (grand)label, then pointer-double — run for a
//! *fixed* `2⌈log₂ n⌉ + 4` rounds so the round count (and hence the whole
//! trace) is data-independent. Every data-dependent access of a round is an
//! oblivious primitive:
//!
//! * grand-labels `D[D[v]]` and edge-endpoint labels via **send-receive**;
//! * minimum-hook conflict resolution via one **oblivious sort** over the
//!   per-edge proposals (head of each target-run wins);
//! * label application and two shortcut steps via **send-receive**.
//!
//! Per round: `O(sort(n + m))` work — `O(log n)` rounds total, matching the
//! paper's `O(m log² n)` work and `Õ(log² n)` span shape for CC (our span
//! carries the bitonic engine's extra log factor, as §3.4 licenses).
//!
//! Labels decrease monotonically and hooking is to the component minimum,
//! so the fixed round budget flattens every component to its minimum
//! vertex id (asserted against a union-find oracle in tests, including
//! paths and cycles — the adversarial diameters).

use fj::Ctx;
use metrics::{par_update, ScratchPool, Tracked};
use obliv_core::slot::composite_key;
use obliv_core::{send_receive_u64, Engine, TagCell};

const DUMMY: u64 = u64::MAX;

/// Fixed round budget for `n` vertices.
pub fn cc_rounds(n: usize) -> usize {
    2 * (usize::BITS - n.max(2).leading_zeros()) as usize + 4
}

/// Oblivious connected components: returns the component label of every
/// vertex (the minimum vertex id in its component).
pub fn connected_components<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    n: usize,
    edges: &[(usize, usize)],
    engine: Engine,
) -> Vec<u64> {
    let mut d: Vec<u64> = (0..n as u64).collect();
    let all_v: Vec<u64> = (0..n as u64).collect();
    let m = edges.len();

    for _round in 0..cc_rounds(n) {
        // Grand-labels rr[v] = D[D[v]].
        let rr = jump(c, scratch, &d, engine);

        // Endpoint grand-labels for every edge.
        let rr_sources: Vec<(u64, u64)> = (0..n).map(|v| (v as u64, rr[v])).collect();
        let ends: Vec<u64> = edges
            .iter()
            .flat_map(|&(u, v)| [u as u64, v as u64])
            .collect();
        let end_rr = send_receive_u64(c, scratch, &rr_sources, &ends, engine);

        // Hook proposals: target = larger grand-label, value = smaller.
        let proposals: Vec<(u64, u64)> = (0..m)
            .map(|e| {
                let (a, b) = (
                    end_rr[2 * e].expect("endpoint label"),
                    end_rr[2 * e + 1].expect("endpoint label"),
                );
                if a == b {
                    (DUMMY, 0)
                } else {
                    (a.max(b), a.min(b))
                }
            })
            .collect();
        c.charge_par(m as u64);

        // Minimum per target via oblivious sort (head of each run wins).
        let winners = min_per_target(c, scratch, &proposals, engine);

        // Apply hooks: D[t] = min(D[t], proposal).
        let hook_res = send_receive_u64(c, scratch, &winners, &all_v, engine);
        par_update(c, &mut Tracked::new(c, &mut d), &|_, v, cur| {
            cur.min(hook_res[v].unwrap_or(cur))
        });

        // Two shortcut (pointer-doubling) steps.
        for _ in 0..2 {
            d = jump(c, scratch, &d, engine);
        }
    }
    d
}

/// One pointer-jumping step by send-receive: `D[D[v]]` for every `v`.
pub(crate) fn jump<C: Ctx>(c: &C, scratch: &ScratchPool, d: &[u64], engine: Engine) -> Vec<u64> {
    let sources: Vec<(u64, u64)> = d.iter().enumerate().map(|(v, &x)| (v as u64, x)).collect();
    send_receive_u64(c, scratch, &sources, d, engine)
        .into_iter()
        .map(|o| o.expect("label in range"))
        .collect()
}

/// Keep, for every distinct target, the minimum proposed value. Output has
/// one entry per input (fixed size); losers are blinded to dummies.
fn min_per_target<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    proposals: &[(u64, u64)],
    engine: Engine,
) -> Vec<(u64, u64)> {
    // The whole (target, value) pair fits in the 128-bit tag, so the sort
    // moves packed 32-byte `TagCell`s instead of ~96-byte slots (the PR-5
    // fast path). Equal tags are identical pairs, so the unstable network
    // is safe.
    let mut cells = scratch.lease(proposals.len(), TagCell::filler());
    for (cell, &(t, v)) in cells.iter_mut().zip(proposals.iter()) {
        *cell = TagCell::new(composite_key(t, v), 0);
    }
    {
        let mut t = Tracked::new(c, &mut cells);
        engine.sort_cells(c, scratch, &mut t);
    }
    let out: Vec<(u64, u64)> = (0..proposals.len())
        .map(|i| {
            let (t, v) = ((cells[i].tag >> 64) as u64, cells[i].tag as u64);
            let head = i == 0 || (cells[i - 1].tag >> 64) as u64 != t;
            if head && t != DUMMY {
                (t, v)
            } else {
                (DUMMY, 0)
            }
        })
        .collect();
    c.charge_par(proposals.len() as u64);
    out
}

/// Insecure baseline: the same hook-to-min/shortcut rounds with direct
/// (leaky) array accesses.
pub fn connected_components_insecure<C: Ctx>(
    c: &C,
    n: usize,
    edges: &[(usize, usize)],
) -> Vec<u64> {
    let mut d: Vec<u64> = (0..n as u64).collect();
    for _ in 0..cc_rounds(n) {
        let rr: Vec<u64> = (0..n).map(|v| d[d[v] as usize]).collect();
        let mut best: Vec<u64> = rr.clone();
        for &(u, v) in edges {
            let (a, b) = (rr[u], rr[v]);
            if a != b {
                let t = a.max(b) as usize;
                best[t] = best[t].min(a.min(b));
            }
        }
        for v in 0..n {
            d[v] = d[v].min(best[d[v] as usize]).min(best[v]);
        }
        for _ in 0..2 {
            d = (0..n).map(|v| d[d[v] as usize]).collect();
        }
        c.work((n + edges.len()) as u64);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_graph, UnionFind};
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};

    fn oracle_labels(n: usize, edges: &[(usize, usize)]) -> Vec<u64> {
        let mut uf = UnionFind::new(n);
        for &(u, v) in edges {
            uf.union(u, v);
        }
        // Canonical label: minimum vertex id per component.
        let mut min_label = vec![u64::MAX; n];
        for v in 0..n {
            let r = uf.find(v);
            min_label[r] = min_label[r].min(v as u64);
        }
        (0..n).map(|v| min_label[uf.find(v)]).collect()
    }

    #[test]
    fn handles_path_and_cycle_adversarial_diameter() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let n = 64;
        let path: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        assert_eq!(
            connected_components(&c, &sp, n, &path, Engine::BitonicRec),
            vec![0u64; n]
        );
        let cycle: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        assert_eq!(
            connected_components(&c, &sp, n, &cycle, Engine::BitonicRec),
            vec![0u64; n]
        );
    }

    #[test]
    fn matches_union_find_on_random_graphs() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for (n, m, seed) in [
            (20usize, 12usize, 1u64),
            (50, 40, 2),
            (100, 160, 3),
            (64, 20, 4),
        ] {
            let edges = random_graph(n, m, seed);
            let got = connected_components(&c, &sp, n, &edges, Engine::BitonicRec);
            assert_eq!(got, oracle_labels(n, &edges), "n={n} m={m} seed={seed}");
        }
    }

    #[test]
    fn insecure_baseline_matches_oracle() {
        let c = SeqCtx::new();
        for (n, m, seed) in [(40usize, 30usize, 5u64), (80, 120, 6)] {
            let edges = random_graph(n, m, seed);
            let got = connected_components_insecure(&c, n, &edges);
            assert_eq!(got, oracle_labels(n, &edges));
        }
    }

    #[test]
    fn isolated_vertices_and_empty_graph() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let got = connected_components(&c, &sp, 8, &[], Engine::BitonicRec);
        assert_eq!(got, (0..8u64).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches() {
        let pool = Pool::new(4);
        let edges = random_graph(120, 200, 9);
        let sp = ScratchPool::new();
        let seq = connected_components(&SeqCtx::new(), &sp, 120, &edges, Engine::BitonicRec);
        let par = pool.run(|c| connected_components(c, &sp, 120, &edges, Engine::BitonicRec));
        assert_eq!(seq, par);
    }

    #[test]
    fn trace_depends_only_on_shape() {
        // Same (n, m): different topologies must give identical traces.
        let run = |edges: Vec<(usize, usize)>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                connected_components(c, &sp, 32, &edges, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..31).map(|i| (i, i + 1)).collect()); // path
        let b = run(random_graph(32, 31, 7)); // random, same m
        assert_eq!(a, b, "CC trace leaked the topology");
    }
}
