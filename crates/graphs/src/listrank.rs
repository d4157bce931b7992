//! List ranking (§5.1): distance of every node to the end of a linked
//! list (and its weighted generalization).
//!
//! * **Insecure baseline** — classic pointer jumping: `O(n log n)` work,
//!   `⌈log n⌉` rounds of parallel loops. Its access pattern leaks the list
//!   topology.
//! * **Oblivious** (§5.1) — obliviously permute the entries with ORP, learn
//!   each entry's successor's *permuted* position with oblivious
//!   send-receive, pointer-jump directly on the permuted array (safe: the
//!   hidden random permutation makes the pattern simulatable), and route
//!   the answers back with send-receive. Matches the insecure bounds:
//!   `O(n log n)` work, `O((n/B) log_M n)` cache, span `Õ(log² n)`.

use fj::Ctx;
use metrics::{par_fill2, ScratchPool, Tracked};
use obliv_core::slot::Item;
use obliv_core::{orp, send_receive, Engine, OrbaParams, Schedule};

/// Pointer-jumping list ranking (weighted): `rank[i]` = sum of `weight`
/// over the nodes strictly after `i` plus `weight[i]`… concretely the sum
/// of `weight[j]` over every `j` on the path from `i` (inclusive) to the
/// terminal (exclusive of the terminal's self-loop repetition). With unit
/// weights this is the distance to the terminal.
pub fn list_rank_insecure<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    succ: &[usize],
    weight: &[u64],
) -> Vec<u64> {
    let n = succ.len();
    assert_eq!(weight.len(), n);
    let mut s = scratch.lease(n, 0u64);
    let mut r = scratch.lease(n, 0u64);
    for i in 0..n {
        s[i] = succ[i] as u64;
        r[i] = if succ[i] == i { 0 } else { weight[i] };
    }
    let rounds = (usize::BITS - n.max(2).leading_zeros()) as usize;
    let mut s2 = scratch.lease(n, 0u64);
    let mut r2 = scratch.lease(n, 0u64);
    for _ in 0..rounds {
        {
            let st = Tracked::new(c, &mut s);
            let rt = Tracked::new(c, &mut r);
            let mut s2t = Tracked::new(c, &mut s2);
            let mut r2t = Tracked::new(c, &mut r2);
            par_fill2(c, &mut r2t, &mut s2t, &|c, i| {
                let si = st.get(c, i) as usize;
                let add = if si == i { 0 } else { rt.get(c, si) };
                (rt.get(c, i).wrapping_add(add), st.get(c, si))
            });
        }
        std::mem::swap(&mut s, &mut s2);
        std::mem::swap(&mut r, &mut r2);
    }
    r.to_vec()
}

/// Unit-weight convenience wrapper.
pub fn list_rank_insecure_unit<C: Ctx>(c: &C, scratch: &ScratchPool, succ: &[usize]) -> Vec<u64> {
    list_rank_insecure(c, scratch, succ, &vec![1u64; succ.len()])
}

/// Entry carried through the oblivious pipeline.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    orig: u64,
    succ: u64,
    weight: u64,
}

/// Oblivious (weighted) list ranking per §5.1.
pub fn list_rank_oblivious<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    succ: &[usize],
    weight: &[u64],
    params: OrbaParams,
    engine: Engine,
    seed: u64,
) -> Vec<u64> {
    let n = succ.len();
    assert_eq!(weight.len(), n);
    if n == 0 {
        return Vec::new();
    }

    // 1. Obliviously randomly permute the entries.
    let items: Vec<Item<Entry>> = (0..n)
        .map(|i| {
            Item::new(
                i as u128,
                Entry {
                    orig: i as u64,
                    succ: succ[i] as u64,
                    weight: weight[i],
                },
            )
        })
        .collect();
    let (permuted, _) = orp(c, scratch, &items, params, seed);

    // 2. Each entry learns its successor's permuted position via oblivious
    //    send-receive (sources: original id -> permuted position).
    let sources: Vec<(u64, u64)> = permuted
        .iter()
        .enumerate()
        .map(|(j, it)| (it.val.orig, j as u64))
        .collect();
    let dests: Vec<u64> = permuted.iter().map(|it| it.val.succ).collect();
    let succ_pos = send_receive(c, scratch, &sources, &dests, engine, Schedule::Tree);

    // 3. Pointer jumping directly on the permuted array. The permutation is
    //    hidden and uniformly random, so these data-dependent accesses are
    //    simulatable (the paper's argument for using a non-oblivious list
    //    ranker after ORP).
    let perm_succ: Vec<usize> = (0..n)
        .map(|j| {
            let is_terminal = permuted[j].val.succ == permuted[j].val.orig;
            if is_terminal {
                j
            } else {
                succ_pos[j].expect("successor present") as usize
            }
        })
        .collect();
    let perm_weight: Vec<u64> = permuted.iter().map(|it| it.val.weight).collect();
    let perm_rank = list_rank_insecure(c, scratch, &perm_succ, &perm_weight);

    // 4. Route the answers back to original positions.
    let back_sources: Vec<(u64, u64)> = (0..n)
        .map(|j| (permuted[j].val.orig, perm_rank[j]))
        .collect();
    let back_dests: Vec<u64> = (0..n as u64).collect();
    send_receive(
        c,
        scratch,
        &back_sources,
        &back_dests,
        engine,
        Schedule::Tree,
    )
    .into_iter()
    .map(|o| o.expect("every node ranked"))
    .collect()
}

/// Unit-weight oblivious wrapper.
pub fn list_rank_oblivious_unit<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    succ: &[usize],
    seed: u64,
) -> Vec<u64> {
    let params = OrbaParams::for_n(succ.len().max(2));
    list_rank_oblivious(
        c,
        scratch,
        succ,
        &vec![1u64; succ.len()],
        params,
        Engine::BitonicRec,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_list;
    use fj::{Pool, SeqCtx};

    fn reference_ranks(succ: &[usize], order: &[usize]) -> Vec<u64> {
        let n = succ.len();
        let mut r = vec![0u64; n];
        for (k, &node) in order.iter().enumerate() {
            r[node] = (n - 1 - k) as u64;
        }
        r
    }

    #[test]
    fn insecure_matches_reference() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [1usize, 2, 3, 10, 257, 1000] {
            let (succ, order) = random_list(n, n as u64);
            let got = list_rank_insecure_unit(&c, &sp, &succ);
            assert_eq!(got, reference_ranks(&succ, &order), "n = {n}");
        }
    }

    #[test]
    fn oblivious_matches_insecure() {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        for n in [1usize, 2, 50, 300, 1200] {
            let (succ, _) = random_list(n, 7 + n as u64);
            let a = list_rank_insecure_unit(&c, &sp, &succ);
            let b = list_rank_oblivious_unit(&c, &sp, &succ, 99);
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn weighted_ranking() {
        let c = SeqCtx::new();
        let (succ, order) = random_list(64, 3);
        let weight: Vec<u64> = (0..64u64).map(|i| i + 1).collect();
        let sp = ScratchPool::new();
        let got = list_rank_oblivious(
            &c,
            &sp,
            &succ,
            &weight,
            OrbaParams::for_n(64),
            Engine::BitonicRec,
            5,
        );
        // Reference: rank[i] = sum of weights from i (inclusive) along the
        // list, excluding the terminal node's weight.
        let pos: Vec<usize> = {
            let mut p = vec![0usize; 64];
            for (k, &node) in order.iter().enumerate() {
                p[node] = k;
            }
            p
        };
        let mut suffix = vec![0u64; 65];
        for k in (0..63).rev() {
            suffix[k] = suffix[k + 1] + weight[order[k]];
        }
        let expect: Vec<u64> = (0..64)
            .map(|i| suffix[pos[i]].min(suffix[pos[i]]))
            .collect();
        let expect: Vec<u64> = (0..64)
            .map(|i| if pos[i] == 63 { 0 } else { expect[i] })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_matches() {
        let pool = Pool::new(4);
        let (succ, _) = random_list(2000, 21);
        let sp = ScratchPool::new();
        let seq = list_rank_insecure_unit(&SeqCtx::new(), &sp, &succ);
        let par = pool.run(|c| list_rank_oblivious_unit(c, &sp, &succ, 13));
        assert_eq!(seq, par);
    }
}
