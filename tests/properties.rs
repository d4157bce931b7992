//! Cross-crate property-based tests: randomized inputs against oracles for
//! the public API surface.

use dob::prelude::*;
use graphs::{kruskal_msf_weight, UnionFind};
use obliv_core::Engine;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oblivious_sort_of_pairs_sorts_and_preserves_multiset(
        keys in proptest::collection::vec(0u64..1000, 0..400),
    ) {
        let c = SeqCtx::new();
        let mut data: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let sp = ScratchPool::new();
        let params = OSortParams::practical(data.len().max(1));
        oblivious_sort(&c, &sp, &mut data, params, 5);
        prop_assert!(data.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut got: Vec<u64> = data.iter().map(|&(k, _)| k).collect();
        let mut expect = keys;
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn orp_is_a_permutation_for_any_size(
        n in 1usize..300,
        seed in 0u64..1000,
    ) {
        let c = SeqCtx::new();
        let items: Vec<obliv_core::Item<u64>> =
            (0..n as u64).map(|i| obliv_core::Item::new(i as u128, i)).collect();
        let sp = ScratchPool::new();
        let (out, attempts) = orp(&c, &sp, &items, OrbaParams::for_n(n), seed);
        prop_assert!(attempts <= 8, "suspiciously many retries: {}", attempts);
        let mut vals: Vec<u64> = out.iter().map(|i| i.val).collect();
        vals.sort_unstable();
        prop_assert_eq!(vals, (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn cc_matches_union_find(
        n in 4usize..60,
        edge_seeds in proptest::collection::vec((0usize..1000, 0usize..1000), 0..80),
    ) {
        let c = SeqCtx::new();
        let edges: Vec<(usize, usize)> = edge_seeds
            .iter()
            .map(|&(a, b)| (a % n, b % n))
            .filter(|&(u, v)| u != v)
            .collect();
        let sp = ScratchPool::new();
        let labels = connected_components(&c, &sp, n, &edges, Engine::BitonicRec);
        let mut uf = UnionFind::new(n);
        for &(u, v) in &edges {
            uf.union(u, v);
        }
        for u in 0..n {
            for v in u + 1..n {
                prop_assert_eq!(
                    labels[u] == labels[v],
                    uf.find(u) == uf.find(v),
                    "vertices {} and {}", u, v
                );
            }
        }
    }

    #[test]
    fn msf_weight_matches_kruskal(
        n in 4usize..40,
        raw in proptest::collection::vec((0usize..1000, 0usize..1000, 0u64..100), 1..60),
    ) {
        let c = SeqCtx::new();
        let edges: Vec<(usize, usize, u64)> = raw
            .iter()
            .map(|&(a, b, w)| (a % n, b % n, w))
            .filter(|&(u, v, _)| u != v)
            .collect();
        let sp = ScratchPool::new();
        let res = msf(&c, &sp, n, &edges, Engine::BitonicRec);
        prop_assert_eq!(res.total_weight, kruskal_msf_weight(n, &edges));
    }

    #[test]
    fn list_rank_on_arbitrary_permutation_lists(
        perm_seed in 0u64..5000,
        n in 2usize..300,
    ) {
        let c = SeqCtx::new();
        let (succ, order) = graphs::random_list(n, perm_seed);
        let sp = ScratchPool::new();
        let ranks = list_rank_oblivious_unit(&c, &sp, &succ, perm_seed ^ 0xA5A5);
        for (k, &node) in order.iter().enumerate() {
            prop_assert_eq!(ranks[node], (n - 1 - k) as u64);
        }
    }

    #[test]
    fn oram_single_accesses_match_map(
        ops in proptest::collection::vec((0u64..128, proptest::option::of(0u64..1000)), 1..80),
        bucket in 0usize..3,
        layout in 0usize..2,
    ) {
        let c = SeqCtx::new();
        let cfg = OramConfig {
            bucket: [2, 3, 5][bucket],
            layout: [pram::TreeLayout::Veb, pram::TreeLayout::Level][layout],
            ..OramConfig::default()
        };
        let mut o = Opram::new(128, cfg, Engine::BitonicRec, 77);
        let mut reference = std::collections::HashMap::new();
        for (addr, write) in ops {
            let got = o.access(&c, addr, write);
            let expect = reference.get(&addr).copied().unwrap_or(0);
            prop_assert_eq!(got, expect, "addr {}", addr);
            if let Some(v) = write {
                reference.insert(addr, v);
            }
        }
    }

    #[test]
    fn expr_trees_evaluate_correctly(
        leaves in 2usize..40,
        seed in 0u64..500,
    ) {
        let c = SeqCtx::new();
        let t = graphs::random_expr_tree(leaves, seed);
        let sp = ScratchPool::new();
        prop_assert_eq!(contract_eval(&c, &sp, &t, Engine::BitonicRec, seed ^ 1), t.eval());
    }
}
