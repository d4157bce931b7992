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

    /// PRAM steps with duplicates: every request sees its address's
    /// pre-step value and the earliest request naming an address installs
    /// its write, if it has one. The addresses crowd `0..24`, so requests
    /// share map entries, and at `s = 4096` the top entry, in most steps.
    #[test]
    fn oram_batches_match_map(
        steps in proptest::collection::vec(
            proptest::collection::vec((0u64..24, proptest::option::of(0u64..1000)), 1..12),
            1..10,
        ),
        space in 0usize..3,
    ) {
        let c = SeqCtx::new();
        let s = [24, 600, 4096][space];
        let mut o = Opram::new(s, OramConfig::default(), Engine::BitonicRec, 13);
        let mut reference = std::collections::HashMap::new();
        for reqs in &steps {
            let got = o.access_batch(&c, reqs);
            let want: Vec<u64> = reqs
                .iter()
                .map(|&(a, _)| reference.get(&a).copied().unwrap_or(0))
                .collect();
            prop_assert_eq!(got, want);
            for (j, &(a, w)) in reqs.iter().enumerate() {
                let first = reqs[..j].iter().all(|&(b, _)| b != a);
                if let (true, Some(v)) = (first, w) {
                    reference.insert(a, v);
                }
            }
        }
    }

    /// The store's ORAM path — each epoch one OPRAM step over its class —
    /// against sequential semantics, with every op kind and many ops on
    /// one key in an epoch.
    #[test]
    fn oram_epochs_match_sequential_semantics(
        epochs in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u64..12, 0u64..1000), 1..16),
            1..10,
        ),
    ) {
        let (c, sp) = (SeqCtx::new(), ScratchPool::new());
        let mut cfg = StoreConfig::with_oram(64);
        cfg.oram_threshold = 32;
        let mut s = Store::new(cfg);
        let mut map = std::collections::HashMap::new();
        for raw in &epochs {
            let ops: Vec<Op> = raw
                .iter()
                .map(|&(kind, key, val)| match kind {
                    0 => Op::Put { key, val },
                    1 => Op::Get { key },
                    _ => Op::Delete { key },
                })
                .collect();
            prop_assert_eq!(s.epoch_path(ops.len()), EpochPath::Oram);
            let got = s.execute_epoch(&c, &sp, &ops).unwrap();
            for (op, res) in ops.iter().zip(got) {
                let want = match *op {
                    Op::Put { key, val } => map.insert(key, val),
                    Op::Get { key } => map.get(&key).copied(),
                    Op::Delete { key } => map.remove(&key),
                    Op::Aggregate => unreachable!(),
                };
                prop_assert_eq!(res, OpResult::Value(want), "{:?}", op);
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
