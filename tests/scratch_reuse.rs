//! Obliviousness regression tests for the scratch arena: buffer reuse must
//! be invisible to the paper's adversary (Definition 1) and to callers.
//!
//! The arena hands kernels recycled backing storage whose bytes are dirty
//! with the previous lease's data. Two things must therefore hold:
//!
//! 1. **Trace equality** — for fixed coins and same-length inputs, a
//!    kernel's adversary trace (address sequence, lengths, kinds) is
//!    bit-identical whether it runs on a fresh pool or on a pool already
//!    dirtied by *other* kernels. The trace is a function of the logical
//!    address space (`Tracked` registration order), never of which
//!    physical buffer backs a lease.
//! 2. **Output equality** — results are byte-identical fresh-vs-reused,
//!    under both the sequential executor and the work-stealing pool
//!    (write-before-read discipline: no kernel ever observes stale bytes).

use dob::prelude::*;
use obliv_core::scan::{prefix_sum_in, Schedule};
use obliv_core::{
    bin_place, compact_bounded, compact_cells, oblivious_sort_kv, orp_once, Bound, Item, Ranks,
    Slot, TagCell,
};

mod common;
use common::dirty;

fn trace<F: FnOnce(&MeterCtx)>(f: F) -> (u64, u64) {
    let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, f);
    (rep.trace_hash, rep.trace_len)
}

#[test]
fn trace_hashes_identical_on_fresh_vs_dirty_pool() {
    let n = 900usize;
    let keys: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();

    let run = |pool: &ScratchPool| {
        trace(|c| {
            let mut v = keys.clone();
            oblivious_sort_u64(c, pool, &mut v, OSortParams::practical(n), 2025);
        })
    };

    let fresh = ScratchPool::new();
    let a = run(&fresh);

    let reused = ScratchPool::new();
    dirty(&reused);
    assert!(reused.leases() > 0 && reused.fresh_allocs() > 0);
    let b = run(&reused);
    assert_eq!(a, b, "dirty pool changed the oblivious sort trace");

    // Run again on the same (now even dirtier) pool: still identical.
    let c3 = run(&reused);
    assert_eq!(a, c3, "second reuse changed the trace");
}

#[test]
fn kernel_matrix_traces_survive_reuse() {
    // One fresh-vs-dirty trace check per kernel family.
    let items: Vec<Item<u64>> = (0..400u64).map(|i| Item::new(i as u128, i)).collect();
    let orp_run = |pool: &ScratchPool| {
        trace(|c| {
            let _ = orp_once(c, pool, &items, OrbaParams::for_n(400), 77);
        })
    };
    // 64 bins at γ = 4: a butterfly of four placement levels, the last of
    // which only sorts its rows (`for_n(400)` is a single placement).
    let deep = OrbaParams {
        z: 16,
        gamma: 4,
        ..OrbaParams::for_n(400)
    };
    let orp_deep_run = |pool: &ScratchPool| {
        trace(|c| {
            let _ = orp_once(c, pool, &items, deep, 77);
        })
    };
    // `oblivious_sort_u64`'s bare keys through the same butterfly: ORP's
    // layout, placements, transposes and removal all on 16-byte cells.
    let cells_deep_run = |pool: &ScratchPool| {
        trace(|c| {
            let mut keys: Vec<u64> = (0..400u64).map(|i| i * 7 % 401).collect();
            let p = OSortParams {
                orba: deep,
                ..OSortParams::practical(400)
            };
            oblivious_sort_u64(c, pool, &mut keys, p, 77);
        })
    };
    let binplace_run = |pool: &ScratchPool| {
        trace(|c| {
            let mut slots: Vec<Slot<u64>> = (0..64u64)
                .map(|i| Slot::real(Item::new(i as u128, i), i % 8))
                .collect();
            slots.resize(8 * 16, Slot::filler());
            let mut t = Tracked::new(c, &mut slots);
            let _ = bin_place(c, pool, &mut t, 8, 16, 0, Engine::BitonicRec);
        })
    };
    let sr_run = |pool: &ScratchPool| {
        trace(|c| {
            let sources: Vec<(u64, u64)> = (0..128).map(|i| (i * 2, i)).collect();
            let dests: Vec<u64> = (0..200).collect();
            send_receive(
                c,
                pool,
                &sources,
                &dests,
                Engine::BitonicRec,
                Schedule::Tree,
            );
        })
    };
    let shellsort_run = |pool: &ScratchPool| {
        trace(|c| {
            let mut v: Vec<u64> = (0..256u64).rev().collect();
            let mut t = Tracked::new(c, &mut v);
            sortnet::randomized_shellsort(c, pool, &mut t, &|x: &u64| *x as u128, 9);
        })
    };
    let tag_sort_run = |pool: &ScratchPool| {
        trace(|c| {
            let mut kv: Vec<(u64, u64)> =
                (0..300u64).map(|i| (i.wrapping_mul(7) % 48, i)).collect();
            oblivious_sort_kv(c, pool, &mut kv, Engine::BitonicRec);
        })
    };
    let compact_run = |pool: &ScratchPool| {
        trace(|c| {
            let mut cells: Vec<TagCell> = (0..256u128)
                .map(|i| {
                    if i % 3 == 0 {
                        TagCell::new(i, i)
                    } else {
                        TagCell::filler()
                    }
                })
                .collect();
            let mut t = Tracked::new(c, &mut cells);
            compact_cells(c, pool, &mut t);
        })
    };

    for (name, run) in [
        ("orp_once", &orp_run as &dyn Fn(&ScratchPool) -> (u64, u64)),
        ("orp_once (multi-level)", &orp_deep_run),
        ("oblivious_sort_u64 (cells, multi-level)", &cells_deep_run),
        ("bin_place", &binplace_run),
        ("send_receive", &sr_run),
        ("randomized_shellsort", &shellsort_run),
        ("oblivious_sort_kv", &tag_sort_run),
        ("compact_cells", &compact_run),
    ] {
        let fresh = ScratchPool::new();
        let dirty_pool = ScratchPool::new();
        dirty(&dirty_pool);
        assert_eq!(
            run(&fresh),
            run(&dirty_pool),
            "{name}: dirty pool changed the adversary trace"
        );
    }
}

#[test]
fn bounded_compaction_survives_reuse() {
    // The merge epoch's pairing: ranks from a scan (whose tree is a
    // lease) feeding a bounded compaction. 250 cells are no multiple of
    // either bound's block, so the tail splits into smaller blocks too;
    // a dirty pool must not reach the trace or the output under either
    // bound.
    let cells: Vec<TagCell> = (0..250u128)
        .map(|i| match i % 5 < 2 && i < 160 {
            true => TagCell::new(i, i),
            false => TagCell::filler(),
        })
        .collect();
    let run = |pool: &ScratchPool, bound: Bound| {
        let mut out = vec![TagCell::filler(); 250];
        let t = trace(|c| {
            let mut cells = cells.clone();
            let mut ranks: Vec<u64> = cells.iter().map(|s| !s.is_filler() as u64).collect();
            let mut lane = Tracked::new(c, &mut ranks);
            prefix_sum_in(c, pool, &mut lane, false, Schedule::Tree);
            compact_bounded(
                c,
                &mut Tracked::new(c, &mut cells),
                Ranks::of(&lane),
                bound,
                &mut Tracked::new(c, &mut out),
            );
        });
        (t, out)
    };
    let reals: Vec<TagCell> = cells.iter().copied().filter(|s| !s.is_filler()).collect();
    for bound in [Bound::Count(64), Bound::Shift(96)] {
        let fresh = run(&ScratchPool::new(), bound);
        let dirty_pool = ScratchPool::new();
        dirty(&dirty_pool);
        assert!(
            fresh == run(&dirty_pool, bound),
            "{bound:?}: dirty pool changed the run"
        );
        assert_eq!(fresh.1[..reals.len()], reals[..], "{bound:?}");
    }
}

#[test]
fn outputs_identical_fresh_vs_reused_under_seq_and_pool() {
    let n = 4000usize;
    let keys: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) >> 24)
        .collect();

    // SeqCtx: fresh pool vs heavily dirtied pool.
    let c = SeqCtx::new();
    let fresh = ScratchPool::new();
    let mut a = keys.clone();
    oblivious_sort_u64(&c, &fresh, &mut a, OSortParams::practical(n), 31);

    let reused = ScratchPool::new();
    dirty(&reused);
    let mut b = keys.clone();
    oblivious_sort_u64(&c, &reused, &mut b, OSortParams::practical(n), 31);
    assert_eq!(a, b, "SeqCtx: reused pool changed the output");

    // Pool executor: same check with concurrent leases from workers, and a
    // second run on the same pool instance (steady state).
    let exec = Pool::new(4);
    let par_pool = ScratchPool::new();
    dirty(&par_pool);
    let mut p1 = keys.clone();
    exec.run(|c| oblivious_sort_u64(c, &par_pool, &mut p1, OSortParams::practical(n), 31));
    assert_eq!(a, p1, "Pool: reused pool changed the output");

    let mut p2 = keys.clone();
    exec.run(|c| oblivious_sort_u64(c, &par_pool, &mut p2, OSortParams::practical(n), 31));
    assert_eq!(a, p2, "Pool: steady-state reuse changed the output");
}

/// The tag-sort fast path under the same discipline: Definition-1 trace
/// equality on fresh vs dirty pools, and byte-identical outputs under the
/// sequential executor and the work-stealing pool (incl. steady-state
/// reuse of one pool instance).
#[test]
fn tag_sort_trace_and_outputs_survive_reuse_under_seq_and_pool() {
    let n = 5000usize;
    let records: Vec<(u64, u64)> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 24, i))
        .collect();

    // Trace equality, fresh vs dirty vs steady reuse.
    let run_trace = |pool: &ScratchPool| {
        trace(|c| {
            let mut v = records.clone();
            oblivious_sort_kv(c, pool, &mut v, Engine::BitonicRec);
        })
    };
    let fresh = ScratchPool::new();
    let a = run_trace(&fresh);
    let reused = ScratchPool::new();
    dirty(&reused);
    assert_eq!(
        a,
        run_trace(&reused),
        "dirty pool changed the tag-sort trace"
    );
    assert_eq!(
        a,
        run_trace(&reused),
        "second reuse changed the tag-sort trace"
    );

    // Output equality under SeqCtx and Pool(4), fresh and dirty.
    let c = SeqCtx::new();
    let mut want = records.clone();
    oblivious_sort_kv(&c, &ScratchPool::new(), &mut want, Engine::BitonicRec);

    let seq_pool = ScratchPool::new();
    dirty(&seq_pool);
    let mut seq_out = records.clone();
    oblivious_sort_kv(&c, &seq_pool, &mut seq_out, Engine::BitonicRec);
    assert_eq!(seq_out, want, "SeqCtx: dirty pool changed tag-sort output");

    let exec = Pool::new(4);
    let par_pool = ScratchPool::new();
    dirty(&par_pool);
    let mut p1 = records.clone();
    exec.run(|c| oblivious_sort_kv(c, &par_pool, &mut p1, Engine::BitonicRec));
    assert_eq!(p1, want, "Pool: dirty pool changed tag-sort output");
    let mut p2 = records.clone();
    exec.run(|c| oblivious_sort_kv(c, &par_pool, &mut p2, Engine::BitonicRec));
    assert_eq!(p2, want, "Pool: steady-state reuse changed tag-sort output");
}

/// The pipelined consult path (`PipelinedStore::read_now`) under the same
/// discipline: with an epoch in flight *and* an open buffer, the consult
/// replays padded logs against the snapshot — its Definition-1 trace must
/// be identical on fresh and dirty scratch pools (and across repeats on
/// the same pool), because it is a function of public shapes only.
#[test]
fn pipelined_consult_trace_survives_reuse() {
    use std::sync::Arc;

    let run = |pool: Arc<ScratchPool>| {
        trace(|c| {
            let store = Store::new(StoreConfig::default());
            let mut p = PipelinedStore::with_scratch(store, pool);
            for i in 0..48u64 {
                p.submit(Op::Put {
                    key: i * 3 % 53,
                    val: i,
                });
            }
            let h = p.commit_async(c); // inline under MeterCtx; stays "in flight"
            for i in 0..16u64 {
                p.submit(Op::Put { key: i, val: i + 9 });
            }
            let keys: Vec<u64> = (0..8u64).map(|i| i * 5 % 53).collect();
            let _ = p.read_now(c, &keys);
            let _ = p.wait(&h);
            p.drain(c);
        })
    };

    let fresh = Arc::new(ScratchPool::new());
    let a = run(Arc::clone(&fresh));

    let reused = Arc::new(ScratchPool::new());
    dirty(&reused);
    assert!(reused.leases() > 0 && reused.fresh_allocs() > 0);
    let b = run(Arc::clone(&reused));
    assert_eq!(a, b, "dirty pool changed the pipelined consult trace");
    let c3 = run(reused);
    assert_eq!(a, c3, "second reuse changed the pipelined consult trace");
}

/// The durable commit's retry path under the same discipline: a
/// deterministic k-th-write EIO forces one WAL retry mid-epoch, and the
/// adversary trace must be identical on fresh and dirty scratch pools —
/// and identical to the *no-fault* trace, because the retry loop touches
/// only host-side I/O, never the metered address space (DESIGN.md §15).
#[test]
fn durable_retry_path_trace_survives_reuse() {
    use std::sync::Arc;
    use std::time::Duration;
    use store::vfs::{FaultPlan, FaultVfs};

    let run = |pool: &ScratchPool, eio_write: Option<u64>| {
        trace(|c| {
            let cfg = StoreConfig {
                durability: Durability::epoch(),
                retry: RetryPolicy {
                    attempts: 3,
                    backoff: Duration::ZERO,
                },
                ..StoreConfig::default()
            };
            let vfs = Arc::new(FaultVfs::new(FaultPlan {
                eio_write,
                ..FaultPlan::default()
            }));
            let mut s = Store::recover_with(c, pool, "/scratch/retry", cfg, vfs).unwrap();
            for e in 0..2u64 {
                let ops: Vec<Op> = (0..48u64)
                    .map(|i| Op::Put {
                        key: (i * 3 + e) % 53,
                        val: i,
                    })
                    .collect();
                s.execute_epoch(c, pool, &ops).unwrap();
            }
        })
    };

    let fresh = ScratchPool::new();
    let a = run(&fresh, Some(1)); // epoch 1's append fails once, retries
    let reused = ScratchPool::new();
    dirty(&reused);
    assert!(reused.leases() > 0 && reused.fresh_allocs() > 0);
    let b = run(&reused, Some(1));
    assert_eq!(a, b, "dirty pool changed the retry-path trace");
    let c3 = run(&reused, Some(1));
    assert_eq!(a, c3, "second reuse changed the retry-path trace");
    assert_eq!(
        a,
        run(&fresh, None),
        "an injected-and-retried fault perturbed the adversary trace"
    );
}

/// CPU pinning is invisible to the Definition-1 adversary. Scratch pools
/// dirtied under a *pinned* Pool(4) and an *unpinned* Pool(4) end up with
/// different physical lane residency (which worker leased which backing
/// buffer), yet the adversary trace of the sort and store-epoch paths must
/// be bit-identical across both — and identical to a fresh pool — because
/// the trace is a function of the logical address space only.
#[test]
fn pinned_vs_unpinned_pools_leave_identical_traces() {
    let dirty_under = |exec: &Pool, pool: &ScratchPool| {
        exec.run(|c| {
            let mut v: Vec<u64> = (0..1200u64).map(|i| i.wrapping_mul(0x9E37) | 1).collect();
            let params = OSortParams::practical(v.len());
            oblivious_sort_u64(c, pool, &mut v, params, 0xD1D7);
            let sources: Vec<(u64, u64)> = (0..300).map(|i| (i * 3, i | 0xFF00)).collect();
            let dests: Vec<u64> = (0..500).collect();
            send_receive(
                c,
                pool,
                &sources,
                &dests,
                Engine::BitonicRec,
                Schedule::Tree,
            );
        });
    };

    let pinned_exec = Pool::pinned(4);
    let unpinned_exec = Pool::new(4);

    let pinned_pool = ScratchPool::new();
    dirty_under(&pinned_exec, &pinned_pool);
    let unpinned_pool = ScratchPool::new();
    dirty_under(&unpinned_exec, &unpinned_pool);
    let fresh_pool = ScratchPool::new();

    // Row 1: the oblivious-sort path.
    let sort_row = |pool: &ScratchPool| {
        trace(|c| {
            let mut v: Vec<u64> = (0..900u64).map(|i| i * 7 + 3).collect();
            oblivious_sort_u64(c, pool, &mut v, OSortParams::practical(900), 2025);
        })
    };
    let a = sort_row(&fresh_pool);
    assert_eq!(
        a,
        sort_row(&pinned_pool),
        "sort trace depends on pinned-pool lane residency"
    );
    assert_eq!(
        a,
        sort_row(&unpinned_pool),
        "sort trace depends on unpinned-pool lane residency"
    );

    // Row 2: the store-epoch path (op sort + merge + commit).
    let epoch_row = |pool: &ScratchPool| {
        trace(|c| {
            let mut store = Store::new(StoreConfig::default());
            let ops: Vec<Op> = (0..48u64)
                .map(|i| Op::Put {
                    key: i * 3 % 53,
                    val: i,
                })
                .collect();
            store.execute_epoch(c, pool, &ops).unwrap();
        })
    };
    let e = epoch_row(&fresh_pool);
    assert_eq!(
        e,
        epoch_row(&pinned_pool),
        "store-epoch trace depends on pinned-pool lane residency"
    );
    assert_eq!(
        e,
        epoch_row(&unpinned_pool),
        "store-epoch trace depends on unpinned-pool lane residency"
    );
}

/// Output equality for the tag-cell-migrated kernels: `SeqCtx` vs a
/// *pinned* `Pool(4)` on randomized inputs. The migrated sorts (CC
/// min-hook, MSF proposals/chosen, Euler arcs/leaf labels, ORAM conflict
/// resolution, PRAM write resolution, `u64`-lane send-receive) must produce
/// byte-identical results regardless of executor and pin layout.
mod pinned_output_equality {
    use super::*;
    use pram::HistogramProgram;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn cc_matches_seq_under_pinned_pool(
            n in 2usize..40,
            raw in proptest::collection::vec((0u64..1000, 0u64..1000), 0..60),
        ) {
            let edges: Vec<(usize, usize)> = raw
                .iter()
                .map(|&(a, b)| ((a % n as u64) as usize, (b % n as u64) as usize))
                .collect();
            let seq = connected_components(
                &SeqCtx::new(), &ScratchPool::new(), n, &edges, Engine::BitonicRec);
            let par = Pool::pinned(4).run(|c| connected_components(
                c, &ScratchPool::new(), n, &edges, Engine::BitonicRec));
            prop_assert_eq!(seq, par);
        }

        #[test]
        fn msf_matches_seq_under_pinned_pool(
            n in 2usize..30,
            raw in proptest::collection::vec((0u64..1000, 0u64..1000, 1u64..100), 0..50),
        ) {
            let edges: Vec<(usize, usize, u64)> = raw
                .iter()
                .map(|&(a, b, w)| ((a % n as u64) as usize, (b % n as u64) as usize, w))
                .collect();
            let seq = msf(&SeqCtx::new(), &ScratchPool::new(), n, &edges, Engine::BitonicRec);
            let par = Pool::pinned(4).run(|c| msf(c, &ScratchPool::new(), n, &edges, Engine::BitonicRec));
            prop_assert_eq!(seq.total_weight, par.total_weight);
            prop_assert_eq!(seq.in_forest, par.in_forest);
            prop_assert_eq!(seq.components, par.components);
        }

        #[test]
        fn euler_tree_stats_match_seq_under_pinned_pool(
            parents in proptest::collection::vec(0u64..1000, 1..24),
            seed in 0u64..100,
        ) {
            // Random tree: vertex i+1 hangs off a vertex in 0..=i.
            let n = parents.len() + 1;
            let edges: Vec<(usize, usize)> = parents
                .iter()
                .enumerate()
                .map(|(i, &p)| ((p % (i as u64 + 1)) as usize, i + 1))
                .collect();
            let seq = rooted_tree_stats(
                &SeqCtx::new(), &ScratchPool::new(), n, &edges, 0, Engine::BitonicRec, seed);
            let par = Pool::pinned(4).run(|c| rooted_tree_stats(
                c, &ScratchPool::new(), n, &edges, 0, Engine::BitonicRec, seed));
            prop_assert_eq!(seq, par);
        }

        #[test]
        fn pram_histogram_matches_seq_under_pinned_pool(
            vals in proptest::collection::vec(0u64..8, 2..40),
        ) {
            let prog = HistogramProgram::new(vals.len(), 8);
            let seq = run_oblivious_sb(
                &SeqCtx::new(), &ScratchPool::new(), &prog, &vals, Engine::BitonicRec);
            let par = Pool::pinned(4).run(|c| run_oblivious_sb(
                c, &ScratchPool::new(), &prog, &vals, Engine::BitonicRec));
            prop_assert_eq!(seq, par);
        }

        #[test]
        fn oram_batch_matches_seq_under_pinned_pool(
            reqs in proptest::collection::vec((0u64..32, proptest::option::of(0u64..1000)), 1..24),
            seed in 0u64..100,
        ) {
            let run = |reqs: &[(u64, Option<u64>)]| {
                let mut o = Opram::new(32, OramConfig::default(), Engine::BitonicRec, seed);
                let warm: Vec<u64> = o.access_batch(&SeqCtx::new(), reqs);
                (o, warm)
            };
            let (mut seq_o, seq_warm) = run(&reqs);
            let (mut par_o, par_warm) = run(&reqs);
            prop_assert_eq!(seq_warm, par_warm);
            // Second batch: SeqCtx vs pinned Pool(4) on identically warmed ORAMs.
            let seq = seq_o.access_batch(&SeqCtx::new(), &reqs);
            let par = Pool::pinned(4).run(|c| par_o.access_batch(c, &reqs));
            prop_assert_eq!(seq, par);
        }

        #[test]
        fn cell_send_receive_matches_seq_under_pinned_pool(
            pairs in proptest::collection::vec((0u64..500, 0u64..1000), 0..80),
            dests in proptest::collection::vec(0u64..600, 0..120),
        ) {
            // A requested key has at most one sender: keep the first per key.
            let mut seen = std::collections::HashSet::new();
            let sources: Vec<(u64, u64)> = pairs
                .into_iter()
                .filter(|&(k, _)| seen.insert(k))
                .collect();
            let seq = send_receive(
                &SeqCtx::new(), &ScratchPool::new(), &sources, &dests,
                Engine::BitonicRec, Schedule::Tree);
            let par = Pool::pinned(4).run(|c| send_receive(
                c, &ScratchPool::new(), &sources, &dests,
                Engine::BitonicRec, Schedule::Tree));
            prop_assert_eq!(seq, par);
        }
    }
}
