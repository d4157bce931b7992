//! Oblivious send-receive (§F) — "oblivious routing" elsewhere in the
//! literature.
//!
//! `n` senders hold `(key, value)` with distinct keys; `n'` receivers each
//! request a key and must learn the matching value, or `⊥` if absent.
//! Realized with O(1) oblivious sorts plus one oblivious propagation
//! (Chan–Shi): concatenate senders and receivers, sort by (key,
//! sender-first), propagate each key-run's head (which is the sender if one
//! exists), let receivers compare the propagated key against their own, and
//! sort receivers back to input order. All steps are networks/scans, so the
//! access pattern depends only on `(n, n')`.

use crate::binplace::set_keys;
use crate::engine::Engine;
use crate::scan::{seg_propagate_in, Schedule, Seg};
use crate::slot::{Item, Slot, Val};
use fj::Ctx;
use metrics::{par_fill, par_update, ScratchPool, Tracked};

/// Record carried through the routing network.
#[derive(Clone, Copy, Debug, Default)]
struct Route<V> {
    key: u64,
    val: V,
    /// Receiver's input position (senders: undefined).
    idx: u64,
    /// 0 = sender, 1 = receiver.
    tag: u8,
    /// Receiver result flag.
    found: bool,
}

/// Value propagated along each key-run.
#[derive(Clone, Copy, Debug, Default)]
struct Head<V> {
    key: u64,
    is_sender: bool,
    val: V,
}

/// Oblivious send-receive: `out[j] = Some(value of the sender with key
/// dests[j])`, or `None` if no such sender. Sender keys must be distinct.
///
/// With the network engines this costs one/two `O(m log² m)` sorts on
/// `m = |sources| + |dests|`; plugged into the full oblivious sort it meets
/// the paper's `O(m log m)`-work sorting bound (Table 2 row "S-R").
pub fn send_receive<C: Ctx, V: Val>(
    c: &C,
    scratch: &ScratchPool,
    sources: &[(u64, V)],
    dests: &[u64],
    engine: Engine,
    sched: Schedule,
) -> Vec<Option<V>> {
    let total = sources.len() + dests.len();
    if dests.is_empty() {
        return Vec::new();
    }
    // Build the combined slot array: senders, then receivers.
    let mut slots = scratch.lease(total, Slot::<Route<V>>::filler());
    for (slot, &(k, v)) in slots.iter_mut().zip(sources.iter()) {
        let r = Route {
            key: k,
            val: v,
            idx: 0,
            tag: 0,
            found: false,
        };
        *slot = Slot::real(Item::new(0, r), k);
    }
    for (slot, (j, &k)) in slots[sources.len()..]
        .iter_mut()
        .zip(dests.iter().enumerate())
    {
        let r = Route {
            key: k,
            val: V::default(),
            idx: j as u64,
            tag: 1,
            found: false,
        };
        *slot = Slot::real(Item::new(0, r), k);
    }
    c.charge_par(total as u64);

    let mut t = Tracked::new(c, &mut slots);

    // Sort by (key, sender-before-receiver).
    set_keys(c, &mut t, &|s: &Slot<Route<V>>| {
        ((s.item.val.key as u128) << 1) | s.item.val.tag as u128
    });
    engine.sort_slots(c, scratch, &mut t);

    // Propagate each key-run's head to the whole run.
    let mut seg_store = scratch.lease(total, Seg::<Head<V>>::default());
    let mut seg = Tracked::new(c, &mut seg_store);
    par_fill(c, &mut seg, &|c, i| {
        let s = t.get(c, i);
        let head = if i == 0 {
            true
        } else {
            let prev = t.get(c, i - 1);
            c.work(1);
            prev.item.val.key != s.item.val.key
        };
        let h = Head {
            key: s.item.val.key,
            is_sender: s.item.val.tag == 0,
            val: s.item.val.val,
        };
        Seg::new(head, h)
    });
    seg_propagate_in(c, scratch, &mut seg, sched);

    // Receivers compare the propagated head against their own key.
    par_update(c, &mut t, &|c, i, mut s| {
        let h = seg.get(c, i).v;
        let hit = s.item.val.tag == 1 && h.is_sender && h.key == s.item.val.key;
        // The write is unconditional: only the value depends on the data.
        s.item.val.found = hit;
        s.item.val.val = if hit { h.val } else { s.item.val.val };
        s
    });

    // Sort receivers back to input order; everything else to the end. A
    // sender keyed `MAX` reads as a filler from here on (`set_keys`), on
    // purpose: the readout takes the first `|dests|` slots and never asks
    // `is_real` again.
    set_keys(c, &mut t, &|s: &Slot<Route<V>>| {
        if s.is_real() && s.item.val.tag == 1 {
            s.item.val.idx as u128
        } else {
            u128::MAX
        }
    });
    engine.sort_slots(c, scratch, &mut t);

    // Parallel readout (keeps the span at O(log n)).
    metrics::par_collect(c, dests.len(), &|c, j| {
        let s = t.get(c, j);
        debug_assert_eq!(s.item.val.idx as usize, j);
        if s.item.val.found {
            OptSlot {
                some: true,
                v: s.item.val.val,
            }
        } else {
            OptSlot::default()
        }
    })
    .into_iter()
    .map(|o| o.some.then_some(o.v))
    .collect()
}

/// `Option<V>` flattened to a `Copy + Default` pair for parallel collection.
#[derive(Clone, Copy, Default)]
struct OptSlot<V> {
    some: bool,
    v: V,
}

/// [`send_receive`] specialized to `u64` values on packed [`TagCell`](crate::TagCell)s —
/// the tag-sort fast path for the routing step that dominates the graph
/// and PRAM kernels.
///
/// Identical phase structure and head-propagation as the generic path
/// (with the [`Schedule::Tree`] scan), but both sorts move 32-byte cells
/// instead of 64-byte `Slot<Route<u64>>` records. Packing (all lanes are
/// functions of public position or ride the network unread):
///
/// * phase 1 — `tag = key·2 + (0 sender | 1 receiver)`; `aux = value`
///   (senders) or input position (receivers);
/// * phase 2 — one fixed pass re-tags receivers by input position while
///   folding the propagated hit into `aux = found·2⁶⁴ | value`.
///
/// Equal phase-1 tags only arise between receivers requesting the same
/// key; the phase-2 position sort makes their order canonical again, so
/// the unstable cell network is safe here for the same reason it is in the
/// generic path.
pub fn send_receive_u64<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    sources: &[(u64, u64)],
    dests: &[u64],
    engine: Engine,
) -> Vec<Option<u64>> {
    use sortnet::TagCell;

    let total = sources.len() + dests.len();
    if dests.is_empty() {
        return Vec::new();
    }
    let mut cells = scratch.lease(total, TagCell::filler());
    for (cell, &(k, v)) in cells.iter_mut().zip(sources.iter()) {
        *cell = TagCell::new((k as u128) << 1, v as u128);
    }
    for (cell, (j, &k)) in cells[sources.len()..]
        .iter_mut()
        .zip(dests.iter().enumerate())
    {
        *cell = TagCell::new(((k as u128) << 1) | 1, j as u128);
    }
    c.charge_par(total as u64);

    let mut t = Tracked::new(c, &mut cells);

    // Sort by (key, sender-before-receiver).
    engine.sort_cells(c, scratch, &mut t);

    // Propagate each key-run's head to the whole run.
    let mut seg_store = scratch.lease(total, Seg::<Head<u64>>::default());
    let mut seg = Tracked::new(c, &mut seg_store);
    par_fill(c, &mut seg, &|c, i| {
        let s = t.get(c, i);
        let head = if i == 0 {
            true
        } else {
            let prev = t.get(c, i - 1);
            c.work(1);
            prev.tag >> 1 != s.tag >> 1
        };
        let h = Head {
            key: (s.tag >> 1) as u64,
            is_sender: s.tag & 1 == 0,
            val: s.aux as u64,
        };
        Seg::new(head, h)
    });
    seg_propagate_in(c, scratch, &mut seg, Schedule::Tree);

    // One fixed pass: receivers compare the propagated head against their
    // own key, fold the outcome into `aux`, and move their input position
    // into the tag for the order-restoring sort. Writes are unconditional;
    // only the selected *values* depend on the data.
    par_update(c, &mut t, &|c, i, s| {
        let h = seg.get(c, i).v;
        let is_recv = s.tag & 1 == 1;
        let hit = is_recv && h.is_sender && (h.key as u128) == s.tag >> 1;
        let tag = if is_recv { s.aux } else { u128::MAX };
        let aux = ((hit as u128) << 64) | if hit { h.val as u128 } else { 0 };
        TagCell::new(tag, aux)
    });

    // Sort receivers back to input order; everything else — re-tagged
    // `MAX` by the pass above, so a filler from here on — to the end. The
    // readout takes the first `|dests|` cells.
    engine.sort_cells(c, scratch, &mut t);

    // Parallel readout (keeps the span at O(log n)).
    metrics::par_collect(c, dests.len(), &|c, j| {
        let s = t.get(c, j);
        debug_assert_eq!(s.tag, j as u128);
        OptSlot {
            some: s.aux >> 64 != 0,
            v: s.aux as u64,
        }
    })
    .into_iter()
    .map(|o| o.some.then_some(o.v))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn run_sr(sources: &[(u64, u64)], dests: &[u64]) -> Vec<Option<u64>> {
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        send_receive(&c, &sp, sources, dests, Engine::BitonicRec, Schedule::Tree)
    }

    #[test]
    fn routes_values_to_receivers() {
        let sources = vec![(10, 100u64), (20, 200), (30, 300)];
        let dests = vec![20, 10, 99, 30, 20];
        assert_eq!(
            run_sr(&sources, &dests),
            vec![Some(200), Some(100), None, Some(300), Some(200)]
        );
    }

    #[test]
    fn one_sender_many_receivers() {
        let sources = vec![(5, 55u64)];
        let dests = vec![5; 20];
        assert_eq!(run_sr(&sources, &dests), vec![Some(55); 20]);
    }

    #[test]
    fn empty_sources_yield_all_bottom() {
        assert_eq!(run_sr(&[], &[1, 2, 3]), vec![None, None, None]);
    }

    #[test]
    fn empty_dests_yield_empty() {
        assert_eq!(run_sr(&[(1, 2)], &[]), vec![]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let pool = Pool::new(4);
        let sources: Vec<(u64, u64)> = (0..500).map(|i| (i * 3, i)).collect();
        let dests: Vec<u64> = (0..800).map(|j| (j * 7) % 1600).collect();
        let seq = run_sr(&sources, &dests);
        let sp = ScratchPool::new();
        let par = pool
            .run(|c| send_receive(c, &sp, &sources, &dests, Engine::BitonicRec, Schedule::Tree));
        assert_eq!(seq, par);
    }

    #[test]
    fn trace_is_input_independent() {
        let run = |sources: Vec<(u64, u64)>, dests: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                send_receive(c, &sp, &sources, &dests, Engine::BitonicRec, Schedule::Tree);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..100).map(|i| (i, i)).collect(), (0..50).collect());
        let b = run(
            (0..100).map(|i| (i * 97, i + 4)).collect(),
            (0..50).map(|j| j * 13).collect(),
        );
        assert_eq!(a, b, "send-receive must not leak keys through its trace");
    }

    #[test]
    fn cell_path_matches_generic_path() {
        let sources: Vec<(u64, u64)> = (0..300).map(|i| (i * 5 + 1, i * i)).collect();
        let dests: Vec<u64> = (0..450).map(|j| (j * 11) % 1700).collect();
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let generic = send_receive(
            &c,
            &sp,
            &sources,
            &dests,
            Engine::BitonicRec,
            Schedule::Tree,
        );
        let cells = send_receive_u64(&c, &sp, &sources, &dests, Engine::BitonicRec);
        assert_eq!(generic, cells);
    }

    #[test]
    fn cell_path_duplicate_receivers_and_missing_keys() {
        let sources = vec![(10, 100u64), (u64::MAX, 7)];
        let dests = vec![10, 10, 3, u64::MAX, 10];
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let got = send_receive_u64(&c, &sp, &sources, &dests, Engine::BitonicRec);
        assert_eq!(got, vec![Some(100), Some(100), None, Some(7), Some(100)]);
    }

    #[test]
    fn cell_path_trace_is_input_independent() {
        let run = |sources: Vec<(u64, u64)>, dests: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let sp = ScratchPool::new();
                send_receive_u64(c, &sp, &sources, &dests, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..100).map(|i| (i, i)).collect(), (0..50).collect());
        let b = run(
            (0..100).map(|i| (i * 97, i + 4)).collect(),
            (0..50).map(|j| j * 13).collect(),
        );
        assert_eq!(a, b, "cell send-receive must not leak keys via its trace");
    }

    #[test]
    fn cell_path_parallel_matches_sequential() {
        let pool = Pool::pinned(4);
        let sources: Vec<(u64, u64)> = (0..500).map(|i| (i * 3, i)).collect();
        let dests: Vec<u64> = (0..800).map(|j| (j * 7) % 1600).collect();
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let seq = send_receive_u64(&c, &sp, &sources, &dests, Engine::BitonicRec);
        let sp2 = ScratchPool::new();
        let par = pool.run(|c| send_receive_u64(c, &sp2, &sources, &dests, Engine::BitonicRec));
        assert_eq!(seq, par);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_cell_path_matches_hashmap_semantics(
            src_keys in proptest::collection::hash_set(0u64..500, 0..40),
            dests in proptest::collection::vec(0u64..500, 0..60),
        ) {
            let sources: Vec<(u64, u64)> =
                src_keys.iter().map(|&k| (k, k.wrapping_mul(31))).collect();
            let map: HashMap<u64, u64> = sources.iter().copied().collect();
            let c = SeqCtx::new();
            let sp = ScratchPool::new();
            let got = send_receive_u64(&c, &sp, &sources, &dests, Engine::BitonicRec);
            let expect: Vec<Option<u64>> = dests.iter().map(|k| map.get(k).copied()).collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_matches_hashmap_semantics(
            src_keys in proptest::collection::hash_set(0u64..500, 0..40),
            dests in proptest::collection::vec(0u64..500, 0..60),
        ) {
            let sources: Vec<(u64, u64)> =
                src_keys.iter().map(|&k| (k, k.wrapping_mul(31))).collect();
            let map: HashMap<u64, u64> = sources.iter().copied().collect();
            let got = run_sr(&sources, &dests);
            let expect: Vec<Option<u64>> = dests.iter().map(|k| map.get(k).copied()).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
