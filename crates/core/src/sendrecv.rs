//! Oblivious send-receive (§F) — "oblivious routing" elsewhere in the
//! literature.
//!
//! `n` senders hold `(key, value)`; `n'` receivers each request a key and
//! must learn the matching value, or `⊥` if absent. Realized with O(1)
//! oblivious sorts plus one oblivious propagation (Chan–Shi): concatenate
//! senders and receivers, sort by (key, sender-first), propagate each
//! key-run's head (which is the sender if one exists), let receivers compare
//! the propagated key against their own, and sort receivers back to input
//! order. All steps are networks/scans, so the access pattern depends only
//! on `(n, n')` and the value *type*.
//!
//! One body routes every value type on [`Slot`]s (DESIGN.md §10). `sk` is
//! `key·2 + (0 sender | 1 receiver)`, then the receiver's input position
//! (`u128::MAX`, a filler, for a sender). The lane `item.key` is the
//! sender's `u64` value or the receiver's position, then `found·2⁶⁴ |
//! value`; `item.val` is any other payload. A `u64` value rides in the lane
//! with no payload: a 32-byte `Slot<()>`, sorted as a [`crate::TagCell`].

use crate::engine::Engine;
use crate::scan::{seg_propagate_in, Schedule, Seg};
use crate::slot::{Item, Slot, Val};
use fj::Ctx;
use metrics::{par_fill, par_update, ScratchPool, Tracked};
use std::any::{Any, TypeId};

/// Value propagated along each key-run.
#[derive(Clone, Copy, Debug, Default)]
struct Head<P> {
    key: u64,
    is_sender: bool,
    val: u64,
    pay: P,
}

/// `a` as a `B` if `A` is `B` — a fact about the types, never the data.
fn cast<A: 'static, B: Copy + 'static>(a: &A) -> Option<B> {
    (a as &dyn Any).downcast_ref::<B>().copied()
}

/// Oblivious send-receive: `out[j] = Some(value of the sender with key
/// dests[j])`, or `None` if no such sender.
///
/// A key that some receiver requests must have at most one sender. Keys no
/// receiver requests may repeat: callers retire losers as `(u64::MAX, 0)`
/// without asking for `u64::MAX`.
///
/// A `u64` value rides in the record's `u128` lane (32-byte records); any
/// other `V` is the payload, `32 + size_of::<V>()` bytes rounded up to 16.
/// With the network engines this costs two `O(m log² m)` sorts on
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
    if TypeId::of::<V>() == TypeId::of::<u64>() {
        let split = |v: V| (cast(&v).expect("V is u64"), ());
        let join = |x: u64, ()| cast(&x).expect("V is u64");
        route(c, scratch, sources, dests, engine, sched, split, join)
    } else {
        let (split, join) = (|v: V| (0, v), |_, v: V| v);
        route(c, scratch, sources, dests, engine, sched, split, join)
    }
}

/// The one body: `split` turns a value into its lane and payload, `join`
/// turns them back.
#[allow(clippy::too_many_arguments)]
fn route<C: Ctx, V: Val, P: Val>(
    c: &C,
    scratch: &ScratchPool,
    sources: &[(u64, V)],
    dests: &[u64],
    engine: Engine,
    sched: Schedule,
    split: impl Fn(V) -> (u64, P),
    join: impl Fn(u64, P) -> V,
) -> Vec<Option<V>> {
    let total = sources.len() + dests.len();
    if dests.is_empty() {
        return Vec::new();
    }
    // Senders, then receivers (`role` 0 and 1).
    let send = sources.iter().map(|&(k, v)| (k, 0, split(v)));
    let recv = dests
        .iter()
        .zip(0..)
        .map(|(&k, j)| (k, 1, (j, P::default())));
    let mut slots = scratch.lease(total, Slot::<P>::filler());
    for (slot, (k, role, (lane, pay))) in slots.iter_mut().zip(send.chain(recv)) {
        let (sk, item) = (((k as u128) << 1) | role, Item::new(lane as u128, pay));
        *slot = Slot { sk, item };
    }
    c.charge_par(total as u64);

    let mut t = Tracked::new(c, &mut slots);

    // Sort by (key, sender-before-receiver).
    engine.sort_slots(c, scratch, &mut t);

    // Propagate each key-run's head to the whole run.
    let mut seg_store = scratch.lease(total, Seg::<Head<P>>::default());
    let mut seg = Tracked::new(c, &mut seg_store);
    par_fill(c, &mut seg, &|c, i| {
        let s = t.get(c, i);
        let head = if i == 0 {
            true
        } else {
            let prev = t.get(c, i - 1);
            c.work(1);
            prev.sk >> 1 != s.sk >> 1
        };
        let h = Head {
            key: (s.sk >> 1) as u64,
            is_sender: s.sk & 1 == 0,
            val: s.item.key as u64,
            pay: s.item.val,
        };
        Seg::new(head, h)
    });
    seg_propagate_in(c, scratch, &mut seg, sched);

    // One fixed pass: receivers compare the propagated head against their
    // own key, fold the outcome into the lane and the payload, and move
    // their input position into `sk` for the order-restoring sort. Writes
    // are unconditional; only the selected *values* depend on the data.
    par_update(c, &mut t, &|c, i, s| {
        let h = seg.get(c, i).v;
        let is_recv = s.sk & 1 == 1;
        let hit = is_recv && h.is_sender && (h.key as u128) == s.sk >> 1;
        let lane = ((hit as u128) << 64) | if hit { h.val as u128 } else { 0 };
        Slot {
            sk: if is_recv { s.item.key } else { u128::MAX },
            item: Item::new(lane, if hit { h.pay } else { P::default() }),
        }
    });

    // Sort receivers back to input order; everything else — re-keyed
    // `MAX` by the pass above, so a filler from here on — to the end. The
    // readout takes the first `|dests|` slots.
    engine.sort_slots(c, scratch, &mut t);

    // Parallel readout (keeps the span at O(log n)).
    metrics::par_collect(c, dests.len(), &|c, j| {
        let s = t.get(c, j);
        debug_assert_eq!(s.sk, j as u128);
        (s.item.key >> 64 != 0).then_some((s.item.key as u64, s.item.val))
    })
    .into_iter()
    .map(|o| o.map(|(x, pay)| join(x, pay)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The payload layout's value: four words, the shape of Euler's vertex
    /// stats.
    type Wide = (u64, u64, u64, u64);

    fn wide(v: u64) -> Wide {
        (v, !v, v ^ 1, 0)
    }

    /// Route `sources` on both layouts — `u64` values in the lane, and the
    /// same values widened to a [`Wide`] payload — assert that the answers
    /// agree, and return the lane's.
    fn run_both<C: Ctx>(c: &C, sources: &[(u64, u64)], dests: &[u64]) -> Vec<Option<u64>> {
        let sp = ScratchPool::new();
        let lane = send_receive(c, &sp, sources, dests, Engine::BitonicRec, Schedule::Tree);
        let wide_src: Vec<(u64, Wide)> = sources.iter().map(|&(k, v)| (k, wide(v))).collect();
        let pay = send_receive(c, &sp, &wide_src, dests, Engine::BitonicRec, Schedule::Tree);
        let expect: Vec<Option<Wide>> = lane.iter().map(|o| o.map(wide)).collect();
        assert_eq!(pay, expect, "the payload layout disagrees with the lane");
        lane
    }

    fn run_sr(sources: &[(u64, u64)], dests: &[u64]) -> Vec<Option<u64>> {
        run_both(&SeqCtx::new(), sources, dests)
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
    fn duplicate_receivers_and_missing_keys() {
        let sources = vec![(10, 100u64), (u64::MAX, 7)];
        let dests = vec![10, 10, 3, u64::MAX, 10];
        let got = run_sr(&sources, &dests);
        assert_eq!(got, vec![Some(100), Some(100), None, Some(7), Some(100)]);
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
    fn unrequested_keys_may_repeat() {
        // `cc::min_per_target` and `obliv_sb::resolve_conflicts` retire
        // every loser as `(u64::MAX, 0)`, and no receiver asks for it.
        let sources: Vec<(u64, u64)> = (0..128)
            .map(|i| {
                if i % 2 == 0 {
                    (u64::MAX, 0)
                } else {
                    (i * 3, i)
                }
            })
            .collect();
        let dests: Vec<u64> = (0..500).rev().collect();
        let expect: Vec<Option<u64>> = dests
            .iter()
            .map(|&k| (k % 6 == 3 && k < 384).then_some(k / 3))
            .collect();
        assert_eq!(run_sr(&sources, &dests), expect);
    }

    #[test]
    fn parallel_matches_sequential() {
        let sources: Vec<(u64, u64)> = (0..500).map(|i| (i * 3, i)).collect();
        let dests: Vec<u64> = (0..800).map(|j| (j * 7) % 1600).collect();
        let seq = run_sr(&sources, &dests);
        let par = Pool::pinned(4).run(|c| run_both(c, &sources, &dests));
        assert_eq!(seq, par);
    }

    #[test]
    fn layouts_agree_at_every_position() {
        let sources: Vec<(u64, u64)> = (0..300).map(|i| (i * 5 + 1, i * i)).collect();
        let dests: Vec<u64> = (0..450).map(|j| (j * 11) % 1700).collect();
        let wide_src: Vec<(u64, Wide)> = sources.iter().map(|&(k, v)| (k, wide(v))).collect();
        let c = SeqCtx::new();
        let sp = ScratchPool::new();
        let lane = send_receive(
            &c,
            &sp,
            &sources,
            &dests,
            Engine::BitonicRec,
            Schedule::Tree,
        );
        let pay = send_receive(
            &c,
            &sp,
            &wide_src,
            &dests,
            Engine::BitonicRec,
            Schedule::Tree,
        );
        let firsts: Vec<Option<u64>> = pay.iter().map(|o| o.map(|w| w.0)).collect();
        assert_eq!(firsts, lane);
        assert!(lane.iter().any(Option::is_some) && lane.iter().any(Option::is_none));
    }

    fn trace_of<V: Val>(sources: &[(u64, V)], dests: &[u64]) -> (u64, u64) {
        let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
            let sp = ScratchPool::new();
            send_receive(c, &sp, sources, dests, Engine::BitonicRec, Schedule::Tree);
        });
        (rep.trace_hash, rep.trace_len)
    }

    #[test]
    fn trace_is_input_independent() {
        let a: Vec<(u64, u64)> = (0..100).map(|i| (i, i)).collect();
        let b: Vec<(u64, u64)> = (0..100).map(|i| (i * 97, i + 4)).collect();
        let (da, db): (Vec<u64>, Vec<u64>) = ((0..50).collect(), (0..50).map(|j| j * 13).collect());
        let widen = |s: &[(u64, u64)]| -> Vec<(u64, Wide)> {
            s.iter().map(|&(k, v)| (k, wide(v))).collect()
        };
        let lane = trace_of(&a, &da);
        assert_eq!(lane, trace_of(&b, &db), "the lane leaks keys via its trace");
        let pay = trace_of(&widen(&a), &da);
        assert_eq!(pay, trace_of(&widen(&b), &db), "the payload leaks keys");
        assert_ne!(lane, pay, "the layout is a fact about the value type");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
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
