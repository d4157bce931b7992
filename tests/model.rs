//! The store's model test: random command scripts
//! (`tests/common/model.rs`) over every front, executor and durability
//! mode, each step checked against the one `HashMap` oracle.
//!
//! Executors are built once per test, not once per case. A durable run
//! writes an unfaulted in-memory `FaultVfs`; its crash commands recover
//! from the durable image. Per-front fixed-seed regressions live beside
//! the suites they replaced (`store`, `sharded`, `pipelined_store`,
//! `durability`).

mod common;

use common::model::{self, Front};
use dob::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

fn raw() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    proptest::collection::vec((0u8..32, 0u64..1 << 32, 0u64..1_000_000), 0..160)
}

fn check<C: Ctx>(c: &C, which: usize, durable: bool, raw: &[(u8, u64, u64)]) {
    let front = Front::all()[which];
    model::check(c, front, durable, &front.decode(raw));
}

/// A `Pool::new(4)` and a `Pool::pinned(4)`, built once for the test
/// binary.
fn pools() -> &'static [Pool; 2] {
    static POOLS: OnceLock<[Pool; 2]> = OnceLock::new();
    POOLS.get_or_init(|| [Pool::new(4), Pool::pinned(4)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scripts_match_the_model_on_seqctx(which in 0usize..19, durable in any::<bool>(), raw in raw()) {
        check(&SeqCtx::new(), which, durable, &raw);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scripts_match_the_model_on_pools(pinned in 0usize..2, which in 0usize..19, durable in any::<bool>(), raw in raw()) {
        check(&pools()[pinned], which, durable, &raw);
    }

    /// Both fronts write the same bytes for the same durable script.
    #[test]
    fn both_fronts_write_identical_files(raw in raw()) {
        model::assert_fronts_write_alike(|front| front.decode(&raw));
    }
}

/// The merge epoch's shapes its bounds are sized by, each checked step by
/// step: an op class wider than the table it merges into (a fresh 8-slot
/// table against 128 ops, so `cap` is no multiple of `b₂`), pending ORAM
/// ops ahead of the batch, and a shrink schedule, durable or not.
#[test]
fn merge_shapes_match_the_model() {
    use model::Cmd::{Commit, Submit};
    let c = SeqCtx::new();
    let key = |front: Front, i: u64| front.key(i % 48);
    let wide = |front: Front| {
        let puts = (0..100).map(|i| {
            Submit(Op::Put {
                key: key(front, i * 5),
                val: i,
            })
        });
        let mixed = (0..70).map(|i| match i % 3 {
            0 => Submit(Op::Delete { key: key(front, i) }),
            1 => Submit(Op::Get { key: key(front, i) }),
            _ => Submit(Op::Put {
                key: key(front, i + 7),
                val: 1000 + i,
            }),
        });
        puts.chain([Commit])
            .chain(mixed)
            .chain([Commit])
            .collect::<Vec<_>>()
    };
    let pending = |front: Front| {
        let mut script = Vec::new();
        for epoch in 0..5u64 {
            let ops = (0..6).map(|i| Op::Put {
                key: key(front, epoch * 6 + i),
                val: epoch,
            });
            script.extend(ops.map(Submit));
            script.push(Commit);
        }
        script.extend((0..40).map(|i| {
            Submit(Op::Delete {
                key: key(front, i * 3),
            })
        }));
        script.push(Commit);
        script
    };
    for durable in [false, true] {
        model::check(&c, Front::sync(1), durable, &wide(Front::sync(1)));
        let oram = Front::Oram { pipelined: false };
        model::check(&c, oram, durable, &pending(oram));
        for seed in 0..4 {
            model::check(&c, Front::Shrink, durable, &Front::Shrink.script(seed, 300));
        }
    }
}
