//! Helpers shared by the integration suites. Every suite compiles the
//! whole module and uses part of it.
#![allow(dead_code)]

pub mod model;

use dob::prelude::*;
use obliv_core::orp_once;
use obliv_core::scan::Schedule;

/// Dirty a scratch pool thoroughly: run several kernels of different
/// shapes and element types through it so its freelists hold stale bytes
/// of every size class the kernels under test will lease. Used by the
/// fresh-vs-dirty trace-equality suites (`scratch_reuse`, `store`,
/// `sharded`, `durability`, `simd_equiv`).
pub fn dirty(pool: &ScratchPool) {
    let c = SeqCtx::new();
    let mut v: Vec<u64> = (0..1500u64).map(|i| i.wrapping_mul(0x9E37) | 1).collect();
    let params = OSortParams::practical(v.len());
    oblivious_sort_u64(&c, pool, &mut v, params, 0xD1D7);
    let items: Vec<Item<u64>> = (0..700u64).map(|i| Item::new(i as u128, !i)).collect();
    let _ = orp_once(&c, pool, &items, OrbaParams::for_n(700), 0xBADC0DE);
    let sources: Vec<(u64, u64)> = (0..300).map(|i| (i * 3, i | 0xFF00)).collect();
    let dests: Vec<u64> = (0..500).collect();
    send_receive(
        &c,
        pool,
        &sources,
        &dests,
        Engine::BitonicRec,
        Schedule::Tree,
    );
}

/// Random flat ops over a small key universe (dense enough that gets hit,
/// puts collide and deletes land).
pub fn op_from(kind: u8, key: u64, val: u64) -> Op {
    match kind % 4 {
        0 => Op::Get { key },
        1 => Op::Put { key, val },
        2 => Op::Delete { key },
        _ => Op::Aggregate,
    }
}

/// Batch sizes of every [`history`]: classes 64, 16 and 32.
pub const SIZES: [usize; 3] = [40, 12, 28];

/// A fixed-shape epoch history parameterized by the secret payload: same
/// epoch count, same batch sizes — totally different keys/values/op-kinds.
pub fn history(salt: u64) -> Vec<Vec<Op>> {
    let op = |e: usize, i: u64| {
        let key = i
            .wrapping_mul(salt.wrapping_mul(2654435761).wrapping_add(97))
            .wrapping_add(e as u64)
            % 512;
        op_from((i.wrapping_add(salt) % 4) as u8, key, salt.wrapping_add(i))
    };
    let epoch = |(e, &size): (usize, &usize)| (0..size as u64).map(|i| op(e, i)).collect();
    SIZES.iter().enumerate().map(epoch).collect()
}

/// Run `epochs` on a fresh store; its answers and routing fallbacks.
pub fn run_epochs<C: Ctx>(
    c: &C,
    sp: &ScratchPool,
    cfg: ShardConfig,
    epochs: &[Vec<Op>],
) -> (Vec<Vec<OpResult>>, u64) {
    let mut store = ShardedStore::new(cfg);
    let out = epochs
        .iter()
        .map(|ops| store.execute_epoch(c, sp, ops).unwrap())
        .collect();
    (out, store.routing_fallbacks())
}

pub fn run_history<C: Ctx>(
    c: &C,
    sp: &ScratchPool,
    cfg: ShardConfig,
    salt: u64,
) -> (Vec<Vec<OpResult>>, u64) {
    run_epochs(c, sp, cfg, &history(salt))
}

/// The adversary trace (hash, length) of [`run_epochs`].
pub fn trace_epochs(sp: &ScratchPool, cfg: ShardConfig, epochs: &[Vec<Op>]) -> (u64, u64) {
    let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
        run_epochs(c, sp, cfg, epochs);
    });
    (rep.trace_hash, rep.trace_len)
}

pub fn trace_history(sp: &ScratchPool, cfg: ShardConfig, salt: u64) -> (u64, u64) {
    trace_epochs(sp, cfg, &history(salt))
}
