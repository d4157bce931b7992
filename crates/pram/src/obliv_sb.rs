//! Oblivious, binary fork-join simulation of space-bounded CRCW PRAMs
//! (Theorem 4.1).
//!
//! Each PRAM step is simulated with oblivious primitives only:
//!
//! 1. **Read step** — all `p` read requests are served from the `s`-word
//!    memory array with one oblivious *send-receive* (every processor
//!    always submits a request; absent reads become dummy keys).
//! 2. **Local compute** — needs no simulation.
//! 3. **Write step** — an oblivious sort by `(address, pid)` plus a
//!    fixed-pattern neighbour scan suppresses duplicate writes under the
//!    CRCW priority rule (§4.1's "O(1) oblivious sorts"); a second
//!    send-receive then updates every memory cell (hit ⇒ new value,
//!    miss ⇒ old value, selected branch-free).
//!
//! Per-step cost is `O(W_sort(p+s))` work, `O(Q_sort(p+s))` cache misses
//! and `O(T_sort(p+s))` span — Theorem 4.1. The host-visible access
//! pattern depends only on `(p, s, steps)`: program addresses only ever
//! travel as *data* (sort keys), never as host addresses.

use crate::model::{Program, WriteReq};
use fj::Ctx;
use metrics::{par_fill, par_update, par_update_fill, ScratchPool, Tracked};
use obliv_core::slot::composite_key;
use obliv_core::{send_receive, Engine, Schedule, TagCell};

/// Dummy key: no memory cell has this address (`s < 2⁶⁴`).
const DUMMY: u64 = u64::MAX;

/// Obliviously execute `prog`; returns the final memory contents.
pub fn run_oblivious_sb<C: Ctx, P: Program>(
    c: &C,
    scratch: &ScratchPool,
    prog: &P,
    mem_init: &[u64],
    engine: Engine,
) -> Vec<u64> {
    let p = prog.nprocs();
    let s = prog.space();
    assert!(mem_init.len() <= s);
    let mut mem = vec![0u64; s];
    mem[..mem_init.len()].copy_from_slice(mem_init);

    let mut states = vec![P::State::default(); p];
    let all_addrs: Vec<u64> = (0..s as u64).collect();

    for t in 0..prog.steps() {
        // --- Read step: one send-receive serves the whole batch.
        let mut dests = vec![DUMMY; p];
        par_fill(c, &mut Tracked::new(c, &mut dests), &|_, pid| {
            prog.read_addr(t, pid, &states[pid])
                .map_or(DUMMY, |a| a as u64)
        });
        let sources: Vec<(u64, u64)> = snapshot_memory(c, &mut mem);
        let fetched = send_receive(c, scratch, &sources, &dests, engine, Schedule::Tree);

        // --- Local compute.
        let mut writes: Vec<Option<WriteReq>> = vec![None; p];
        {
            let mut w_t = Tracked::new(c, &mut writes);
            let mut st_t = Tracked::new(c, &mut states);
            par_update_fill(c, &mut st_t, &mut w_t, &|_, pid, mut st| {
                let w = prog.compute(t, pid, &mut st, fetched[pid]);
                (st, w)
            });
        }

        // --- Write step: conflict resolution + memory update.
        let winners = resolve_conflicts(c, scratch, &writes, engine);
        let updates = send_receive(c, scratch, &winners, &all_addrs, engine, Schedule::Tree);
        // Unconditional read-modify-write keeps the pattern fixed.
        par_update(c, &mut Tracked::new(c, &mut mem), &|_, i, old| {
            updates[i].unwrap_or(old)
        });
    }
    mem
}

/// Fixed-pattern snapshot of memory as (address, value) sender pairs.
fn snapshot_memory<C: Ctx>(c: &C, mem: &mut [u64]) -> Vec<(u64, u64)> {
    let mem_t = Tracked::new(c, mem);
    let mut out = vec![(0u64, 0u64); mem_t.len()];
    par_fill(c, &mut Tracked::new(c, &mut out), &|c, i| {
        (i as u64, mem_t.get(c, i))
    });
    out
}

/// CRCW priority conflict resolution: sort the `p` optional writes by
/// `(addr, pid)`, keep the head of every address run, and blind the rest to
/// dummies. Output length is exactly `p` (fixed), with winners carrying
/// distinct addresses.
fn resolve_conflicts<C: Ctx>(
    c: &C,
    scratch: &ScratchPool,
    writes: &[Option<WriteReq>],
    engine: Engine,
) -> Vec<(u64, u64)> {
    let p = writes.len();
    // Write requests ride in packed 32-byte `TagCell`s (DESIGN.md §10):
    // tag = composite (addr ‖ processor id) — distinct, so the unstable
    // cell network is safe — and aux = (addr ‖ value).
    let mut cells = scratch.lease(p, TagCell::filler());
    for (cell, (pid, w)) in cells.iter_mut().zip(writes.iter().enumerate()) {
        let (addr, val) = w.map_or((DUMMY, 0), |w| (w.addr as u64, w.val));
        *cell = TagCell::new(
            composite_key(addr, pid as u64),
            ((addr as u128) << 64) | val as u128,
        );
    }

    let mut t = Tracked::new(c, &mut cells);
    engine.sort_cells(c, scratch, &mut t);
    // Two phases so neighbour reads never observe blinded slots (a fused
    // read-modify pass would let iteration i see i−1 already blinded and
    // mistake a run continuation for a head).
    let winner: Vec<bool> = metrics::par_collect(c, p, &|c, i| {
        let sl = t.get(c, i);
        let addr = (sl.tag >> 64) as u64;
        let head = i == 0 || (t.get(c, i - 1).tag >> 64) as u64 != addr;
        c.work(1);
        head && addr != DUMMY
    });
    par_update(c, &mut t, &|_, i, mut sl| {
        if !winner[i] {
            sl.aux = (DUMMY as u128) << 64;
        }
        sl
    });
    metrics::par_collect(c, p, &|c, i| {
        let sl = t.get(c, i);
        ((sl.aux >> 64) as u64, sl.aux as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::run_direct;
    use crate::progs::{HistogramProgram, MaxProgram, PointerJumpProgram};
    use fj::{Pool, SeqCtx};
    use metrics::{measure, CacheConfig, TraceMode};

    #[test]
    fn matches_direct_on_max() {
        let c = SeqCtx::new();
        let vals: Vec<u64> = (0..37).map(|i| (i * 2654435761u64) % 1000).collect();
        let prog = MaxProgram::new(vals.len());
        let direct = run_direct(&c, &prog, &vals);
        let obliv = run_oblivious_sb(&c, &ScratchPool::new(), &prog, &vals, Engine::BitonicRec);
        assert_eq!(direct, obliv);
    }

    #[test]
    fn matches_direct_on_histogram_with_conflicts() {
        let c = SeqCtx::new();
        let vals: Vec<u64> = vec![2, 0, 2, 1, 0, 2, 3, 3, 1, 0];
        let prog = HistogramProgram::new(vals.len(), 4);
        let direct = run_direct(&c, &prog, &vals);
        let obliv = run_oblivious_sb(&c, &ScratchPool::new(), &prog, &vals, Engine::BitonicRec);
        assert_eq!(direct, obliv, "priority conflict resolution must match");
    }

    #[test]
    fn long_conflict_runs_pick_the_minimum_pid() {
        // Regression: 128 processors all hammering 8 buckets creates runs
        // of length 16 in conflict resolution; every bucket must end up
        // with the *lowest* participating pid (a fused blind-while-scan
        // pass once let later run members win).
        let c = SeqCtx::new();
        let p = 128;
        let vals: Vec<u64> = (0..p as u64).map(|i| i % 8).collect();
        let prog = HistogramProgram::new(p, 8);
        let obliv = run_oblivious_sb(&c, &ScratchPool::new(), &prog, &vals, Engine::BitonicRec);
        assert_eq!(&obliv[p..p + 8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        let direct = run_direct(&c, &prog, &vals);
        assert_eq!(direct, obliv);
    }

    #[test]
    fn matches_direct_on_pointer_jumping() {
        let c = SeqCtx::new();
        let succ: Vec<u64> = vec![3, 0, 1, 5, 2, 5]; // chain ending at 5
        let prog = PointerJumpProgram::new(succ.len());
        let direct = run_direct(&c, &prog, &succ);
        let obliv = run_oblivious_sb(&c, &ScratchPool::new(), &prog, &succ, Engine::BitonicRec);
        assert_eq!(direct, obliv);
    }

    #[test]
    fn trace_is_input_independent() {
        // Histogram's write addresses depend on the data; the simulation's
        // host trace must not.
        let run = |vals: Vec<u64>| {
            let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
                let prog = HistogramProgram::new(vals.len(), 8);
                run_oblivious_sb(c, &ScratchPool::new(), &prog, &vals, Engine::BitonicRec);
            });
            (rep.trace_hash, rep.trace_len)
        };
        let a = run((0..32).map(|i| i % 8).collect());
        let b = run(vec![5; 32]);
        assert_eq!(
            a, b,
            "oblivious PRAM simulation leaked data-dependent addresses"
        );
    }

    #[test]
    fn parallel_execution_matches() {
        let pool = Pool::new(4);
        let vals: Vec<u64> = (0..64).map(|i| i * 31 % 257).collect();
        let prog = MaxProgram::new(vals.len());
        let sp = ScratchPool::new();
        let seq = run_oblivious_sb(&SeqCtx::new(), &sp, &prog, &vals, Engine::BitonicRec);
        let par = pool.run(|c| run_oblivious_sb(c, &sp, &prog, &vals, Engine::BitonicRec));
        assert_eq!(seq, par);
    }
}
