//! Direct (insecure) CRCW PRAM executor: the correctness oracle.
//!
//! Reads are performed with plain indexed access — the access pattern leaks
//! every address, which is precisely what the oblivious simulations
//! ([`crate::obliv_sb`]) exist to prevent. Reads of one step run as a
//! parallel loop (this is also the classic "fork n threads per PRAM step"
//! baseline of Fact B.1); conflict resolution uses the reference priority
//! rule.

use crate::model::{resolve_priority, Program, WriteReq};
use fj::Ctx;
use metrics::{par_fill, par_update_fill, Tracked};

/// Execute `prog` against memory initialized from `mem_init` (padded with
/// zeros to `prog.space()`); returns the final memory.
pub fn run_direct<C: Ctx, P: Program>(c: &C, prog: &P, mem_init: &[u64]) -> Vec<u64> {
    let p = prog.nprocs();
    let s = prog.space();
    assert!(mem_init.len() <= s);
    let mut mem = vec![0u64; s];
    mem[..mem_init.len()].copy_from_slice(mem_init);

    let mut states = vec![P::State::default(); p];
    let mut fetched: Vec<Option<u64>> = vec![None; p];
    let mut writes: Vec<Option<WriteReq>> = vec![None; p];

    for t in 0..prog.steps() {
        // Read phase (concurrent reads are free on a CRCW PRAM).
        {
            let mem_t = Tracked::new(c, &mut mem);
            par_fill(c, &mut Tracked::new(c, &mut fetched), &|c, pid| {
                prog.read_addr(t, pid, &states[pid])
                    .map(|a| mem_t.get(c, a))
            });
        }
        // Compute phase.
        {
            let mut w_t = Tracked::new(c, &mut writes);
            let mut st_t = Tracked::new(c, &mut states);
            par_update_fill(c, &mut st_t, &mut w_t, &|_, pid, mut st| {
                let w = prog.compute(t, pid, &mut st, fetched[pid]);
                (st, w)
            });
        }
        // Write phase (reference priority semantics).
        resolve_priority(&writes, &mut mem);
        c.work(p as u64);
    }
    mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progs::{HistogramProgram, MaxProgram};
    use fj::{Pool, SeqCtx};

    #[test]
    fn max_program_finds_maximum() {
        let c = SeqCtx::new();
        let vals: Vec<u64> = vec![3, 99, 12, 7, 54, 23, 8, 41];
        let prog = MaxProgram::new(vals.len());
        let mem = run_direct(&c, &prog, &vals);
        assert_eq!(mem[0], 99);
    }

    #[test]
    fn histogram_counts_with_priority() {
        let c = SeqCtx::new();
        let vals: Vec<u64> = vec![0, 1, 1, 2, 2, 2, 3, 0];
        let prog = HistogramProgram::new(vals.len(), 4);
        let mem = run_direct(&c, &prog, &vals);
        // Each bucket holds the lowest pid that voted for it.
        assert_eq!(&mem[8..12], &[0, 1, 3, 6]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let pool = Pool::new(4);
        let vals: Vec<u64> = (0..256).map(|i| (i * 2654435761u64) % 10_000).collect();
        let prog = MaxProgram::new(vals.len());
        let seq = run_direct(&SeqCtx::new(), &prog, &vals);
        let par = pool.run(|c| run_direct(c, &prog, &vals));
        assert_eq!(seq[0], par[0]);
        assert_eq!(seq[0], *vals.iter().max().unwrap());
    }
}
