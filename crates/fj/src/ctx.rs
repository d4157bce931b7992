//! The execution-context abstraction shared by every algorithm in this
//! workspace.
//!
//! The paper's model (§2.1, §A.2) charges three costs to a binary fork-join
//! algorithm: total *work*, *span* (critical-path length), and sequential
//! *cache complexity*. Rather than writing each algorithm three times, we
//! write it once against [`Ctx`] and plug in one of three executors:
//!
//! * [`crate::SeqCtx`] — plain sequential execution, zero accounting;
//! * [`crate::Pool`] — real parallel execution under randomized work
//!   stealing (the `join` of the two closures may run on different cores);
//! * `metrics::MeterCtx` — sequential instrumented execution that counts
//!   work, computes span through the fork-join recursion, simulates an
//!   ideal LRU cache, and records the address trace the paper's adversary
//!   observes (Definition 1).
//!
//! `work` and `touch` are deliberately no-ops on the non-metered executors
//! so the abstraction costs nothing in release builds.

use crate::task::Deferred;
use std::panic::{self, AssertUnwindSafe};

/// Identifier of a logical memory buffer registered with the context.
///
/// The value is the buffer's base address in *words* inside the context's
/// flat logical address space. Non-metered contexts hand out `BufId(0)` for
/// everything and ignore subsequent `touch` calls.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BufId(pub u64);

/// Kind of memory access, as visible to the adversary of Definition 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Access {
    Read,
    Write,
}

/// Execution context for binary fork-join algorithms.
///
/// Algorithms must only express parallelism through [`Ctx::join`] (and the
/// helpers in [`crate::par`], which bottom out in `join`); this is exactly
/// the binary fork-join model of the paper: forks are binary, and the only
/// synchronization points are joins, which are properly nested.
pub trait Ctx: Sync {
    /// Fork two tasks that may run in parallel and join on both results.
    ///
    /// `a` and `b` receive the context again so nested forks keep working
    /// regardless of which worker executes them.
    fn join<RA, RB>(
        &self,
        a: impl FnOnce(&Self) -> RA + Send,
        b: impl FnOnce(&Self) -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send;

    /// Account `n` units of work (each unit also contributes one step of
    /// sequential depth on the current path).
    #[inline(always)]
    fn work(&self, _n: u64) {}

    /// Record an access of `len` contiguous words starting `off` words into
    /// buffer `buf`. Feeds the cache simulator and the adversary trace on
    /// metered contexts; free elsewhere.
    #[inline(always)]
    fn touch(&self, _buf: BufId, _off: u64, _len: u64, _kind: Access) {}

    /// Register a logical buffer of `len` words, returning its id.
    ///
    /// Metered contexts lay buffers out disjointly (block-aligned) so the
    /// cache simulator sees a faithful address space.
    #[inline(always)]
    fn register(&self, _len: u64) -> BufId {
        BufId(0)
    }

    /// True when running under a metering executor. Algorithms may use this
    /// to skip building debug-only structures, never to change their
    /// *access pattern* (that would invalidate the obliviousness argument).
    #[inline(always)]
    fn is_metered(&self) -> bool {
        false
    }

    /// Bump a semantic counter (see [`counters`]). No-op unless metered.
    #[inline(always)]
    fn count(&self, _counter: usize, _n: u64) {}

    /// Hand `f` to the executor as a **detached task** and return a
    /// [`Deferred`] handle for its result; the caller keeps running.
    ///
    /// Unlike [`join`](Ctx::join), the task is decoupled from the
    /// spawning frame (hence `'static`): it may still be running after
    /// this call returns, and the handle may outlive the frame. The pool
    /// executor queues the task for its workers; executors without
    /// background workers (sequential, metered) run `f` inline and return
    /// an already-resolved handle, so code written against this method
    /// stays executable — and meterable, with a deterministic trace — on
    /// every context. A panic inside `f` is captured and re-raised at
    /// [`Deferred::join`], never at the spawn site.
    fn spawn_detached<R, F>(&self, f: F) -> Deferred<R>
    where
        R: Send + 'static,
        F: FnOnce(&Self) -> R + Send + 'static,
    {
        Deferred::ready_result(panic::catch_unwind(AssertUnwindSafe(|| f(self))))
    }

    /// Account `n` units of work performed by an embarrassingly parallel
    /// map (cost shape of a balanced fork tree: `n` work, `O(log n)`
    /// depth). Used for untracked CPU-side transforms whose real execution
    /// is data-parallel; metering executors add `n` work but only a
    /// logarithmic span contribution.
    #[inline(always)]
    fn charge_par(&self, _n: u64) {}
}

/// Indices for the semantic counters understood by metering executors.
pub mod counters {
    /// Comparator evaluations (compare-exchange gates).
    pub const COMPARISONS: usize = 0;
    /// Element moves (copies between memory slots).
    pub const MOVES: usize = 1;
    /// Complete sorting-subroutine invocations.
    pub const SORTS: usize = 2;
    /// Randomized retries (bin overflow, label collision, …).
    pub const RETRIES: usize = 3;
}

/// Reasonable default grain size for leaf-level parallel loops.
///
/// Small enough to expose parallelism on poly-log-size subproblems, large
/// enough that task overhead does not dominate.
pub const DEFAULT_GRAIN: usize = 1024;

/// Grain to use for parallel loops on this context: metered executors get
/// grain 1 so the measured span matches the model (where a fork costs
/// `O(1)`); real executors amortize task overhead with [`DEFAULT_GRAIN`].
/// The memory trace is identical either way — only the fork structure
/// differs, and it is input-independent in both schedules.
#[inline]
pub fn grain_for<C: Ctx>(c: &C) -> usize {
    if c.is_metered() {
        1
    } else {
        DEFAULT_GRAIN
    }
}

/// Base-case size of the recursive sorting networks in the cost model.
const MODEL_BASE: usize = 32;

/// Bytes of elements a host executor runs the flat network over: one L1
/// data cache. Above it the recursive networks keep a subproblem this size
/// resident — the bitonic merge by in-place tiles
/// (`sortnet::bitonic_rec`), the swap butterflies by depth-first halving —
/// and never pay Theorem E.1's transposes, which on hardware cost more
/// than the misses they save at every size measured (DESIGN.md §3).
const HOST_BASE_BYTES: usize = 32 * 1024;

/// Base-case size (in elements of `elem_bytes` each, a power of two) for
/// the recursive networks on this context — [`grain_for`]'s rule applied
/// to the recursion cut-off: metered executors get 32 so the measured span
/// and cache complexity are the model's; real executors switch to the flat
/// network once a subproblem fits in L1 (1024 32-byte cells). The
/// comparator set is identical either way — only the order comparators
/// are evaluated in differs, and only off-meter.
#[inline]
pub fn base_for<C: Ctx>(c: &C, elem_bytes: usize) -> usize {
    if c.is_metered() {
        MODEL_BASE
    } else {
        let fit = (HOST_BASE_BYTES / elem_bytes.max(1)).max(MODEL_BASE);
        // Round down to a power of two.
        1 << fit.ilog2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqCtx;

    #[test]
    fn host_base_is_an_l1_sized_power_of_two() {
        let c = SeqCtx::new();
        assert_eq!(base_for(&c, 32), 1024);
        assert_eq!(base_for(&c, 48), 512);
        assert_eq!(base_for(&c, 8), 4096);
        assert_eq!(base_for(&c, 0), 32 * 1024);
        assert_eq!(base_for(&c, 1 << 20), MODEL_BASE);
    }
}
