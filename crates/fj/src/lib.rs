//! # fj — a binary fork-join runtime
//!
//! This crate is the computation-model substrate for the reproduction of
//! *Data Oblivious Algorithms for Multicores* (Ramachandran & Shi,
//! SPAA 2021). The paper's algorithms are stated in the **binary fork-join
//! model** (§2.1, §A.2): parallelism is expressed exclusively through paired
//! binary `fork`/`join` operations, and the scheduler is work stealing in
//! the style of Blumofe–Leiserson (deterministic round-robin victims here,
//! where the analysis assumes random ones).
//!
//! The crate provides:
//!
//! * [`Ctx`] — the execution-context trait every algorithm in the workspace
//!   is written against (fork-join plus cost-accounting hooks);
//! * [`SeqCtx`] — sequential executor;
//! * [`Pool`] — a plain work-stealing thread pool: one LIFO deque per
//!   worker (`crossbeam::deque`'s API; the in-tree `crossbeam` is a
//!   mutex-guarded `VecDeque`), one global injector, round-robin stealing,
//!   and optionally pinned workers ([`topo`]);
//! * [`par`] — parallel loop/reduce helpers that expand into balanced
//!   binary fork trees.
//!
//! Detached tasks ([`Ctx::spawn_detached`], joined through [`Deferred`])
//! carry the store's pipelined epoch commits. Dropping a [`Pool`] is a
//! barrier for them: every spawned-but-unfinished detached task runs to
//! completion before the workers terminate, which is what lets a durable
//! store acknowledge an epoch as soon as its WAL record is written (see
//! `dob-store`'s durability docs).

mod ctx;
pub mod par;
mod pool;
mod seq;
mod task;
pub mod topo;

pub use ctx::{base_for, counters, grain_for, Access, BufId, Ctx, DEFAULT_GRAIN};
pub use par::{par_chunks_mut, par_for, par_reduce, par_zip_mut};
pub use pool::{current_worker_index, Pool, PoolConfig};
pub use seq::SeqCtx;
pub use task::Deferred;
