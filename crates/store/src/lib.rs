//! # dob-store — an oblivious batched key-value store, sharded
//!
//! The paper's motivating scenario (§1) is private analytics on a secure
//! processor: many clients' queries must be served without the host
//! learning *which* records are touched. This crate turns the workspace's
//! §F routing kernels into that system: clients submit
//! [`Op::Get`]/[`Op::Put`]/[`Op::Delete`]/[`Op::Aggregate`] operations into
//! an **epoch**; at epoch close the batch is padded to a public size class
//! and resolved against the resident table with oblivious sorts and a
//! segmented last-writer-wins scan (the send-receive pattern of §F), or —
//! over a bounded key space, while the pending log stays within its limit
//! — as one step of the recursive tree ORAM, a walk per op (§4.2).
//!
//! There is one engine, [`ShardedStore`]; [`Store`] names its 1-shard
//! configuration (`Store::new(StoreConfig)`), which routes nothing and
//! is the only one with the ORAM path. With more shards, keys are
//! assigned to shards by the public hash [`shard_of`], each epoch's ops
//! are sorted once and every shard takes its own out of that order
//! *obliviously* (a fixed mask and a compaction, every shard merging the
//! same public class), all shards commit in parallel on the fork-join
//! pool, and the results are obliviously routed back to submission
//! order. Validation, the WAL append, snapshots and health
//! are the same code at every shard count.
//!
//! **Leakage contract:** the client-visible access trace of every epoch is
//! a function of *public* quantities only — the padded batch class, the
//! shard count and per-shard class, the (public) pending-log length, and
//! the table capacities, all of which derive from the history of batch
//! *sizes* (plus, when a [`ShrinkPolicy`] is configured, the public merge
//! counter). Keys, values, op kinds, hit rates, duplicate structure and
//! per-shard load are hidden — with one opt-in exception: under scaled
//! provisioning ([`ShardConfig::route_slack`] `>= 1`) an epoch whose key
//! skew overflows a shard's sub-batch class publicly falls back to full
//! provisioning, revealing one bit about the load distribution; the
//! default (`route_slack = 0`) leaks nothing. The merge path is exactly trace-equal
//! across same-shape workloads; the ORAM path is trace-length invariant
//! with contents fresh-coin simulatable (the classic tree-ORAM argument).
//! See DESIGN.md §8–§9 and `tests/store.rs` / `tests/sharded.rs`.
//!
//! A [`PipelinedStore`] adds a double-buffered front end on top of the
//! engine: ops for epoch N+1 are accepted while epoch N's merge runs as a
//! detached fork-join task, with strict read-your-writes through an
//! oblivious consult of the in-flight epoch's padded op log. Its handoff
//! cadence and every consult shape are functions of batch sizes only —
//! the same contract as above (DESIGN.md §11).
//!
//! **Durability** is opt-in: open a store with [`ShardedStore::recover`]
//! under [`Durability::Epoch`] and every epoch is appended to a
//! write-ahead log *before* it is routed or merged — one log per store,
//! one framed, checksummed record per epoch holding the padded client
//! batch, its on-disk size fixed by the public batch class. The append
//! that returns `Ok` is synced: one `fsync` per epoch, so every
//! acknowledged epoch survives a crash. Snapshots of the packed table
//! are written on the public
//! [`ShrinkPolicy::snapshot`] cadence (or explicitly via
//! [`ShardedStore::checkpoint`]), truncating the WAL. Recovery replays the
//! logged batches through the normal epoch path, so the recovered trace —
//! and the disk image itself — is the same public function of batch sizes
//! as a fresh run (DESIGN.md §13, `tests/durability.rs`).
//!
//! ```
//! use fj::SeqCtx;
//! use metrics::ScratchPool;
//! use store::{Op, Store, StoreConfig};
//!
//! let c = SeqCtx::new();
//! let scratch = ScratchPool::new();
//! let mut store = Store::new(StoreConfig::default());
//! let mut epoch = store.epoch();
//! epoch.submit(Op::Put { key: 7, val: 700 });
//! let get = epoch.submit(Op::Get { key: 7 });
//! let results = epoch.commit(&c, &scratch, &mut store).unwrap();
//! assert_eq!(results[get].value(), Some(700));
//! ```
//!
//! **Failure model** (DESIGN.md §15): every durable-path fault — and
//! every op that breaks the client contract ([`StoreError::InvalidOp`],
//! rejected before anything is logged or applied) — surfaces as a typed
//! [`StoreError`], never a panic. Transient faults are retried
//! under the configurable [`RetryPolicy`]; a terminal fault rejects the
//! epoch *atomically* (merge effects apply only after the WAL durability
//! point) and flips the store to a sticky [`Health::Degraded`] read-only
//! mode. The [`vfs`] module's injectable filesystem ([`vfs::FaultVfs`])
//! drives the crash-point chaos suite in `tests/fault_injection.rs` from
//! seeded, *public* fault schedules.

#![forbid(unsafe_code)]

mod error;
mod merge;
mod op;
mod pipeline;
mod recovery;
mod router;
mod shard;
mod store;
pub mod vfs;
mod wal;

pub use crate::store::{Epoch, ShardConfig, ShardedStore, ShrinkPolicy, Store, StoreConfig};
pub use error::{Health, RetryPolicy, StoreError};
pub use op::{size_class, EpochPath, Op, OpResult, StoreStats, MIN_CLASS};
pub use pipeline::{EpochHandle, PipelinedStore, Ticket};
pub use router::{shard_class, shard_of};
pub use wal::Durability;
