//! # dob — Data Oblivious Algorithms for Multicores
//!
//! Facade crate for the reproduction of Ramachandran & Shi,
//! *Data Oblivious Algorithms for Multicores* (SPAA 2021). Re-exports the
//! workspace's public API; see the README for the architecture and
//! DESIGN.md for the paper-to-module map.
//!
//! ```
//! use dob::prelude::*;
//!
//! let pool = Pool::new(2);
//! let scratch = ScratchPool::new();
//! let mut data: Vec<u64> = (0..2000).rev().collect();
//! pool.run(|c| oblivious_sort_u64(c, &scratch, &mut data, OSortParams::practical(2000), 42));
//! assert!(data.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![forbid(unsafe_code)]

pub use fj;
pub use graphs;
pub use metrics;
pub use obliv_core;
pub use pram;
pub use sortnet;
pub use store;

/// Read a workload size from the environment, falling back to `default`
/// when the variable is unset or unparseable. The examples use this (and
/// `tests/examples_smoke.rs` relies on it) to shrink their workloads via
/// `DOB_*` knobs.
pub fn env_size(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The commonly used names, one `use` away.
pub mod prelude {
    pub use fj::{par_for, Ctx, Deferred, Pool, SeqCtx};
    pub use graphs::{
        connected_components, contract_eval, list_rank_oblivious_unit, msf, rooted_tree_stats,
    };
    pub use metrics::{
        measure, CacheConfig, CostReport, MeterCtx, ScratchGuard, ScratchPool, TraceMode, Tracked,
    };
    pub use obliv_core::{
        oblivious_sort, oblivious_sort_u64, orp, send_receive, Engine, Item, OSortParams,
        OrbaParams,
    };
    pub use pram::{run_direct, run_oblivious_sb, Opram, OramConfig};
    pub use sortnet::{sort_slice_rec, Network};
    pub use store::{
        shard_of, Durability, Epoch, EpochHandle, EpochPath, Health, Op, OpResult, PipelinedStore,
        RetryPolicy, ShardConfig, ShardedStore, ShrinkPolicy, Store, StoreConfig, StoreError,
        StoreStats, Ticket,
    };
}
