//! # metrics — the cost-model executor
//!
//! Measures the three quantities the paper's theorems are stated in —
//! work `W`, span `T∞`, and sequential cache complexity `Q(M, B)` — plus
//! the adversary-visible access trace of Definition 1, for any algorithm
//! written against [`fj::Ctx`].
//!
//! ```
//! use metrics::{measure, CacheConfig, TraceMode, Tracked};
//!
//! let (_, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
//!     let mut v = vec![0u64; 1 << 12];
//!     let mut t = Tracked::new(c, &mut v);
//!     for i in 0..t.len() {
//!         t.set(c, i, i as u64);
//!     }
//! });
//! assert!(rep.cache_misses >= (1 << 12) / rep.b_words);
//! ```

mod cache;
mod meter;
mod report;
pub mod scratch;
mod trace;
mod tracked;

pub use cache::{CacheConfig, CacheSim};
pub use meter::{measure, Counter, MeterCtx};
pub use report::CostReport;
pub use scratch::{Lane, ScratchGuard, ScratchPool};
pub use trace::{TraceEvent, TraceMode, TraceRec};
pub use tracked::{
    par_collect, par_fill, par_fill2, par_tracked_chunks, par_update, par_update_fill, words_per,
    RawTracked, Tracked,
};
