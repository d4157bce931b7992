//! # obliv-core — the paper's primary contribution
//!
//! Data-oblivious algorithms for the binary fork-join model
//! (Ramachandran & Shi, SPAA 2021), cache-agnostically:
//!
//! * [`binplace`] — oblivious bin placement (§C.1): sort + rank +
//!   [`expand`](mod@expand), the comparator-free monotone distribution;
//! * [`meta_orba`](mod@meta_orba) / [`rec_orba`](mod@rec_orba) — oblivious random bin assignment, flat
//!   meta-algorithm (§C.2) and the recursive cache-agnostic schedule
//!   (§3.2, §D.1, Lemma 3.1);
//! * [`orp`](mod@orp) — oblivious random permutation (§C.3, §D.2);
//! * [`rec_sort`] — REC-SORT, the pivot-routed butterfly sorter for
//!   randomly permuted inputs (§E.2);
//! * [`osort`] — the full oblivious sorting pipelines, practical (§3.4)
//!   and theory (§3.3) variants (Theorem 3.2);
//! * [`scan`](mod@scan) — prefix scans plus oblivious aggregation and propagation
//!   (§F), with the paper's `O(log n)`-span schedule and the naive
//!   `O(log² n)` baseline (Table 2);
//! * [`sendrecv`] — oblivious send-receive / routing (§F);
//! * [`scatter`] — padded multi-way oblivious scatter (stable §F routing
//!   into fixed-capacity bins; `dob-store` no longer calls it: a sharded
//!   epoch sorts its ops once and each shard compacts its own lane);
//! * [`tag_sort`] — the tag-sort fast path: stable KV sorting and tight
//!   compaction over packed 32-byte cells (the store's hot-path kernels);
//! * [`baseline`] — insecure parallel mergesort (SPMS substitute).
//!
//! See DESIGN.md at the workspace root for the substitution ledger
//! (AKS → bitonic/randomized Shellsort, SPMS → REC-SORT/mergesort).

pub mod baseline;
pub mod binplace;
pub mod engine;
pub mod error;
pub mod expand;
pub mod meta_orba;
pub mod orp;
pub mod osort;
pub mod rec_orba;
pub mod rec_sort;
pub mod scan;
pub mod scatter;
pub mod sendrecv;
pub mod slot;
pub mod tag_sort;

pub use baseline::par_merge_sort;
pub use binplace::{bin_place, bin_place_from, set_keys};
pub use engine::Engine;
pub use error::{with_retries, OblivError, Result};
pub use expand::expand;
pub use meta_orba::meta_orba;
pub use metrics::{ScratchGuard, ScratchPool};
pub use orp::{orp, orp_into, orp_once, orp_once_into};
pub use osort::{oblivious_sort, oblivious_sort_u64, FinalSorter, OSortParams, SortOutcome};
pub use rec_orba::{bins_for, rec_orba, rec_orba_into, BinLayout, OrbaParams};
pub use rec_sort::rec_sort_items;
pub use scan::{
    map_scan, prefix_sum_in, scan_in, seg_combine_u64, seg_propagate_in, seg_sum_right_in, Lanes,
    Schedule, Seg,
};
pub use scatter::oblivious_scatter;
pub use sendrecv::send_receive;
pub use slot::{composite_key, Item, Slot, Val};
pub use sortnet::{select_cell, select_u128, select_u64, TagCell};
pub use tag_sort::{compact_bounded, compact_cells, oblivious_sort_kv, Bound, Ranks};
