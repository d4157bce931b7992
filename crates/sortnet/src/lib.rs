//! # sortnet — data-oblivious sorting networks for binary fork-join
//!
//! Comparator networks are data-oblivious by construction: the sequence of
//! compared addresses is fixed in advance. This crate supplies every
//! network the paper's constructions need, each written once over the
//! compare-exchange [`Gate`] — what rides through the comparators (a
//! `Slot`, a `u64`, a packed cell) is a parameter, never a second network:
//!
//! * [`cx`] — the gate: one `cex` body, the closure gates, and the two
//!   batched entries a gate may override (a run of pairs, a whole stage);
//! * [`bitonic`] — Batcher's bitonic network, sequential and naively
//!   parallelized (the strawman with `O(log³ n)` span);
//! * [`bitonic_rec`] — the paper's cache-agnostic recursive bitonic sort
//!   (§E.1, Theorem E.1): span `O(log² n · log log n)`, cache complexity
//!   `O((n/B)·log_M n·log(n/M))`;
//! * [`oddeven`] — Batcher's odd-even mergesort (alternative engine);
//! * [`shellsort`] — Goodrich's randomized Shellsort, the `O(n log n)`-
//!   comparison stand-in for the AKS network (see DESIGN.md §4);
//! * [`network`] — explicit layered networks, used to regenerate Figure 1;
//! * [`tag`] — packed 32-byte tag cells (`key ‖ payload` lanes): the
//!   tag-sort fast path that keeps wide records out of the comparator
//!   layers;
//! * [`vec`](mod@vec) — [`Backend`], the branchless gate for cells:
//!   `select_u128` lanes, and where the hardware has it runtime-
//!   dispatched AVX2 kernels — one entry per run, per stage and per
//!   compaction block (scalar via `DOB_NO_SIMD=1`). The run and stage
//!   entries are trace-identical to the per-pair gate by accounting
//!   replay; the block entry runs on hosts only (DESIGN.md §14);
//! * [`transpose`](mod@transpose) — cache-agnostic parallel matrix transposition, the
//!   shared skeleton of every recursive butterfly in the workspace.

pub mod bitonic;
pub mod bitonic_rec;
pub mod cx;
pub mod network;
pub mod oddeven;
pub mod shellsort;
pub mod tag;
pub mod transpose;
pub mod vec;

pub use bitonic::{bitonic_sort_flat_par, bitonic_sort_seq, bitonic_stage_flat_par, level_index};
pub use bitonic_rec::{
    bitonic_merge_rec, bitonic_sort_rec, bitonic_sort_rec_from_runs, par_rows2, sort_slice_rec,
    sort_slice_rec_in, TILE_RUN_BYTES,
};
pub use cx::{cex, select_u128, select_u64, Gate};
pub use network::{Comparator, Network};
pub use oddeven::oddeven_sort;
pub use shellsort::randomized_shellsort;
pub use tag::{cells_merge_rec, cells_sort_rec, cells_sort_rec_with, TagCell};
pub use transpose::transpose;
pub use vec::{active_backend, block_slabs, cex_cells_slab, select_cell, Backend};
