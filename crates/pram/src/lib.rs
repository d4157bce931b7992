//! # pram — CRCW PRAM substrate and its oblivious simulations (§4)
//!
//! * [`model`] — the CRCW PRAM machine (priority write rule) with programs
//!   in read/compute/write normal form;
//! * [`direct`] — insecure executor (correctness oracle, Fact B.1
//!   baseline);
//! * [`obliv_sb`] — Theorem 4.1: oblivious simulation of space-bounded
//!   PRAMs at `O(sort(p+s))` per step, built from oblivious sort +
//!   send-receive + fixed-pattern scans;
//! * [`veb`] — van Emde Boas tree layout (§4.2 cache modification);
//! * [`oram`] — Theorem 4.2 substrate: batched recursive tree ORAM with
//!   position-map recursion, fixed stash, reverse-lexicographic eviction,
//!   and oblivious conflict resolution / result routing;
//! * [`progs`] — demo PRAM programs (max, histogram, pointer jumping).

#![forbid(unsafe_code)]

pub mod direct;
pub mod model;
pub mod obliv_sb;
pub mod oram;
pub mod progs;
pub mod veb;

pub use direct::run_direct;
pub use model::{Program, WriteReq};
pub use obliv_sb::run_oblivious_sb;
pub use oram::{Opram, OramConfig};
pub use progs::{HistogramProgram, MaxProgram, PointerJumpProgram};
pub use veb::{path_blocks, tree_nodes, TreeLayout};
