//! # graphs — the §5 applications
//!
//! Data-oblivious binary fork-join algorithms built on `obliv-core`'s
//! sorting, routing, and scan primitives, each paired with an insecure
//! baseline and a reference oracle:
//!
//! * [`listrank`] — list ranking (§5.1): ORP + oblivious routing +
//!   pointer jumping on the hidden permutation;
//! * [`euler`] — Euler tour and rooted-tree computations (§5.2): parent,
//!   depth, preorder, postorder, subtree size;
//! * [`contraction`] — tree contraction (§5.3): oblivious SHUNT raking
//!   with geometrically shrinking compacted phases (Table 1 "TC†");
//! * [`cc`] — connected components (Table 1 "CC†"): fixed-round
//!   hook-to-minimum + pointer doubling, one oblivious sort per round;
//! * [`msf()`] — minimum spanning forest (Table 1 "MSF†"): oblivious
//!   Borůvka;
//! * [`gen`] — workload generators and oracles (union-find, Kruskal, DFS).

#![forbid(unsafe_code)]

pub mod cc;
pub mod contraction;
pub mod euler;
pub mod gen;
pub mod listrank;
pub mod msf;

pub use cc::{cc_rounds, connected_components, connected_components_insecure};
pub use contraction::contract_eval;
pub use euler::{euler_tour, rooted_tree_stats, tree_stats_dfs, EulerTour, TreeStats};
pub use gen::{
    kruskal_msf_weight, random_expr_tree, random_graph, random_list, random_tree,
    random_weighted_graph, ExprNode, ExprTree, UnionFind,
};
pub use listrank::{
    list_rank_insecure, list_rank_insecure_unit, list_rank_oblivious, list_rank_oblivious_unit,
};
pub use msf::{msf, MsfResult};
