//! # graphgen — synthetic workloads matching the paper's datasets
//!
//! The paper evaluates on (§3.2, §4.2):
//!
//! * **random trees with the *grasp* parameter γ** — node `i`'s parent is
//!   uniform over the γ preceding nodes, interpolating between a path
//!   (γ = 1) and a shallow ln-n-depth tree (γ = ∞) — [`trees`];
//! * **scale-free Barabási–Albert trees** — [`ba`];
//! * **Kronecker / R-MAT graphs** with Graph500 parameters — [`kronecker`];
//! * **social/web-like graphs** via preferential attachment — [`social`];
//! * **road-like networks**: percolated grids with huge diameters —
//!   [`road`];
//!
//! plus the Table-1 statistics tooling (largest connected component,
//! diameter estimation) in [`stats`].
//!
//! All generators are deterministic functions of their seed.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ba;
pub mod kronecker;
pub mod road;
pub mod social;
pub mod stats;
pub mod trees;

pub use ba::{ba_graph, ba_tree};
pub use kronecker::kronecker_graph;
pub use road::road_grid;
pub use social::web_graph;
pub use stats::{diameter_estimate, largest_connected_component, GraphStats};
pub use trees::{average_depth, permute_labels, random_queries, random_tree};
