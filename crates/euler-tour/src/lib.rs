//! # euler-tour — the Euler tour technique on a simulated GPU
//!
//! This crate is the paper's primary contribution (§2): representing a
//! rooted tree as a list of directed half-edges in depth-first order, so
//! that subtree statistics become prefix sums.
//!
//! The pipeline follows the paper exactly:
//!
//! 1. **DCEL construction** (§2.1, [`dcel`]): from an unordered collection
//!    of undirected edges, build `twin`/`next` pointers via one
//!    lexicographic sort of all half-edges.
//! 2. **Tour as a linked list** ([`list`]): `succ(e) = next(twin(e))`,
//!    split at an arbitrary edge leaving the chosen root.
//! 3. **One list ranking** (§2.2, [`ranking`]): convert the list into an
//!    *array* of edges in tour order. We provide the sequential baseline,
//!    Wyllie pointer jumping (O(n log n) work) and the GPU-optimized
//!    Wei–JáJá algorithm (O(n) work) the paper uses.
//! 4. **Array scans** ([`stats`]): preorder numbers, subtree sizes, node
//!    levels and parents via the fast scan primitive — the paper's key
//!    optimization ("perform all the following prefix sum calculations on
//!    the Euler tour by using a fast scan primitive on the array").
//!
//! Around the pipeline, [`cpu`] is the sequential oracle.
//!
//! ```
//! use euler_tour::{EulerTour, TreeStats};
//! use graph_core::Tree;
//! use gpu_sim::Device;
//!
//! let device = Device::new();
//! let tree = Tree::from_edges(5, &[(0, 1), (1, 2), (1, 3), (0, 4)], 0).unwrap();
//! let tour = EulerTour::build(&device, &tree).unwrap();
//! let stats = TreeStats::compute(&device, &tour);
//! assert_eq!(stats.preorder[0], 1);          // root is visited first
//! assert_eq!(stats.subtree_size[1] , 3);     // node 1 subtree = {1, 2, 3}
//! assert_eq!(stats.level[2], 2);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod dcel;
pub mod list;
pub mod ranking;
pub mod stats;
pub mod tour;

pub use dcel::{twin, Dcel};
pub use list::EulerList;
pub use ranking::{
    default_sublist_target, list_prefix_sum, rank_into, rank_wei_jaja_into,
    rank_wei_jaja_with_sublists, rank_wyllie_into, Ranker,
};
pub use stats::TreeStats;
pub use tour::{EulerTour, TourError};
