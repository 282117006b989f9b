//! # euler-tour — the Euler tour technique on a simulated GPU
//!
//! This crate is the paper's primary contribution (§2): representing a
//! rooted tree as a list of directed half-edges in depth-first order, so
//! that subtree statistics become prefix sums.
//!
//! The pipeline follows the paper exactly:
//!
//! 1. **Tour as a linked list** (§2.1, [`list`]): from an unordered
//!    collection of undirected edges, group all half-edges in
//!    lexicographic order with graph-core's
//!    [`HalfEdgePlacement`](graph_core::HalfEdgePlacement), then link each
//!    node's sorted run in one launch straight into the tour successor
//!    `succ(e) = next(twin(e))`, where `next` is the DCEL's cyclic order of
//!    the half-edges leaving a node. The cycle is split at the chosen
//!    root's first half-edge, and the link reports whether every node has
//!    one.
//! 2. **One list ranking** (§2.2, [`ranking`]): convert the list into
//!    array form, each half-edge's tour position. We provide the
//!    sequential baseline, Wyllie pointer jumping (O(n log n) work) and
//!    the GPU-optimized Wei–JáJá algorithm (O(n) work) the paper uses.
//!    Each also reports whether the list was one path over every
//!    half-edge, which, with every node touched by an edge, proves the
//!    input a spanning tree.
//! 3. **Array scans** ([`stats`]): preorder numbers, subtree sizes, node
//!    levels and parents via the fast scan primitive — the paper's key
//!    optimization ("perform all the following prefix sum calculations on
//!    the Euler tour by using a fast scan primitive on the array"). The
//!    kernels around the scan run one thread per tree edge and read the
//!    edge's two ranks side by side.
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
pub mod list;
pub mod ranking;
pub mod stats;
pub mod tour;

pub use list::{twin, EulerList};
pub use ranking::{
    default_sublist_target, list_prefix_sum, rank_into, rank_wei_jaja_into, rank_wyllie_into,
    Ranker,
};
pub use stats::TreeStats;
pub use tour::{EulerTour, TourError};
