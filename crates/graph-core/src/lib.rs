//! # graph-core — shared graph and tree data structures
//!
//! Plain-old-data graph representations used by every crate in the
//! `euler-meets-gpu` workspace:
//!
//! * [`EdgeList`] — an unordered collection of undirected edges, the paper's
//!   "very unstructured input" (§2.1);
//! * [`Csr`] — compressed sparse row adjacency with stable edge identifiers,
//!   built on the device from a [`HalfEdgePlacement`];
//! * [`Tree`] — a rooted tree as a parent array, the input format of the LCA
//!   experiments (§3.2: "the input is given to the algorithms as an array of
//!   parents");
//! * [`AtomicBitSet`] / [`BitSet`] — concurrent and plain bitmaps used for
//!   visited marking and bridge flags.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod csr;
pub mod edge_list;
pub mod ids;
pub mod tree;

pub use bitset::{AtomicBitSet, BitSet};
pub use csr::{Csr, HalfEdgePlacement};
pub use edge_list::EdgeList;
pub use ids::{EdgeId, NodeId, INVALID_NODE};
pub use tree::Tree;
