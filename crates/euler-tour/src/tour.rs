//! The [`EulerTour`] facade: tour list → one list ranking (§2.2's central
//! optimization) → each half-edge's head.
//!
//! The ranking is the tour in array form: `rank[e]` is half-edge `e`'s
//! position, and edge `j`'s two ranks sit side by side at `rank[2j]` and
//! `rank[2j + 1]`, so the statistics kernels ([`crate::stats`]) read them
//! by edge. Beside it the tour keeps one node per half-edge, its head; the
//! tail of `e` is the head of `twin(e)`. No pipeline needs the inverse of
//! the ranking, the half-edge at each position; [`EulerTour::order`]
//! builds it on request.

use crate::list::{twin, EulerList};
use crate::ranking::{rank, Ranker};
use gpu_sim::Device;
use graph_core::ids::NodeId;
use graph_core::Tree;

/// Errors from Euler tour construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TourError {
    /// Zero nodes.
    Empty,
    /// Root id out of `0..n`.
    RootOutOfRange(NodeId),
    /// The edge count is not `n - 1`.
    WrongEdgeCount {
        /// Edges supplied.
        got: usize,
        /// Edges required (`n - 1`).
        expected: usize,
    },
    /// The edges do not form a spanning tree (detected as a node no edge
    /// touches or a broken tour).
    NotASpanningTree,
}

impl std::fmt::Display for TourError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TourError::Empty => write!(f, "tree must have at least one node"),
            TourError::RootOutOfRange(r) => write!(f, "root {r} out of range"),
            TourError::WrongEdgeCount { got, expected } => {
                write!(f, "expected {expected} tree edges, got {got}")
            }
            TourError::NotASpanningTree => {
                write!(f, "edge set does not form a spanning tree")
            }
        }
    }
}

impl std::error::Error for TourError {}

/// An Euler tour of a rooted tree, in array form.
///
/// After construction every subtree is a contiguous interval of tour
/// positions, so node statistics reduce to scans (see [`crate::stats`]).
#[derive(Debug, Clone)]
pub struct EulerTour {
    num_nodes: usize,
    root: NodeId,
    /// `rank[e]` = tour position of half-edge `e`.
    rank: Vec<u32>,
    /// `heads[e]` = the node half-edge `e` enters.
    heads: Vec<NodeId>,
}

impl EulerTour {
    /// Builds the tour of a validated [`Tree`], rooted at the tree's root,
    /// using the default (Wei–JáJá) ranker.
    pub fn build(device: &Device, tree: &Tree) -> Result<Self, TourError> {
        Self::build_from_edges(device, tree.num_nodes(), &tree.edges(), tree.root())
    }

    /// Builds the tour of a validated [`Tree`] with an explicit ranker.
    pub fn build_with_ranker(
        device: &Device,
        tree: &Tree,
        ranker: Ranker,
    ) -> Result<Self, TourError> {
        Self::build_from_edges_with_ranker(
            device,
            tree.num_nodes(),
            &tree.edges(),
            tree.root(),
            ranker,
        )
    }

    /// Builds the tour from the paper's §2.1 input: an unordered collection
    /// of undirected edges plus a chosen root.
    pub fn build_from_edges(
        device: &Device,
        num_nodes: usize,
        edges: &[(NodeId, NodeId)],
        root: NodeId,
    ) -> Result<Self, TourError> {
        Self::build_from_edges_with_ranker(device, num_nodes, edges, root, Ranker::default())
    }

    /// Builds the tour from unordered undirected edges with an explicit
    /// list-ranking algorithm.
    pub fn build_from_edges_with_ranker(
        device: &Device,
        num_nodes: usize,
        edges: &[(NodeId, NodeId)],
        root: NodeId,
        ranker: Ranker,
    ) -> Result<Self, TourError> {
        if num_nodes == 0 {
            return Err(TourError::Empty);
        }
        if root as usize >= num_nodes {
            return Err(TourError::RootOutOfRange(root));
        }
        if edges.len() != num_nodes - 1 {
            return Err(TourError::WrongEdgeCount {
                got: edges.len(),
                expected: num_nodes - 1,
            });
        }
        if num_nodes == 1 {
            // Trivial tour: no half-edges.
            return Ok(Self {
                num_nodes,
                root,
                rank: Vec::new(),
                heads: Vec::new(),
            });
        }
        // An endpoint out of range or a self-loop cannot be a tree edge;
        // checked before the tour list, which indexes by endpoint.
        let bad_edge = {
            let _k = device.kernel_label("tour_edge_check");
            device.capture_read(edges);
            device.map_reduce(
                edges.len(),
                |j| {
                    let (u, v) = edges[j];
                    u == v || u as usize >= num_nodes || v as usize >= num_nodes
                },
                false,
                |a, b| a | b,
            )
        };
        if bad_edge {
            return Err(TourError::NotASpanningTree);
        }

        // The spanning-tree proof. The link reports whether every node has
        // a half-edge, and the ranker whether the tour list is one path over
        // all 2(n − 1) half-edges: then the rotation system has one face,
        // and the face walk only moves between edges that share a node, so
        // every edge lies in one component. With every node in it, the
        // n − 1 edges connect all n nodes: a spanning tree. One face alone
        // is not enough — three parallel edges between two of four nodes
        // form one face and leave two nodes isolated.
        let rank = {
            let list = EulerList::build(device, num_nodes, edges, root)
                .ok_or(TourError::NotASpanningTree)?;
            rank(device, &list, ranker).ok_or(TourError::NotASpanningTree)?
        };

        // Half-edge 2j enters edges[j].1 and 2j + 1 enters edges[j].0.
        let mut heads = vec![0 as NodeId; rank.len()];
        device.capture_fresh(&heads[..]);
        {
            let _k = device.kernel_label("tour_heads");
            device.capture_read(edges);
            device.map(&mut heads, |e| {
                let (u, v) = edges[e / 2];
                if e % 2 == 0 {
                    v
                } else {
                    u
                }
            });
        }

        Ok(Self {
            num_nodes,
            root,
            rank,
            heads,
        })
    }

    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of half-edges on the tour (`2(n-1)`).
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True only for the single-node tree.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// `rank[e]` = tour position of half-edge `e`.
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }

    /// `heads[e]` = the node half-edge `e` enters; its tail is
    /// `heads[twin(e)]`.
    pub fn heads(&self) -> &[NodeId] {
        &self.heads
    }

    /// The tour as a sequence of half-edges: `order[p]` = half-edge at
    /// tour position `p`, the inverse of [`EulerTour::rank`]. One launch
    /// writes `order[rank[e]] = e`; `rank` is a permutation, so each
    /// position has one writer.
    pub fn order(&self, device: &Device) -> Vec<u32> {
        let mut order = vec![0u32; self.len()];
        device.capture_fresh(&order[..]);
        {
            let _k = device.kernel_label("tour_order");
            let rank = &self.rank;
            device.capture_read(rank);
            let order_shared = device.shared(&mut order);
            device.for_each(rank.len(), |e| {
                order_shared.write(rank[e] as usize, e as u32)
            });
        }
        order
    }

    /// Whether half-edge `e` points away from the root ("goes down").
    ///
    /// A half-edge goes down iff it appears before its twin on the tour
    /// (paper, footnote 4).
    #[inline]
    pub fn is_down(&self, e: u32) -> bool {
        self.rank[e as usize] < self.rank[twin(e) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::ids::INVALID_NODE;

    const RANKERS: [Ranker; 3] = [Ranker::Sequential, Ranker::Wyllie, Ranker::WeiJaJa];

    fn paper_tour(device: &Device) -> EulerTour {
        EulerTour::build_from_edges(device, 6, &[(0, 2), (0, 3), (0, 4), (2, 1), (2, 5)], 0)
            .unwrap()
    }

    #[test]
    fn rank_and_order_are_inverse() {
        let device = Device::new();
        let tour = paper_tour(&device);
        let order = tour.order(&device);
        assert_eq!(order.len(), tour.len());
        for (p, &e) in order.iter().enumerate() {
            assert_eq!(tour.rank()[e as usize] as usize, p);
        }
    }

    #[test]
    fn down_edges_match_direction() {
        let device = Device::new();
        let tour = paper_tour(&device);
        let heads = tour.heads();
        // Down half-edges of the paper tree point 0→{2,3,4} and 2→{1,5}.
        for e in 0..tour.len() as u32 {
            let (t, h) = (heads[twin(e) as usize], heads[e as usize]);
            let expected_down = matches!((t, h), (0, 2) | (0, 3) | (0, 4) | (2, 1) | (2, 5));
            assert_eq!(tour.is_down(e), expected_down, "half-edge ({t},{h})");
        }
    }

    #[test]
    fn single_node_tour_is_empty() {
        let device = Device::new();
        let tour = EulerTour::build_from_edges(&device, 1, &[], 0).unwrap();
        assert!(tour.is_empty());
        assert_eq!(tour.num_nodes(), 1);
    }

    #[test]
    fn error_on_zero_nodes() {
        let device = Device::new();
        assert_eq!(
            EulerTour::build_from_edges(&device, 0, &[], 0).unwrap_err(),
            TourError::Empty
        );
    }

    #[test]
    fn error_on_bad_root() {
        let device = Device::new();
        assert_eq!(
            EulerTour::build_from_edges(&device, 2, &[(0, 1)], 5).unwrap_err(),
            TourError::RootOutOfRange(5)
        );
    }

    #[test]
    fn error_on_wrong_edge_count() {
        let device = Device::new();
        assert!(matches!(
            EulerTour::build_from_edges(&device, 3, &[(0, 1)], 0).unwrap_err(),
            TourError::WrongEdgeCount {
                got: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn error_on_cycle_plus_isolated() {
        // 4 nodes, 3 edges, but a triangle + isolated node (not spanning).
        let device = Device::new();
        let err =
            EulerTour::build_from_edges(&device, 4, &[(0, 1), (1, 2), (2, 0)], 0).unwrap_err();
        assert_eq!(err, TourError::NotASpanningTree);
    }

    #[test]
    fn error_on_self_loop() {
        let device = Device::new();
        let err = EulerTour::build_from_edges(&device, 2, &[(1, 1)], 0).unwrap_err();
        assert_eq!(err, TourError::NotASpanningTree);
    }

    #[test]
    fn error_on_disconnected_root() {
        // Root 3 isolated; edges form a path over 0,1,2 plus a duplicate.
        let device = Device::new();
        let err =
            EulerTour::build_from_edges(&device, 4, &[(0, 1), (1, 2), (0, 2)], 3).unwrap_err();
        assert_eq!(err, TourError::NotASpanningTree);
    }

    #[test]
    fn one_face_with_isolated_nodes_is_rejected() {
        // Three parallel edges between 0 and 3: the rotation system has one
        // face over all six half-edges, but nodes 1 and 2 have no edge.
        // Over nodes 0 and 1 instead, the same edges link the same runs
        // into the same list, and every ranker accepts it as one path. Only
        // the link's coverage verdict rejects the four-node input.
        let device = Device::new();
        let one_face = EulerList::build(&device, 2, &[(0, 1), (1, 0), (1, 0)], 0).unwrap();
        for ranker in RANKERS {
            assert!(rank(&device, &one_face, ranker).is_some(), "{ranker:?}");
        }
        let edges = [(0, 3), (3, 0), (3, 0)];
        assert!(EulerList::build(&device, 4, &edges, 0).is_none());
        for ranker in RANKERS {
            let err =
                EulerTour::build_from_edges_with_ranker(&device, 4, &edges, 0, ranker).unwrap_err();
            assert_eq!(err, TourError::NotASpanningTree, "{ranker:?}");
        }
    }

    #[test]
    fn build_from_tree_uses_tree_root() {
        let device = Device::new();
        let tree = Tree::from_parent_array(vec![INVALID_NODE, 0, 1], 0).unwrap();
        let tour = EulerTour::build(&device, &tree).unwrap();
        assert_eq!(tour.root(), 0);
        assert_eq!(tour.len(), 4);
    }

    #[test]
    fn all_rankers_agree() {
        let device = Device::new();
        let n = 5000;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v / 3, v)).collect();
        let mut tours = Vec::new();
        for ranker in [Ranker::Sequential, Ranker::Wyllie, Ranker::WeiJaJa] {
            tours.push(
                EulerTour::build_from_edges_with_ranker(&device, n, &edges, 0, ranker).unwrap(),
            );
        }
        assert_eq!(tours[0].rank(), tours[1].rank());
        assert_eq!(tours[0].rank(), tours[2].rank());
    }
}
