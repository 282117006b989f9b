//! Rooted trees as parent arrays — the LCA input format of §3.2.

use crate::edge_list::EdgeList;
use crate::ids::{NodeId, INVALID_NODE};

/// A rooted tree over nodes `0..n`, stored as a parent array.
///
/// `parent[root] == INVALID_NODE`; every other node stores its parent.
/// Construction validates that the structure really is a tree (exactly one
/// root, no cycles, every node reaches the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    parent: Vec<NodeId>,
    root: NodeId,
}

/// Errors returned by [`Tree`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The parent array is empty.
    Empty,
    /// `parent[root]` was not `INVALID_NODE`, or multiple roots exist.
    BadRoot(NodeId),
    /// A parent pointer leaves `0..n`.
    ParentOutOfRange {
        /// Offending node.
        node: NodeId,
        /// Its out-of-range parent value.
        parent: NodeId,
    },
    /// Following parent pointers from `node` never reaches the root.
    Cycle(NodeId),
    /// The edge set does not connect all nodes to the root.
    Disconnected(NodeId),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Empty => write!(f, "tree must have at least one node"),
            TreeError::BadRoot(r) => write!(f, "invalid root designation at node {r}"),
            TreeError::ParentOutOfRange { node, parent } => {
                write!(f, "node {node} has out-of-range parent {parent}")
            }
            TreeError::Cycle(v) => write!(f, "parent pointers from node {v} form a cycle"),
            TreeError::Disconnected(v) => write!(f, "node {v} is not connected to the root"),
        }
    }
}

impl std::error::Error for TreeError {}

impl Tree {
    /// Builds a tree from a parent array. `parent[root]` must equal
    /// [`INVALID_NODE`]; all nodes must reach `root`.
    pub fn from_parent_array(parent: Vec<NodeId>, root: NodeId) -> Result<Self, TreeError> {
        let n = parent.len();
        if n == 0 {
            return Err(TreeError::Empty);
        }
        if (root as usize) >= n || parent[root as usize] != INVALID_NODE {
            return Err(TreeError::BadRoot(root));
        }
        for (v, &p) in parent.iter().enumerate() {
            if v as NodeId != root {
                if p == INVALID_NODE {
                    return Err(TreeError::BadRoot(v as NodeId));
                }
                if (p as usize) >= n {
                    return Err(TreeError::ParentOutOfRange {
                        node: v as NodeId,
                        parent: p,
                    });
                }
            }
        }
        // Cycle check: follow parents, stamping the epoch of the walk that
        // first visited each node. Amortized O(n).
        let mut visited_epoch = vec![u32::MAX; n];
        visited_epoch[root as usize] = 0;
        for start in 0..n {
            if visited_epoch[start] != u32::MAX {
                continue;
            }
            let epoch = start as u32 + 1;
            let mut v = start;
            // Walk until a previously stamped node.
            while visited_epoch[v] == u32::MAX {
                visited_epoch[v] = epoch;
                v = parent[v] as usize;
            }
            if visited_epoch[v] == epoch && v as NodeId != root {
                // Came back to our own walk without passing the root.
                return Err(TreeError::Cycle(v as NodeId));
            }
        }
        Ok(Self { parent, root })
    }

    /// Builds a rooted tree from `n-1` undirected edges by BFS from `root`.
    pub fn from_edges(
        num_nodes: usize,
        edges: &[(NodeId, NodeId)],
        root: NodeId,
    ) -> Result<Self, TreeError> {
        if num_nodes == 0 {
            return Err(TreeError::Empty);
        }
        if root as usize >= num_nodes {
            return Err(TreeError::BadRoot(root));
        }
        let el = EdgeList::new(num_nodes, edges.to_vec());
        let csr = crate::csr::Csr::from_edge_list(&el);
        let mut parent = vec![INVALID_NODE; num_nodes];
        let mut seen = vec![false; num_nodes];
        seen[root as usize] = true;
        let mut queue = std::collections::VecDeque::with_capacity(num_nodes);
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &w in csr.neighbors(u) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    parent[w as usize] = u;
                    queue.push_back(w);
                }
            }
        }
        if let Some(v) = seen.iter().position(|&s| !s) {
            return Err(TreeError::Disconnected(v as NodeId));
        }
        Ok(Self { parent, root })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v as usize];
        (p != INVALID_NODE).then_some(p)
    }

    /// The raw parent array (`INVALID_NODE` at the root).
    pub fn parent_slice(&self) -> &[NodeId] {
        &self.parent
    }

    /// The `n - 1` tree edges as `(child, parent)` pairs, in child order.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.num_nodes() as NodeId)
            .filter(|&v| v != self.root)
            .map(|v| (v, self.parent[v as usize]))
            .collect()
    }

    /// Depth of `v` (root has depth 0). O(depth) — intended for tests and
    /// small utilities, not hot paths.
    pub fn depth_of(&self, v: NodeId) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            cur = p;
            d += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 6-node tree of the paper's Figure 1 (root 0; children 2,3,4;
    /// node 2 has children 1 and 5).
    pub(crate) fn paper_tree() -> Tree {
        // parent: 0 -> INVALID, 1 -> 2, 2 -> 0, 3 -> 0, 4 -> 0, 5 -> 2
        Tree::from_parent_array(vec![INVALID_NODE, 2, 0, 0, 0, 2], 0).unwrap()
    }

    #[test]
    fn paper_tree_structure() {
        let t = paper_tree();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.root(), 0);
        assert_eq!(t.parent(1), Some(2));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.depth_of(5), 2);
    }

    #[test]
    fn edges_enumerates_child_parent_pairs() {
        let t = paper_tree();
        let edges = t.edges();
        assert_eq!(edges.len(), 5);
        assert!(edges.contains(&(1, 2)));
        assert!(edges.contains(&(2, 0)));
        assert!(!edges.iter().any(|&(c, _)| c == 0));
    }

    #[test]
    fn from_edges_builds_bfs_tree() {
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        let t = Tree::from_edges(4, &edges, 0).unwrap();
        assert_eq!(t.parent(3), Some(2));
        assert_eq!(t.depth_of(3), 3);
        // Re-rooting changes parents.
        let t2 = Tree::from_edges(4, &edges, 3).unwrap();
        assert_eq!(t2.parent(0), Some(1));
        assert_eq!(t2.depth_of(0), 3);
    }

    #[test]
    fn rejects_cycle() {
        // 1 -> 2 -> 3 -> 1 cycle beside root 0.
        let err = Tree::from_parent_array(vec![INVALID_NODE, 2, 3, 1], 0).unwrap_err();
        assert!(matches!(err, TreeError::Cycle(_)));
    }

    #[test]
    fn rejects_two_roots() {
        let err = Tree::from_parent_array(vec![INVALID_NODE, INVALID_NODE], 0).unwrap_err();
        assert!(matches!(err, TreeError::BadRoot(1)));
    }

    #[test]
    fn rejects_bad_root_index() {
        let err = Tree::from_parent_array(vec![INVALID_NODE], 5).unwrap_err();
        assert!(matches!(err, TreeError::BadRoot(5)));
    }

    #[test]
    fn rejects_out_of_range_parent() {
        let err = Tree::from_parent_array(vec![INVALID_NODE, 9], 0).unwrap_err();
        assert!(matches!(
            err,
            TreeError::ParentOutOfRange { node: 1, parent: 9 }
        ));
    }

    #[test]
    fn rejects_disconnected_edges() {
        let err = Tree::from_edges(4, &[(0, 1), (2, 3)], 0).unwrap_err();
        assert!(matches!(err, TreeError::Disconnected(_)));
    }

    #[test]
    fn single_node_tree() {
        let t = Tree::from_parent_array(vec![INVALID_NODE], 0).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.depth_of(0), 0);
        assert!(t.edges().is_empty());
    }

    #[test]
    fn long_path_does_not_overflow_stack() {
        let n = 1_000_000;
        let mut parent = vec![0 as NodeId; n];
        parent[0] = INVALID_NODE;
        for (v, p) in parent.iter_mut().enumerate().skip(1) {
            *p = (v - 1) as NodeId;
        }
        let t = Tree::from_parent_array(parent, 0).unwrap();
        assert_eq!(t.depth_of((n - 1) as NodeId), n - 1);
    }
}
