//! The spanning-forest substrate of the bridges pipeline.
//!
//! The paper's pipeline (§4.1) stands on a single substrate — the
//! union-find hooking CC of [`crate::cc`], which emits a spanning forest as
//! a byproduct — and so does this crate: [`crate::bridges_tv`],
//! [`crate::bridges_hybrid`], [`crate::bcc_tv`] and the `emg serve`
//! catalog all build their forest with [`UnrootedForest::build`], once.
//! DESIGN.md §6 records the measurement that made it the only substrate.
//!
//! Construction is two-staged: [`UnrootedForest::build`] yields the tree
//! edges and component structure — all the bridge pipelines consume —
//! and [`UnrootedForest::into_rooted`] additionally roots every component
//! at its representative (one multi-source [`crate::bfs`] over the tree
//! edges, one synchronous round per tree level), producing the
//! [`SpanningForest`] that `emg forest` validates. On a connected graph
//! the bridge pipelines root the one tree through the Euler tour instead,
//! in one shared front end (`UnrootedForest::tour`).

use crate::bfs::bfs_device_from;
use crate::result::{BridgesError, PhaseClock};
use euler_tour::EulerTour;
use gpu_sim::{ArenaVec, Device};
use graph_core::ids::{EdgeId, NodeId, INVALID_NODE};
use graph_core::{Csr, EdgeList};

/// An unrooted spanning forest: the tree-edge set plus component structure,
/// built by [`UnrootedForest::build`]. This is the cheap stage —
/// everything the bridge pipelines and connectivity queries need.
#[derive(Debug, Clone)]
pub struct UnrootedForest {
    /// Ascending original edge ids of the forest's tree edges
    /// (`n - num_components` of them).
    pub tree_edges: Vec<EdgeId>,
    /// Smallest node id of each node's component.
    pub representative: Vec<NodeId>,
    /// Number of connected components.
    pub num_components: usize,
}

impl UnrootedForest {
    /// Whether the whole graph is one component (isolated nodes count).
    pub fn is_connected(&self) -> bool {
        self.num_components <= 1
    }

    /// Batched connectivity queries: one device launch over the pairs,
    /// `out[i] = 1` iff both nodes share a component. This is what the
    /// `emg serve` daemon's request coalescer dispatches.
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len()` or a node id is out of
    /// range.
    pub fn connected_batch_on(&self, device: &Device, queries: &[(u32, u32)], out: &mut [u8]) {
        assert_eq!(queries.len(), out.len(), "query/output length mismatch");
        let _k = device.kernel_label("forest_connected_batch");
        // The pairs and the representative array feed the closure.
        device.capture_read(queries);
        let representative = &self.representative;
        device.capture_read(representative);
        device.map(out, |q| {
            let (u, v) = queries[q];
            u8::from(representative[u as usize] == representative[v as usize])
        });
    }

    /// The bridge family's front end on a connected graph: flags the tree
    /// edges (`is_tree[e] == 1`), closes the `spanning_tree` phase, and
    /// roots the spanning tree at node 0 with one Euler tour of its
    /// endpoint pairs.
    ///
    /// # Errors
    /// [`BridgesError::Disconnected`] when the forest has more than one
    /// component.
    pub(crate) fn tour<'d>(
        &self,
        device: &'d Device,
        graph: &EdgeList,
        clock: &mut PhaseClock,
    ) -> Result<(ArenaVec<'d, u8>, EulerTour), BridgesError> {
        if !self.is_connected() {
            return Err(BridgesError::Disconnected);
        }
        let is_tree = flag_tree_edges(device, graph.num_edges(), &self.tree_edges);
        clock.lap("spanning_tree");
        let tour = EulerTour::build_from_edges(
            device,
            graph.num_nodes(),
            &self.tree_pairs(device, graph),
            0,
        )
        .map_err(|_| BridgesError::Disconnected)?;
        Ok((is_tree, tour))
    }

    /// The tree edges' endpoint pairs, in `tree_edges` order (pooled).
    fn tree_pairs<'d>(
        &self,
        device: &'d Device,
        graph: &EdgeList,
    ) -> ArenaVec<'d, (NodeId, NodeId)> {
        let _k = device.kernel_label("gather_tree_edges");
        let ids = &self.tree_edges;
        // The id list and the edge list feed the closure.
        device.capture_read(ids);
        device.capture_read(graph.edges());
        device.alloc_pooled_map(ids.len(), |i| graph.edges()[ids[i] as usize])
    }

    /// Roots every component at its representative: one multi-source
    /// device BFS ([`crate::bfs`]) over the tree edges' CSR, seeded at
    /// every representative (one synchronous round per tree level).
    pub fn into_rooted(self, device: &Device, graph: &EdgeList) -> SpanningForest {
        let n = self.representative.len();
        let tree_csr = Csr::from_pairs_on(device, n, &self.tree_pairs(device, graph));
        let representative = &self.representative;
        let roots = device.compact_indices(n, |v| representative[v] == v as u32);
        let (parent, tree_parent_edge, _) = bfs_device_from(device, &tree_csr, &roots);
        // The BFS names each parent edge by its index in `tree_edges`.
        let parent_edge = {
            let _k = device.kernel_label("forest_parent_edge_ids");
            let ids = &self.tree_edges;
            device.capture_read(ids);
            device.capture_read(&tree_parent_edge);
            device.alloc_map(n, |v| match tree_parent_edge[v] {
                u32::MAX => u32::MAX,
                j => ids[j as usize],
            })
        };
        SpanningForest {
            parent,
            parent_edge,
            tree_edges: self.tree_edges,
            representative: self.representative,
            num_components: self.num_components,
        }
    }
}

/// Per-edge tree flags over `m` edges: `is_tree[e] == 1` iff `ids` names
/// `e`. The ids must be distinct; `u32::MAX` entries (a BFS root's absent
/// parent edge) are skipped.
pub(crate) fn flag_tree_edges<'d>(
    device: &'d Device,
    m: usize,
    ids: &[EdgeId],
) -> ArenaVec<'d, u8> {
    let mut is_tree = device.alloc_filled(m, 0u8);
    {
        let _k = device.kernel_label("flag_tree_edges");
        device.capture_read(ids);
        // Distinct ids, so each slot has one writer.
        let tree_shared = device.shared(&mut is_tree);
        device.for_each(ids.len(), |i| {
            if ids[i] != u32::MAX {
                tree_shared.write(ids[i] as usize, 1u8);
            }
        });
    }
    is_tree
}

/// A rooted spanning forest.
///
/// Each connected component is rooted at its **representative** (the
/// smallest node id in the component), so roots and components are
/// deterministic even though the chosen tree *edges* may differ run to
/// run.
#[derive(Debug, Clone)]
pub struct SpanningForest {
    /// Parent of each node in the rooted forest; [`INVALID_NODE`] for
    /// component roots.
    pub parent: Vec<NodeId>,
    /// Original edge id connecting each node to its parent; `u32::MAX` for
    /// component roots.
    pub parent_edge: Vec<EdgeId>,
    /// Ascending original edge ids of the forest's tree edges.
    pub tree_edges: Vec<EdgeId>,
    /// Smallest node id of each node's component.
    pub representative: Vec<NodeId>,
    /// Number of connected components.
    pub num_components: usize,
}

impl SpanningForest {
    /// Builds the union-find forest ([`UnrootedForest::build`]) and roots
    /// it ([`UnrootedForest::into_rooted`]).
    pub fn build(device: &Device, graph: &EdgeList) -> Self {
        UnrootedForest::build(device, graph).into_rooted(device, graph)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Number of tree edges (`n - num_components`).
    pub fn num_tree_edges(&self) -> usize {
        self.num_nodes() - self.num_components
    }

    /// Structural validation against the source graph: every non-root hangs
    /// off a real incident edge, parent chains are acyclic, representatives
    /// are the per-component minima and constant across every graph edge,
    /// and `tree_edges` is exactly the ascending set of parent edges
    /// (`n - num_components` of them).
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, graph: &EdgeList) -> Result<(), String> {
        let n = graph.num_nodes();
        if self.parent.len() != n || self.parent_edge.len() != n || self.representative.len() != n {
            return Err(format!("array lengths disagree with n = {n}"));
        }
        let edges = graph.edges();
        let mut parent_edge_set = Vec::new();
        for v in 0..n {
            let p = self.parent[v];
            let pe = self.parent_edge[v];
            let is_root = self.representative[v] == v as u32;
            if is_root != (p == INVALID_NODE) || is_root != (pe == u32::MAX) {
                return Err(format!("node {v}: root markers disagree"));
            }
            if !is_root {
                parent_edge_set.push(pe);
                let (a, b) = *edges
                    .get(pe as usize)
                    .ok_or_else(|| format!("node {v}: parent edge {pe} out of range"))?;
                if !((a == v as u32 && b == p) || (b == v as u32 && a == p)) {
                    return Err(format!(
                        "node {v}: parent edge {pe} = ({a},{b}) does not connect {v} and {p}"
                    ));
                }
                if self.representative[p as usize] != self.representative[v] {
                    return Err(format!("node {v}: representative differs from parent {p}"));
                }
            }
        }
        if parent_edge_set.len() != self.num_tree_edges() {
            return Err(format!(
                "{} parent edges but n - components = {}",
                parent_edge_set.len(),
                self.num_tree_edges()
            ));
        }
        parent_edge_set.sort_unstable();
        if parent_edge_set != self.tree_edges {
            return Err("tree_edges does not match the set of parent edges".into());
        }
        if !self.tree_edges.windows(2).all(|w| w[0] < w[1]) {
            return Err("tree_edges not strictly ascending".into());
        }
        // Acyclicity of parent chains (0 = unvisited, 1 = on stack, 2 = ok).
        let mut state = vec![0u8; n];
        for start in 0..n {
            let mut v = start;
            let mut path = Vec::new();
            while state[v] == 0 {
                state[v] = 1;
                path.push(v);
                let p = self.parent[v];
                if p == INVALID_NODE {
                    break;
                }
                v = p as usize;
                if state[v] == 1 {
                    return Err(format!("parent cycle through node {v}"));
                }
            }
            for w in path {
                state[w] = 2;
            }
        }
        // Representatives constant across every graph edge (the forest
        // spans each component's connectivity) and minimal per component.
        for (e, &(u, v)) in edges.iter().enumerate() {
            if self.representative[u as usize] != self.representative[v as usize] {
                return Err(format!("edge {e} = ({u},{v}) crosses representatives"));
            }
        }
        let mut min_seen: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for v in 0..n as u32 {
            let r = self.representative[v as usize];
            let m = min_seen.entry(r).or_insert(v);
            *m = (*m).min(v);
        }
        for (r, m) in min_seen {
            if r != m {
                return Err(format!(
                    "representative {r} is not its component's minimum {m}"
                ));
            }
        }
        Ok(())
    }
}

/// Sequential union-find oracle: component partition (per-component minimum
/// representatives) for equivalence testing.
pub fn components_sequential(graph: &EdgeList) -> (Vec<NodeId>, usize) {
    let n = graph.num_nodes();
    let mut uf: Vec<u32> = (0..n as u32).collect();
    fn sfind(uf: &mut [u32], mut v: u32) -> u32 {
        while uf[v as usize] != v {
            uf[v as usize] = uf[uf[v as usize] as usize];
            v = uf[v as usize];
        }
        v
    }
    for &(u, v) in graph.edges() {
        let (ru, rv) = (sfind(&mut uf, u), sfind(&mut uf, v));
        if ru != rv {
            let (hi, lo) = if ru > rv { (ru, rv) } else { (rv, ru) };
            uf[hi as usize] = lo;
        }
    }
    // Linking toward smaller ids makes every final root its component's
    // minimum.
    let mut rep = vec![0u32; n];
    let mut components = 0usize;
    for v in 0..n as u32 {
        rep[v as usize] = sfind(&mut uf, v);
        if rep[v as usize] == v {
            components += 1;
        }
    }
    (rep, components)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the rooted forest and checks it against the sequential
    /// oracle, the unrooted stage included.
    fn check_forest(edges: Vec<(u32, u32)>, n: usize) {
        let device = Device::new();
        let graph = EdgeList::new(n, edges);
        let (oracle_rep, oracle_comps) = components_sequential(&graph);
        let u = UnrootedForest::build(&device, &graph);
        assert_eq!(u.representative, oracle_rep, "unrooted representatives");
        assert_eq!(u.num_components, oracle_comps, "unrooted components");
        assert_eq!(u.tree_edges.len(), n - oracle_comps, "unrooted tree edges");
        let f = u.into_rooted(&device, &graph);
        f.validate(&graph).unwrap();
        assert_eq!(f.representative, oracle_rep, "representatives");
        assert_eq!(f.num_components, oracle_comps, "components");
    }

    #[test]
    fn path_graph() {
        check_forest(vec![(0, 1), (1, 2), (2, 3)], 4);
    }

    #[test]
    fn cycle_with_chords() {
        check_forest(vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)], 4);
    }

    #[test]
    fn disconnected_with_isolated_nodes() {
        check_forest(vec![(0, 1), (3, 4), (4, 5), (5, 3)], 8);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        check_forest(vec![(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)], 3);
    }

    #[test]
    fn empty_graph() {
        check_forest(vec![], 0);
        check_forest(vec![], 5);
    }

    #[test]
    fn single_node() {
        check_forest(vec![], 1);
    }

    #[test]
    fn star_graph() {
        check_forest((1..64).map(|v| (0, v)).collect(), 64);
    }

    #[test]
    fn random_multigraphs() {
        let mut state = 2024u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..10 {
            let n = 20 + (step() % 400) as usize;
            let m = step() % (3 * n as u64);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| ((step() % n as u64) as u32, (step() % n as u64) as u32))
                .collect();
            check_forest(edges, n);
        }
    }

    #[test]
    fn long_path_roots_level_by_level() {
        // 3000-node path: deep hooking chains, and 2999 rooting rounds.
        let n = 3000;
        check_forest((1..n as u32).map(|v| (v - 1, v)).collect(), n);
    }

    #[test]
    fn tree_edges_ascending_and_distinct() {
        let device = Device::new();
        let graph = EdgeList::new(5, vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let f = SpanningForest::build(&device, &graph);
        assert_eq!(f.tree_edges.len(), f.num_tree_edges());
        assert!(f.tree_edges.windows(2).all(|w| w[0] < w[1]));
    }
}
