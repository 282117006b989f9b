//! The spanning-forest substrate of the bridges pipeline.
//!
//! The paper's pipeline (§4.1) stands on a single substrate — the
//! union-find hooking CC of [`crate::cc`], which emits a spanning forest as
//! a byproduct — and so does this crate: [`crate::bridges_tv`],
//! [`crate::bridges_hybrid`] and the `emg serve` catalog all build their
//! forest with [`UnrootedForest::build`].
//! DESIGN.md §6 records the measurement that made it the only substrate.
//!
//! Construction is two-staged: [`UnrootedForest::build`] yields the tree
//! edges and component structure — all the TV/hybrid pipelines consume —
//! and [`UnrootedForest::into_rooted`] additionally roots every component
//! at its representative (one multi-source BFS over the tree edges, one
//! synchronous round per tree level), producing the [`SpanningForest`]
//! that `emg forest` validates.

use crate::cc;
use gpu_sim::{AtomicViewU64, Device};
use graph_core::ids::{EdgeId, NodeId, INVALID_NODE};
use graph_core::{Csr, EdgeList};
use std::sync::atomic::{AtomicUsize, Ordering};

/// An unrooted spanning forest: the tree-edge set plus component structure.
/// This is the cheap stage — everything the bridge pipelines need.
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
    /// Builds the forest with lock-free union-find hooking
    /// ([`crate::cc`]): diameter-insensitive, and wait-free in aggregate.
    /// Which edges win the benign hooking races varies run to run; the
    /// representatives and the component count do not.
    pub fn build(device: &Device, graph: &EdgeList) -> Self {
        let c = cc::connected_components(device, graph);
        Self {
            tree_edges: c.tree_edges,
            representative: c.representative,
            num_components: c.num_components,
        }
    }

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

    /// Roots every component at its representative via one multi-source
    /// level-synchronous BFS over the tree edges (one synchronous round per
    /// tree level).
    pub fn into_rooted(self, device: &Device, graph: &EdgeList) -> SpanningForest {
        let (parent, parent_edge) =
            root_forest(device, graph, &self.tree_edges, &self.representative);
        SpanningForest {
            parent,
            parent_edge,
            tree_edges: self.tree_edges,
            representative: self.representative,
            num_components: self.num_components,
        }
    }
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

/// Packs a `(parent, edge)` claim into one atomic word.
#[inline]
fn pack(parent: NodeId, edge: u32) -> u64 {
    ((parent as u64) << 32) | edge as u64
}

/// One synchronous frontier-expansion wave: every frontier node tries to
/// claim its unvisited neighbors with a CAS on `claims` (packing the
/// `(parent, edge)` pair). Returns the next frontier.
fn expand_frontier<'d>(
    device: &'d Device,
    csr: &Csr,
    frontier: &[NodeId],
    claims: &AtomicViewU64<'_>,
) -> gpu_sim::ArenaVec<'d, NodeId> {
    let degree_sum: usize = frontier.iter().map(|&u| csr.degree(u)).sum();
    let mut next = device.alloc_pooled::<NodeId>(degree_sum);
    let count = AtomicUsize::new(0);
    {
        let _k = device.kernel_label("expand_frontier");
        // The frontier and the CSR adjacency feed the closure, invisible
        // to the tracked views.
        device.capture_read(frontier);
        device.capture_read(csr.offsets());
        device.capture_read(csr.raw_neighbors());
        device.capture_read(csr.raw_edge_ids());
        // fetch_add hands out unique slots, so each element has exactly one
        // writer; the degree sum bounds the capacity.
        let next_shared = device.shared(&mut next);
        let count_ref = &count;
        device.for_each(frontier.len(), |i| {
            let u = frontier[i];
            for (w, eid) in csr.incident(u) {
                if claims
                    .compare_exchange(w as usize, u64::MAX, pack(u, eid))
                    .is_ok()
                {
                    let pos = count_ref.fetch_add(1, Ordering::Relaxed);
                    next_shared.write(pos, w);
                }
            }
        });
    }
    // The host consumes the wave's output to size it (and, on the final
    // wave, to terminate the loop).
    device.capture_host_read(&next[..]);
    next.truncate(count.load(Ordering::Relaxed));
    next
}

/// Roots an unrooted forest: a multi-source level-synchronous BFS over the
/// tree-edge subgraph, seeded at every representative, yields `parent` and
/// `parent_edge` (original edge ids).
fn root_forest(
    device: &Device,
    graph: &EdgeList,
    tree_edge_ids: &[EdgeId],
    representative: &[NodeId],
) -> (Vec<NodeId>, Vec<EdgeId>) {
    let n = representative.len();
    let tree_pairs: Vec<(u32, u32)> = tree_edge_ids
        .iter()
        .map(|&e| graph.edges()[e as usize])
        .collect();
    let sub = EdgeList::new(n, tree_pairs);
    let sub_csr = Csr::from_edge_list(&sub);

    let mut claims_buf = device.alloc_filled(n, u64::MAX);
    let claims = device
        .atomic_u64(&mut claims_buf)
        .benign("claim CAS: exactly one winner per node, losers observe the failure");
    let mut frontier = device.compact_indices_pooled(n, |v| representative[v] == v as u32);
    // The host walks the seed frontier to stamp the root claims.
    device.capture_host_read(&frontier[..]);
    for &r in frontier.iter() {
        // Any non-MAX value marks the roots claimed; their slots are never
        // read back (roots keep INVALID_NODE / u32::MAX markers).
        claims.store(r as usize, pack(r, 0));
    }
    while !frontier.is_empty() {
        frontier = expand_frontier(device, &sub_csr, &frontier, &claims);
    }

    let mut parent = vec![INVALID_NODE; n];
    let mut parent_edge = vec![u32::MAX; n];
    {
        let _k = device.kernel_label("root_forest_assign");
        // One write per node; the low word is the sub-graph edge id, mapped
        // back to the original id through `ids`.
        let parent_shared = device.shared(&mut parent);
        let pe_shared = device.shared(&mut parent_edge);
        let claims_ref = &claims;
        let ids = tree_edge_ids;
        device.for_each(n, |v| {
            if representative[v] != v as u32 {
                let c = claims_ref.load(v);
                parent_shared.write(v, (c >> 32) as NodeId);
                pe_shared.write(v, ids[c as u32 as usize]);
            }
        });
    }
    (parent, parent_edge)
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
