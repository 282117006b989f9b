//! Full Tarjan–Vishkin biconnectivity: 2-vertex-connected (biconnected)
//! component labeling and articulation points.
//!
//! The paper scopes its evaluation to bridges ("this basic problem already
//! captures most of the combinatorial structure related to biconnectivity")
//! but presents TV as *the* parallel biconnectivity algorithm \[58\]. This
//! module implements the rest of that algorithm: the **auxiliary graph**
//! construction whose connected components are exactly the biconnected
//! components of the input.
//!
//! With the spanning tree rooted and vertices identified with their
//! (1-based) preorder numbers, every non-root vertex `w` stands for its
//! parent tree edge `{p(w), w}`. The auxiliary graph joins
//!
//! 1. `u – v` for every non-tree edge `{u, v}` with `pre(u) + nd(u) <=
//!    pre(v)` (endpoints unrelated: their fundamental cycle passes through
//!    both parent edges), and
//! 2. `w – v` for every tree edge `{v, w}` (`v = p(w)`, `v` non-root) whose
//!    child subtree escapes `v`'s subtree: `low(w) < pre(v)` or `high(w) >=
//!    pre(v) + nd(v)`.
//!
//! Connected components of this auxiliary graph label the tree edges;
//! non-tree edges inherit the label of their deeper endpoint, and
//! self-loops become degenerate singleton components. Everything reuses
//! the substrates already built for bridge finding: the spanning tree and
//! its Euler tour from the bridge pipelines' shared front end, TV's
//! segmented-reduce and segment-tree low/high, and the same CC kernel
//! again on the auxiliary graph — which is why TV calls biconnectivity
//! "reducible to connectivity".

use crate::forest::UnrootedForest;
use crate::result::{BridgesError, PhaseClock};
use crate::tv::{node_extremes, LowHigh};
use euler_tour::TreeStats;
use gpu_sim::Device;
use graph_core::bitset::BitSet;
use graph_core::ids::NodeId;
use graph_core::{Csr, EdgeList};
use std::time::{Duration, Instant};

/// Per-edge biconnected component labels.
#[derive(Debug, Clone)]
pub struct BccResult {
    /// Component label of every edge, compacted to `0..num_components`.
    /// Self-loops get singleton components of their own.
    pub component: Vec<u32>,
    /// Number of distinct biconnected components.
    pub num_components: usize,
    /// Named phase durations (spanning tree, Euler tour, auxiliary graph,
    /// labeling), in execution order.
    pub phases: Vec<(String, Duration)>,
}

impl BccResult {
    /// Groups edge ids by component, each group sorted, groups sorted by
    /// their smallest edge — a canonical form for comparing partitions.
    pub fn canonical_partition(&self) -> Vec<Vec<u32>> {
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); self.num_components];
        for (e, &c) in self.component.iter().enumerate() {
            groups[c as usize].push(e as u32);
        }
        groups.retain(|g| !g.is_empty());
        groups.sort_by_key(|g| g[0]);
        groups
    }

    /// Whether edge `e` is a bridge: a singleton non-self-loop component.
    pub fn is_bridge(&self, e: u32, edges: &[(NodeId, NodeId)]) -> bool {
        let (u, v) = edges[e as usize];
        if u == v {
            return false;
        }
        self.component
            .iter()
            .filter(|&&c| c == self.component[e as usize])
            .count()
            == 1
    }
}

/// Biconnected components with the full Tarjan–Vishkin algorithm on the
/// simulated device.
///
/// # Errors
/// [`BridgesError::Empty`] for zero nodes, [`BridgesError::Disconnected`]
/// when the input is not connected.
pub fn bcc_tv(device: &Device, graph: &EdgeList, csr: &Csr) -> Result<BccResult, BridgesError> {
    let n = graph.num_nodes();
    let m = graph.num_edges();
    if n == 0 {
        return Err(BridgesError::Empty);
    }
    // Phase 1: the spanning tree, as in bridges_tv. Phase 2: its Euler
    // tour statistics and TV's low/high of every subtree.
    let mut clock = PhaseClock::start();
    let forest = UnrootedForest::build(device, graph);
    let (is_tree, tour) = forest.tour(device, graph, &mut clock)?;
    let stats = TreeStats::compute(device, &tour);
    let pre = &stats.preorder;
    let size = &stats.subtree_size;
    let parent = &stats.parent;
    // A self-loop contributes its own node's preorder, which lies inside
    // every subtree holding the node, so it never makes one escape.
    let (node_min, node_max) = node_extremes(device, csr, &is_tree, pre);
    let low_high = LowHigh::build(device, pre, &node_min, &node_max);
    let subtree_low_high = {
        let _k = device.kernel_label("bcc_subtree_low_high");
        device.capture_read(pre);
        device.capture_read(size);
        low_high.declare_query_reads(device);
        device.alloc_map(n, |w| low_high.subtree(pre[w], size[w]))
    };
    clock.lap("euler_tour");

    // Phase 3: auxiliary graph.
    let root = tour.root();
    let edges = graph.edges();

    // Rule 1: unrelated non-tree edges join their parent tree edges.
    let rule1_ids = device.compact_indices(m, |e| {
        if is_tree[e] == 1 {
            return false;
        }
        let (x, y) = edges[e];
        if x == y {
            return false;
        }
        let (u, v) = if pre[x as usize] <= pre[y as usize] {
            (x, y)
        } else {
            (y, x)
        };
        pre[u as usize] + size[u as usize] <= pre[v as usize]
    });
    // Rule 2: child tree edge joins parent tree edge when the child
    // subtree escapes the parent's subtree.
    let rule2_ids = device.compact_indices(n, |w| {
        let w32 = w as u32;
        if w32 == root {
            return false;
        }
        let v = parent[w];
        if v == root {
            return false;
        }
        let (low, high) = subtree_low_high[w];
        low < pre[v as usize] || high >= pre[v as usize] + size[v as usize]
    });

    let mut aux_edges: Vec<(u32, u32)> = vec![(0, 0); rule1_ids.len() + rule2_ids.len()];
    {
        let r1 = &rule1_ids;
        let r2 = &rule2_ids;
        let split = r1.len();
        device.map(&mut aux_edges, |i| {
            if i < split {
                edges[r1[i] as usize]
            } else {
                let w = r2[i - split];
                (w, parent[w as usize])
            }
        });
    }
    let aux_graph = EdgeList::new(n, aux_edges);
    let aux_rep = UnrootedForest::build(device, &aux_graph).representative;
    clock.lap("auxiliary_graph");

    // Phase 4: per-edge labels, compacted. Tree edges and non-tree edges
    // take the auxiliary component of their deeper endpoint (for a tree
    // edge that is exactly the child); self-loops get fresh singletons.
    const SELF_LOOP: u32 = u32::MAX;
    let raw = device.alloc_map(m, |e| {
        let (x, y) = edges[e];
        if x == y {
            return SELF_LOOP;
        }
        let deeper = if pre[x as usize] >= pre[y as usize] {
            x
        } else {
            y
        };
        aux_rep[deeper as usize]
    });
    // Compact the label space: representatives are node ids; map each
    // distinct used representative to a dense index (sequential — label
    // count is at most m, and this is bookkeeping, not a kernel).
    let mut remap = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut component = vec![0u32; m];
    for e in 0..m {
        component[e] = if raw[e] == SELF_LOOP {
            let c = next;
            next += 1;
            c
        } else {
            let r = raw[e] as usize;
            if remap[r] == u32::MAX {
                remap[r] = next;
                next += 1;
            }
            remap[r]
        };
    }
    clock.lap("labeling");

    Ok(BccResult {
        component,
        num_components: next as usize,
        phases: clock.into_phases(),
    })
}

/// Sequential Hopcroft–Tarjan biconnected components (iterative DFS with an
/// edge stack) — the classical oracle the parallel algorithm is verified
/// against. Handles disconnected graphs, parallel edges and self-loops.
pub fn bcc_sequential(graph: &EdgeList, csr: &Csr) -> BccResult {
    let start = Instant::now();
    let n = graph.num_nodes();
    let m = graph.num_edges();
    const UNSET: u32 = u32::MAX;
    let mut disc = vec![UNSET; n];
    let mut low = vec![0u32; n];
    let mut component = vec![UNSET; m];
    let mut num_components = 0u32;
    let mut timer = 0u32;
    let mut edge_stack: Vec<u32> = Vec::new();
    // Frame: (node, entry edge id, next neighbor index).
    let mut stack: Vec<(u32, u32, u32)> = Vec::new();

    for s in 0..n as u32 {
        if disc[s as usize] != UNSET {
            continue;
        }
        disc[s as usize] = timer;
        low[s as usize] = timer;
        timer += 1;
        stack.push((s, UNSET, 0));
        while let Some(&mut (v, entry, ref mut idx)) = stack.last_mut() {
            let nbs = csr.neighbors(v);
            let eids = csr.edge_ids(v);
            if (*idx as usize) < nbs.len() {
                let w = nbs[*idx as usize];
                let eid = eids[*idx as usize];
                *idx += 1;
                if eid == entry || w == v {
                    continue; // entry edge (by id, so parallel copies count) or self-loop
                }
                if disc[w as usize] == UNSET {
                    edge_stack.push(eid);
                    disc[w as usize] = timer;
                    low[w as usize] = timer;
                    timer += 1;
                    stack.push((w, eid, 0));
                } else if disc[w as usize] < disc[v as usize] {
                    // Back edge to a proper ancestor (or parallel edge).
                    edge_stack.push(eid);
                    low[v as usize] = low[v as usize].min(disc[w as usize]);
                }
                // disc[w] > disc[v]: forward edge already seen from w.
            } else {
                stack.pop();
                if let Some(&(p, _, _)) = stack.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                    if low[v as usize] >= disc[p as usize] {
                        // Pop one biconnected component: everything above
                        // and including the entry edge of v.
                        let label = num_components;
                        num_components += 1;
                        while let Some(e) = edge_stack.pop() {
                            component[e as usize] = label;
                            if e == entry {
                                break;
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(edge_stack.is_empty());
    }
    // Self-loops: singleton components.
    for (e, &(u, v)) in graph.edges().iter().enumerate() {
        if u == v {
            component[e] = num_components;
            num_components += 1;
        }
    }
    debug_assert!(component.iter().all(|&c| c != UNSET || m == 0));
    BccResult {
        component,
        num_components: num_components as usize,
        phases: vec![("sequential".to_string(), start.elapsed())],
    }
}

/// Articulation points derived from biconnected component labels: a vertex
/// is a cut vertex iff it is incident to edges of at least two different
/// non-self-loop components.
pub fn articulation_points_from_bcc(graph: &EdgeList, csr: &Csr, bcc: &BccResult) -> BitSet {
    let n = graph.num_nodes();
    let edges = graph.edges();
    let mut is_cut = BitSet::new(n);
    for v in 0..n as u32 {
        if vertex_is_cut(v, edges, csr, &bcc.component) {
            is_cut.set(v as usize, true);
        }
    }
    is_cut
}

/// Whether `v` touches two different non-self-loop components.
#[inline]
fn vertex_is_cut(v: u32, edges: &[(NodeId, NodeId)], csr: &Csr, component: &[u32]) -> bool {
    let mut first: Option<u32> = None;
    for (_, e) in csr.incident(v) {
        let (x, y) = edges[e as usize];
        if x == y {
            continue;
        }
        let c = component[e as usize];
        match first {
            None => first = Some(c),
            Some(f) if f != c => return true,
            _ => {}
        }
    }
    false
}

/// Device-parallel articulation points: one virtual thread per vertex
/// scanning its incidence list (work O(m), depth O(max degree) — the same
/// per-thread shape as the TV bridge predicate kernel).
pub fn articulation_points_device(
    device: &Device,
    graph: &EdgeList,
    csr: &Csr,
    bcc: &BccResult,
) -> BitSet {
    let n = graph.num_nodes();
    let edges = graph.edges();
    let component = &bcc.component;
    let flags = {
        let _k = device.kernel_label("bcc_articulation_flags");
        device.capture_read(edges);
        device.capture_read(component);
        device.alloc_map(n, |v| vertex_is_cut(v as u32, edges, csr, component))
    };
    flags.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::articulation::articulation_points_dfs;
    use crate::dfs::bridges_dfs;

    fn check(edges: Vec<(u32, u32)>, n: usize) {
        let device = Device::new();
        let graph = EdgeList::new(n, edges);
        let csr = Csr::from_edge_list(&graph);
        let seq = bcc_sequential(&graph, &csr);
        let par = bcc_tv(&device, &graph, &csr).unwrap();
        assert_eq!(
            par.canonical_partition(),
            seq.canonical_partition(),
            "edges={:?}",
            graph.edges()
        );
        assert_eq!(par.num_components, seq.num_components);

        // Cross-check articulation points against the low-link oracle.
        let from_bcc = articulation_points_from_bcc(&graph, &csr, &par);
        let oracle = articulation_points_dfs(&graph, &csr);
        for v in 0..n {
            assert_eq!(from_bcc.get(v), oracle.get(v), "cut vertex {v}");
        }

        // Cross-check bridges: singleton non-self-loop components.
        let bridges = bridges_dfs(&graph, &csr);
        let mut comp_size = vec![0u32; par.num_components];
        for &c in &par.component {
            comp_size[c as usize] += 1;
        }
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            let singleton = u != v && comp_size[par.component[e] as usize] == 1;
            assert_eq!(singleton, bridges.is_bridge.get(e), "edge {e}");
        }
    }

    #[test]
    fn single_edge_is_one_component() {
        check(vec![(0, 1)], 2);
    }

    #[test]
    fn path_every_edge_its_own_component() {
        let device = Device::new();
        let graph = EdgeList::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let csr = Csr::from_edge_list(&graph);
        let r = bcc_tv(&device, &graph, &csr).unwrap();
        assert_eq!(r.num_components, 4);
        check(vec![(0, 1), (1, 2), (2, 3), (3, 4)], 5);
    }

    #[test]
    fn cycle_is_one_component() {
        let device = Device::new();
        let graph = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let csr = Csr::from_edge_list(&graph);
        let r = bcc_tv(&device, &graph, &csr).unwrap();
        assert_eq!(r.num_components, 1);
        check(vec![(0, 1), (1, 2), (2, 3), (3, 0)], 4);
    }

    #[test]
    fn barbell_three_components() {
        // Two triangles joined by a bridge: 3 biconnected components.
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)];
        let device = Device::new();
        let graph = EdgeList::new(6, edges.clone());
        let csr = Csr::from_edge_list(&graph);
        let r = bcc_tv(&device, &graph, &csr).unwrap();
        assert_eq!(r.num_components, 3);
        check(edges, 6);
    }

    #[test]
    fn parallel_edges_form_cycle_component() {
        check(vec![(0, 1), (0, 1), (1, 2)], 3);
    }

    #[test]
    fn self_loops_are_singletons() {
        check(vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)], 3);
    }

    #[test]
    fn unrelated_nontree_edge_rule() {
        // Root 0 with children subtrees {1,3} and {2,4}; the edge 3-4 joins
        // two sibling subtrees (rule 1 of the auxiliary graph).
        check(vec![(0, 1), (1, 3), (0, 2), (2, 4), (3, 4)], 5);
    }

    #[test]
    fn star_every_spoke_separate() {
        let device = Device::new();
        let edges = vec![(0, 1), (0, 2), (0, 3), (0, 4)];
        let graph = EdgeList::new(5, edges.clone());
        let csr = Csr::from_edge_list(&graph);
        let r = bcc_tv(&device, &graph, &csr).unwrap();
        assert_eq!(r.num_components, 4);
        check(edges, 5);
    }

    #[test]
    fn wheel_is_biconnected() {
        // Hub 0 + 5-cycle rim: one biconnected component, no cut vertices.
        let mut edges = vec![];
        for i in 1..=5u32 {
            edges.push((0, i));
            edges.push((i, if i == 5 { 1 } else { i + 1 }));
        }
        let device = Device::new();
        let graph = EdgeList::new(6, edges.clone());
        let csr = Csr::from_edge_list(&graph);
        let r = bcc_tv(&device, &graph, &csr).unwrap();
        assert_eq!(r.num_components, 1);
        check(edges, 6);
    }

    #[test]
    fn random_graphs_match_sequential() {
        let mut state = 777u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for trial in 0..25 {
            let n = 20 + (step() % 120) as usize;
            let mut edges: Vec<(u32, u32)> = (1..n as u64)
                .map(|v| ((step() % v) as u32, v as u32))
                .collect();
            for _ in 0..(step() % (2 * n as u64)) {
                edges.push(((step() % n as u64) as u32, (step() % n as u64) as u32));
            }
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .filter(|&(u, v)| u != v || trial % 4 == 0)
                .collect();
            check(edges, n);
        }
    }

    #[test]
    fn disconnected_rejected() {
        let device = Device::new();
        let graph = EdgeList::new(4, vec![(0, 1), (2, 3)]);
        let csr = Csr::from_edge_list(&graph);
        assert_eq!(
            bcc_tv(&device, &graph, &csr).unwrap_err(),
            BridgesError::Disconnected
        );
    }

    #[test]
    fn empty_rejected_single_node_ok() {
        let device = Device::new();
        let graph = EdgeList::empty(0);
        let csr = Csr::from_edge_list(&graph);
        assert_eq!(
            bcc_tv(&device, &graph, &csr).unwrap_err(),
            BridgesError::Empty
        );
        let graph = EdgeList::empty(1);
        let csr = Csr::from_edge_list(&graph);
        let r = bcc_tv(&device, &graph, &csr).unwrap();
        assert_eq!(r.num_components, 0);
    }

    #[test]
    fn sequential_handles_disconnected() {
        // Two separate triangles: 2 components, no errors.
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
        let graph = EdgeList::new(6, edges);
        let csr = Csr::from_edge_list(&graph);
        let r = bcc_sequential(&graph, &csr);
        assert_eq!(r.num_components, 2);
    }

    #[test]
    fn device_articulation_matches_sequential_derivation() {
        let device = Device::new();
        let mut state = 99u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..10 {
            let n = 30 + (step() % 100) as usize;
            let mut edges: Vec<(u32, u32)> = (1..n as u64)
                .map(|v| ((step() % v) as u32, v as u32))
                .collect();
            for _ in 0..(step() % n as u64) {
                edges.push(((step() % n as u64) as u32, (step() % n as u64) as u32));
            }
            let graph = EdgeList::new(n, edges);
            let csr = Csr::from_edge_list(&graph);
            let bcc = bcc_tv(&device, &graph, &csr).unwrap();
            let seq = articulation_points_from_bcc(&graph, &csr, &bcc);
            let dev = articulation_points_device(&device, &graph, &csr, &bcc);
            for v in 0..n {
                assert_eq!(seq.get(v), dev.get(v), "vertex {v}");
            }
        }
    }

    #[test]
    fn phases_recorded() {
        let device = Device::new();
        let graph = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        let csr = Csr::from_edge_list(&graph);
        let r = bcc_tv(&device, &graph, &csr).unwrap();
        let names: Vec<&str> = r.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["spanning_tree", "euler_tour", "auxiliary_graph", "labeling"]
        );
    }
}
