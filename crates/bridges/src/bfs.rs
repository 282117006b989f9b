//! Level-synchronous parallel breadth-first search.
//!
//! The CK algorithm's first phase (paper §4.1): "a parallel BFS is used in
//! most implementations; the choice of BFS guarantees that the spanning
//! tree depth is at most a factor of two from the minimum". This module
//! follows the frontier-expansion structure of Merrill et al. \[39\]: each
//! round expands the current frontier, claims unvisited neighbors with
//! atomic CAS, and compacts the winners into the next frontier.

use gpu_sim::{ArenaVec, AtomicViewU32, AtomicViewU64, Device};
use graph_core::ids::{EdgeId, NodeId, INVALID_NODE};
use graph_core::Csr;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// A rooted BFS spanning tree (of the root's component).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsTree {
    /// BFS parent of each node; `INVALID_NODE` for the root and for nodes
    /// outside the root's component.
    pub parent: Vec<NodeId>,
    /// BFS level; `u32::MAX` for unreached nodes.
    pub level: Vec<u32>,
    /// Edge id connecting each node to its parent; `u32::MAX` where absent.
    pub parent_edge: Vec<EdgeId>,
    /// The BFS root.
    pub root: NodeId,
    /// Number of levels (max level + 1) over reached nodes.
    pub num_levels: u32,
}

impl BfsTree {
    /// Number of nodes reached (including the root).
    pub fn reached(&self) -> usize {
        self.level.iter().filter(|&&l| l != u32::MAX).count()
    }

    /// Whether the BFS reached every node.
    pub fn spans(&self) -> bool {
        self.level.iter().all(|&l| l != u32::MAX)
    }
}

/// The empty-graph result all three variants agree on: no nodes, no levels.
fn empty_tree(root: NodeId) -> BfsTree {
    BfsTree {
        parent: Vec::new(),
        level: Vec::new(),
        parent_edge: Vec::new(),
        root,
        num_levels: 0,
    }
}

/// Shared `num_levels` definition: `max reached level + 1`, i.e. the number
/// of distinct BFS levels; 0 when no node exists. Unreached nodes
/// (`u32::MAX`) never count — all three variants use this one function so
/// they cannot drift apart on disconnected inputs.
fn count_levels(level: &[u32]) -> u32 {
    level
        .iter()
        .filter(|&&l| l != u32::MAX)
        .max()
        .map_or(0, |&l| l + 1)
}

/// Sequential BFS — baseline and oracle.
pub fn bfs_sequential(csr: &Csr, root: NodeId) -> BfsTree {
    let n = csr.num_nodes();
    if n == 0 {
        return empty_tree(root);
    }
    let mut parent = vec![INVALID_NODE; n];
    let mut parent_edge = vec![u32::MAX; n];
    let mut level = vec![u32::MAX; n];
    level[root as usize] = 0;
    let mut queue = std::collections::VecDeque::with_capacity(n);
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let l = level[u as usize];
        for (w, eid) in csr.incident(u) {
            if level[w as usize] == u32::MAX {
                level[w as usize] = l + 1;
                parent[w as usize] = u;
                parent_edge[w as usize] = eid;
                queue.push_back(w);
            }
        }
    }
    let num_levels = count_levels(&level);
    BfsTree {
        parent,
        level,
        parent_edge,
        root,
        num_levels,
    }
}

/// Packs `(parent, edge)` claims into one atomic word so a winner writes
/// both consistently.
#[inline]
fn pack_claim(parent: NodeId, edge: EdgeId) -> u64 {
    ((parent as u64) << 32) | edge as u64
}

/// Device (GPU-sim) BFS.
pub fn bfs_device(device: &Device, csr: &Csr, root: NodeId) -> BfsTree {
    if csr.num_nodes() == 0 {
        return empty_tree(root);
    }
    let (parent, parent_edge, level) = bfs_device_from(device, csr, &[root]);
    let num_levels = count_levels(&level);
    BfsTree {
        parent,
        level,
        parent_edge,
        root,
        num_levels,
    }
}

/// Device BFS from every seed at once, each a root at level 0 — CK's
/// single-root BFS and the spanning forest's rooting
/// ([`crate::UnrootedForest::into_rooted`]) both run it. Returns
/// `(parent, parent_edge, level)`; roots and unreached nodes keep
/// `INVALID_NODE` and `u32::MAX` parents and edges, and unreached nodes
/// level `u32::MAX`.
pub(crate) fn bfs_device_from(
    device: &Device,
    csr: &Csr,
    seeds: &[NodeId],
) -> (Vec<NodeId>, Vec<EdgeId>, Vec<u32>) {
    let n = csr.num_nodes();
    let mut claims_buf = device.alloc_filled(n, u64::MAX);
    let claims = device
        .atomic_u64(&mut claims_buf)
        .benign("claim CAS: exactly one winner per node, losers observe the failure");
    let mut levels_buf = device.alloc_filled(n, u32::MAX);
    let levels = device
        .atomic_u32(&mut levels_buf)
        .benign("early-exit level probe: the claim CAS is authoritative, stale reads cost a retry");
    for &s in seeds {
        levels.store(s as usize, 0);
        claims.store(s as usize, pack_claim(INVALID_NODE, u32::MAX));
    }

    let mut depth = 1u32;
    let mut frontier = expand_frontier(device, csr, seeds, &claims, &levels, depth);
    while !frontier.is_empty() {
        depth += 1;
        frontier = expand_frontier(device, csr, &frontier, &claims, &levels, depth);
    }

    let mut parent = vec![INVALID_NODE; n];
    let mut parent_edge = vec![u32::MAX; n];
    let mut level = vec![u32::MAX; n];
    device.capture_fresh(&parent[..]);
    device.capture_fresh(&parent_edge[..]);
    device.capture_fresh(&level[..]);
    device.map(&mut level, |v| levels.load(v));
    {
        let _k = device.kernel_label("bfs_assign_parents");
        // One write per node. A root's claim packs the root markers and an
        // unreached node's is all ones, so every claim unpacks as is.
        let parent_shared = device.shared(&mut parent);
        let pe_shared = device.shared(&mut parent_edge);
        device.for_each(n, |v| {
            let c = claims.load(v);
            parent_shared.write(v, (c >> 32) as NodeId);
            pe_shared.write(v, c as EdgeId);
        });
    }
    (parent, parent_edge, level)
}

/// One synchronous frontier-expansion round at `depth`: every frontier
/// node claims its unvisited neighbors with a CAS on `claims` (packing the
/// `(parent, edge)` pair). Returns the next frontier.
fn expand_frontier<'d>(
    device: &'d Device,
    csr: &Csr,
    frontier: &[NodeId],
    claims: &AtomicViewU64<'_>,
    levels: &AtomicViewU32<'_>,
    depth: u32,
) -> ArenaVec<'d, NodeId> {
    // The frontier's degree sum bounds the next frontier.
    let degree_sum: usize = frontier.iter().map(|&u| csr.degree(u)).sum();
    let mut next = device.alloc_pooled::<NodeId>(degree_sum);
    let count = AtomicUsize::new(0);
    {
        let _k = device.kernel_label("bfs_expand");
        // The frontier and the CSR adjacency feed the closure, invisible
        // to the tracked views.
        device.capture_read(frontier);
        device.capture_read(csr.offsets());
        device.capture_read(csr.raw_neighbors());
        device.capture_read(csr.raw_edge_ids());
        // fetch_add hands out unique slots, so each element has exactly one
        // writer.
        let next_shared = device.shared(&mut next);
        let count_ref = &count;
        device.for_each(frontier.len(), |i| {
            let u = frontier[i];
            for (w, eid) in csr.incident(u) {
                if levels.load(w as usize) != u32::MAX {
                    continue;
                }
                if claims
                    .compare_exchange(w as usize, u64::MAX, pack_claim(u, eid))
                    .is_ok()
                {
                    levels.store(w as usize, depth);
                    let pos = count_ref.fetch_add(1, Ordering::Relaxed);
                    next_shared.write(pos, w);
                }
            }
        });
    }
    // The host consumes the round's output to size it (and, on the final
    // round, to terminate the loop).
    device.capture_host_read(&next[..]);
    next.truncate(count.load(Ordering::Relaxed));
    next
}

/// Multicore (rayon) BFS — the OpenMP-style variant used by multicore CK.
pub fn bfs_rayon(csr: &Csr, root: NodeId) -> BfsTree {
    let n = csr.num_nodes();
    if n == 0 {
        return empty_tree(root);
    }
    let claims: Vec<std::sync::atomic::AtomicU64> = (0..n)
        .map(|_| std::sync::atomic::AtomicU64::new(u64::MAX))
        .collect();
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    levels[root as usize].store(0, Ordering::Relaxed);
    claims[root as usize].store(pack_claim(INVALID_NODE, u32::MAX), Ordering::Relaxed);

    let mut frontier = vec![root];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let levels_ref = &levels;
        let claims_ref = &claims;
        let next: Vec<NodeId> = frontier
            .par_iter()
            .flat_map_iter(|&u| {
                csr.incident(u).filter_map(move |(w, eid)| {
                    if levels_ref[w as usize].load(Ordering::Relaxed) != u32::MAX {
                        return None;
                    }
                    claims_ref[w as usize]
                        .compare_exchange(
                            u64::MAX,
                            pack_claim(u, eid),
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        )
                        .ok()
                        .map(|_| {
                            levels_ref[w as usize].store(depth, Ordering::Relaxed);
                            w
                        })
                })
            })
            .collect();
        frontier = next;
    }

    let parent: Vec<NodeId> = (0..n)
        .into_par_iter()
        .map(|v| {
            if v == root as usize || levels[v].load(Ordering::Relaxed) == u32::MAX {
                INVALID_NODE
            } else {
                (claims[v].load(Ordering::Relaxed) >> 32) as NodeId
            }
        })
        .collect();
    let parent_edge: Vec<EdgeId> = (0..n)
        .into_par_iter()
        .map(|v| {
            if v == root as usize || levels[v].load(Ordering::Relaxed) == u32::MAX {
                u32::MAX
            } else {
                claims[v].load(Ordering::Relaxed) as EdgeId
            }
        })
        .collect();
    let level: Vec<u32> = levels.iter().map(|l| l.load(Ordering::Relaxed)).collect();
    let num_levels = count_levels(&level);
    BfsTree {
        parent,
        level,
        parent_edge,
        root,
        num_levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::EdgeList;

    fn grid(w: usize, h: usize) -> (EdgeList, Csr) {
        let n = w * h;
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let v = (y * w + x) as u32;
                if x + 1 < w {
                    edges.push((v, v + 1));
                }
                if y + 1 < h {
                    edges.push((v, v + w as u32));
                }
            }
        }
        let el = EdgeList::new(n, edges);
        let csr = Csr::from_edge_list(&el);
        (el, csr)
    }

    #[test]
    fn levels_match_sequential_on_grid() {
        let device = Device::new();
        let (_, csr) = grid(50, 40);
        let seq = bfs_sequential(&csr, 0);
        let dev = bfs_device(&device, &csr, 0);
        let ray = bfs_rayon(&csr, 0);
        assert_eq!(seq.level, dev.level);
        assert_eq!(seq.level, ray.level);
        assert_eq!(seq.num_levels, dev.num_levels);
    }

    #[test]
    fn parents_are_one_level_up() {
        let device = Device::new();
        let (_, csr) = grid(30, 30);
        let t = bfs_device(&device, &csr, 17);
        for v in 0..csr.num_nodes() as u32 {
            if v == 17 {
                assert_eq!(t.parent[v as usize], INVALID_NODE);
                continue;
            }
            let p = t.parent[v as usize];
            assert_ne!(p, INVALID_NODE);
            assert_eq!(t.level[v as usize], t.level[p as usize] + 1);
            // parent_edge really connects v and p.
            assert!(csr
                .incident(v)
                .any(|(w, e)| w == p && e == t.parent_edge[v as usize]));
        }
    }

    #[test]
    fn unreachable_nodes_marked() {
        let device = Device::new();
        let el = EdgeList::new(5, vec![(0, 1), (2, 3)]);
        let csr = Csr::from_edge_list(&el);
        let t = bfs_device(&device, &csr, 0);
        assert_eq!(t.reached(), 2);
        assert!(!t.spans());
        assert_eq!(t.level[4], u32::MAX);
        assert_eq!(t.parent[2], INVALID_NODE);
    }

    #[test]
    fn path_graph_depth() {
        let device = Device::new();
        let n = 2000;
        let el = EdgeList::new(n, (1..n as u32).map(|v| (v - 1, v)).collect());
        let csr = Csr::from_edge_list(&el);
        let t = bfs_device(&device, &csr, 0);
        assert_eq!(t.num_levels, n as u32);
        assert!(t.spans());
    }

    #[test]
    fn single_node() {
        let device = Device::new();
        let el = EdgeList::new(1, vec![]);
        let csr = Csr::from_edge_list(&el);
        let t = bfs_device(&device, &csr, 0);
        assert!(t.spans());
        assert_eq!(t.num_levels, 1);
    }

    #[test]
    fn empty_graph_zero_levels_in_all_variants() {
        let device = Device::new();
        let el = EdgeList::new(0, vec![]);
        let csr = Csr::from_edge_list(&el);
        for t in [
            bfs_sequential(&csr, 0),
            bfs_device(&device, &csr, 0),
            bfs_rayon(&csr, 0),
        ] {
            assert_eq!(t.num_levels, 0);
            assert_eq!(t.reached(), 0);
            assert!(t.spans());
            assert!(t.parent.is_empty() && t.level.is_empty() && t.parent_edge.is_empty());
        }
    }

    #[test]
    fn single_node_one_level_in_all_variants() {
        let device = Device::new();
        let el = EdgeList::new(1, vec![]);
        let csr = Csr::from_edge_list(&el);
        for t in [
            bfs_sequential(&csr, 0),
            bfs_device(&device, &csr, 0),
            bfs_rayon(&csr, 0),
        ] {
            assert_eq!(t.num_levels, 1);
            assert!(t.spans());
            assert_eq!(t.parent, vec![INVALID_NODE]);
        }
    }

    #[test]
    fn disconnected_num_levels_agrees_across_variants() {
        let device = Device::new();
        // Root's component is a 3-path (levels 0..=2); the rest unreachable.
        let el = EdgeList::new(7, vec![(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]);
        let csr = Csr::from_edge_list(&el);
        let seq = bfs_sequential(&csr, 0);
        let dev = bfs_device(&device, &csr, 0);
        let ray = bfs_rayon(&csr, 0);
        assert_eq!(seq.num_levels, 3);
        assert_eq!(dev.num_levels, 3);
        assert_eq!(ray.num_levels, 3);
        assert_eq!(seq.level, dev.level);
        assert_eq!(seq.level, ray.level);
        assert_eq!(seq.reached(), 3);
    }

    #[test]
    fn isolated_root_in_disconnected_graph() {
        let device = Device::new();
        let el = EdgeList::new(4, vec![(1, 2), (2, 3)]);
        let csr = Csr::from_edge_list(&el);
        for t in [
            bfs_sequential(&csr, 0),
            bfs_device(&device, &csr, 0),
            bfs_rayon(&csr, 0),
        ] {
            assert_eq!(t.num_levels, 1, "only the root's level exists");
            assert_eq!(t.reached(), 1);
            assert!(!t.spans());
        }
    }

    #[test]
    fn multi_edges_and_loops_ok() {
        let device = Device::new();
        let el = EdgeList::new(3, vec![(0, 1), (0, 1), (1, 1), (1, 2)]);
        let csr = Csr::from_edge_list(&el);
        let t = bfs_device(&device, &csr, 0);
        assert!(t.spans());
        assert_eq!(t.level[2], 2);
    }
}
