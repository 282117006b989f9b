//! Sequential (single-core) computation of the same tree statistics —
//! the CPU baseline of the paper's experiments and the test oracle for the
//! GPU pipeline.
//!
//! The traversal deliberately visits children in the *same order as the
//! device tour list*: sorted neighbor lists, walked cyclically starting
//! just after the edge the traversal arrived on. This makes every array
//! (including preorder) bit-for-bit comparable with
//! [`crate::stats::TreeStats::compute`].

use crate::stats::TreeStats;
use graph_core::ids::{NodeId, INVALID_NODE};
use graph_core::Tree;

/// Computes preorder/size/level/parent with an iterative DFS.
///
/// O(n) time, O(n) space; uses an explicit stack so million-node paths do
/// not overflow the call stack.
pub fn sequential_stats(tree: &Tree) -> TreeStats {
    let n = tree.num_nodes();
    let root = tree.root();
    if n == 1 {
        return TreeStats {
            preorder: vec![1],
            subtree_size: vec![1],
            level: vec![0],
            parent: vec![INVALID_NODE],
        };
    }

    // Sorted adjacency (children and parent mixed), CSR layout.
    let (offsets, adj) = sorted_adjacency(tree);

    let mut preorder = vec![0u32; n];
    let mut subtree_size = vec![1u32; n];
    let mut level = vec![0u32; n];
    let parent: Vec<NodeId> = tree.parent_slice().to_vec();

    // Stack frame: (node, cyclic start position, neighbors to emit, emitted).
    let mut stack: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(64);
    let mut next_pre = 1u32;

    let deg = |v: u32| offsets[v as usize + 1] - offsets[v as usize];
    let start_of = |v: u32, from: NodeId| -> u32 {
        let s = offsets[v as usize] as usize;
        let e = offsets[v as usize + 1] as usize;
        if from == INVALID_NODE {
            0
        } else {
            // Position just after the parent in the sorted list.
            let idx = adj[s..e]
                .binary_search(&from)
                .expect("parent must be adjacent");
            (idx as u32 + 1) % deg(v).max(1)
        }
    };

    preorder[root as usize] = next_pre;
    next_pre += 1;
    level[root as usize] = 0;
    stack.push((root, start_of(root, INVALID_NODE), deg(root), 0));

    while let Some(&mut (v, start, to_emit, ref mut emitted)) = stack.last_mut() {
        if *emitted == to_emit {
            stack.pop();
            if let Some(p) = tree.parent(v) {
                subtree_size[p as usize] += subtree_size[v as usize];
            }
            continue;
        }
        let d = deg(v);
        let pos = (start + *emitted) % d;
        *emitted += 1;
        let w = adj[(offsets[v as usize] + pos) as usize];
        preorder[w as usize] = next_pre;
        next_pre += 1;
        level[w as usize] = level[v as usize] + 1;
        let w_children = deg(w) - 1; // all neighbors minus the parent edge
        stack.push((w, start_of(w, v), w_children, 0));
    }

    TreeStats {
        preorder,
        subtree_size,
        level,
        parent,
    }
}

/// Builds a CSR adjacency over the tree edges with each neighbor list
/// sorted ascending.
fn sorted_adjacency(tree: &Tree) -> (Vec<u32>, Vec<u32>) {
    let n = tree.num_nodes();
    let mut degree = vec![0u32; n];
    for v in 0..n as u32 {
        if let Some(p) = tree.parent(v) {
            degree[v as usize] += 1;
            degree[p as usize] += 1;
        }
    }
    let mut offsets = vec![0u32; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + degree[v];
    }
    let mut cursor = offsets.clone();
    let mut adj = vec![0u32; 2 * (n - 1)];
    for v in 0..n as u32 {
        if let Some(p) = tree.parent(v) {
            adj[cursor[v as usize] as usize] = p;
            cursor[v as usize] += 1;
            adj[cursor[p as usize] as usize] = v;
            cursor[p as usize] += 1;
        }
    }
    for v in 0..n {
        adj[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
    }
    (offsets, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TreeStats;
    use crate::tour::EulerTour;
    use gpu_sim::Device;

    fn random_tree(n: usize, seed: u64) -> Tree {
        let mut state = seed;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut parent = vec![INVALID_NODE; n];
        for (v, p) in parent.iter_mut().enumerate().skip(1) {
            *p = (step() % v as u64) as u32;
        }
        Tree::from_parent_array(parent, 0).unwrap()
    }

    #[test]
    fn matches_gpu_stats_exactly() {
        let device = Device::new();
        for (n, seed) in [(2usize, 1u64), (3, 2), (17, 3), (1000, 4), (4096, 5)] {
            let tree = random_tree(n, seed);
            let cpu = sequential_stats(&tree);
            let tour = EulerTour::build(&device, &tree).unwrap();
            let gpu = TreeStats::compute(&device, &tour);
            assert_eq!(cpu, gpu, "n={n} seed={seed}");
        }
    }

    #[test]
    fn paper_tree_matches() {
        let tree = Tree::from_parent_array(vec![INVALID_NODE, 2, 0, 0, 0, 2], 0).unwrap();
        let s = sequential_stats(&tree);
        assert_eq!(s.preorder, vec![1, 3, 2, 5, 6, 4]);
        assert_eq!(s.subtree_size, vec![6, 1, 3, 1, 1, 1]);
        assert_eq!(s.level, vec![0, 2, 1, 1, 1, 2]);
    }

    #[test]
    fn deep_path_does_not_overflow() {
        let n = 500_000;
        let mut parent = vec![INVALID_NODE; n];
        for (v, p) in parent.iter_mut().enumerate().skip(1) {
            *p = v as u32 - 1;
        }
        let tree = Tree::from_parent_array(parent, 0).unwrap();
        let s = sequential_stats(&tree);
        assert_eq!(s.level[n - 1], n as u32 - 1);
        assert_eq!(s.preorder[n - 1], n as u32);
    }

    #[test]
    fn rerooted_tree_matches_gpu() {
        let device = Device::new();
        // Build a tree rooted at 5 instead of 0.
        let edges: Vec<(u32, u32)> = (1..100u32).map(|v| (v / 2, v)).collect();
        let tree = Tree::from_edges(100, &edges, 5).unwrap();
        let cpu = sequential_stats(&tree);
        let tour = EulerTour::build(&device, &tree).unwrap();
        let gpu = TreeStats::compute(&device, &tour);
        assert_eq!(cpu, gpu);
    }

    #[test]
    fn validates() {
        let s = sequential_stats(&random_tree(2000, 7));
        s.validate().unwrap();
    }
}
