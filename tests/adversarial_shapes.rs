//! Adversarial tree and graph shapes: the degenerate inputs where parallel
//! algorithms historically break — paths (maximum depth), stars (maximum
//! fan-out), caterpillars and brooms (mixed), complete binary trees
//! (maximum balance). Every algorithm family is cross-checked on each.

// Parent arrays are built by index on purpose: the index *is* the node id.
#![allow(clippy::needless_range_loop)]

use euler_meets_gpu::bridges::{articulation_points_from_bcc, bcc_sequential, bcc_tv};
use euler_meets_gpu::prelude::*;
use graph_core::ids::INVALID_NODE;

fn path_tree(n: usize) -> Tree {
    let mut parents = vec![INVALID_NODE; n];
    for v in 1..n {
        parents[v] = v as u32 - 1;
    }
    Tree::from_parent_array(parents, 0).unwrap()
}

fn star_tree(n: usize) -> Tree {
    let mut parents = vec![0u32; n];
    parents[0] = INVALID_NODE;
    Tree::from_parent_array(parents, 0).unwrap()
}

/// Spine of `n/2` nodes, one leaf hanging off every spine node.
fn caterpillar_tree(n: usize) -> Tree {
    let spine = n / 2;
    let mut parents = vec![INVALID_NODE; n];
    for v in 1..spine {
        parents[v] = v as u32 - 1;
    }
    for leaf in 0..n - spine {
        parents[spine + leaf] = (leaf % spine) as u32;
    }
    Tree::from_parent_array(parents, 0).unwrap()
}

/// A path of `n/2` nodes ending in a star of `n/2` leaves.
fn broom_tree(n: usize) -> Tree {
    let handle = n / 2;
    let mut parents = vec![INVALID_NODE; n];
    for v in 1..handle {
        parents[v] = v as u32 - 1;
    }
    for v in handle..n {
        parents[v] = handle as u32 - 1;
    }
    Tree::from_parent_array(parents, 0).unwrap()
}

fn complete_binary_tree(n: usize) -> Tree {
    let mut parents = vec![INVALID_NODE; n];
    for v in 1..n {
        parents[v] = ((v - 1) / 2) as u32;
    }
    Tree::from_parent_array(parents, 0).unwrap()
}

fn check_lca_all_algorithms(tree: &Tree, label: &str) {
    let device = Device::new();
    let n = tree.num_nodes();
    let queries = random_queries(n, 2000, 0xABCD);
    let brute = BruteLca::preprocess(tree);
    let mut expect = vec![0u32; queries.len()];
    brute.query_batch(&queries, &mut expect);

    let algs: Vec<Box<dyn LcaAlgorithm>> = vec![
        Box::new(SequentialInlabelLca::preprocess(tree)),
        Box::new(MulticoreInlabelLca::preprocess(&device, tree).unwrap()),
        Box::new(GpuInlabelLca::preprocess(&device, tree).unwrap()),
        Box::new(NaiveGpuLca::preprocess(&device, tree)),
        Box::new(RmqLca::preprocess(tree)),
        Box::new(SparseRmqLca::preprocess(tree)),
        Box::new(BlockRmqLca::preprocess(tree)),
        Box::new(GpuRmqLca::preprocess(&device, tree).unwrap()),
    ];
    for alg in &algs {
        let mut got = vec![0u32; queries.len()];
        alg.query_batch(&queries, &mut got);
        assert_eq!(
            got,
            expect,
            "{label}: {} disagrees with brute force",
            alg.name()
        );
    }
}

#[test]
fn lca_on_path() {
    check_lca_all_algorithms(&path_tree(3000), "path");
}

#[test]
fn lca_on_star() {
    check_lca_all_algorithms(&star_tree(3000), "star");
}

#[test]
fn lca_on_caterpillar() {
    check_lca_all_algorithms(&caterpillar_tree(3000), "caterpillar");
}

#[test]
fn lca_on_broom() {
    check_lca_all_algorithms(&broom_tree(3000), "broom");
}

#[test]
fn lca_on_complete_binary() {
    check_lca_all_algorithms(&complete_binary_tree(4095), "complete-binary");
}

fn check_bridges_all_algorithms(graph: &EdgeList, label: &str) {
    let device = Device::new();
    let csr = Csr::from_edge_list(graph);
    let expect = bridges_dfs(graph, &csr).bridge_ids();
    let tv = bridges_tv(&device, graph, &csr).unwrap();
    let ck = bridges_ck_device(&device, graph, &csr).unwrap();
    let ck_cpu = bridges_ck_rayon(graph, &csr).unwrap();
    let hy = bridges_hybrid(&device, graph, &csr).unwrap();
    for (name, got) in [
        ("tv", tv.bridge_ids()),
        ("ck", ck.bridge_ids()),
        ("ck-cpu", ck_cpu.bridge_ids()),
        ("hybrid", hy.bridge_ids()),
    ] {
        assert_eq!(got, expect, "{label}: {name} disagrees with DFS");
    }
    // Biconnectivity partition agrees with the sequential oracle too.
    let bcc = bcc_tv(&device, graph, &csr).unwrap();
    let seq = bcc_sequential(graph, &csr);
    assert_eq!(
        bcc.canonical_partition(),
        seq.canonical_partition(),
        "{label}: bcc partitions disagree"
    );
    let cuts = articulation_points_from_bcc(graph, &csr, &bcc);
    let oracle = euler_meets_gpu::bridges::articulation_points_dfs(graph, &csr);
    for v in 0..graph.num_nodes() {
        assert_eq!(cuts.get(v), oracle.get(v), "{label}: cut vertex {v}");
    }
}

#[test]
fn bridges_on_pure_path_graph() {
    // Every edge is a bridge; CK's marking walks are longest here.
    let n = 2000;
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    check_bridges_all_algorithms(&EdgeList::new(n, edges), "path");
}

#[test]
fn bridges_on_cycle_graph() {
    // No bridges at all; exactly one non-tree edge.
    let n = 2000;
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    edges.push((n as u32 - 1, 0));
    check_bridges_all_algorithms(&EdgeList::new(n, edges), "cycle");
}

#[test]
fn bridges_on_star_graph() {
    let n = 2000;
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
    check_bridges_all_algorithms(&EdgeList::new(n, edges), "star");
}

#[test]
fn bridges_on_chain_of_cliques() {
    // k cliques of size 5 connected by bridges: the bridge set is exactly
    // the chain, and each clique is one biconnected component.
    let k = 60;
    let size = 5;
    let n = k * size;
    let mut edges = Vec::new();
    for c in 0..k {
        let base = (c * size) as u32;
        for i in 0..size as u32 {
            for j in i + 1..size as u32 {
                edges.push((base + i, base + j));
            }
        }
        if c + 1 < k {
            edges.push((base + size as u32 - 1, base + size as u32));
        }
    }
    let graph = EdgeList::new(n, edges);
    let csr = Csr::from_edge_list(&graph);
    let dfs = bridges_dfs(&graph, &csr);
    assert_eq!(dfs.num_bridges(), k - 1);
    check_bridges_all_algorithms(&graph, "clique-chain");
}

#[test]
fn bridges_on_ladder_graph() {
    // Two parallel paths with rungs: 2-edge-connected except nothing — no
    // bridges; high diameter stresses BFS-based CK.
    let len = 1000;
    let n = 2 * len;
    let mut edges = Vec::new();
    for i in 0..len as u32 {
        if i + 1 < len as u32 {
            edges.push((i, i + 1));
            edges.push((len as u32 + i, len as u32 + i + 1));
        }
        edges.push((i, len as u32 + i));
    }
    let graph = EdgeList::new(n, edges);
    let csr = Csr::from_edge_list(&graph);
    assert_eq!(bridges_dfs(&graph, &csr).num_bridges(), 0);
    check_bridges_all_algorithms(&graph, "ladder");
}
