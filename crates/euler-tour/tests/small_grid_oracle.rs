//! Euler tours and tree statistics on a small grid — 64-thread blocks and
//! a 16-element sequential threshold, so the CSR placement, ranking, the
//! per-edge statistics kernels and the preorder scan take their
//! multi-block parallel paths — must equal the sequential DFS oracle, and
//! the tour list must equal the paper's sorted-half-edge construction done
//! on the host.

use euler_tour::cpu::sequential_stats;
use euler_tour::list::NIL;
use euler_tour::{twin, EulerList, EulerTour, TreeStats};
use gpu_sim::{Device, DeviceConfig};
use graph_core::ids::INVALID_NODE;
use graph_core::Tree;

fn small_grid_of(threads: usize) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(threads),
        block_size: 64,
        seq_threshold: 16,
        ..Default::default()
    })
}

fn small_grid() -> Device {
    small_grid_of(4)
}

/// Deterministic scraggly tree: node v hangs off a pseudo-random
/// predecessor, mixing deep chains with broad fans.
fn scraggly_tree(n: usize) -> Tree {
    let mut parent = vec![INVALID_NODE; n];
    let mut state = 0x243F6A8885A308D3u64;
    for (v, p) in parent.iter_mut().enumerate().skip(1) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *p = ((state >> 33) as usize % v) as u32;
    }
    Tree::from_parent_array(parent, 0).unwrap()
}

#[test]
fn tour_and_stats_match_sequential_on_a_small_grid() {
    let device = small_grid();
    for n in [2usize, 65, 300, 1500] {
        let tree = scraggly_tree(n);
        let tour = EulerTour::build(&device, &tree).unwrap();
        let stats = TreeStats::compute(&device, &tour);
        stats.validate().unwrap();
        assert_eq!(stats, sequential_stats(&tree), "n={n}");
    }
}

/// The paper's §2.1 construction on the host, independent of the device
/// code: sort all half-edges by (tail, head), with the half-edge id
/// breaking ties as a stable sort of A would, then link each tail's group
/// cyclically. Returns `(next, first)`.
fn reference_dcel(num_nodes: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut sorted: Vec<(u32, u32, u32)> = edges
        .iter()
        .zip(0u32..)
        .flat_map(|(&(u, v), j)| [(u, v, 2 * j), (v, u, 2 * j + 1)])
        .collect();
    sorted.sort_unstable();
    let mut first = vec![INVALID_NODE; num_nodes];
    for (i, &(x, _, he)) in sorted.iter().enumerate() {
        if i == 0 || sorted[i - 1].0 != x {
            first[x as usize] = he;
        }
    }
    let mut next = vec![0u32; sorted.len()];
    for (i, &(x, _, he)) in sorted.iter().enumerate() {
        next[he as usize] = match sorted.get(i + 1) {
            Some(&(y, _, after)) if y == x => after,
            _ => first[x as usize],
        };
    }
    (next, first)
}

/// `tree`'s edges in a scrambled order, each flipped with probability 1/2:
/// the tour's input is an unordered collection of undirected edges.
fn scrambled_edges(tree: &Tree, seed: u64) -> Vec<(u32, u32)> {
    let mut edges = tree.edges();
    let mut state = seed;
    for i in (1..edges.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        edges.swap(i, (state >> 33) as usize % (i + 1));
        if state >> 63 == 1 {
            let (u, v) = edges[i];
            edges[i] = (v, u);
        }
    }
    edges
}

#[test]
fn dcel_matches_the_host_sorted_half_edges() {
    let star: Vec<(u32, u32)> = (1..700u32)
        .map(|v| if v % 3 == 0 { (v, 0) } else { (0, v) })
        .collect();
    let path: Vec<(u32, u32)> = (1..700u32)
        .map(|v| if v % 2 == 0 { (v, v - 1) } else { (v - 1, v) })
        .collect();
    let mut shapes = vec![
        (1, vec![]),
        (2, vec![(0, 1)]),
        (2, vec![(1, 0)]),
        // A parallel-edge pair, in both orientations: ties between equal
        // (tail, head) keys fall to the half-edge id.
        (2, vec![(0, 1), (1, 0)]),
        (2, vec![(1, 0), (1, 0)]),
        (700, star),
        (700, path),
    ];
    for (n, seed) in [(65, 1), (300, 2), (1500, 3), (20_000, 4)] {
        shapes.push((n, scrambled_edges(&scraggly_tree(n), seed)));
    }
    for threads in [1, 4] {
        let device = small_grid_of(threads);
        for (n, edges) in &shapes {
            let (next, first) = reference_dcel(*n, edges);
            for root in [0, *n - 1] {
                // succ = next ∘ twin, split before the root's first
                // half-edge; no list if a node has no half-edge.
                let expected = (!first.contains(&INVALID_NODE)).then(|| {
                    let head = first[root];
                    let mut succ: Vec<u32> = (0..next.len() as u32)
                        .map(|e| next[twin(e) as usize])
                        .collect();
                    let tail = succ.iter().position(|&s| s == head).unwrap();
                    succ[tail] = NIL;
                    (succ, head, tail as u32)
                });
                let list = EulerList::build(&device, *n, edges, root as u32);
                assert_eq!(
                    list.map(|list| (list.succ, list.head, list.tail)),
                    expected,
                    "n={n}, root {root}, width {threads}"
                );
            }
        }
    }
}

#[test]
fn per_edge_stats_on_mixed_orientations_and_roots() {
    // The statistics kernels find each edge's down half-edge from its two
    // ranks, so edges given (parent, child), (child, parent) or shuffled,
    // and roots other than node 0, must all give the oracle's statistics.
    let star: Vec<(u32, u32)> = (1..700u32)
        .map(|v| if v % 3 == 0 { (v, 0) } else { (0, v) })
        .collect();
    let path: Vec<(u32, u32)> = (1..700u32)
        .map(|v| if v % 2 == 0 { (v, v - 1) } else { (v - 1, v) })
        .collect();
    let mut shapes = vec![(700, star), (700, path)];
    for (n, seed) in [(65, 1), (300, 2), (1500, 3), (20_000, 4)] {
        shapes.push((n, scrambled_edges(&scraggly_tree(n), seed)));
    }
    for threads in [1, 4] {
        let device = small_grid_of(threads);
        for (n, edges) in &shapes {
            for root in [0, *n as u32 / 3] {
                let tour = EulerTour::build_from_edges(&device, *n, edges, root).unwrap();
                let stats = TreeStats::compute(&device, &tour);
                let tree = Tree::from_edges(*n, edges, root).unwrap();
                let at = format!("n={n}, root {root}, width {threads}");
                assert_eq!(stats, sequential_stats(&tree), "{at}");
                let order = tour.order(&device);
                assert_eq!(order.len(), tour.len(), "{at}");
                for (p, &e) in order.iter().enumerate() {
                    assert_eq!(tour.rank()[e as usize] as usize, p, "{at}");
                }
            }
        }
    }
}
