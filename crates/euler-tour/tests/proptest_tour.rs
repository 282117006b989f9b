//! Property tests: Euler tour invariants on arbitrary tree shapes, under a
//! deliberately hostile device configuration (tiny blocks, parallel paths
//! forced).

use euler_tour::{cpu, twin, EulerTour, Ranker, TreeStats};
use gpu_sim::{Device, DeviceConfig};
use graph_core::ids::INVALID_NODE;
use graph_core::Tree;
use proptest::prelude::*;

fn small_device() -> Device {
    Device::with_config(DeviceConfig {
        threads: None,
        block_size: 32,
        seq_threshold: 8,
        ..Default::default()
    })
}

fn arb_tree(max_n: usize) -> impl Strategy<Value = Tree> {
    (2..max_n).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<u32>> = (1..n).map(|v| (0..v as u32).boxed()).collect();
        parents.prop_map(move |ps| {
            let mut parent = vec![INVALID_NODE; n];
            for (v, p) in ps.into_iter().enumerate() {
                parent[v + 1] = p;
            }
            Tree::from_parent_array(parent, 0).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tour_is_a_closed_walk(tree in arb_tree(200)) {
        let device = small_device();
        let tour = EulerTour::build(&device, &tree).unwrap();
        let heads = tour.heads();
        let tail = |e: u32| heads[twin(e) as usize];
        let order = tour.order(&device);
        // Consecutive edges chain head-to-tail; the walk starts and ends at
        // the root.
        prop_assert_eq!(tail(order[0]), tree.root());
        for w in order.windows(2) {
            prop_assert_eq!(heads[w[0] as usize], tail(w[1]));
        }
        prop_assert_eq!(heads[*order.last().unwrap() as usize], tree.root());
    }

    #[test]
    fn every_edge_appears_twice(tree in arb_tree(150)) {
        let device = small_device();
        let tour = EulerTour::build(&device, &tree).unwrap();
        let order = tour.order(&device);
        prop_assert_eq!(order.len(), 2 * (tree.num_nodes() - 1));
        let mut seen = vec![0u32; order.len()];
        for &e in &order {
            seen[e as usize] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn all_rankers_build_identical_tours(tree in arb_tree(150)) {
        let device = small_device();
        let edges = tree.edges();
        let n = tree.num_nodes();
        let seq = EulerTour::build_from_edges_with_ranker(&device, n, &edges, 0, Ranker::Sequential).unwrap();
        let wyl = EulerTour::build_from_edges_with_ranker(&device, n, &edges, 0, Ranker::Wyllie).unwrap();
        let wj = EulerTour::build_from_edges_with_ranker(&device, n, &edges, 0, Ranker::WeiJaJa).unwrap();
        prop_assert_eq!(seq.rank(), wyl.rank());
        prop_assert_eq!(seq.rank(), wj.rank());
    }

    #[test]
    fn stats_match_oracle_and_validate(tree in arb_tree(200)) {
        let device = small_device();
        let tour = EulerTour::build(&device, &tree).unwrap();
        let stats = TreeStats::compute(&device, &tour);
        prop_assert!(stats.validate().is_ok());
        prop_assert_eq!(stats, cpu::sequential_stats(&tree));
    }

    #[test]
    fn subtree_intervals_partition_like_a_laminar_family(tree in arb_tree(150)) {
        let device = small_device();
        let tour = EulerTour::build(&device, &tree).unwrap();
        let stats = TreeStats::compute(&device, &tour);
        let n = tree.num_nodes();
        // Any two subtree intervals are nested or disjoint.
        for u in 0..n {
            for v in 0..n {
                let (us, ue) = (stats.preorder[u], stats.preorder[u] + stats.subtree_size[u]);
                let (vs, ve) = (stats.preorder[v], stats.preorder[v] + stats.subtree_size[v]);
                let nested = (us <= vs && ve <= ue) || (vs <= us && ue <= ve);
                let disjoint = ue <= vs || ve <= us;
                prop_assert!(nested || disjoint, "intervals of {} and {} cross", u, v);
            }
        }
    }
}
