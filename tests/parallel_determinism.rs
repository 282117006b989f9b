//! End-to-end determinism across pool widths: the full paper pipeline
//! (DCEL → Euler list → list ranking → tree stats → batched LCA → bridges)
//! must produce bit-identical results on a 1-worker and a 4-worker device.
//!
//! The Wei–JáJá sublist heuristic *does* consult the worker count, so the
//! two devices genuinely take different internal decompositions — ranks,
//! statistics, LCA answers and bridge sets are nevertheless uniquely
//! defined, and the engine combines all partial results in source order.

use euler_meets_gpu::prelude::*;
use euler_tour::dcel::Dcel;
use euler_tour::list::EulerList;
use euler_tour::ranking::{rank_wei_jaja, rank_wyllie};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn device(threads: usize) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(threads),
        block_size: 1024,
        seq_threshold: 256,
        pooling: true,
        ..Default::default()
    })
}

#[test]
fn list_ranking_bit_identical_across_thread_counts() {
    let (d1, d4) = (device(1), device(4));
    for seed in 0..3u64 {
        let n = 2_000 + 511 * seed as usize;
        let tree = random_tree(n, None, seed);

        let dcel1 = Dcel::build(&d1, n, &tree.edges());
        let dcel4 = Dcel::build(&d4, n, &tree.edges());
        let list1 = EulerList::build(&d1, &dcel1, tree.root());
        let list4 = EulerList::build(&d4, &dcel4, tree.root());

        assert_eq!(
            rank_wyllie(&d1, &list1),
            rank_wyllie(&d4, &list4),
            "Wyllie ranks diverge (seed {seed})"
        );
        assert_eq!(
            rank_wei_jaja(&d1, &list1),
            rank_wei_jaja(&d4, &list4),
            "Wei-JaJa ranks diverge (seed {seed})"
        );
    }
}

#[test]
fn pipeline_bit_identical_across_thread_counts() {
    let (d1, d4) = (device(1), device(4));
    for seed in 0..3u64 {
        let n = 1_500 + 333 * seed as usize;
        let tree = random_tree(n, None, seed ^ 0xE0E0);

        // Tree statistics.
        let tour1 = EulerTour::build(&d1, &tree).expect("tour (1 thread)");
        let tour4 = EulerTour::build(&d4, &tree).expect("tour (4 threads)");
        let stats1 = TreeStats::compute(&d1, &tour1);
        let stats4 = TreeStats::compute(&d4, &tour4);
        assert_eq!(stats1, stats4, "tree stats diverge (seed {seed})");

        // Batched LCA.
        let queries = random_queries(n, 256, seed ^ 0xABCD);
        let lca1 = GpuInlabelLca::preprocess(&d1, &tree).expect("preprocess (1)");
        let lca4 = GpuInlabelLca::preprocess(&d4, &tree).expect("preprocess (4)");
        let mut a1 = vec![0u32; queries.len()];
        let mut a4 = vec![0u32; queries.len()];
        lca1.query_batch(&queries, &mut a1);
        lca4.query_batch(&queries, &mut a4);
        assert_eq!(a1, a4, "LCA answers diverge (seed {seed})");

        // Bridges on the tree plus random extra edges.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let mut edges = tree.edges();
        for _ in 0..n / 2 {
            edges.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
        }
        let graph = EdgeList::new(n, edges);
        let csr = Csr::from_edge_list(&graph);
        assert_eq!(
            bridges_tv(&d1, &graph, &csr).expect("tv1").bridge_ids(),
            bridges_tv(&d4, &graph, &csr).expect("tv4").bridge_ids(),
            "Tarjan-Vishkin bridges diverge (seed {seed})"
        );
        assert_eq!(
            bridges_ck_device(&d1, &graph, &csr)
                .expect("ck1")
                .bridge_ids(),
            bridges_ck_device(&d4, &graph, &csr)
                .expect("ck4")
                .bridge_ids(),
            "Chaitanya-Kothapalli bridges diverge (seed {seed})"
        );
        assert_eq!(
            bridges_hybrid(&d1, &graph, &csr)
                .expect("hybrid1")
                .bridge_ids(),
            bridges_hybrid(&d4, &graph, &csr)
                .expect("hybrid4")
                .bridge_ids(),
            "hybrid bridges diverge (seed {seed})"
        );
    }
}
