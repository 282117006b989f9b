//! End-to-end smoke test of the paper's full pipeline on small random
//! inputs: graphgen tree → Euler tour list → list ranking → tree statistics
//! → batched LCA → bridges, each stage validated against its sequential
//! oracle (`rank_sequential`, `sequential_stats`, `BruteLca`, DFS bridges).
//!
//! The property suites exercise each stage in depth; this test exists so a
//! single fast target proves the stages still *compose*.

use euler_meets_gpu::prelude::*;
use euler_tour::list::EulerList;
use euler_tour::ranking::{rank, rank_sequential, Ranker};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn pipeline_stages_compose_on_random_trees() {
    let device = Device::new();
    for seed in 0..5u64 {
        let n = 50 + 37 * seed as usize;
        let tree = random_tree(n, None, seed);

        // Stage 1: Euler tour list, ranked by all three rankers; the
        // sequential walk is the oracle.
        let list = EulerList::build(&device, n, &tree.edges(), tree.root()).unwrap();
        let oracle_rank = rank_sequential(&list);
        assert!(
            oracle_rank.is_some(),
            "a tree's tour is one path (seed {seed})"
        );
        for ranker in [Ranker::Sequential, Ranker::Wyllie, Ranker::WeiJaJa] {
            assert_eq!(
                rank(&device, &list, ranker),
                oracle_rank,
                "ranker {ranker:?} diverges from sequential walk (seed {seed})"
            );
        }

        // Stage 2: tour + statistics vs the sequential DFS oracle.
        let tour = EulerTour::build(&device, &tree).expect("tour builds");
        let stats = TreeStats::compute(&device, &tour);
        assert!(stats.validate().is_ok(), "stats invalid (seed {seed})");
        assert_eq!(
            stats,
            euler_tour::cpu::sequential_stats(&tree),
            "device stats diverge from sequential DFS (seed {seed})"
        );

        // Stage 3: batched LCA on the device vs brute-force lifting.
        let queries = random_queries(n, 64, seed ^ 0xABCD);
        let gpu = GpuInlabelLca::preprocess(&device, &tree).expect("preprocess");
        let brute = BruteLca::preprocess(&tree);
        let mut got = vec![0u32; queries.len()];
        let mut expected = vec![0u32; queries.len()];
        gpu.query_batch(&queries, &mut got);
        brute.query_batch(&queries, &mut expected);
        assert_eq!(got, expected, "LCA answers diverge (seed {seed})");

        // Stage 4: bridges on the tree plus random extra edges, every
        // parallel algorithm vs the sequential DFS lowlink oracle.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let mut edges = tree.edges();
        for _ in 0..n / 2 {
            edges.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
        }
        let graph = EdgeList::new(n, edges);
        let csr = Csr::from_edge_list(&graph);
        let oracle = bridges_dfs(&graph, &csr).bridge_ids();
        assert_eq!(
            bridges_tv(&device, &graph, &csr).expect("tv").bridge_ids(),
            oracle,
            "Tarjan-Vishkin diverges (seed {seed})"
        );
        assert_eq!(
            bridges_ck_device(&device, &graph, &csr)
                .expect("ck")
                .bridge_ids(),
            oracle,
            "Chaitanya-Kothapalli diverges (seed {seed})"
        );
        assert_eq!(
            bridges_hybrid(&device, &graph, &csr)
                .expect("hybrid")
                .bridge_ids(),
            oracle,
            "hybrid diverges (seed {seed})"
        );
    }
}
