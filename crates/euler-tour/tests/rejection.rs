//! Rejection coverage: [`EulerTour`] accepts `n − 1` edges over `0..n`
//! exactly when they form a spanning tree, whichever ranker runs. Random
//! trees are perturbed into parallel edges, cycles through the root or
//! away from it, and isolated nodes; a union-find oracle says which of the
//! results still span. Sizes fall on both sides of the default
//! `seq_threshold`, so Wei–JáJá's parallel verdict and its sequential
//! fallback both run.

use euler_tour::ranking::{
    rank_sequential_into, rank_wei_jaja_with_sublists_into, rank_wyllie_into,
};
use euler_tour::{EulerList, EulerTour, Ranker, TourError};
use gpu_sim::Device;
use proptest::prelude::*;

const RANKERS: [Ranker; 3] = [Ranker::Sequential, Ranker::Wyllie, Ranker::WeiJaJa];

/// Whether `edges` over `0..n` form a spanning tree: `n − 1` edges and no
/// cycle, by union-find.
fn is_spanning_tree(n: usize, edges: &[(u32, u32)]) -> bool {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..n).collect();
    edges.len() + 1 == n
        && edges.iter().all(|&(u, v)| {
            let (a, b) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
            parent[a] = b;
            a != b
        })
}

/// A linear congruential generator: cases replay from their seed.
struct Lcg(u64);

impl Lcg {
    /// Uniform in `0..bound`.
    fn below(&mut self, bound: usize) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % bound as u64) as u32
    }

    /// Uniform in `0..n` without `x`.
    fn other_than(&mut self, x: u32, n: usize) -> u32 {
        (x + 1 + self.below(n - 1)) % n as u32
    }
}

/// A random tree on `n ≥ 3` nodes with shuffled labels and orientations,
/// then `kind`'s perturbation of one to three of its edges:
/// 0 — none; 1 — a copy of another edge (parallel edges); 2 — an edge at
/// the root 0 (a cycle through the root); 3 — an edge between two
/// non-root nodes (a cycle away from it); 4 — all replaced edges between
/// one pair of nodes (isolates the leaves that lost their edge).
fn perturbed_tree(n: usize, kind: u8, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Lcg(seed);
    let mut label: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.below(i + 1) as usize);
    }
    let mut edges: Vec<(u32, u32)> = (1..n)
        .map(|v| {
            let (p, c) = (label[rng.below(v) as usize], label[v]);
            if rng.below(2) == 0 {
                (p, c)
            } else {
                (c, p)
            }
        })
        .collect();
    let a = rng.below(n);
    let pair = (a, rng.other_than(a, n));
    for _ in 0..=rng.below(3) {
        let i = rng.below(n - 1) as usize;
        edges[i] = match kind {
            0 => edges[i],
            1 => edges[rng.other_than(i as u32, n - 1) as usize],
            2 => (0, 1 + rng.below(n - 1)),
            3 => {
                // Two distinct nodes of 1..n.
                let x = rng.below(n - 1);
                (1 + x, 1 + rng.other_than(x, n - 1))
            }
            _ => pair,
        };
    }
    edges
}

fn arb_case() -> impl Strategy<Value = (usize, u8, u64)> {
    // List lengths 2(n − 1): below, around and above the default
    // seq_threshold of 2048 half-edges.
    (0usize..3).prop_flat_map(|band| {
        let sizes = match band {
            0 => 3usize..300,
            1 => 900..1200,
            _ => 1500..3000,
        };
        (sizes, 0u8..5, any::<u64>())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tour_accepts_exactly_the_spanning_trees(case in arb_case()) {
        let (n, kind, seed) = case;
        let device = Device::new();
        let edges = perturbed_tree(n, kind, seed);
        let spanning = is_spanning_tree(n, &edges);
        let mut ranks = Vec::new();
        for ranker in RANKERS {
            let got = EulerTour::build_from_edges_with_ranker(&device, n, &edges, 0, ranker);
            match got {
                Ok(tour) if spanning => ranks.push(tour.rank().to_vec()),
                Err(TourError::NotASpanningTree) if !spanning => {}
                other => panic!(
                    "{ranker:?}, n = {n}, kind {kind}, seed {seed}: spanning = {spanning}, got {other:?}"
                ),
            }
        }
        prop_assert!(ranks.windows(2).all(|w| w[0] == w[1]));

        // A rejected edge set that still touches every node has no single
        // tour path: every ranker's own verdict must say so, Wei–JáJá's at
        // both extreme sublist counts too.
        let mut touched = vec![false; n];
        for &(u, v) in &edges {
            touched[u as usize] = true;
            touched[v as usize] = true;
        }
        if !spanning && touched.iter().all(|&t| t) {
            let list = EulerList::build(&device, n, &edges, 0).expect("every node has an edge");
            let h = list.len();
            let mut out = vec![0u32; h];
            prop_assert!(!rank_sequential_into(&list, &mut out));
            prop_assert!(!rank_wyllie_into(&device, &list, &mut out));
            for s in [1, h] {
                prop_assert!(
                    !rank_wei_jaja_with_sublists_into(&device, &list, s, &mut out),
                    "Wei–JáJá with {} sublists accepted a broken list (n = {}, kind {})", s, n, kind
                );
            }
        }
    }
}
