//! Phylogenetic distance computation — the application that motivated the
//! naïve GPU LCA algorithm the paper compares against (Martins et al.,
//! "Phylogenetic distance computation using CUDA", reference [38]).
//!
//! The distance between two taxa `x`, `y` in a phylogenetic tree is
//! `level(x) + level(y) − 2 · level(lca(x, y))`. A species tree is shallow
//! and queries are abundant — the regime where both the naïve walker and
//! Inlabel shine; we run both and check they agree.
//!
//! ```sh
//! cargo run --release --example phylogenetics
//! ```

use euler_meets_gpu::prelude::*;
use std::time::Instant;

fn main() {
    let device = Device::new();

    // A synthetic "species tree": scale-free trees mimic the unbalanced
    // shape of real phylogenies (few deep clades, many shallow leaves).
    let n = 2_000_000;
    let tree = ba_tree(n, 2024);
    println!("species tree: {n} taxa");

    // Pairwise distance queries between random taxa.
    let q = 1_000_000;
    let queries = random_queries(n, q, 77);

    // Preprocess with both algorithms.
    let t = Instant::now();
    let inlabel = GpuInlabelLca::preprocess(&device, &tree).expect("preprocess");
    println!("Inlabel preprocessing: {:?}", t.elapsed());

    let t = Instant::now();
    let naive = NaiveGpuLca::preprocess(&device, &tree);
    println!("Naive preprocessing:   {:?}", t.elapsed());

    // Levels for the distance formula (the naive preprocessing computes
    // them; they double as the Inlabel tables' levels).
    let levels = naive.levels();

    let mut lca_inlabel = vec![0u32; q];
    let t = Instant::now();
    inlabel.query_batch(&queries, &mut lca_inlabel);
    let t_inlabel = t.elapsed();

    let mut lca_naive = vec![0u32; q];
    let t = Instant::now();
    naive.query_batch(&queries, &mut lca_naive);
    let t_naive = t.elapsed();

    assert_eq!(lca_inlabel, lca_naive, "algorithms must agree");

    // Phylogenetic distances.
    let distances: Vec<u32> = queries
        .iter()
        .zip(&lca_inlabel)
        .map(|(&(x, y), &z)| levels[x as usize] + levels[y as usize] - 2 * levels[z as usize])
        .collect();
    let mean = distances.iter().map(|&d| d as f64).sum::<f64>() / q as f64;
    let max = distances.iter().max().unwrap();

    println!("\n{q} pairwise phylogenetic distances:");
    println!("  mean distance = {mean:.2} edges, max = {max}");
    println!("  Inlabel query time: {t_inlabel:?}");
    println!("  Naive   query time: {t_naive:?}");
    println!("(on shallow trees the naive walker is competitive — Figure 5's left edge)");
}
