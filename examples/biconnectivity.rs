//! Network reliability analysis: biconnected components and articulation
//! points of an infrastructure-like graph.
//!
//! The paper evaluates bridge finding; Tarjan–Vishkin's original algorithm
//! goes further and labels 2-vertex-connected components. This example runs
//! the full pipeline on a road-like network: which intersections are single
//! points of failure, and how does the network decompose into blocks?
//!
//! ```sh
//! cargo run --release --example biconnectivity
//! ```

use euler_meets_gpu::bridges::{articulation_points_device, bcc_sequential, bcc_tv};
use euler_meets_gpu::prelude::*;

fn main() {
    let device = Device::new();

    // A sparse road network: a grid with ~25% of streets closed, plus the
    // occasional long-range shortcut. High diameter, many bottlenecks.
    let graph = road_grid(120, 120, 0.75, 2026);
    let (lcc, _) = largest_connected_component(&graph);
    let csr = Csr::from_edge_list(&lcc);
    println!(
        "road network: {} intersections, {} streets (largest component)",
        lcc.num_nodes(),
        lcc.num_edges()
    );

    // Full Tarjan–Vishkin biconnectivity on the simulated device.
    let bcc = bcc_tv(&device, &lcc, &csr).expect("connected");
    let cuts = articulation_points_device(&device, &lcc, &csr, &bcc);
    println!("\nbiconnected components: {}", bcc.num_components);
    println!(
        "articulation points (single points of failure): {} of {} intersections",
        cuts.count_ones(),
        lcc.num_nodes()
    );
    for (phase, time) in &bcc.phases {
        println!("  {phase:>16}: {time:?}");
    }

    // Block size distribution: how much of the network is one resilient
    // core vs. fragile tendrils?
    let mut sizes = vec![0usize; bcc.num_components];
    for &c in &bcc.component {
        sizes[c as usize] += 1;
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let singleton = sizes.iter().filter(|&&s| s == 1).count();
    println!(
        "\nlargest block: {} streets ({:.1}% of the network)",
        sizes[0],
        100.0 * sizes[0] as f64 / lcc.num_edges() as f64
    );
    println!("bridge blocks (size 1): {singleton}");

    // Sanity: the parallel labels define the same partition as the
    // sequential Hopcroft–Tarjan oracle.
    let seq = bcc_sequential(&lcc, &csr);
    assert_eq!(
        bcc.canonical_partition(),
        seq.canonical_partition(),
        "parallel and sequential biconnectivity disagree"
    );
    println!("\nverified against the sequential Hopcroft–Tarjan oracle ✓");
}
