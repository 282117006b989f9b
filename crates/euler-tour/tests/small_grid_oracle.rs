//! Euler tours and tree statistics on a small grid — 64-thread blocks and
//! a 16-element sequential threshold, so ranking, order inversion and the
//! preorder/size/level scans take their multi-block parallel paths — must
//! equal the sequential DFS oracle.

use euler_tour::cpu::sequential_stats;
use euler_tour::{EulerTour, TreeStats};
use gpu_sim::{Device, DeviceConfig};
use graph_core::ids::INVALID_NODE;
use graph_core::Tree;

fn small_grid() -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(4),
        block_size: 64,
        seq_threshold: 16,
        ..Default::default()
    })
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
