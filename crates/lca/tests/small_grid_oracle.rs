//! GPU Inlabel LCA on a small grid — 64-thread blocks and a 16-element
//! sequential threshold, so its Euler-tour preprocessing takes the
//! multi-block parallel paths — must answer like the sequential Inlabel
//! oracle.

use gpu_sim::{Device, DeviceConfig};
use graph_core::ids::INVALID_NODE;
use graph_core::Tree;
use lca::{GpuInlabelLca, LcaAlgorithm, SequentialInlabelLca};

#[test]
fn inlabel_queries_match_sequential_on_a_small_grid() {
    let n = 800usize;
    let mut parent = vec![INVALID_NODE; n];
    let mut state = 0x9E3779B97F4A7C15u64;
    for (v, p) in parent.iter_mut().enumerate().skip(1) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *p = ((state >> 33) as usize % v) as u32;
    }
    let tree = Tree::from_parent_array(parent, 0).unwrap();

    let queries: Vec<(u32, u32)> = (0..500u64)
        .map(|q| {
            let a = (q.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u32 % n as u32;
            let b = (q.wrapping_mul(0xD1B54A32D192ED03) >> 33) as u32 % n as u32;
            (a, b)
        })
        .collect();

    let device = Device::with_config(DeviceConfig {
        threads: Some(4),
        block_size: 64,
        seq_threshold: 16,
        ..Default::default()
    });
    let gpu = GpuInlabelLca::preprocess(&device, &tree).unwrap();
    let seq = SequentialInlabelLca::preprocess(&tree);

    let mut out_gpu = vec![0u32; queries.len()];
    let mut out_seq = vec![0u32; queries.len()];
    gpu.query_batch(&queries, &mut out_gpu);
    seq.query_batch(&queries, &mut out_seq);
    assert_eq!(out_gpu, out_seq);
}
