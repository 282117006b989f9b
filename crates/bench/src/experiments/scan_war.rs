//! Scan war: launch and modeled-traffic pins for the two-pass scan core and
//! the pipelines built on it.
//!
//! * **primitive shapes** — two scans and a compaction, each cross-checked
//!   bit for bit against a single-worker run of the same shape; the pure
//!   scan's cost is asserted exactly: 2 launches, 2 reads and 1 write per
//!   element (the reduce pass and the downsweep);
//! * **pipelines** — CSR build, connected components, TV/hybrid bridges
//!   and inlabel LCA, whose launch counts and modeled bytes CI diffs
//!   against the checked-in `ci/launch_baseline.json`.
//!
//! Launches and modeled bytes are **host-independent**: the devices pin
//! `threads = Some(4)` so the simulated grid geometry (and hence every
//! count this experiment emits) is the same on a laptop and in CI.

use crate::config::Config;
use crate::harness::{emit_bench_json_fields, fmt_secs, mean_std, time, Table};
use bridges::{bridges_hybrid, bridges_tv, UnrootedForest};
use gpu_sim::{Device, DeviceConfig, MetricsSnapshot};
use graph_core::Csr;
use graphgen::{ba_graph, random_tree};
use lca::{GpuInlabelLca, LcaAlgorithm};
use std::time::Duration;

/// A device with `threads` workers; the pinned grid (4) makes launch/byte
/// counts host-independent.
fn dev(threads: usize) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(threads),
        ..Default::default()
    })
}

/// Times `iter` on `device` and measures the metrics delta of one
/// steady-state iteration.
fn drive<O>(
    device: &Device,
    repeats: usize,
    mut iter: impl FnMut(&Device) -> O,
) -> (O, Vec<Duration>, MetricsSnapshot) {
    let output = iter(device); // warmup: populates the arena pool
    let mut samples = Vec::with_capacity(repeats);
    let mut delta = MetricsSnapshot::default();
    for rep in 0..repeats.max(1) {
        let before = device.metrics().snapshot();
        let (_, d) = time(|| iter(device));
        samples.push(d);
        if rep + 1 == repeats.max(1) {
            delta = device.metrics().snapshot().since(&before);
        }
    }
    (output, samples, delta)
}

/// Emits one row: table, JSONL (with the launch/traffic fields the CI
/// gate reads), and the per-element ratios.
fn report(
    table: &mut Table,
    section: &str,
    name: &str,
    elements: u64,
    samples: &[Duration],
    delta: &MetricsSnapshot,
) {
    let (mean, std) = mean_std(samples);
    let reads_per_elem = delta.bytes_read as f64 / elements.max(1) as f64;
    let writes_per_elem = delta.bytes_written as f64 / elements.max(1) as f64;
    table.row(vec![
        section.to_string(),
        name.to_string(),
        elements.to_string(),
        fmt_secs(mean),
        delta.kernel_launches.to_string(),
        format!("{reads_per_elem:.2}"),
        format!("{writes_per_elem:.2}"),
    ]);
    emit_bench_json_fields(
        "scan_war",
        &format!("{section}/{name}"),
        mean,
        std,
        samples.len() as u64,
        Some(elements),
        &[
            ("kernel_launches", delta.kernel_launches as f64),
            ("bytes_read", delta.bytes_read as f64),
            ("bytes_written", delta.bytes_written as f64),
            ("reads_per_elem", reads_per_elem),
            ("writes_per_elem", writes_per_elem),
        ],
    );
}

/// One primitive shape on the pinned grid, cross-checked against a
/// single-worker run; records the pinned-grid row and returns its delta.
fn pin_shape<O: PartialEq + std::fmt::Debug>(
    table: &mut Table,
    name: &str,
    elements: u64,
    repeats: usize,
    mut iter: impl FnMut(&Device) -> O,
) -> MetricsSnapshot {
    let (out, samples, delta) = drive(&dev(4), repeats, &mut iter);
    let (out_w1, _, _) = drive(&dev(1), 1, &mut iter);
    assert_eq!(out, out_w1, "{name}: width-1 output diverged");
    report(table, "primitive", name, elements, &samples, &delta);
    delta
}

/// One pipeline on the pinned grid: records the launch accounting CI
/// diffs against `ci/launch_baseline.json`.
fn pin_pipeline<O>(
    table: &mut Table,
    name: &str,
    elements: u64,
    repeats: usize,
    iter: impl FnMut(&Device) -> O,
) {
    let (_, samples, delta) = drive(&dev(4), repeats, iter);
    report(table, "pipeline", name, elements, &samples, &delta);
}

/// Runs the war. Scale 64 is the CI smoke configuration the checked-in
/// launch baseline was generated at.
pub fn run(cfg: &Config) {
    let n = cfg.nodes(16_000_000);
    let repeats = cfg.repeats.max(2);
    let mut table = Table::new(
        "Scan war: launches and modeled traffic (pinned 4-worker grid)",
        &[
            "section", "shape", "elements", "mean", "launches", "rd/elem", "wr/elem",
        ],
    );

    // ---- primitive shapes ----------------------------------------------
    let input: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) % 1_000)
        .collect();
    let delta = pin_shape(
        &mut table,
        "add_scan_inclusive_u64",
        n as u64,
        repeats,
        |d| d.scan_inclusive(&input, 0u64, |a, b| a.wrapping_add(b)),
    );
    // The two-pass core's cost, asserted exactly: the reduce launch reads
    // every element, the downsweep launch reads it again and writes it.
    let bytes = 8 * n as u64;
    assert_eq!(delta.kernel_launches, 2, "scan launches");
    assert_eq!(delta.bytes_read, 2 * bytes, "scan reads");
    assert_eq!(delta.bytes_written, bytes, "scan writes");

    pin_shape(&mut table, "exclusive_scan_u32", n as u64, repeats, |d| {
        d.scan_exclusive_with_total(&input, 0u64, |a, b| a.wrapping_add(b))
    });
    pin_shape(&mut table, "compact_half", n as u64, repeats, |d| {
        d.compact_indices(n, |i| i % 2 == 0)
    });

    // ---- pipeline launch accounting ------------------------------------
    let graph = ba_graph(n / 4, 8, 0x5CA7);
    let csr = Csr::from_edge_list(&graph);
    pin_pipeline(
        &mut table,
        "csr_build",
        graph.num_edges() as u64,
        repeats,
        |d| Csr::from_edge_list_on(d, &graph),
    );
    pin_pipeline(
        &mut table,
        "cc_hooking",
        graph.num_edges() as u64,
        repeats,
        |d| UnrootedForest::build(d, &graph),
    );
    pin_pipeline(
        &mut table,
        "tv_bridges",
        graph.num_edges() as u64,
        repeats,
        |d| bridges_tv(d, &graph, &csr).unwrap().bridge_ids(),
    );
    pin_pipeline(
        &mut table,
        "hybrid_bridges",
        graph.num_edges() as u64,
        repeats,
        |d| bridges_hybrid(d, &graph, &csr).unwrap().bridge_ids(),
    );
    let tree = random_tree(n / 4, Some(8), 0x5CA8);
    let queries = graphgen::random_queries(tree.num_nodes(), 1024, 0x5CA9);
    pin_pipeline(
        &mut table,
        "lca_inlabel",
        tree.num_nodes() as u64,
        repeats,
        |d| {
            let alg = GpuInlabelLca::preprocess(d, &tree).unwrap();
            let mut out = vec![0u32; queries.len()];
            alg.query_batch(&queries, &mut out);
            out
        },
    );

    table.print();
    let _ = table.write_csv(&cfg.out_dir, "scan_war");
    println!(
        "expected shape: pure scans launch twice and read each element\n\
         twice (16.00 rd/elem bytes for u64), and every width-1 output\n\
         matches.\n\
         The pipeline launch counts are deterministic for the pinned\n\
         4-worker grid; CI diffs them against ci/launch_baseline.json\n\
         (regenerate with: EMG_BENCH_JSON=... scan_war --scale 64 and\n\
         ci/update_launch_baseline.py).\n"
    );
}
