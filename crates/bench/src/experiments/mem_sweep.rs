//! Memory-plane sweep: pooled vs malloc scratch on repeated-launch
//! pipelines.
//!
//! The device arena exists for exactly one regime: a pipeline of array
//! primitives launched over and over (list-ranking rounds, CC hooking,
//! inlabel construction), where per-iteration timings would otherwise
//! measure the allocator as much as the algorithm. This experiment pins
//! the claim:
//!
//! * every pipeline runs on two devices — pooling on (the default) and
//!   pooling off ([`gpu_sim::DeviceConfig::pooling`] `= false`, every
//!   scratch acquisition a fresh `alloc_zeroed`) — and the outputs are
//!   asserted **bit-identical**, except CC hooking's spanning forest:
//!   union-find keeps whichever CAS wins, so its tree edges vary from run
//!   to run (DESIGN.md §6) and each run's are checked to be *a* spanning
//!   forest of the (identical) components instead;
//! * the pooled device's steady state is measured between the final two
//!   iterations: `bytes_alloc_steady` must be **0** (all scratch served
//!   from the pool) — CI's allocation-regression gate fails otherwise;
//! * wall-clock means for both modes land in the table, the CSV, and
//!   (with `EMG_BENCH_JSON=<path>`) JSON-lines records carrying the
//!   steady-state counters.

use crate::config::Config;
use crate::harness::{emit_bench_json_fields, fmt_secs, mean_std, time, Table};
use bridges::forest::components_sequential;
use bridges::UnrootedForest;
use euler_tour::ranking::{rank_wei_jaja_into, rank_wyllie_into};
use euler_tour::EulerList;
use gpu_sim::{Device, DeviceConfig};
use graph_core::EdgeList;
use graphgen::{ba_graph, random_tree};
use lca::inlabel::InlabelTables;
use std::time::Duration;

fn pooled_device() -> Device {
    Device::new()
}

fn malloc_device() -> Device {
    Device::with_config(DeviceConfig {
        pooling: false,
        ..Default::default()
    })
}

/// Per-iteration steady-state arena counters measured on the last of
/// `repeats` iterations.
struct SteadyState {
    bytes_alloc: u64,
    bytes_reused: u64,
}

/// Runs `iter` `repeats + 1` times on `device` (one warmup that also
/// returns the comparison output), timing each repeat and measuring the
/// arena deltas of the final iteration.
fn drive<O>(
    device: &Device,
    repeats: usize,
    mut iter: impl FnMut(&Device) -> O,
) -> (O, Vec<Duration>, SteadyState) {
    let output = iter(device); // warmup: populates the pool
    let mut samples = Vec::with_capacity(repeats);
    let mut steady = SteadyState {
        bytes_alloc: 0,
        bytes_reused: 0,
    };
    for rep in 0..repeats.max(1) {
        let before = device.metrics().snapshot();
        let (_, d) = time(|| iter(device));
        samples.push(d);
        if rep + 1 == repeats.max(1) {
            let delta = device.metrics().snapshot().since(&before);
            steady.bytes_alloc = delta.bytes_allocated;
            steady.bytes_reused = delta.bytes_reused;
        }
    }
    (output, samples, steady)
}

/// The agreement check for deterministic pipelines: the pooled output is
/// bit-identical to the allocating path's.
fn same<O: PartialEq + std::fmt::Debug>(name: &str, pooled: &O, malloc: &O) {
    assert_eq!(
        pooled, malloc,
        "{name}: pooled output diverged from the allocating path"
    );
}

/// One pipeline × two devices: check the outputs agree, record both rows.
fn run_pipeline<O>(
    table: &mut Table,
    name: &str,
    elements: u64,
    repeats: usize,
    mut iter: impl FnMut(&Device) -> O,
    agree: impl Fn(&str, &O, &O),
) {
    let pooled = pooled_device();
    let malloc = malloc_device();
    let (out_pooled, samples_pooled, steady) = drive(&pooled, repeats, &mut iter);
    let (out_malloc, samples_malloc, _) = drive(&malloc, repeats, &mut iter);
    agree(name, &out_pooled, &out_malloc);
    assert_eq!(
        steady.bytes_alloc, 0,
        "{name}: steady-state iteration allocated {} fresh scratch bytes",
        steady.bytes_alloc
    );
    for (mode, samples, alloc, reused) in [
        (
            "pooled",
            &samples_pooled,
            steady.bytes_alloc,
            steady.bytes_reused,
        ),
        ("malloc", &samples_malloc, u64::MAX, 0),
    ] {
        let (mean, std) = mean_std(samples);
        table.row(vec![
            name.to_string(),
            mode.to_string(),
            elements.to_string(),
            fmt_secs(mean),
            fmt_secs(std),
            if alloc == u64::MAX {
                "-".to_string()
            } else {
                alloc.to_string()
            },
            if mode == "pooled" {
                reused.to_string()
            } else {
                "-".to_string()
            },
        ]);
        let extra: Vec<(&str, f64)> = if mode == "pooled" {
            vec![
                ("bytes_alloc_steady", alloc as f64),
                ("bytes_reused_steady", reused as f64),
            ]
        } else {
            Vec::new()
        };
        emit_bench_json_fields(
            "mem_sweep",
            &format!("{name}/{mode}"),
            mean,
            std,
            samples.len() as u64,
            Some(elements),
            &extra,
        );
    }
}

/// CC hooking's agreement check: identical components, and in each run a
/// spanning forest of them — exactly n − c tree edges, each inside one
/// component, closing no cycle (with n − c edges, the forest alone has c
/// components under the sequential union-find exactly when it is acyclic).
fn same_components(graph: &EdgeList) -> impl Fn(&str, &UnrootedForest, &UnrootedForest) + '_ {
    move |name, pooled, malloc| {
        same(
            name,
            &(&pooled.representative, pooled.num_components),
            &(&malloc.representative, malloc.num_components),
        );
        let n = graph.num_nodes();
        for c in [pooled, malloc] {
            assert_eq!(
                c.tree_edges.len(),
                n - c.num_components,
                "{name}: forest size"
            );
            let forest: Vec<_> = c
                .tree_edges
                .iter()
                .map(|&e| graph.edges()[e as usize])
                .collect();
            for &(u, v) in &forest {
                assert_eq!(
                    c.representative[u as usize], c.representative[v as usize],
                    "{name}: tree edge ({u}, {v}) crosses components"
                );
            }
            let (_, parts) = components_sequential(&EdgeList::new(n, forest));
            assert_eq!(
                parts, c.num_components,
                "{name}: the tree edges close a cycle"
            );
        }
    }
}

/// Runs the sweep: list-ranking rounds, CC hooking, inlabel construction.
pub fn run(cfg: &Config) {
    let n = cfg.nodes(4_000_000);
    let repeats = cfg.repeats.max(2);
    let mut table = Table::new(
        "Memory plane: pooled vs malloc scratch on repeated-launch pipelines",
        &[
            "pipeline",
            "mode",
            "elements",
            "mean",
            "std",
            "alloc_B/iter",
            "reused_B/iter",
        ],
    );

    // Gather + fused reduce with a pooled intermediate — the "aggregates
    // over the tour" shape, where the per-launch output buffer dominates
    // the (memcpy-like) compute. This is the regime where per-iteration
    // timings previously measured malloc as much as the algorithm.
    {
        let len = 4 * n;
        let src: Vec<u32> = (0..len as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let idx: Vec<u32> = (0..len as u32).rev().collect();
        run_pipeline(
            &mut table,
            "gather_reduce",
            len as u64,
            repeats,
            |device| {
                let g = device.gather_pooled(&idx, &src);
                let g = &g;
                device.map_reduce(
                    len,
                    |i| (g[i] as u64).wrapping_mul(i as u64 + 1),
                    0u64,
                    |a, b| a.wrapping_add(b),
                )
            },
            same,
        );
    }

    // List-ranking rounds over one fixed Euler list (the list is input
    // data — built once on a throwaway device, identical for both modes).
    let tree = random_tree(n, Some(8), 0xA11C);
    let list = {
        let build_dev = pooled_device();
        EulerList::build(&build_dev, n, &tree.edges(), 0).expect("a tree has a tour list")
    };
    let h = list.len() as u64;
    let wyllie = |device: &Device| {
        let mut out = vec![0u32; list.len()];
        assert!(
            rank_wyllie_into(device, &list, &mut out),
            "a tree's tour is one path"
        );
        out
    };
    run_pipeline(&mut table, "wyllie_rounds", h, repeats, wyllie, same);
    let wei_jaja = |device: &Device| {
        let mut out = vec![0u32; list.len()];
        assert!(
            rank_wei_jaja_into(device, &list, &mut out),
            "a tree's tour is one path"
        );
        out
    };
    run_pipeline(&mut table, "wei_jaja", h, repeats, wei_jaja, same);

    // CC hooking rounds on a scale-free graph.
    let graph = ba_graph(n, 8, 0xA11D);
    run_pipeline(
        &mut table,
        "cc_hooking",
        graph.num_edges() as u64,
        repeats,
        |device| UnrootedForest::build(device, &graph),
        same_components(&graph),
    );

    // Inlabel (Schieber–Vishkin) construction from fixed tour statistics.
    let stats = euler_tour::cpu::sequential_stats(&tree);
    let inlabel = |device: &Device| {
        let t = InlabelTables::from_stats_device(device, &stats);
        (t.inlabel, t.ascendant, t.head)
    };
    run_pipeline(
        &mut table,
        "inlabel_build",
        n as u64,
        repeats,
        inlabel,
        same,
    );

    table.print();
    let _ = table.write_csv(&cfg.out_dir, "mem_sweep");
    println!(
        "expected shape: pooled rows allocate 0 bytes per steady-state\n\
         iteration (the gate) and beat the malloc rows on wall clock —\n\
         the gap is the allocator + page-fault churn the arena removes.\n\
         CPU caveat (DESIGN.md \u{a7}8): random-scatter passes (wei_jaja\n\
         phase 1) can tie or slightly lose pooled, because demand-zero\n\
         pages arrive cache-warm while recycled pages cost RFO reads;\n\
         a real GPU has no demand paging, so that artifact is\n\
         simulation-only.\n"
    );
}
