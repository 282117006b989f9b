//! `emg analyze` — capture a pipeline's launch graph and modeled traffic
//! on a capture-enabled device and run the static dataflow analyzer
//! (hazards, dead writes, fusion candidates).
//!
//! Every pipeline runs on deterministic generated inputs, so the captured
//! graph and its traffic — and their stable JSON form — are bit-identical
//! across hosts and pool widths. `ci/golden_graphs/` keeps one golden JSON
//! per pipeline; the `analyze_pipelines` test compares each capture at
//! widths 1 and 4 against it (regenerate with
//! `cargo run --release -p emg-cli -- analyze --all --write-golden ci/golden_graphs`).

use crate::args::Args;
use bridges::{bridges_hybrid, bridges_tv};
use euler_tour::{EulerTour, Ranker, TreeStats};
use gpu_sim::{CaptureMode, Device, DeviceConfig, LaunchGraph};
use graph_core::Csr;
use graphgen::{ba_graph, random_queries, random_tree};
use lca::{GpuInlabelLca, LcaAlgorithm};
use std::fmt::Write as _;

/// Every shipped pipeline, in golden-file order: CSR construction, tour +
/// statistics under each list ranker, the TV and hybrid bridge pipelines
/// over the union-find spanning forest, and inlabel LCA.
pub const PIPELINES: &[&str] = &[
    "csr_build",
    "tour_stats_seq",
    "tour_stats_wyllie",
    "tour_stats_weijaja",
    "tv_bridges_uf",
    "hybrid_bridges_uf",
    "lca_inlabel",
];

/// Graph scale for the bridge/CSR pipelines. Large enough that every
/// primitive takes its parallel path (> the 2048-element sequential
/// threshold), small enough that capturing every pipeline stays fast.
const GRAPH_NODES: usize = 4_000;
/// Tree scale for the tour/LCA pipelines (list length `2(n-1)` must also
/// clear the sequential threshold).
const TREE_NODES: usize = 6_000;

/// A capture-enabled device with the grid pinned to `threads` workers.
fn capture_device(threads: usize) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(threads),
        capture: CaptureMode::On,
        ..Default::default()
    })
}

/// Runs `pipeline` on a fresh capture-enabled device with a `threads`-wide
/// pool and returns the captured graph.
///
/// # Errors
/// Returns an error for an unknown pipeline name or a pipeline failure.
pub fn capture_pipeline(pipeline: &str, threads: usize) -> Result<LaunchGraph, String> {
    let device = capture_device(threads);
    run_pipeline(&device, pipeline)?;
    device
        .launch_graph()
        .ok_or_else(|| "capture device returned no graph".to_string())
}

/// Drives one pipeline on `device` — usually capture-enabled, but any
/// device works (the bench harness races capture-off vs capture-on on
/// exactly this entry point to price the capture plane).
///
/// # Errors
/// Returns an error for an unknown pipeline name or a pipeline failure.
pub fn run_pipeline(device: &Device, pipeline: &str) -> Result<(), String> {
    match pipeline {
        "csr_build" => {
            let graph = ba_graph(GRAPH_NODES, 8, 0x5CA7);
            let _csr = Csr::from_edge_list_on(device, &graph);
        }
        "tour_stats_seq" | "tour_stats_wyllie" | "tour_stats_weijaja" => {
            let ranker = match pipeline {
                "tour_stats_seq" => Ranker::Sequential,
                "tour_stats_wyllie" => Ranker::Wyllie,
                _ => Ranker::WeiJaJa,
            };
            let tree = random_tree(TREE_NODES, Some(8), 0x5CA8);
            let tour =
                EulerTour::build_with_ranker(device, &tree, ranker).map_err(|e| e.to_string())?;
            let _stats = TreeStats::compute(device, &tour);
        }
        "tv_bridges_uf" | "hybrid_bridges_uf" => {
            let graph = ba_graph(GRAPH_NODES, 8, 0x5CA7);
            let csr = Csr::from_edge_list_on(device, &graph);
            let run = if pipeline == "tv_bridges_uf" {
                bridges_tv
            } else {
                bridges_hybrid
            };
            run(device, &graph, &csr).map_err(|e| e.to_string())?;
        }
        "lca_inlabel" => {
            let tree = random_tree(TREE_NODES, Some(8), 0x5CA8);
            let alg = GpuInlabelLca::preprocess(device, &tree).map_err(|e| format!("{e:?}"))?;
            let queries = random_queries(tree.num_nodes(), 256, 0x5CA9);
            let mut answers = vec![0u32; queries.len()];
            alg.query_batch(&queries, &mut answers);
            device.capture_host_read(&answers);
        }
        other => {
            return Err(format!(
                "unknown pipeline {other:?} (expected one of: {}, or --all)",
                PIPELINES.join(", ")
            ))
        }
    }
    Ok(())
}

/// One human-readable summary line per pipeline.
fn summary_line(out: &mut String, pipeline: &str, graph: &LaunchGraph) {
    let a = graph.analyze();
    writeln!(
        out,
        "{pipeline:>24}: {:>3} launches, {:>2} regions, {} B read, {} B written \
         | deps raw/war/waw {}/{}/{} | hazards {}, dead bytes {}, fused {}, \
         fusion candidates {}",
        graph.launch_count(),
        graph.regions.len(),
        graph.bytes_read,
        graph.bytes_written,
        a.deps.raw,
        a.deps.war,
        a.deps.waw,
        a.hazards.len(),
        a.dead_bytes,
        a.fused_launches,
        a.fusion_candidates.len(),
    )
    .unwrap();
}

/// Full per-pipeline report: nodes, then the analyzer findings.
fn full_report(out: &mut String, pipeline: &str, graph: &LaunchGraph) {
    let a = graph.analyze();
    writeln!(out, "pipeline: {pipeline}").unwrap();
    writeln!(
        out,
        "launches: {} ({} fused), regions: {}",
        graph.launch_count(),
        a.fused_launches,
        graph.regions.len()
    )
    .unwrap();
    writeln!(
        out,
        "traffic: {} bytes read, {} bytes written",
        graph.bytes_read, graph.bytes_written
    )
    .unwrap();
    for (i, node) in graph.nodes.iter().enumerate() {
        let accesses: Vec<String> = node
            .accesses
            .iter()
            .map(|(region, &mask)| {
                let name = graph
                    .regions
                    .iter()
                    .find(|r| r.id == *region)
                    .map(|r| r.name.as_str())
                    .unwrap_or("?");
                format!("{}({name})", gpu_sim::launch_graph::mask_name(mask))
            })
            .collect();
        let mut flags = String::new();
        if node.host {
            flags.push_str(" [host]");
        }
        if !node.barrier {
            flags.push_str(" [no barrier]");
        }
        if node.fused {
            flags.push_str(" [fused]");
        }
        writeln!(
            out,
            "  #{i:<3} {:<40}{flags} {}",
            node.label,
            accesses.join(" ")
        )
        .unwrap();
    }
    writeln!(
        out,
        "deps: {} raw, {} war, {} waw ({} whitelisted conflicts)",
        a.deps.raw, a.deps.war, a.deps.waw, a.whitelisted
    )
    .unwrap();
    for h in &a.hazards {
        writeln!(
            out,
            "HAZARD {}: {} (#{}) -> {} (#{}) on {}",
            h.kind.name(),
            h.from_label,
            h.from,
            h.to_label,
            h.to,
            h.region_name
        )
        .unwrap();
    }
    for d in &a.dead_writes {
        writeln!(
            out,
            "DEAD WRITE: {} (#{}) wrote {} bytes to {} that nothing read",
            d.label, d.node, d.bytes, d.region_name
        )
        .unwrap();
    }
    for f in &a.fusion_candidates {
        writeln!(
            out,
            "FUSION CANDIDATE: {} (#{}) -> {} (#{}) via {}",
            f.producer_label, f.producer, f.consumer_label, f.consumer, f.region_name
        )
        .unwrap();
    }
    if a.hazards.is_empty() && a.dead_writes.is_empty() {
        writeln!(out, "clean: no unwhitelisted hazards, no dead writes").unwrap();
    }
}

/// `emg analyze <pipeline>|--all [--threads N] [--json] [--write-golden <dir>]`
///
/// Captures the launch graph of one pipeline (or all of them), runs the
/// hazard / dead-write / fusion passes, and prints the report. `--json`
/// prints the stable golden-file JSON instead; `--write-golden <dir>`
/// writes `<dir>/<pipeline>.json` for each selected pipeline.
pub fn cmd_analyze(args: &Args) -> Result<String, String> {
    let threads: usize = args.opt_parse("threads", 4usize)?;
    let golden_dir = args.opt("write-golden");
    let selected: Vec<&str> = if args.flag("all") || golden_dir.is_some() {
        PIPELINES.to_vec()
    } else {
        let name = args
            .pos(0)
            .ok_or_else(|| format!("missing <pipeline> (or --all): {}", PIPELINES.join(", ")))?;
        vec![name]
    };

    let mut out = String::new();
    for pipeline in &selected {
        let graph = capture_pipeline(pipeline, threads)?;
        if let Some(dir) = golden_dir {
            let path = std::path::Path::new(dir).join(format!("{pipeline}.json"));
            std::fs::write(&path, graph.to_json(pipeline))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(out, "wrote {}", path.display()).unwrap();
        } else if args.flag("json") {
            out.push_str(&graph.to_json(pipeline));
        } else if selected.len() > 1 {
            summary_line(&mut out, pipeline, &graph);
        } else {
            full_report(&mut out, pipeline, &graph);
        }
    }
    Ok(out)
}
