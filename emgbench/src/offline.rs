//! The offline workloads: an analyst runs one of the paper's pipelines on a
//! graph file.
//!
//! Each run writes its fixture file, computes the sequential oracle's
//! answers off the clock, resets the memory high-water mark, times several
//! setups (parsing the file — and rooting the tree for LCA), and then
//! repeats the pipeline on the in-memory input for the run's duration,
//! checking every answer.

use crate::trace::Trace;
use crate::{host, stats, Ctx, Report, DEVICE_COUNTERS};
use bridges::{bridges_dfs, bridges_tv};
use gpu_sim::{Device, MetricsSnapshot};
use graph_core::bitset::BitSet;
use graph_core::{Csr, EdgeList, Tree};
use graph_io::ParsedGraph;
use graphgen::{
    kronecker_graph, largest_connected_component, random_queries, random_tree, road_grid,
};
use lca::{GpuInlabelLca, LcaAlgorithm, SequentialInlabelLca};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Nodes of the `lca_batch` tree; it is queried with as many pairs.
const LCA_NODES: usize = 1 << 19;
/// The paper's grasp γ: each node's parent is among the 1000 before it,
/// which makes the tree deep.
const LCA_GRASP: u64 = 1000;
/// `bridges_road`: the LCC of a 700 × 700 grid keeping 62% of the edges.
const ROAD_SIDE: usize = 700;
const ROAD_KEEP: f64 = 0.62;
/// `bridges_kron`: the LCC of a Graph500 Kronecker graph, 2^17 nodes ×16.
const KRON_SCALE: u32 = 17;
const KRON_EDGE_FACTOR: usize = 16;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Phase names the program records, mapped to layer-qualified span names.
const LCA_PHASES: [(&str, &str); 3] = [
    ("lca.euler_tour", "euler_tour.build"),
    ("lca.stats", "euler_tour.stats"),
    ("lca.tables", "lca.tables"),
];
const TV_PHASES: [(&str, &str); 3] = [
    ("spanning_tree", "bridges.spanning_tree"),
    ("euler_tour", "bridges.euler_tour"),
    ("detect_bridges", "bridges.detect"),
];

/// The graph a bridges workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Graph {
    /// Sparse, huge diameter, written as DIMACS `.gr`.
    Road,
    /// Dense, skewed degrees, written as METIS.
    Kron,
}

/// A per-purpose seed derived from the run's seed (splitmix64 finalizer).
pub fn mix(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn write_graph(
    path: &Path,
    graph: &EdgeList,
    writer: fn(&mut std::io::BufWriter<std::fs::File>, &EdgeList) -> std::io::Result<()>,
) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    writer(&mut w, graph)
        .and_then(|()| w.flush())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<ParsedGraph, String> {
    graph_io::read_edge_list(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn root_tree(graph: &EdgeList) -> Result<Tree, String> {
    Tree::from_edges(graph.num_nodes(), graph.edges(), 0).map_err(|e| format!("not a tree: {e:?}"))
}

/// The spans and device counters a traced run gathers.
struct Layers {
    trace: Trace,
    counters: BTreeMap<String, f64>,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            trace: Trace::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Device counter deltas of `span`, kept from the run's first (cold)
    /// op only: they are exact at a fixed seed and pool width, and the cold
    /// op is the one that fetches fresh arena memory.
    fn device_counters(&mut self, span: &str, d: &MetricsSnapshot) {
        if self.counters.contains_key(&format!("{span}.launches")) {
            return;
        }
        let arena = d.bytes_allocated + d.bytes_reused;
        let reuse = if arena == 0 {
            0.0
        } else {
            d.bytes_reused as f64 / arena as f64
        };
        let values = [
            d.kernel_launches as f64,
            d.work_items as f64,
            d.bytes_read as f64,
            d.bytes_written as f64,
            d.bytes_allocated as f64,
            reuse,
        ];
        for ((counter, _), v) in DEVICE_COUNTERS.iter().zip(values) {
            self.counters.insert(format!("{span}.{counter}"), v);
        }
    }

    /// Reports each span name's median duration as `<span>_ms`, leaving
    /// out the warm-up op, plus the device counters.
    fn into_report(self, report: &mut Report) {
        let spans = self.trace.spans();
        let mut durations: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let root = &spans[self.trace.root_of(i)];
            if root.name == "op" && root.op == 0 {
                continue;
            }
            durations
                .entry(format!("{}_ms", s.name))
                .or_default()
                .push((s.end - s.start).as_secs_f64() * 1e3);
        }
        for (metric, values) in durations {
            report.layers.insert(metric, stats::median(&values));
        }
        report.layers.extend(self.counters);
        report.trace = Some(self.trace);
    }
}

/// One measured pipeline: the times and outcomes of every op.
struct Ops {
    op_ms: Vec<f64>,
    ok_units: f64,
    busy_s: f64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// Runs `op` once as a warm-up — checked and counted, but left out of the
/// latency statistics unless it fails — then repeatedly until
/// `ctx.seconds` have passed. `op(id)` returns its duration, whether
/// its output checked out, and the device counter delta of the whole op;
/// an error counts as a failed op.
fn drive(
    ctx: &Ctx,
    units_per_op: f64,
    mut op: impl FnMut(u64) -> Result<(Duration, bool, MetricsSnapshot), String>,
) -> Ops {
    let mut ops = Ops {
        op_ms: Vec::new(),
        ok_units: 0.0,
        busy_s: 0.0,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let mut start = Instant::now();
    let mut id = 0u64;
    loop {
        let warm_up = id == 0;
        if !warm_up && start.elapsed() >= ctx.seconds {
            break;
        }
        let t = Instant::now();
        let (dur, ok) = match op(id) {
            // Clean-measurement guard: no sanitizer access, no injected
            // fault.
            Ok((_, _, delta)) if delta.san_accesses != 0 || delta.faults_injected != 0 => {
                ops.notes.push(format!(
                    "op {id}: san_accesses={} faults_injected={}",
                    delta.san_accesses, delta.faults_injected
                ));
                (t.elapsed(), false)
            }
            Ok((dur, correct, _)) => {
                if !correct {
                    ops.notes
                        .push(format!("op {id}: output differs from the oracle"));
                }
                (dur, correct)
            }
            Err(e) => {
                ops.notes.push(format!("op {id}: {e}"));
                (t.elapsed(), false)
            }
        };
        ops.attempted += 1;
        if !ok {
            ops.failed += 1;
        }
        if !warm_up || !ok {
            let secs = dur.as_secs_f64();
            ops.op_ms.push(if ok { secs * 1e3 } else { f64::INFINITY });
            ops.busy_s += secs;
            if ok {
                ops.ok_units += units_per_op;
            }
        }
        if warm_up {
            // The timed phase starts after the warm-up.
            start = Instant::now();
        }
        id += 1;
    }
    ops
}

fn finish(report: &mut Report, ops: Ops, layers: Option<Layers>) -> Result<(), String> {
    report.peak_rss_mb = host::peak_rss_mb()?;
    report.attempted = ops.attempted;
    report.failed = ops.failed;
    report.throughput_per_s = if ops.busy_s > 0.0 {
        ops.ok_units / ops.busy_s
    } else {
        0.0
    };
    report.op_ms = ops.op_ms;
    report.notes.extend(ops.notes);
    if let Some(layers) = layers {
        layers.into_report(report);
    }
    Ok(())
}

/// Times `reps` setups, dropping each result before the next, and keeps
/// the last one.
fn time_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let value = setup()?;
        samples.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((samples, last.expect("at least one setup")))
}

/// `lca_batch`: `GpuInlabelLca::preprocess` plus one `query_batch` of n
/// uniform pairs on a deep random tree read from a SNAP edge list.
pub fn lca_batch(ctx: &Ctx) -> Result<Report, String> {
    let path = ctx.work_dir.join("tree.snap");
    {
        let tree = random_tree(LCA_NODES, Some(LCA_GRASP), mix(ctx.seed, 1));
        let graph = EdgeList::new(tree.num_nodes(), tree.edges());
        write_graph(&path, &graph, graph_io::snap::write)?;
    }
    // The oracle runs off the clock, before the high-water mark is reset.
    let (queries, expected) = {
        let parsed = read(&path)?;
        let tree = root_tree(&parsed.graph)?;
        let n = tree.num_nodes();
        let queries = random_queries(n, n, mix(ctx.seed, 2));
        let mut expected = vec![0u32; n];
        SequentialInlabelLca::preprocess(&tree).query_batch(&queries, &mut expected);
        (queries, expected)
    };
    host::reset_peak_rss()?;

    let mut report = Report::default();
    let mut layers = ctx.trace.then(Layers::new);
    let (setup_s, tree) = time_setups(SETUP_REPS, || {
        let t0 = Instant::now();
        let parsed = read(&path)?;
        let t1 = Instant::now();
        let tree = root_tree(&parsed.graph)?;
        if let Some(l) = layers.as_mut() {
            let t2 = Instant::now();
            let root = l.trace.push("setup", t0, t2, None, 0, 0);
            l.trace.push("graph_io.read", t0, t1, Some(root), 0, 0);
            l.trace
                .push("graph_core.tree_from_edges", t1, t2, Some(root), 0, 0);
        }
        Ok(tree)
    })?;
    report.setup_s = setup_s;

    let device = Device::new();
    let mut answers = vec![0u32; queries.len()];
    let ops = drive(ctx, queries.len() as f64, |id| {
        let _ = device.metrics().take_phases();
        let s0 = device.metrics().snapshot();
        let t0 = Instant::now();
        let lca = GpuInlabelLca::preprocess(&device, &tree).map_err(|e| format!("{e:?}"))?;
        let t1 = Instant::now();
        let s1 = layers.is_some().then(|| device.metrics().snapshot());
        lca.query_batch(&queries, &mut answers);
        let t2 = Instant::now();
        let s2 = device.metrics().snapshot();
        if let (Some(l), Some(s1)) = (layers.as_mut(), s1) {
            let phases = device.metrics().take_phases();
            let root = l.trace.push("op", t0, t2, None, id, 1);
            let pre = l.trace.push("lca.preprocess", t0, t1, Some(root), id, 1);
            l.trace.push_phases(pre, &phases, &LCA_PHASES);
            l.trace.push("lca.query", t1, t2, Some(root), id, 1);
            l.device_counters("lca.preprocess", &s1.since(&s0));
            l.device_counters("lca.query", &s2.since(&s1));
        }
        Ok((t2 - t0, answers == expected, s2.since(&s0)))
    });
    finish(&mut report, ops, layers)?;
    report.notes.push(format!(
        "lca_batch: {} nodes, {} queries per op",
        tree.num_nodes(),
        queries.len()
    ));
    Ok(report)
}

/// `bridges_road` / `bridges_kron`: `Csr::from_edge_list_on` plus
/// `bridges_tv` on a graph's largest connected component read from a
/// DIMACS (road) or METIS (Kronecker) file.
pub fn bridges(ctx: &Ctx, which: Graph) -> Result<Report, String> {
    let path: PathBuf = {
        let (raw, name, writer): (EdgeList, &str, fn(&mut _, &EdgeList) -> _) = match which {
            Graph::Road => (
                road_grid(ROAD_SIDE, ROAD_SIDE, ROAD_KEEP, mix(ctx.seed, 1)),
                "road.gr",
                graph_io::dimacs::write,
            ),
            Graph::Kron => (
                kronecker_graph(KRON_SCALE, KRON_EDGE_FACTOR, mix(ctx.seed, 1)),
                "kron.metis",
                graph_io::metis::write,
            ),
        };
        let (lcc, _) = largest_connected_component(&raw);
        drop(raw);
        let path = ctx.work_dir.join(name);
        write_graph(&path, &lcc, writer)?;
        path
    };
    let expected: BitSet = {
        let parsed = read(&path)?;
        let csr = Csr::from_edge_list(&parsed.graph);
        bridges_dfs(&parsed.graph, &csr).is_bridge
    };
    host::reset_peak_rss()?;

    let mut report = Report::default();
    let mut layers = ctx.trace.then(Layers::new);
    let (setup_s, parsed) = time_setups(SETUP_REPS, || {
        let t0 = Instant::now();
        let parsed = read(&path)?;
        if let Some(l) = layers.as_mut() {
            let t1 = Instant::now();
            let root = l.trace.push("setup", t0, t1, None, 0, 0);
            l.trace.push("graph_io.read", t0, t1, Some(root), 0, 0);
        }
        Ok(parsed)
    })?;
    report.setup_s = setup_s;
    let graph = parsed.graph;

    let device = Device::new();
    let ops = drive(ctx, graph.num_edges() as f64, |id| {
        let s0 = device.metrics().snapshot();
        let t0 = Instant::now();
        let csr = Csr::from_edge_list_on(&device, &graph);
        let t1 = Instant::now();
        let s1 = layers.is_some().then(|| device.metrics().snapshot());
        let result = bridges_tv(&device, &graph, &csr).map_err(|e| format!("bridges_tv: {e}"))?;
        let t2 = Instant::now();
        let s2 = device.metrics().snapshot();
        if let (Some(l), Some(s1)) = (layers.as_mut(), s1) {
            let root = l.trace.push("op", t0, t2, None, id, 1);
            l.trace.push("graph_core.csr", t0, t1, Some(root), id, 1);
            let tv = l.trace.push("bridges.tv", t1, t2, Some(root), id, 1);
            l.trace.push_phases(tv, &result.phases, &TV_PHASES);
            l.device_counters("graph_core.csr", &s1.since(&s0));
            l.device_counters("bridges.tv", &s2.since(&s1));
        }
        Ok((t2 - t0, result.is_bridge == expected, s2.since(&s0)))
    });
    finish(&mut report, ops, layers)?;
    report.notes.push(format!(
        "{}: {} nodes, {} edges, {} bridges",
        match which {
            Graph::Road => "bridges_road",
            Graph::Kron => "bridges_kron",
        },
        graph.num_nodes(),
        graph.num_edges(),
        expected.count_ones()
    ));
    Ok(report)
}
