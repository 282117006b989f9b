//! The `emg` subcommands. Each returns its report as a `String` so the
//! integration tests can assert on output without spawning processes.

use crate::args::Args;
use bridges::{
    articulation_points_device, bcc_tv, bridges_ck_device, bridges_ck_rayon, bridges_dfs,
    bridges_hybrid, bridges_tv, BridgesResult, SpanningForest,
};
use emg_server::{BatchConfig, GraphInfo, QueryKind, RetryPolicy, RetryingClient, Server};
use gpu_sim::Device;
use graph_core::{Csr, EdgeList, Tree};
use graph_io::{binary, detect_format, Format, ParsedGraph};
use graphgen::{
    ba_graph, diameter_estimate, kronecker_graph, largest_connected_component, random_queries,
    random_tree, road_grid, web_graph,
};
use lca::{
    BlockRmqLca, GpuInlabelLca, GpuRmqLca, LcaAlgorithm, MulticoreInlabelLca, NaiveGpuLca, RmqLca,
    SequentialInlabelLca, SparseRmqLca,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The input file of a subcommand: the first positional argument or
/// `--input <file>` (but not both).
fn input_path<'a>(args: &'a Args, name: &str) -> Result<&'a str, String> {
    match (args.pos(0), args.opt("input")) {
        (Some(p), None) => Ok(p),
        (None, Some(p)) => Ok(p),
        (Some(_), Some(_)) => Err(format!(
            "give either a positional <{name}> or --input, not both"
        )),
        (None, None) => Err(format!("missing <{name}> (or --input <file>)")),
    }
}

/// Loads a graph file (`emgbin` or auto-detected text). The cached CSR of
/// an `emgbin` file is returned too — unless `--lcc` restricts to a
/// subgraph, which invalidates it.
fn load_with_csr(path: &str, take_lcc: bool) -> Result<(EdgeList, Option<Csr>), String> {
    let (parsed, csr) =
        graph_io::read_edge_list_with_csr(path).map_err(|e| format!("{path}: {e}"))?;
    if take_lcc {
        let (lcc, _) = largest_connected_component(&parsed.graph);
        Ok((lcc, None))
    } else {
        Ok((parsed.graph, csr))
    }
}

fn load(path: &str, take_lcc: bool) -> Result<EdgeList, String> {
    load_with_csr(path, take_lcc).map(|(graph, _)| graph)
}

fn run_bridge_alg(
    name: &str,
    device: &Device,
    graph: &EdgeList,
    csr: &Csr,
) -> Result<BridgesResult, String> {
    match name {
        "dfs" => Ok(bridges_dfs(graph, csr)),
        "tv" => bridges_tv(device, graph, csr).map_err(|e| e.to_string()),
        "ck" => bridges_ck_device(device, graph, csr).map_err(|e| e.to_string()),
        "ck-cpu" => bridges_ck_rayon(graph, csr).map_err(|e| e.to_string()),
        "hybrid" => bridges_hybrid(device, graph, csr).map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown algorithm {other:?} (expected dfs|tv|ck|ck-cpu|hybrid|all)"
        )),
    }
}

/// `emg bridges <file> [--alg dfs|tv|ck|ck-cpu|hybrid|all] [--lcc] [--list]`
///
/// The graph comes from the positional file or `--input <file>`, either a
/// text format or an `emgbin` cache (whose embedded CSR is reused).
pub fn cmd_bridges(args: &Args) -> Result<String, String> {
    let path = input_path(args, "graph-file")?;
    let alg = args.opt("alg").unwrap_or("tv");
    let (graph, cached_csr) = load_with_csr(path, args.flag("lcc"))?;
    let device = Device::new();
    let csr = cached_csr.unwrap_or_else(|| Csr::from_edge_list_on(&device, &graph));
    let mut out = String::new();
    let algs: Vec<&str> = if alg == "all" {
        vec!["dfs", "tv", "ck", "ck-cpu", "hybrid"]
    } else {
        vec![alg]
    };
    writeln!(
        out,
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    )
    .unwrap();
    let mut first_ids: Option<Vec<u32>> = None;
    for a in algs {
        let t = Instant::now();
        let r = run_bridge_alg(a, &device, &graph, &csr)?;
        let elapsed = t.elapsed();
        writeln!(
            out,
            "{a:>8}: {} bridges in {:.1?}",
            r.num_bridges(),
            elapsed
        )
        .unwrap();
        match &first_ids {
            None => first_ids = Some(r.bridge_ids()),
            Some(ids) => {
                if ids != &r.bridge_ids() {
                    return Err(format!("algorithm {a} disagrees with the first result"));
                }
            }
        }
        if args.flag("list") {
            for e in r.bridge_ids() {
                let (u, v) = graph.edges()[e as usize];
                writeln!(out, "  bridge {e}: {u} -- {v}").unwrap();
            }
        }
    }
    Ok(out)
}

/// `emg forest <file> [--lcc]` — builds the union-find spanning forest
/// the bridge pipelines stand on, roots every component at its smallest
/// node, and validates the result against the graph.
pub fn cmd_forest(args: &Args) -> Result<String, String> {
    let path = input_path(args, "graph-file")?;
    let graph = load(path, args.flag("lcc"))?;
    let device = Device::new();
    let t = Instant::now();
    let forest = SpanningForest::build(&device, &graph);
    let elapsed = t.elapsed();
    forest
        .validate(&graph)
        .map_err(|e| format!("invalid forest: {e}"))?;
    Ok(format!(
        "graph: {} nodes, {} edges\nforest: {} components, {} tree edges in {elapsed:.1?}\n",
        graph.num_nodes(),
        graph.num_edges(),
        forest.num_components,
        forest.num_tree_edges()
    ))
}

/// `emg bcc <file> [--lcc]` — biconnected components + articulation points.
pub fn cmd_bcc(args: &Args) -> Result<String, String> {
    let path = input_path(args, "graph-file")?;
    let (graph, cached_csr) = load_with_csr(path, args.flag("lcc"))?;
    let device = Device::new();
    let csr = cached_csr.unwrap_or_else(|| Csr::from_edge_list_on(&device, &graph));
    let t = Instant::now();
    let bcc = bcc_tv(&device, &graph, &csr).map_err(|e| e.to_string())?;
    let cuts = articulation_points_device(&device, &graph, &csr, &bcc);
    let elapsed = t.elapsed();
    let mut sizes = vec![0usize; bcc.num_components];
    for &c in &bcc.component {
        sizes[c as usize] += 1;
    }
    let largest = sizes.iter().copied().max().unwrap_or(0);
    let mut out = String::new();
    writeln!(
        out,
        "graph: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    )
    .unwrap();
    writeln!(out, "biconnected components: {}", bcc.num_components).unwrap();
    writeln!(out, "largest component: {largest} edges").unwrap();
    writeln!(out, "articulation points: {}", cuts.count_ones()).unwrap();
    writeln!(out, "time: {elapsed:.1?}").unwrap();
    Ok(out)
}

/// `emg lca <tree-file> [--alg ...] [--queries N] [--seed S] [--root R]`
pub fn cmd_lca(args: &Args) -> Result<String, String> {
    let path = input_path(args, "tree-file")?;
    let alg = args.opt("alg").unwrap_or("gpu");
    let q: usize = args.opt_parse("queries", 1000usize)?;
    let seed: u64 = args.opt_parse("seed", 42u64)?;
    let root: u32 = args.opt_parse("root", 0u32)?;
    let graph = load(path, false)?;
    let n = graph.num_nodes();
    if n == 0 {
        return Err("not a tree: the file has no nodes".to_string());
    }
    if graph.num_edges() + 1 != n {
        return Err(format!(
            "not a tree: {n} nodes need {} edges, file has {}",
            n - 1,
            graph.num_edges()
        ));
    }
    let tree = Tree::from_edges(n, graph.edges(), root).map_err(|e| format!("{e:?}"))?;
    let queries = random_queries(n, q, seed);
    let mut answers = vec![0u32; q];
    let device = Device::new();

    let t = Instant::now();
    let algorithm: Box<dyn LcaAlgorithm> = match alg {
        "seq" => Box::new(SequentialInlabelLca::preprocess(&tree)),
        "par" => Box::new(MulticoreInlabelLca::preprocess(&device, &tree).map_err(|e| format!("{e:?}"))?),
        "gpu" => Box::new(GpuInlabelLca::preprocess(&device, &tree).map_err(|e| format!("{e:?}"))?),
        "naive" => Box::new(NaiveGpuLca::preprocess(&device, &tree)),
        "rmq" => Box::new(RmqLca::preprocess(&tree)),
        "sparse-rmq" => Box::new(SparseRmqLca::preprocess(&tree)),
        "block-rmq" => Box::new(BlockRmqLca::preprocess(&tree)),
        "gpu-rmq" => Box::new(GpuRmqLca::preprocess(&device, &tree).map_err(|e| format!("{e:?}"))?),
        other => {
            return Err(format!(
                "unknown algorithm {other:?} (expected seq|par|gpu|naive|rmq|sparse-rmq|block-rmq|gpu-rmq)"
            ))
        }
    };
    let prep = t.elapsed();
    let t = Instant::now();
    algorithm.query_batch(&queries, &mut answers);
    let query_time = t.elapsed();

    // Order-independent digest so runs are comparable across algorithms.
    let checksum = answers.iter().fold(0u64, |acc, &a| {
        acc ^ (a as u64).wrapping_mul(0x9E3779B97F4A7C15)
    });
    let mut out = String::new();
    writeln!(out, "tree: {n} nodes, root {root}").unwrap();
    writeln!(out, "algorithm: {}", algorithm.name()).unwrap();
    writeln!(out, "preprocess: {prep:.1?}").unwrap();
    writeln!(
        out,
        "queries: {q} in {query_time:.1?} ({:.0} q/s)",
        q as f64 / query_time.as_secs_f64().max(1e-9)
    )
    .unwrap();
    writeln!(out, "checksum: {checksum:016x}").unwrap();
    Ok(out)
}

/// `emg stats <file> [--lcc]` — the Table-1 row for a graph file.
pub fn cmd_stats(args: &Args) -> Result<String, String> {
    let path = input_path(args, "graph-file")?;
    let graph = load(path, false)?;
    let (lcc, _) = largest_connected_component(&graph);
    let use_graph = if args.flag("lcc") { &lcc } else { &graph };
    let csr = Csr::from_edge_list(use_graph);
    let bridges = bridges_dfs(use_graph, &csr);
    let diameter = diameter_estimate(&csr, 4);
    let max_deg = (0..use_graph.num_nodes() as u32)
        .map(|v| csr.degree(v))
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    writeln!(
        out,
        "file nodes: {}, file edges: {}",
        graph.num_nodes(),
        graph.num_edges()
    )
    .unwrap();
    writeln!(
        out,
        "lcc nodes: {}, lcc edges: {}",
        lcc.num_nodes(),
        lcc.num_edges()
    )
    .unwrap();
    writeln!(out, "bridges: {}", bridges.num_bridges()).unwrap();
    writeln!(out, "diameter (double-sweep lower bound): {diameter}").unwrap();
    writeln!(out, "max degree: {max_deg}").unwrap();
    writeln!(
        out,
        "avg degree: {:.2}",
        2.0 * use_graph.num_edges() as f64 / use_graph.num_nodes().max(1) as f64
    )
    .unwrap();
    Ok(out)
}

fn write_graph(
    path: &str,
    parsed: &ParsedGraph,
    format: &str,
    csr: Option<&Csr>,
) -> Result<(), String> {
    let mut buf: Vec<u8> = Vec::new();
    match format {
        "snap" => graph_io::snap::write(&mut buf, &parsed.graph),
        "dimacs" => graph_io::dimacs::write(&mut buf, &parsed.graph),
        "metis" => graph_io::metis::write(&mut buf, &parsed.graph),
        "emgbin" => binary::write(&mut buf, parsed, csr),
        other => {
            return Err(format!(
                "unknown format {other:?} (snap|dimacs|metis|emgbin)"
            ))
        }
    }
    .map_err(|e| e.to_string())?;
    std::fs::write(path, buf).map_err(|e| e.to_string())
}

/// Infers the target format of `emg convert` from the output extension
/// when `--to` is omitted.
fn format_from_extension(path: &str) -> Option<&'static str> {
    let ext = std::path::Path::new(path).extension()?.to_str()?;
    match ext {
        "emgbin" => Some("emgbin"),
        "gr" => Some("dimacs"),
        "graph" | "metis" => Some("metis"),
        "txt" | "snap" => Some("snap"),
        _ => None,
    }
}

/// `emg gen <family> --out <file> [--format snap|dimacs|metis|emgbin]
/// [--seed S] [--csr] [params]`
///
/// Families: `kron` (`--scale`, `--edge-factor`), `road` (`--width`,
/// `--height`, `--keep`), `web` (`--nodes`, `--edges`, `--leaf-prob`),
/// `ba` (`--nodes`, `--degree`), `tree` (`--nodes`, `--grasp`). `--csr`
/// embeds the CSR adjacency in an `emgbin` output.
pub fn cmd_gen(args: &Args) -> Result<String, String> {
    let family = args.require_pos(0, "family")?;
    let out_path = args
        .opt("out")
        .ok_or_else(|| "missing --out <file>".to_string())?;
    let format = args.opt("format").unwrap_or("snap");
    let seed: u64 = args.opt_parse("seed", 1u64)?;
    let graph = match family {
        "kron" => {
            let scale: u32 = args.opt_parse("scale", 12u32)?;
            let ef: usize = args.opt_parse("edge-factor", 16usize)?;
            kronecker_graph(scale, ef, seed)
        }
        "road" => {
            let w: usize = args.opt_parse("width", 128usize)?;
            let h: usize = args.opt_parse("height", 128usize)?;
            let keep: f64 = args.opt_parse("keep", 0.75f64)?;
            road_grid(w, h, keep, seed)
        }
        "web" => {
            let n: usize = args.opt_parse("nodes", 10_000usize)?;
            let m: usize = args.opt_parse("edges", 30_000usize)?;
            let leaf: f64 = args.opt_parse("leaf-prob", 0.3f64)?;
            web_graph(n, m, leaf, seed)
        }
        "ba" => {
            let n: usize = args.opt_parse("nodes", 10_000usize)?;
            let d: usize = args.opt_parse("degree", 4usize)?;
            ba_graph(n, d, seed)
        }
        "tree" => {
            let n: usize = args.opt_parse("nodes", 10_000usize)?;
            let grasp: u64 = args.opt_parse("grasp", 0u64)?;
            let tree = random_tree(n, if grasp == 0 { None } else { Some(grasp) }, seed);
            EdgeList::new(n, tree.edges())
        }
        other => return Err(format!("unknown family {other:?} (kron|road|web|ba|tree)")),
    };
    let parsed = ParsedGraph::dense(graph);
    if args.flag("csr") && format != "emgbin" {
        // Only the binary cache can carry a CSR section; silently dropping
        // the flag would leave the user believing the CSR is cached.
        return Err(format!(
            "--csr only applies to --format emgbin, not {format:?}"
        ));
    }
    let csr = args
        .flag("csr")
        .then(|| Csr::from_edge_list_on(&Device::new(), &parsed.graph));
    write_graph(out_path, &parsed, format, csr.as_ref())?;
    Ok(format!(
        "wrote {} nodes, {} edges to {out_path} ({format})\n",
        parsed.graph.num_nodes(),
        parsed.graph.num_edges()
    ))
}

/// `emg convert <in> <out> [--to snap|dimacs|metis|emgbin] [--csr]`
///
/// The input may be any text format or an `emgbin` cache; when `--to` is
/// omitted the target format is inferred from the output extension
/// (`.emgbin`, `.gr`, `.graph`, `.txt`). `--csr` embeds the CSR adjacency
/// in an `emgbin` output so later loads skip CSR construction too.
pub fn cmd_convert(args: &Args) -> Result<String, String> {
    let input = args.require_pos(0, "input")?;
    let output = args.require_pos(1, "output")?;
    let to = match args.opt("to") {
        Some(t) => t,
        None => format_from_extension(output).ok_or_else(|| {
            format!("missing --to <format>, and the extension of {output:?} does not imply one")
        })?,
    };
    if args.flag("csr") && to != "emgbin" {
        return Err(format!("--csr only applies to emgbin output, not {to:?}"));
    }
    let (parsed, cached_csr) =
        graph_io::read_edge_list_with_csr(input).map_err(|e| format!("{input}: {e}"))?;
    let csr = if args.flag("csr") {
        Some(cached_csr.unwrap_or_else(|| Csr::from_edge_list_on(&Device::new(), &parsed.graph)))
    } else {
        None
    };
    write_graph(output, &parsed, to, csr.as_ref())?;
    Ok(format!(
        "converted {input} -> {output} ({to}{}): {} nodes, {} edges\n",
        if csr.is_some() { ", CSR embedded" } else { "" },
        parsed.graph.num_nodes(),
        parsed.graph.num_edges()
    ))
}

/// `emg serve <catalog-dir> [--addr host:port|unix:/path] [--batch N]`
///
/// Loads every graph file in `<catalog-dir>` into an epoch-1 snapshot and
/// serves the DESIGN.md §12 protocol until a client sends `Shutdown`. The
/// per-flush pair cap defaults to `EMG_SERVE_BATCH` from the environment;
/// `--batch` overrides it for this run.
///
/// The bound address is announced on stderr *before* the accept loop
/// starts (stdout is the post-shutdown report), so scripts using an
/// ephemeral port (`--addr 127.0.0.1:0`) can scrape it.
pub fn cmd_serve(args: &Args) -> Result<String, String> {
    let dir = match (args.pos(0), args.opt("catalog")) {
        (Some(p), None) => p,
        (None, Some(p)) => p,
        (Some(_), Some(_)) => {
            return Err("give either a positional <catalog-dir> or --catalog, not both".into())
        }
        (None, None) => return Err("missing <catalog-dir> (or --catalog <dir>)".into()),
    };
    let addr = args.opt("addr").unwrap_or("127.0.0.1:7461");
    let mut config = BatchConfig::from_env();
    config.max_batch = args.opt_parse("batch", config.max_batch)?;
    if config.max_batch == 0 {
        return Err("--batch must be positive".into());
    }
    // Startup failures (unreadable dir, empty catalog, bad graph file,
    // bind refusal) are configuration errors: a clean one-line diagnostic
    // and a nonzero exit, never a panic or a half-started daemon.
    let server = Server::bind(addr, std::path::Path::new(dir), config)
        .map_err(|(_, msg)| format!("serve startup failed: {msg}"))?;
    let graphs = server.catalog().list();
    let bound = server.local_addr();
    eprintln!(
        "emg serve: {} graphs from {dir} on {bound} (batch {}, flush when the worker is free)",
        graphs.len(),
        config.max_batch
    );
    for g in &graphs {
        eprintln!(
            "  {}: {} nodes, {} edges{}",
            g.name,
            g.nodes,
            g.edges,
            if g.is_tree { " (tree)" } else { "" }
        );
    }
    server
        .run()
        .map_err(|e| format!("accept loop failed: {e}"))?;
    Ok(format!(
        "served {} graphs on {bound}; shut down by client request\n",
        graphs.len()
    ))
}

fn info_line(out: &mut String, info: &GraphInfo) {
    writeln!(
        out,
        "{}: epoch {}, {} nodes, {} edges, {} components, {} bridges{}",
        info.name,
        info.epoch,
        info.nodes,
        info.edges,
        info.num_components,
        info.num_bridges,
        if info.is_tree { ", tree" } else { "" }
    )
    .unwrap();
}

/// Parses an explicit `--pairs u:v,u:v,...` list.
fn parse_pairs(spec: &str) -> Result<Vec<(u32, u32)>, String> {
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (u, v) = part
                .split_once(':')
                .ok_or_else(|| format!("bad pair {part:?} (expected u:v)"))?;
            let u: u32 = u.parse().map_err(|_| format!("bad node id {u:?}"))?;
            let v: u32 = v.parse().map_err(|_| format!("bad node id {v:?}"))?;
            Ok((u, v))
        })
        .collect()
}

/// `emg client <list|info|stats|reload|shutdown|query> [--addr A] ...`
///
/// The query action sends one batch: `--graph G --kind
/// lca|conn|bridge|subtree`, with the pairs either explicit (`--pairs
/// 0:5,3:4` — each answer is printed) or random (`--queries N --seed S` —
/// only the order-independent checksum is printed, in the same XOR-fold
/// digest `emg lca` uses, so a served batch can be diffed against the
/// one-shot path). `--epoch E` pins a snapshot version; 0 (the default)
/// accepts whatever the server currently holds.
///
/// `--retries N` retries transient failures (`Overloaded`, `Internal`,
/// connection resets) with decorrelated-jitter backoff; `--timeout-ms T`
/// puts a deadline on every socket read and write. Both default off.
pub fn cmd_client(args: &Args) -> Result<String, String> {
    let action = args.require_pos(0, "action")?;
    let addr = args.opt("addr").unwrap_or("127.0.0.1:7461");
    let retries: u32 = args.opt_parse("retries", 0u32)?;
    let timeout_ms: u64 = args.opt_parse("timeout-ms", 0u64)?;
    let timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
    let mut client = RetryingClient::new(addr, RetryPolicy::new(retries), timeout);
    let graph_arg = |args: &Args| -> Result<String, String> {
        args.opt("graph")
            .map(str::to_string)
            .ok_or_else(|| "missing --graph <name>".into())
    };
    let mut out = String::new();
    match action {
        "list" => {
            for info in client.list().map_err(|e| e.to_string())? {
                info_line(&mut out, &info);
            }
        }
        "info" => {
            let info = client.info(&graph_arg(args)?).map_err(|e| e.to_string())?;
            info_line(&mut out, &info);
        }
        "stats" => {
            let s = client.stats().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "queries: {}, batches: {}, max batch: {}",
                s.queries, s.batches, s.max_batch
            )
            .unwrap();
            writeln!(
                out,
                "flushes: {} size-capped, {} emptied the queue",
                s.size_flushes, s.deadline_flushes
            )
            .unwrap();
            writeln!(
                out,
                "robustness: {} timeouts, {} overloads, {} panics isolated",
                s.timeouts, s.overloads, s.panics_isolated
            )
            .unwrap();
            for (bucket, &count) in s.batch_hist.iter().enumerate() {
                if count > 0 {
                    writeln!(out, "  batch size 2^{bucket}: {count}").unwrap();
                }
            }
        }
        "reload" => {
            let graph = graph_arg(args)?;
            let epoch = client.reload(&graph).map_err(|e| e.to_string())?;
            writeln!(out, "{graph}: now epoch {epoch}").unwrap();
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            writeln!(out, "server at {addr} acknowledged shutdown").unwrap();
        }
        "query" => {
            let graph = graph_arg(args)?;
            let kind_name = args.opt("kind").unwrap_or("lca");
            let kind = QueryKind::from_name(kind_name).ok_or_else(|| {
                format!("unknown query kind {kind_name:?} (expected lca|conn|bridge|subtree)")
            })?;
            let pinned: u64 = args.opt_parse("epoch", 0u64)?;
            let explicit = args.opt("pairs").map(parse_pairs).transpose()?;
            let pairs = match &explicit {
                Some(pairs) => pairs.clone(),
                None => {
                    let q: usize = args.opt_parse("queries", 1000usize)?;
                    let seed: u64 = args.opt_parse("seed", 42u64)?;
                    let info = client.info(&graph).map_err(|e| e.to_string())?;
                    random_queries(info.nodes as usize, q, seed)
                }
            };
            let t = Instant::now();
            let (epoch, answers) = client
                .query(&graph, pinned, kind, &pairs)
                .map_err(|e| e.to_string())?;
            let elapsed = t.elapsed();
            writeln!(out, "graph: {graph} (epoch {epoch}), kind: {}", kind.name()).unwrap();
            if let Some(pairs) = &explicit {
                for (&(u, v), &a) in pairs.iter().zip(&answers) {
                    writeln!(out, "  {}({u}, {v}) = {a}", kind.name()).unwrap();
                }
            }
            // Same order-independent digest as `emg lca`, so a served
            // batch can be checked against the one-shot path bit for bit.
            let checksum = answers.iter().fold(0u64, |acc, &a| {
                acc ^ (a as u64).wrapping_mul(0x9E3779B97F4A7C15)
            });
            writeln!(
                out,
                "queries: {} in {elapsed:.1?} ({:.0} q/s)",
                answers.len(),
                answers.len() as f64 / elapsed.as_secs_f64().max(1e-9)
            )
            .unwrap();
            writeln!(out, "checksum: {checksum:016x}").unwrap();
        }
        other => {
            return Err(format!(
                "unknown client action {other:?} (expected list|info|stats|reload|shutdown|query)"
            ))
        }
    }
    Ok(out)
}

/// Detects the format of a file (`emg detect <file>`): `emgbin` by magic,
/// text formats by content.
pub fn cmd_detect(args: &Args) -> Result<String, String> {
    let input = input_path(args, "input")?;
    let bytes = std::fs::read(input).map_err(|e| e.to_string())?;
    if binary::is_emgbin(&bytes) {
        return Ok("emgbin\n".into());
    }
    let Ok(text) = std::str::from_utf8(&bytes) else {
        return Err("unknown format".into());
    };
    match detect_format(text) {
        Some(Format::Dimacs) => Ok("dimacs\n".into()),
        Some(Format::Snap) => Ok("snap\n".into()),
        Some(Format::Metis) => Ok("metis\n".into()),
        None => Err("unknown format".into()),
    }
}
