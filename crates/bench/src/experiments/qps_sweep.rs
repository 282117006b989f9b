//! `qps_sweep` — serving-plane throughput and latency. The one-shot CLI
//! pays preprocessing (parse, CSR, Euler tour, inlabel tables) on every
//! invocation; `emg serve` pays it once and amortizes it across queries,
//! which is the whole economic argument for the daemon. This sweep
//! quantifies the other half of that trade: the latency a request pays
//! and the throughput the daemon reaches, up to and past saturation.
//!
//! The load is **open-loop**: each client thread schedules request `i` at
//! `start + i / offered_qps` and sends it as soon as the schedule (and the
//! strictly in-order protocol) allows, so queueing delay shows up in the
//! measured latency instead of silently throttling the offered rate. Every
//! request travels the real wire protocol against an in-process server on
//! a loopback socket — framing, handshake, batcher, and device launches
//! all included.
//!
//! The offered levels climb until achieved throughput falls below the
//! offered rate. Because each connection has at most one request in
//! flight, no level can exceed `clients / latency` (Little's law); each
//! row prints that bound from its p50, so the saturation point reads as a
//! latency figure, not a device capacity.
//!
//! Per (kind, offered-qps) cell the table reports achieved throughput, the
//! p50/p95/p99 request latency and the bound; the final row folds in the
//! server's own batch-size accounting (size-capped flushes, flushes that
//! emptied the queue, mean pairs per launch). With `EMG_BENCH_JSON=<path>`
//! each cell appends a JSON-lines record carrying those fields plus an
//! `errors` count — the CI perf-smoke gate requires nonzero samples and
//! zero errors.

use crate::config::Config;
use crate::harness::{emit_bench_json_fields, mean_std, Table};
use emg_server::{BatchConfig, Client, QueryKind, Server};
use graph_core::EdgeList;
use graph_io::ParsedGraph;
use graphgen::{ba_graph, random_queries, random_tree};
use std::time::{Duration, Instant};

/// Pairs per request frame: small enough that coalescing across clients
/// (not within one frame) is what fills batches.
const PAIRS_PER_REQUEST: usize = 8;
/// Concurrent client connections per load level.
const CLIENTS: usize = 4;
/// Wall-clock length of each load level.
const LEVEL_DURATION: Duration = Duration::from_millis(300);
/// Offered load levels, requests/second across all clients; the top
/// levels lie past saturation.
const OFFERED_QPS: &[f64] = &[500.0, 2000.0, 8000.0, 16000.0, 32000.0, 64000.0];

/// The `p`-th percentile of an already-sorted latency sample.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn fmt_us(d: Duration) -> String {
    format!("{:.0}us", d.as_secs_f64() * 1e6)
}

struct LoadResult {
    latencies: Vec<Duration>,
    errors: u64,
    wall: Duration,
}

/// Drives one load level: `CLIENTS` threads, each with its own connection,
/// open-loop at `offered_qps / CLIENTS` each.
fn open_loop(
    addr: &str,
    graph: &str,
    nodes: usize,
    kind: QueryKind,
    offered_qps: f64,
    seed: u64,
) -> LoadResult {
    let start = Instant::now();
    let deadline = start + LEVEL_DURATION;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.to_string();
            let graph = graph.to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connecting to the sweep server");
                let interval = Duration::from_secs_f64(CLIENTS as f64 / offered_qps);
                // A pre-generated query pool, cycled: generation must not
                // sit on the timed path.
                let pool = random_queries(nodes, 512 * PAIRS_PER_REQUEST, seed ^ (c as u64 + 1));
                let mut latencies = Vec::new();
                let mut errors = 0u64;
                let mut i = 0u64;
                loop {
                    let due = start + interval.mul_f64(i as f64);
                    if due >= deadline {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let off = (i as usize * PAIRS_PER_REQUEST) % pool.len();
                    let pairs = &pool[off..off + PAIRS_PER_REQUEST];
                    let sent = Instant::now();
                    match client.query(&graph, 0, kind, pairs) {
                        Ok((_, answers)) => {
                            assert_eq!(answers.len(), PAIRS_PER_REQUEST);
                            latencies.push(sent.elapsed());
                        }
                        Err(_) => errors += 1,
                    }
                    i += 1;
                }
                (latencies, errors)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut errors = 0u64;
    for h in handles {
        let (l, e) = h.join().expect("load client panicked");
        latencies.extend(l);
        errors += e;
    }
    LoadResult {
        latencies,
        errors,
        wall: start.elapsed(),
    }
}

/// Runs the sweep: an in-process server over a generated catalog, each
/// query kind under each offered load.
pub fn run(cfg: &Config) {
    let n = cfg.nodes(1_000_000);
    let tree = random_tree(n, Some(8), 0xB01);
    let tree = EdgeList::new(tree.num_nodes(), tree.edges());
    let ba = ba_graph(n, 4, 0xB02);

    let catalog = std::env::temp_dir().join(format!("emg_qps_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&catalog).expect("creating the sweep catalog dir");
    graph_io::binary::write_file(catalog.join("tree.emgbin"), &ParsedGraph::dense(tree), None)
        .expect("writing the tree fixture");
    graph_io::binary::write_file(catalog.join("ba.emgbin"), &ParsedGraph::dense(ba), None)
        .expect("writing the ba fixture");

    // Explicit knobs (not from_env) so the sweep is reproducible however
    // the host environment is set.
    let config = BatchConfig {
        max_batch: 256,
        ..BatchConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", &catalog, config).expect("binding the sweep server");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let mut table = Table::new(
        "Serving plane: open-loop load through the emg serve protocol",
        &[
            "kind", "graph", "offered", "requests", "errors", "achieved", "p50", "p95", "p99",
            "bound",
        ],
    );
    let cells: &[(QueryKind, &str)] = &[
        (QueryKind::Lca, "tree"),
        (QueryKind::Subtree, "tree"),
        (QueryKind::Connectivity, "ba"),
    ];
    for &(kind, graph) in cells {
        for (level, &offered) in OFFERED_QPS.iter().enumerate() {
            let result = open_loop(&addr, graph, n, kind, offered, 0xC0FE + level as u64);
            let mut sorted = result.latencies.clone();
            sorted.sort_unstable();
            let achieved = sorted.len() as f64 / result.wall.as_secs_f64().max(1e-9);
            let (p50, p95, p99) = (
                percentile(&sorted, 0.50),
                percentile(&sorted, 0.95),
                percentile(&sorted, 0.99),
            );
            // Little's law with one request in flight per connection.
            let bound = CLIENTS as f64 / p50.as_secs_f64().max(1e-9);
            table.row(vec![
                kind.name().to_string(),
                graph.to_string(),
                format!("{offered:.0}/s"),
                sorted.len().to_string(),
                result.errors.to_string(),
                format!("{achieved:.0}/s"),
                fmt_us(p50),
                fmt_us(p95),
                fmt_us(p99),
                format!("{bound:.0}/s"),
            ]);
            let (mean, std) = mean_std(&sorted);
            emit_bench_json_fields(
                "qps_sweep",
                &format!("{}/{graph}/{offered:.0}qps", kind.name()),
                mean,
                std,
                sorted.len() as u64,
                Some(sorted.len() as u64 * PAIRS_PER_REQUEST as u64),
                &[
                    ("offered_qps", offered),
                    ("achieved_qps", achieved),
                    ("errors", result.errors as f64),
                    ("p50_us", p50.as_secs_f64() * 1e6),
                    ("p95_us", p95.as_secs_f64() * 1e6),
                    ("p99_us", p99.as_secs_f64() * 1e6),
                    ("bound_qps", bound),
                ],
            );
        }
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "qps_sweep");

    // The server's own accounting: how full the flushes ran.
    let mut client = Client::connect(&addr).expect("connecting for stats");
    let stats = client.stats().expect("reading server stats");
    let mean_batch = stats.queries as f64 / stats.batches.max(1) as f64;
    println!(
        "batcher: {} pairs over {} launches (mean batch {:.1}, max {}); \
         {} size-capped flushes, {} that emptied the queue",
        stats.queries,
        stats.batches,
        mean_batch,
        stats.max_batch,
        stats.size_flushes,
        stats.deadline_flushes
    );
    for (bucket, &count) in stats.batch_hist.iter().enumerate() {
        if count > 0 {
            println!("  batch size 2^{bucket}: {count} launches");
        }
    }
    emit_bench_json_fields(
        "qps_sweep",
        "batcher",
        0.0,
        0.0,
        stats.batches,
        Some(stats.queries),
        &[
            ("mean_batch", mean_batch),
            ("size_flushes", stats.size_flushes as f64),
            ("deadline_flushes", stats.deadline_flushes as f64),
            ("errors", 0.0),
        ],
    );
    client.shutdown().expect("shutting the sweep server down");
    server_thread
        .join()
        .expect("server thread panicked")
        .expect("accept loop failed");
    let _ = std::fs::remove_dir_all(&catalog);
    println!(
        "expected shape: achieved follows offered until the top levels, where\n\
         it falls short and levels off below the bound (clients / p50): with\n\
         one request in flight per connection, latency caps throughput\n\
         (Little's law). p50 stays near one loopback round trip at every level;\n\
         launches hold more than one request's pairs only once requests start\n\
         to queue behind a running flush.\n"
    );
}
