//! `chaos_sweep` — the serving plane under deterministic fault injection.
//! `qps_sweep` asks what the daemon costs when everything works; this
//! sweep asks what it costs when the device misbehaves. The server runs
//! with a seeded fault plane (launch panics plus artificial latency, see
//! `gpu-sim`'s `EMG_FAULT` spec grammar) and the open-loop load is driven
//! through the retrying client, so the numbers measure the *recovery*
//! machinery: batch-panic isolation, `Overloaded` admission refusals, and
//! decorrelated-jitter retries.
//!
//! Per (kind, offered-qps) cell the JSONL record carries the offered and
//! achieved rates, the latency percentiles *including* retry time, and
//! the recovery ledger: `retries` (extra wire attempts), `recovered`
//! (requests that failed at least once and then converged), and `errors`
//! (requests that exhausted the budget — *unrecovered*). The CI perf gate
//! asserts `errors == 0` on every record: with a 1% per-launch panic
//! probability and a 12-retry budget, a dropped request means the
//! recovery plane is broken, not that the dice came up wrong. The final
//! `faults` record folds in the server's own counters (panics isolated,
//! overload refusals, session timeouts) so the gate can also check the
//! faults actually fired.

use crate::config::Config;
use crate::harness::{emit_bench_json_fields, mean_std, Table};
use emg_server::{
    BatchConfig, Client, QueryKind, RetryPolicy, RetryingClient, Server, SessionLimits,
};
use gpu_sim::{DeviceConfig, FaultConfig};
use graph_core::EdgeList;
use graph_io::ParsedGraph;
use graphgen::{ba_graph, random_queries, random_tree};
use std::time::{Duration, Instant};

/// Pairs per request frame, as in `qps_sweep`.
const PAIRS_PER_REQUEST: usize = 8;
/// Concurrent client connections per load level.
const CLIENTS: usize = 4;
/// Wall-clock length of each load level.
const LEVEL_DURATION: Duration = Duration::from_millis(300);
/// Offered load levels, requests/second across all clients.
const OFFERED_QPS: &[f64] = &[500.0, 2000.0];
/// The fault spec under test: ~1% of launches panic (seeded, so the
/// schedule replays), and every launch eats 20us of artificial latency.
const FAULT_SPEC: &str = "launch_panic:p=0.01:seed=42,delay:us=20";
/// Retry budget per request. Consecutive-failure probability at p=0.01
/// makes exhausting this astronomically unlikely — the gate treats any
/// exhaustion as a recovery-plane bug.
const RETRIES: u32 = 12;

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
    /// Requests that exhausted the retry budget (or failed
    /// non-transiently) — the unrecovered errors the gate pins to zero.
    errors: u64,
    /// Requests that failed at least once and then converged.
    recovered: u64,
    /// Wire attempts beyond one per request.
    retries: u64,
    wall: Duration,
}

/// One load level: `CLIENTS` threads, each with its own retrying
/// connection, open-loop at `offered_qps / CLIENTS` each.
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
                let policy = RetryPolicy {
                    retries: RETRIES,
                    base: Duration::from_micros(200),
                    cap: Duration::from_millis(20),
                    seed: seed ^ (c as u64).wrapping_mul(0xD1B5),
                };
                let mut client = RetryingClient::new(&addr, policy, Some(Duration::from_secs(10)));
                let interval = Duration::from_secs_f64(CLIENTS as f64 / offered_qps);
                let pool = random_queries(nodes, 512 * PAIRS_PER_REQUEST, seed ^ (c as u64 + 1));
                let mut latencies = Vec::new();
                let mut errors = 0u64;
                let mut requests = 0u64;
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
                    requests += 1;
                    i += 1;
                }
                let retries = client.attempts().saturating_sub(requests);
                (latencies, errors, client.recovered(), retries)
            })
        })
        .collect();
    let mut out = LoadResult {
        latencies: Vec::new(),
        errors: 0,
        recovered: 0,
        retries: 0,
        wall: Duration::ZERO,
    };
    for h in handles {
        let (l, e, rec, ret) = h.join().expect("load client panicked");
        out.latencies.extend(l);
        out.errors += e;
        out.recovered += rec;
        out.retries += ret;
    }
    out.wall = start.elapsed();
    out
}

/// Runs the sweep: a fault-armed in-process server, each query kind under
/// each offered load, retrying clients doing the recovering.
pub fn run(cfg: &Config) {
    let n = cfg.nodes(1_000_000);
    let tree = random_tree(n, Some(8), 0xC4A);
    let tree = EdgeList::new(tree.num_nodes(), tree.edges());
    let ba = ba_graph(n, 4, 0xC4B);

    let catalog = std::env::temp_dir().join(format!("emg_chaos_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&catalog).expect("creating the sweep catalog dir");
    graph_io::binary::write_file(catalog.join("tree.emgbin"), &ParsedGraph::dense(tree), None)
        .expect("writing the tree fixture");
    graph_io::binary::write_file(catalog.join("ba.emgbin"), &ParsedGraph::dense(ba), None)
        .expect("writing the ba fixture");

    let faults: FaultConfig = FAULT_SPEC.parse().expect("chaos fault spec");
    // Explicit knobs, not from_env: the sweep must be reproducible however
    // the host environment is set. The modest pending bound gives the
    // admission-control path a chance to fire under the burstier levels.
    let batch = BatchConfig {
        max_batch: 256,
        max_pending: 2048,
    };
    let device_cfg = DeviceConfig {
        faults,
        ..DeviceConfig::default()
    };
    let server = Server::bind_with(
        "127.0.0.1:0",
        &catalog,
        batch,
        device_cfg,
        SessionLimits::default(),
    )
    .expect("binding the chaos server");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let mut table = Table::new(
        &format!("Serving plane under faults ({FAULT_SPEC}), retry budget {RETRIES}"),
        &[
            "kind",
            "graph",
            "offered",
            "requests",
            "errors",
            "recovered",
            "retries",
            "achieved",
            "p50",
            "p99",
        ],
    );
    let cells: &[(QueryKind, &str)] = &[(QueryKind::Lca, "tree"), (QueryKind::Connectivity, "ba")];
    let mut unrecovered_total = 0u64;
    for &(kind, graph) in cells {
        for (level, &offered) in OFFERED_QPS.iter().enumerate() {
            let result = open_loop(&addr, graph, n, kind, offered, 0xFA17 + level as u64);
            let mut sorted = result.latencies.clone();
            sorted.sort_unstable();
            let achieved = sorted.len() as f64 / result.wall.as_secs_f64().max(1e-9);
            let (p50, p95, p99) = (
                percentile(&sorted, 0.50),
                percentile(&sorted, 0.95),
                percentile(&sorted, 0.99),
            );
            unrecovered_total += result.errors;
            table.row(vec![
                kind.name().to_string(),
                graph.to_string(),
                format!("{offered:.0}/s"),
                sorted.len().to_string(),
                result.errors.to_string(),
                result.recovered.to_string(),
                result.retries.to_string(),
                format!("{achieved:.0}/s"),
                fmt_us(p50),
                fmt_us(p99),
            ]);
            let (mean, std) = mean_std(&sorted);
            emit_bench_json_fields(
                "chaos_sweep",
                &format!("{}/{graph}/{offered:.0}qps", kind.name()),
                mean,
                std,
                sorted.len() as u64,
                Some(sorted.len() as u64 * PAIRS_PER_REQUEST as u64),
                &[
                    ("offered_qps", offered),
                    ("achieved_qps", achieved),
                    ("errors", result.errors as f64),
                    ("recovered", result.recovered as f64),
                    ("retries", result.retries as f64),
                    ("p50_us", p50.as_secs_f64() * 1e6),
                    ("p95_us", p95.as_secs_f64() * 1e6),
                    ("p99_us", p99.as_secs_f64() * 1e6),
                ],
            );
        }
    }
    table.print();
    let _ = table.write_csv(&cfg.out_dir, "chaos_sweep");

    // The server's side of the ledger: every poisoned batch was isolated,
    // every refusal and reaped session counted — and the daemon is still
    // answering, which is the point.
    let mut client = Client::connect(&addr).expect("connecting for stats");
    let stats = client.stats().expect("reading server stats");
    println!(
        "faults: {} batch panics isolated, {} overload refusals, {} session timeouts; \
         {} unrecovered client errors",
        stats.panics_isolated, stats.overloads, stats.timeouts, unrecovered_total
    );
    emit_bench_json_fields(
        "chaos_sweep",
        "faults",
        0.0,
        0.0,
        stats.batches,
        Some(stats.queries),
        &[
            ("panics_isolated", stats.panics_isolated as f64),
            ("overloads", stats.overloads as f64),
            ("timeouts", stats.timeouts as f64),
            ("errors", unrecovered_total as f64),
        ],
    );
    client.shutdown().expect("shutting the chaos server down");
    server_thread
        .join()
        .expect("server thread panicked")
        .expect("accept loop failed");
    let _ = std::fs::remove_dir_all(&catalog);
    println!(
        "expected shape: p99 absorbs the injected delay plus occasional\n\
         retry round-trips; errors stays at zero because the retry budget\n\
         dwarfs the consecutive-failure probability at p=0.01.\n"
    );
}
