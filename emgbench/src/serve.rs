//! `serve_mixed`: an operator's view of `emg serve`.
//!
//! An in-process server (`Server::bind` + `run` on a thread, default
//! `BatchConfig`) serves a catalog of two emgbin graphs: a deep random
//! tree and a road-grid LCC. Two client threads, one connection each, send
//! an open-loop schedule at a fixed total rate, offset by half an interval
//! so they do not always share a flush. Every request carries a few pairs;
//! kinds cycle through lca, subtree, conn and bridge, and bridge pairs are
//! real edges. Each request is timed from the moment it was due, so a
//! stall also charges the requests queued behind it.

use crate::offline::mix;
use crate::trace::Trace;
use crate::{host, stats, Ctx, Report};
use bridges::bridges_dfs;
use bridges::forest::components_sequential;
use emg_server::protocol::BRIDGE_NO_SUCH_EDGE;
use emg_server::{
    BatchConfig, Client, ClientError, QueryKind, Request, Response, Server, Snapshot,
};
use euler_tour::cpu::sequential_stats;
use graph_core::{Csr, EdgeList, Tree};
use graph_io::ParsedGraph;
use graphgen::{largest_connected_component, random_tree, road_grid};
use lca::{LcaAlgorithm, SequentialInlabelLca};
use std::path::Path;
use std::time::{Duration, Instant};

/// Nodes of the served tree (the paper's deep random tree, γ = 1000).
const TREE_NODES: usize = 1 << 18;
const TREE_GRASP: u64 = 1000;
/// The served road graph: the LCC of a `ROAD_SIDE`² grid.
const ROAD_SIDE: usize = 400;
const ROAD_KEEP: f64 = 0.62;
/// Offered load, requests per second over all clients — well below the
/// knee of the default 500 µs coalescing window.
const RATE_PER_S: u32 = 1000;
/// Client threads, one connection each.
const CLIENTS: usize = 2;
const PAIRS_PER_REQUEST: usize = 8;
/// Requests each client sends, untimed, before the schedule starts.
const WARM_UP_REQUESTS: usize = 16;
/// `Server::bind` calls per run; `setup_s` is their median.
const BIND_REPS: usize = 9;
/// A request not answered within this long counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Repetitions behind the traced run's microbenchmarks.
const SNAPSHOT_LOAD_REPS: usize = 3;
const ANSWER_BATCH_REPS: usize = 400;
const PROTOCOL_REPS: usize = 4000;

const KINDS: [QueryKind; 4] = [
    QueryKind::Lca,
    QueryKind::Subtree,
    QueryKind::Connectivity,
    QueryKind::BridgeEdge,
];

/// The catalog graph each kind is asked of.
fn graph_of(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Lca | QueryKind::Subtree => "tree",
        QueryKind::Connectivity | QueryKind::BridgeEdge => "road",
    }
}

fn metric_suffix(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::Lca => "lca",
        QueryKind::Subtree => "subtree",
        QueryKind::Connectivity => "conn",
        QueryKind::BridgeEdge => "bridge",
    }
}

/// One pre-generated request and the oracle's answers to it.
struct Req {
    kind: QueryKind,
    pairs: Vec<(u32, u32)>,
    expected: Vec<u32>,
}

/// When one request was due, sent and answered, and whether the answer
/// was right.
struct Sample {
    due: Instant,
    send: Instant,
    reply: Instant,
    ok: bool,
}

/// A small deterministic generator (splitmix64).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> u32 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (mix(self.0, 0) % n as u64) as u32
    }
}

fn write_emgbin(path: &Path, graph: EdgeList) -> Result<(), String> {
    let csr = Csr::from_edge_list(&graph);
    graph_io::binary::write_file(path, &ParsedGraph::dense(graph), Some(&csr))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_emgbin(path: &Path) -> Result<(EdgeList, Csr), String> {
    let (parsed, csr) = graph_io::binary::read_file(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let csr = csr.unwrap_or_else(|| Csr::from_edge_list(&parsed.graph));
    Ok((parsed.graph, csr))
}

/// Builds every client's request list with the sequential oracles'
/// answers: LCA and subtree on the tree rooted where the catalog roots it
/// (node 0), connectivity by sequential union-find and bridge membership
/// by DFS on the road graph.
fn requests(dir: &Path, seed: u64, per_client: usize) -> Result<Vec<Vec<Req>>, String> {
    let (tree_graph, _) = read_emgbin(&dir.join("tree.emgbin"))?;
    let tree = Tree::from_edges(tree_graph.num_nodes(), tree_graph.edges(), 0)
        .map_err(|e| format!("served tree: {e:?}"))?;
    let lca = SequentialInlabelLca::preprocess(&tree);
    let subtree = sequential_stats(&tree);
    let (road, road_csr) = read_emgbin(&dir.join("road.emgbin"))?;
    let (component, _) = components_sequential(&road);
    let bridge = bridges_dfs(&road, &road_csr).is_bridge;
    let is_bridge = |u: u32, v: u32| {
        let mut found = None;
        for (w, e) in road_csr.incident(u) {
            if w == v {
                found = Some(found.unwrap_or(false) | bridge.get(e as usize));
            }
        }
        found.map_or(BRIDGE_NO_SUCH_EDGE, u32::from)
    };

    let mut rng = Rng(mix(seed, 12));
    let (nt, nr, mr) = (tree.num_nodes(), road.num_nodes(), road.num_edges());
    let mut lists: Vec<Vec<Req>> = (0..CLIENTS)
        .map(|_| Vec::with_capacity(per_client))
        .collect();
    for k in 0..per_client {
        for (c, list) in lists.iter_mut().enumerate() {
            let kind = KINDS[(k * CLIENTS + c) % KINDS.len()];
            let pairs: Vec<(u32, u32)> = (0..PAIRS_PER_REQUEST)
                .map(|_| match kind {
                    QueryKind::Lca | QueryKind::Subtree => (rng.below(nt), rng.below(nt)),
                    QueryKind::Connectivity => (rng.below(nr), rng.below(nr)),
                    QueryKind::BridgeEdge => {
                        let (u, v) = road.edges()[rng.below(mr) as usize];
                        if rng.below(2) == 0 {
                            (u, v)
                        } else {
                            (v, u)
                        }
                    }
                })
                .collect();
            let expected = pairs
                .iter()
                .map(|&(u, v)| match kind {
                    QueryKind::Lca => lca.query(u, v),
                    QueryKind::Subtree => u32::from(subtree.in_subtree(u, v)),
                    QueryKind::Connectivity => {
                        u32::from(component[u as usize] == component[v as usize])
                    }
                    QueryKind::BridgeEdge => is_bridge(u, v),
                })
                .collect();
            list.push(Req {
                kind,
                pairs,
                expected,
            });
        }
    }
    Ok(lists)
}

fn connect(addr: &str) -> Result<Client, ClientError> {
    Client::connect_with(addr, Some(IO_TIMEOUT))
}

/// Sends one request and checks its answers. A broken connection is
/// dropped, so the next request reconnects.
fn exchange(client: &mut Option<Client>, addr: &str, req: &Req) -> Result<(), String> {
    if client.is_none() {
        *client = Some(connect(addr).map_err(|e| format!("reconnect: {e}"))?);
    }
    let c = client.as_mut().expect("connected above");
    match c.query(graph_of(req.kind), 0, req.kind, &req.pairs) {
        Ok((_, answers)) if answers == req.expected => Ok(()),
        Ok(_) => Err(format!("{:?}: answers differ from the oracle", req.kind)),
        Err(e) => {
            if matches!(e, ClientError::Io(_) | ClientError::Protocol(_)) {
                *client = None;
            }
            Err(format!("{:?}: {e}", req.kind))
        }
    }
}

/// One client's open loop: request `k` is due at `first_due + k ×
/// interval`; it is sent at its due time, or as soon as the previous reply
/// arrives if that is later.
fn open_loop(
    client: &mut Option<Client>,
    addr: &str,
    reqs: &[Req],
    first_due: Instant,
    interval: Duration,
    end: Instant,
    errors: &mut Vec<String>,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(reqs.len());
    for (k, req) in reqs.iter().enumerate() {
        let due = first_due + interval * k as u32;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let send = Instant::now();
        let outcome = exchange(client, addr, req);
        let reply = Instant::now();
        if let Err(e) = &outcome {
            errors.push(e.clone());
        }
        samples.push(Sample {
            due,
            send,
            reply,
            ok: outcome.is_ok(),
        });
    }
    samples
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median duration of `reps` calls of `f`, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// `serve_mixed`.
pub fn serve_mixed(ctx: &Ctx) -> Result<Report, String> {
    let dir = ctx.work_dir.join("catalog");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating catalog: {e}"))?;
    {
        let tree = random_tree(TREE_NODES, Some(TREE_GRASP), mix(ctx.seed, 11));
        write_emgbin(
            &dir.join("tree.emgbin"),
            EdgeList::new(tree.num_nodes(), tree.edges()),
        )?;
        let raw = road_grid(ROAD_SIDE, ROAD_SIDE, ROAD_KEEP, mix(ctx.seed, 13));
        write_emgbin(
            &dir.join("road.emgbin"),
            largest_connected_component(&raw).0,
        )?;
    }
    let interval = Duration::from_secs(1) * CLIENTS as u32 / RATE_PER_S;
    let per_client =
        WARM_UP_REQUESTS + (ctx.seconds.as_secs_f64() / interval.as_secs_f64()) as usize + 1;
    let lists = requests(&dir, ctx.seed, per_client)?;
    host::reset_peak_rss()?;

    let mut report = Report::default();
    let mut trace = ctx.trace.then(Trace::new);
    let mut server = None;
    for _ in 0..BIND_REPS {
        drop(server.take());
        let t0 = Instant::now();
        let s = Server::bind("127.0.0.1:0", &dir, BatchConfig::default())
            .map_err(|(code, msg)| format!("Server::bind: {code:?}: {msg}"))?;
        let t1 = Instant::now();
        report.setup_s.push((t1 - t0).as_secs_f64());
        if let Some(t) = trace.as_mut() {
            t.push("emg_server.bind", t0, t1, None, 0, 0);
        }
        server = Some(s);
    }
    let server = server.expect("at least one bind");
    let addr = server.local_addr();
    let catalog = server.catalog();
    let stop = server.shutdown_handle();
    let run = std::thread::spawn(move || server.run());

    // Warm-up and stats use the load connections themselves, so the load
    // never has more connections than clients.
    let mut clients: Vec<Option<Client>> = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(Some(
            connect(&addr).map_err(|e| format!("connecting: {e}"))?,
        ));
    }
    let mut errors: Vec<String> = Vec::new();
    for (client, list) in clients.iter_mut().zip(&lists) {
        for req in &list[..WARM_UP_REQUESTS] {
            report.attempted += 1;
            if let Err(e) = exchange(client, &addr, req) {
                report.failed += 1;
                errors.push(format!("warm-up: {e}"));
            }
        }
    }
    let stats_of = |client: &mut Option<Client>| {
        client
            .as_mut()
            .ok_or("stats: control connection lost".to_string())?
            .stats()
            .map_err(|e| format!("stats: {e}"))
    };
    let before = stats_of(&mut clients[0])?;

    let start = Instant::now() + Duration::from_millis(20);
    let end = start + ctx.seconds;
    let results: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(&lists)
            .enumerate()
            .map(|(c, (client, list))| {
                let addr = addr.as_str();
                let first_due = start + interval * c as u32 / CLIENTS as u32;
                s.spawn(move || {
                    let mut errors = Vec::new();
                    let samples = open_loop(
                        client,
                        addr,
                        &list[WARM_UP_REQUESTS..],
                        first_due,
                        interval,
                        end,
                        &mut errors,
                    );
                    (samples, errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let after = stats_of(&mut clients[0]);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    drop(clients);
    run.join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server: {e}"))?;
    let after = after?;
    report.peak_rss_mb = host::peak_rss_mb()?;

    let mut last_reply = start;
    let mut ok = 0u64;
    let (mut rtt_ms, mut late_ms) = (Vec::new(), Vec::new());
    for (c, (samples, errs)) in results.iter().enumerate() {
        errors.extend(errs.iter().cloned());
        for (k, s) in samples.iter().enumerate() {
            report.attempted += 1;
            if s.ok {
                ok += 1;
                report.op_ms.push(ms(s.reply - s.due));
            } else {
                report.failed += 1;
                report.op_ms.push(f64::INFINITY);
            }
            rtt_ms.push(ms(s.reply - s.send));
            late_ms.push(ms(s.send.saturating_duration_since(s.due)));
            last_reply = last_reply.max(s.reply);
            if let Some(t) = trace.as_mut() {
                let id = (k * CLIENTS + c) as u64;
                let lane = c as u32 + 1;
                let root = t.push("op", s.due, s.reply, None, id, lane);
                t.push("client.late", s.due, s.send, Some(root), id, lane);
                t.push("emg_server.rtt", s.send, s.reply, Some(root), id, lane);
            }
        }
    }
    if report.op_ms.is_empty() {
        return Err("no request was due within the run".into());
    }
    report.throughput_per_s = ok as f64 / (last_reply - start).as_secs_f64();

    let batches = after.batches.saturating_sub(before.batches);
    let flushes = (after.size_flushes + after.deadline_flushes)
        .saturating_sub(before.size_flushes + before.deadline_flushes);
    let pairs_per_launch =
        after.queries.saturating_sub(before.queries) as f64 / batches.max(1) as f64;
    let n = report.op_ms.len();
    report.notes.push(format!(
        "serve_mixed: {RATE_PER_S} req/s offered by {CLIENTS} clients, {PAIRS_PER_REQUEST} pairs per request, {n} timed requests"
    ));
    report.notes.push(format!(
        "op_ms p90 {:.4} ({} samples beyond), p99 {:.4} ({} samples beyond); generator lateness ms p50 {:.4} p90 {:.4} max {:.4}",
        stats::quantile(&report.op_ms, 0.9),
        stats::beyond(&report.op_ms, 0.9),
        stats::quantile(&report.op_ms, 0.99),
        stats::beyond(&report.op_ms, 0.99),
        stats::median(&late_ms),
        stats::quantile(&late_ms, 0.9),
        stats::quantile(&late_ms, 1.0),
    ));
    report.notes.push(format!(
        "server: {batches} launches over {flushes} flushes, {pairs_per_launch:.2} pairs per launch, {} deadline flushes, {} overloads, {} timeouts",
        after.deadline_flushes.saturating_sub(before.deadline_flushes),
        after.overloads.saturating_sub(before.overloads),
        after.timeouts.saturating_sub(before.timeouts),
    ));
    for e in errors.iter().take(5) {
        report.notes.push(format!("failed request: {e}"));
    }

    if let Some(mut t) = trace {
        let l = &mut report.layers;
        l.insert("emg_server.rtt_ms.p50".into(), stats::median(&rtt_ms));
        l.insert(
            "emg_server.late_ms.p90".into(),
            stats::quantile(&late_ms, 0.9),
        );
        l.insert("emg_server.pairs_per_launch".into(), pairs_per_launch);
        l.insert(
            "emg_server.deadline_flush_share".into(),
            after
                .deadline_flushes
                .saturating_sub(before.deadline_flushes) as f64
                / flushes.max(1) as f64,
        );
        l.insert("emg_server.failed".into(), report.failed as f64);

        for name in ["tree", "road"] {
            let path = dir.join(format!("{name}.emgbin"));
            let mut secs = Vec::new();
            for _ in 0..SNAPSHOT_LOAD_REPS {
                let t0 = Instant::now();
                let snapshot = Snapshot::load(name, &path, 1)
                    .map_err(|(code, msg)| format!("Snapshot::load: {code:?}: {msg}"))?;
                let t1 = Instant::now();
                drop(snapshot);
                t.push("emg_server.snapshot_load", t0, t1, None, 0, 0);
                secs.push((t1 - t0).as_secs_f64());
            }
            l.insert(
                format!("emg_server.snapshot_load_s.{name}"),
                stats::median(&secs),
            );
        }

        // One launch at the batch size the run observed.
        let batch = (pairs_per_launch.round() as usize).max(1);
        for kind in KINDS {
            let snapshot = catalog
                .get(graph_of(kind))
                .map_err(|(code, msg)| format!("catalog: {code:?}: {msg}"))?;
            let pairs: Vec<(u32, u32)> = lists
                .iter()
                .flatten()
                .filter(|r| r.kind == kind)
                .flat_map(|r| r.pairs.iter().copied())
                .take(batch)
                .collect();
            let mut out = vec![0u32; pairs.len()];
            let us = median_us(ANSWER_BATCH_REPS, || {
                snapshot.answer_batch(kind, &pairs, &mut out)
            });
            l.insert(
                format!("emg_server.answer_batch_us.{}", metric_suffix(kind)),
                us,
            );
        }

        // The wire cost of one request and its response, both directions.
        let req = &lists[0][0];
        let request = Request::Query {
            graph: graph_of(req.kind).to_string(),
            epoch: 0,
            kind: req.kind,
            pairs: req.pairs.clone(),
        };
        let response = Response::Answers {
            kind: req.kind,
            epoch: 1,
            answers: req.expected.clone(),
        };
        let mut sink = 0usize;
        let us = median_us(PROTOCOL_REPS, || {
            let q = Request::decode(&request.encode()).expect("request round-trips");
            let r = Response::decode(&response.encode()).expect("response round-trips");
            sink += usize::from(q == request) + usize::from(r == response);
        });
        if sink != 2 * PROTOCOL_REPS {
            return Err("protocol round-trip changed a message".into());
        }
        l.insert("emg_server.protocol_us".into(), us);
        report.trace = Some(t);
    }
    Ok(report)
}
