//! `emgbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path emgbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run generates its inputs from
//! `--seed` with `graphgen`, checks every timed operation against a
//! sequential oracle computed off the clock, and prints, as the last line
//! of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics of `BENCHMARK.json`; `--trace 1` is a separate run that reports
//! the per-layer metrics and writes its spans to `emgbench/out/`. See
//! `emgbench/README.md` for the workloads and the metrics.

mod host;
mod offline;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["lca_batch", "bridges_road", "bridges_kron", "serve_mixed"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The device spans whose counter deltas are reported per layer.
const DEVICE_SPANS: [&str; 4] = [
    "graph_core.csr",
    "bridges.tv",
    "lca.preprocess",
    "lca.query",
];

/// Device counters reported per span, with their units.
pub const DEVICE_COUNTERS: [(&str, &str); 6] = [
    ("launches", "count"),
    ("work_items", "count"),
    ("bytes_read", "bytes"),
    ("bytes_written", "bytes"),
    ("arena_fresh_bytes", "bytes"),
    ("arena_reuse_share", "share"),
];

/// Per-layer metrics `(name, unit)` other than the device counters,
/// reported by every traced run. A layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 21] = [
    ("graph_io.read_ms", "ms"),
    ("graph_core.csr_ms", "ms"),
    ("bridges.spanning_tree_ms", "ms"),
    ("bridges.euler_tour_ms", "ms"),
    ("bridges.detect_ms", "ms"),
    ("euler_tour.build_ms", "ms"),
    ("euler_tour.stats_ms", "ms"),
    ("lca.tables_ms", "ms"),
    ("lca.query_ms", "ms"),
    ("emg_server.snapshot_load_s.tree", "s"),
    ("emg_server.snapshot_load_s.road", "s"),
    ("emg_server.rtt_ms.p50", "ms"),
    ("emg_server.late_ms.p90", "ms"),
    ("emg_server.answer_batch_us.lca", "us"),
    ("emg_server.answer_batch_us.subtree", "us"),
    ("emg_server.answer_batch_us.conn", "us"),
    ("emg_server.answer_batch_us.bridge", "us"),
    ("emg_server.protocol_us", "us"),
    ("emg_server.pairs_per_launch", "count"),
    ("emg_server.deadline_flush_share", "share"),
    ("emg_server.failed", "count"),
];

/// What one workload hands back to `run`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations checked (offline pipeline calls or served requests),
    /// warm-ups included.
    pub attempted: u64,
    /// Timed operations that answered wrongly, were refused, timed out or
    /// errored.
    pub failed: u64,
    /// Duration of each repeated setup, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation in ms; `INFINITY` for a failed one.
    pub op_ms: Vec<f64>,
    /// Work completed per second over all timed operations.
    pub throughput_per_s: f64,
    /// Process high-water mark after fixture generation, in MiB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// The run's spans (traced runs only).
    pub trace: Option<trace::Trace>,
    /// Human-readable diagnostics, printed before the result line.
    pub notes: Vec<String>,
}

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for the run's fixture files (removed at exit).
    pub work_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse().map_err(bad)?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (expected one of {})",
                WORKLOADS.join(", ")
            ));
        }
        let trace = match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        };
        let seconds = seconds.unwrap_or(10);
        if seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace,
        })
    }
}

/// Removes the run's fixture directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("emgbench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    host::refuse_knobs()?;
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    if !root.join("crates").is_dir() {
        return Err("run from the repository root (no crates/ directory here)".into());
    }
    let out_dir = root.join("emgbench").join("out");
    let work_dir = WorkDir(out_dir.join(format!("work-{}-{}", args.workload, std::process::id())));
    std::fs::create_dir_all(&work_dir.0).map_err(|e| format!("creating work dir: {e}"))?;

    let stamp = host::Stamp::collect(&root);
    println!(
        "# emgbench workload={} seed={} seconds={} trace={} commit={} source={} nproc={} pool_width={} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stamp.commit,
        stamp.source_digest,
        stamp.nproc,
        stamp.pool_width,
        stamp.rustc,
    );

    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work_dir: work_dir.0.clone(),
    };
    let cpu_before = host::CpuTimes::now();
    let report = match args.workload.as_str() {
        "lca_batch" => offline::lca_batch(&ctx)?,
        "bridges_road" => offline::bridges(&ctx, offline::Graph::Road)?,
        "bridges_kron" => offline::bridges(&ctx, offline::Graph::Kron)?,
        "serve_mixed" => serve::serve_mixed(&ctx)?,
        other => unreachable!("validated workload {other}"),
    };
    let steal = host::CpuTimes::now().steal_share_since(&cpu_before);
    drop(work_dir);

    for note in &report.notes {
        println!("# {note}");
    }
    let setups: Vec<String> = report.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("# setup_s samples: {}", setups.join(" "));
    let p50 = stats::median(&report.op_ms);
    println!(
        "# ops={} failed={} op_ms.p50={p50:.4} setups={} host_steal_share={steal:.4}",
        report.attempted,
        report.failed,
        report.setup_s.len(),
    );

    let summary = out_dir.join(format!("untraced-{}.txt", args.workload));
    let metrics = if args.trace {
        if let Some(t) = &report.trace {
            write_trace_report(&out_dir, &args, t, p50, &summary)?;
        }
        per_layer_metrics(&report)
    } else {
        let _ = std::fs::write(&summary, format!("{} {p50}\n", args.seed));
        end_to_end_metrics(&report)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics
    );
    Ok(())
}

/// Formats a measured value with all its digits; a latency that failed
/// (infinite) is written as a huge number, so it still parses.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        num(value)
    )
}

fn end_to_end_metrics(r: &Report) -> String {
    let values = [
        stats::median(&r.setup_s),
        stats::median(&r.op_ms),
        r.throughput_per_s,
        r.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric_json(name, v, unit))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every per-layer metric name with its unit, device counters included.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for span in DEVICE_SPANS {
        for (counter, unit) in DEVICE_COUNTERS {
            names.push((format!("{span}.{counter}"), unit));
        }
    }
    names
}

fn per_layer_metrics(r: &Report) -> String {
    per_layer_names()
        .iter()
        .map(|(name, unit)| metric_json(name, r.layers.get(name).copied().unwrap_or(0.0), unit))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Writes the Chrome trace and prints the self-time table, the share of
/// the untraced op median the layers account for, and the tracing
/// overhead.
fn write_trace_report(
    out_dir: &Path,
    args: &Args,
    t: &trace::Trace,
    traced_p50: f64,
    summary: &Path,
) -> Result<(), String> {
    let name = format!("trace-{}-{}.json", args.workload, args.seed);
    std::fs::write(out_dir.join(&name), t.chrome_json())
        .map_err(|e| format!("writing trace: {e}"))?;

    // Self time per span name; spans under an "op" root also count toward
    // that op's layer time and their share of all op time.
    let spans = t.spans();
    let own: Vec<f64> = t
        .self_times()
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let mut rows: BTreeMap<&str, (usize, f64, bool)> = BTreeMap::new();
    let mut layer_ms_per_op: BTreeMap<usize, f64> = BTreeMap::new();
    let mut op_ms_total = 0.0;
    for (i, s) in spans.iter().enumerate() {
        let root = t.root_of(i);
        let in_op = spans[root].name == "op";
        let row = rows.entry(&s.name).or_insert((0, 0.0, in_op));
        row.0 += 1;
        row.1 += own[i];
        if in_op && s.parent.is_some() {
            *layer_ms_per_op.entry(root).or_default() += own[i];
        }
        if in_op && s.parent.is_none() {
            op_ms_total += (s.end - s.start).as_secs_f64() * 1e3;
        }
    }
    println!("# self-time table (ms):");
    println!(
        "#   {:<34} {:>7} {:>12} {:>10} {:>9}",
        "span", "count", "self_total", "self_mean", "op_share"
    );
    for (name, (count, total, in_op)) in &rows {
        let share = if *in_op && op_ms_total > 0.0 {
            format!("{:.1}%", 100.0 * total / op_ms_total)
        } else {
            "-".to_string()
        };
        let mean = total / *count as f64;
        println!("#   {name:<34} {count:>7} {total:>12.3} {mean:>10.3} {share:>9}");
    }

    if !layer_ms_per_op.is_empty() {
        let layer_ms: Vec<f64> = layer_ms_per_op.into_values().collect();
        let layer_p50 = stats::median(&layer_ms);
        print!(
            "# layers' self time per op: p50 {layer_p50:.3} ms = {:.1}% of traced op_ms.p50 {traced_p50:.3}",
            100.0 * layer_p50 / traced_p50
        );
        match std::fs::read_to_string(summary)
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        {
            Some(untraced) => println!(
                "; {:.1}% of untraced op_ms.p50 {untraced:.3}; tracing overhead (traced - untraced p50) {:+.3} ms",
                100.0 * layer_p50 / untraced,
                traced_p50 - untraced
            ),
            None => println!("; no untraced run of this workload found to compare with"),
        }
    }
    println!("# trace written to emgbench/out/{name}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this binary must agree on every name.
    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let mut expected: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(per_layer_names().into_iter().map(|(n, _)| n));
        for name in &expected {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        assert_eq!(json.matches("\"name\":").count(), expected.len());
    }

    #[test]
    fn args_reject_unknown_workloads_and_trace_values() {
        let parse = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "lca_batch", "--trace", "2"]).is_err());
        let a = parse(&["--workload", "serve_mixed", "--seed", "7", "--trace", "1"]).unwrap();
        assert!(a.trace && a.seed == 7 && a.seconds == 10);
    }
}
