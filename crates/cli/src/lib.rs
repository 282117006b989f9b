//! # emg-cli — command-line frontend for the euler-meets-gpu workspace
//!
//! One binary, `emg`, exposing the library over graph files in the formats
//! the paper's datasets ship in (auto-detected DIMACS/SNAP/METIS, plus the
//! `emgbin` binary cache):
//!
//! ```text
//! emg bridges <file> [--alg dfs|tv|ck|ck-cpu|hybrid|all] [--lcc] [--list]
//! emg forest  <file> [--lcc]
//! emg bcc     <file> [--lcc]
//! emg lca     <tree-file> [--alg seq|par|gpu|naive|rmq|sparse-rmq|block-rmq|gpu-rmq]
//!                         [--queries N] [--seed S] [--root R]
//! emg stats   <file> [--lcc]
//! emg gen     <kron|road|web|ba|tree> --out <file> [--format snap|dimacs|metis|emgbin]
//!                                     [--seed S] [--csr] [params]
//! emg convert <in> <out> [--to snap|dimacs|metis|emgbin] [--csr]
//! emg detect  <file>
//! emg analyze <pipeline>|--all [--json] [--write-golden <dir>]
//! emg serve   <catalog-dir> [--addr host:port|unix:/path] [--batch N]
//! emg client  <list|info|stats|reload|shutdown|query> [--addr host:port|unix:/path]
//!             [--graph G] [--kind lca|conn|bridge|subtree] [--epoch E]
//!             [--pairs u:v,...] [--queries N] [--seed S]
//!             [--retries N] [--timeout-ms T]
//! ```
//!
//! Every `<file>` may instead be given as `--input <file>`, and may be a
//! text format or an `emgbin` cache (detected by magic). Each subcommand
//! accepts exactly the options listed for it in [`SUBCOMMANDS`]; anything
//! else is an error, never silently ignored.
//!
//! The command implementations live in [`commands`] and return their
//! reports as strings, so the test suite drives them directly.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod args;
pub mod commands;

pub use args::Args;

/// Usage text printed on `--help` or errors.
pub const USAGE: &str = "\
emg — Euler-meets-GPU command line

USAGE:
  emg bridges <file> [--alg dfs|tv|ck|ck-cpu|hybrid|all] [--lcc] [--list]
  emg forest  <file> [--lcc]
  emg bcc     <file> [--lcc]
  emg lca     <tree-file> [--alg seq|par|gpu|naive|rmq|sparse-rmq|block-rmq|gpu-rmq]
                          [--queries N] [--seed S] [--root R]
  emg stats   <file> [--lcc]
  emg gen     <kron|road|web|ba|tree> --out <file> [--format snap|dimacs|metis|emgbin]
                                      [--seed S] [--csr] [params]
              params: kron [--scale S] [--edge-factor F]
                      road [--width W] [--height H] [--keep P]
                      web  [--nodes N] [--edges M] [--leaf-prob P]
                      ba   [--nodes N] [--degree D]
                      tree [--nodes N] [--grasp G]
  emg convert <in> <out> [--to snap|dimacs|metis|emgbin] [--csr]
  emg detect  <file>
  emg analyze <pipeline>|--all [--json] [--write-golden <dir>]
  emg serve   <catalog-dir> [--addr host:port|unix:/path] [--batch N]
  emg client  <list|info|stats|reload|shutdown|query> [--addr host:port|unix:/path]
              [--graph G] [--kind lca|conn|bridge|subtree] [--epoch E]
              [--pairs u:v,...] [--queries N] [--seed S]
              [--retries N] [--timeout-ms T]

Graph files are auto-detected DIMACS (.gr / p edge), SNAP edge lists,
METIS adjacency, or the emgbin binary cache (write one with `emg convert
graph.txt graph.emgbin`; add --csr to embed the CSR adjacency). <file>
may also be passed as --input <file>, <catalog-dir> as --catalog <dir>.
--lcc restricts to the largest connected component (the paper's
preprocessing). `emg serve` answers batched lca/conn/bridge/subtree
queries over a catalog of emgbin files (protocol in DESIGN.md §12);
`emg client` is its command-line peer.";

/// Every subcommand with the options its implementation reads. [`dispatch`]
/// rejects any other option, so a misspelled or retired flag fails instead
/// of silently running the defaults; every entry is documented in
/// [`USAGE`] (`--help` is accepted everywhere).
pub const SUBCOMMANDS: &[(&str, &[&str])] = &[
    ("bridges", &["--input", "--alg", "--lcc", "--list"]),
    ("forest", &["--input", "--lcc"]),
    ("bcc", &["--input", "--lcc"]),
    (
        "lca",
        &["--input", "--alg", "--queries", "--seed", "--root"],
    ),
    ("stats", &["--input", "--lcc"]),
    (
        "gen",
        &[
            "--out",
            "--format",
            "--seed",
            "--csr",
            "--scale",
            "--edge-factor",
            "--width",
            "--height",
            "--keep",
            "--nodes",
            "--edges",
            "--leaf-prob",
            "--degree",
            "--grasp",
        ],
    ),
    ("convert", &["--to", "--csr"]),
    ("detect", &["--input"]),
    ("analyze", &["--all", "--json", "--write-golden"]),
    ("serve", &["--catalog", "--addr", "--batch"]),
    (
        "client",
        &[
            "--addr",
            "--graph",
            "--kind",
            "--epoch",
            "--pairs",
            "--queries",
            "--seed",
            "--retries",
            "--timeout-ms",
        ],
    ),
];

/// Dispatches a full command line (without the program name).
///
/// # Errors
/// Returns the error/usage message to print to stderr.
pub fn dispatch(mut argv: Vec<String>) -> Result<String, String> {
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        return Ok(format!("{USAGE}\n"));
    }
    let sub = argv.remove(0);
    let args = Args::parse(argv)?;
    if args.flag("help") {
        return Ok(format!("{USAGE}\n"));
    }
    if let Some((_, accepted)) = SUBCOMMANDS.iter().find(|(name, _)| *name == sub) {
        if let Some(name) = args
            .option_names()
            .find(|name| !accepted.contains(&format!("--{name}").as_str()))
        {
            return Err(format!("unknown option --{name} for emg {sub}"));
        }
    }
    match sub.as_str() {
        "bridges" => commands::cmd_bridges(&args),
        "forest" => commands::cmd_forest(&args),
        "bcc" => commands::cmd_bcc(&args),
        "lca" => commands::cmd_lca(&args),
        "stats" => commands::cmd_stats(&args),
        "gen" => commands::cmd_gen(&args),
        "convert" => commands::cmd_convert(&args),
        "detect" => commands::cmd_detect(&args),
        "analyze" => analyze::cmd_analyze(&args),
        "serve" => commands::cmd_serve(&args),
        "client" => commands::cmd_client(&args),
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    }
}
