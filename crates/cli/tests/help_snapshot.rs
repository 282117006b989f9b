//! Pins `emg --help` to the actual flag sets.
//!
//! The usage text once drifted from the implementations (`gen --csr`
//! existed but was undocumented), so this suite snapshots the full text
//! and cross-checks it against [`SUBCOMMANDS`], the option table
//! `dispatch` enforces. Editing a command without updating USAGE (or vice
//! versa) fails here, not in a user's terminal.

use emg_cli::{dispatch, SUBCOMMANDS, USAGE};

/// The expected `--help` text, byte for byte. Update deliberately, in the
/// same change that touches the flags.
const EXPECTED: &str = "\
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
  emg analyze <pipeline>|--all [--threads N] [--json] [--write-golden <dir>]
  emg serve   <catalog-dir> [--addr host:port|unix:/path] [--batch N] [--deadline-us U]
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

#[test]
fn usage_snapshot() {
    assert_eq!(
        USAGE, EXPECTED,
        "USAGE drifted from the pinned snapshot — if the change is \
         intentional, update EXPECTED in the same commit"
    );
}

#[test]
fn help_prints_the_usage_text() {
    let out = dispatch(vec!["--help".to_string()]).unwrap();
    assert_eq!(out.trim_end(), USAGE);
}

/// The slice of USAGE belonging to one subcommand.
fn usage_block(sub: &str) -> String {
    let start = USAGE
        .find(&format!("emg {sub}"))
        .unwrap_or_else(|| panic!("subcommand {sub} missing from USAGE"));
    let rest = &USAGE[start + 4..];
    // The block ends at the next "  emg " entry or the blank line before
    // the prose footer.
    let end = rest
        .find("\n  emg ")
        .or_else(|| rest.find("\n\n"))
        .unwrap_or(rest.len());
    rest[..end].to_string()
}

/// The prose after the last subcommand block, which documents the
/// `--input` / `--catalog` aliases shared by several subcommands.
fn usage_footer() -> &'static str {
    &USAGE[USAGE.rfind("\n\n").unwrap()..]
}

#[test]
fn every_subcommand_documents_its_flags() {
    for (sub, flags) in SUBCOMMANDS {
        let block = usage_block(sub);
        for flag in *flags {
            assert!(
                block.contains(flag) || usage_footer().contains(&format!("{flag} <")),
                "USAGE for `emg {sub}` does not document {flag}:\n{block}"
            );
        }
    }
}

#[test]
fn every_documented_subcommand_dispatches() {
    // A usage line for a subcommand dispatch() rejects would be its own
    // kind of drift. "unknown subcommand" is only acceptable for names
    // *not* in USAGE.
    for (sub, _) in SUBCOMMANDS {
        let err = dispatch(vec![sub.to_string(), "--bogus-option".into(), "x".into()])
            .err()
            .unwrap_or_default();
        assert!(
            !err.contains("unknown subcommand"),
            "USAGE documents `emg {sub}` but dispatch rejects it: {err}"
        );
    }
}

#[test]
fn gen_csr_flag_works_as_documented() {
    // The original drift: `gen --csr` existed but was undocumented. Pin
    // the behavior alongside the doc.
    let dir = std::env::temp_dir().join("emg_cli_help_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("csr_tree.emgbin");
    let out = dispatch(
        format!(
            "gen tree --nodes 64 --seed 5 --format emgbin --csr --out {}",
            path.display()
        )
        .split_whitespace()
        .map(String::from)
        .collect(),
    )
    .unwrap();
    assert!(out.contains("wrote 64 nodes"));
    // And the guard the flag documents: --csr without emgbin is an error.
    let err = dispatch(
        format!(
            "gen tree --nodes 8 --csr --out {}",
            dir.join("x.txt").display()
        )
        .split_whitespace()
        .map(String::from)
        .collect(),
    )
    .unwrap_err();
    assert!(err.contains("--csr"));
}
