//! End-to-end tests for the `emg` subcommands: generate files, run every
//! command against them, and check the reports and round-trips.

use emg_cli::dispatch;
use std::path::PathBuf;

fn run(line: &str) -> Result<String, String> {
    dispatch(line.split_whitespace().map(String::from).collect())
}

/// Fresh temp file path (test-unique names, cleaned up by the OS).
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("emg_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Report lines with the trailing `in <duration>` stripped — timings vary
/// between runs, everything else must be reproducible.
fn strip_times(report: &str) -> Vec<String> {
    report
        .lines()
        .map(|l| l.split(" in ").next().unwrap_or(l).to_string())
        .collect()
}

#[test]
fn help_is_printed() {
    let out = run("--help").unwrap();
    assert!(out.contains("USAGE"));
    assert!(out.contains("bridges"));
    let out = dispatch(vec![]).unwrap();
    assert!(out.contains("USAGE"));
}

#[test]
fn unknown_subcommand_errors_with_usage() {
    let err = run("frobnicate x").unwrap_err();
    assert!(err.contains("unknown subcommand"));
    assert!(err.contains("USAGE"));
}

#[test]
fn gen_then_stats_then_bridges_agree() {
    let path = tmp("road.txt");
    let out = run(&format!(
        "gen road --width 20 --height 20 --keep 0.8 --seed 3 --out {}",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("wrote"));

    let stats = run(&format!("stats {} --lcc", path.display())).unwrap();
    assert!(stats.contains("bridges:"));
    assert!(stats.contains("diameter"));

    // All algorithms agree on the LCC (the `all` path cross-checks ids
    // internally and errors on any disagreement).
    let bridges = run(&format!("bridges {} --lcc --alg all", path.display())).unwrap();
    assert!(bridges.contains("dfs"));
    assert!(bridges.contains("hybrid"));
}

#[test]
fn forest_builds_and_validates_the_union_find_forest() {
    let path = tmp("forest_road.txt");
    run(&format!(
        "gen road --width 15 --height 15 --keep 0.8 --seed 11 --out {}",
        path.display()
    ))
    .unwrap();
    // A validated forest has exactly nodes - components tree edges.
    let out = run(&format!("forest {}", path.display())).unwrap();
    let field = |prefix: &str| -> usize {
        out.split(prefix)
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("no {prefix:?} in {out}"))
            .parse()
            .unwrap()
    };
    let (nodes, comps) = (field("graph: "), field("forest: "));
    assert!(
        out.contains(&format!("{} tree edges", nodes - comps)),
        "{out}"
    );
    // Restricted to the LCC, the forest is a single tree.
    let out = run(&format!("forest {} --lcc", path.display())).unwrap();
    assert!(out.contains("forest: 1 components"), "{out}");
}

#[test]
fn retired_forest_options_are_rejected() {
    // Scripts written for the removed backend selectors must fail loudly
    // rather than silently run union-find.
    let path = tmp("retired_forest.txt");
    run(&format!(
        "gen web --nodes 300 --edges 900 --seed 5 --out {}",
        path.display()
    ))
    .unwrap();
    let err = run(&format!("bridges {} --lcc --forest sv", path.display())).unwrap_err();
    assert_eq!(err, "unknown option --forest for emg bridges");
    let err = run(&format!("forest {} --backend all", path.display())).unwrap_err();
    assert_eq!(err, "unknown option --backend for emg forest");
}

#[test]
fn misspelled_options_are_rejected() {
    let path = tmp("misspelled.txt");
    run(&format!(
        "gen road --width 10 --height 10 --seed 2 --out {}",
        path.display()
    ))
    .unwrap();
    // `--algo` is not `--alg`: before option checking this ran tv.
    let err = run(&format!("bridges {} --lcc --algo ck", path.display())).unwrap_err();
    assert_eq!(err, "unknown option --algo for emg bridges");
    let err = run(&format!("forest {} --backnd sv", path.display())).unwrap_err();
    assert_eq!(err, "unknown option --backnd for emg forest");
    // `=` syntax and boolean flags are checked too, per subcommand.
    let err = run(&format!("stats {} --lcc --alg=tv", path.display())).unwrap_err();
    assert_eq!(err, "unknown option --alg for emg stats");
    let err = run(&format!(
        "gen tree --nodes 8 --lcc --out {}",
        path.display()
    ))
    .unwrap_err();
    assert_eq!(err, "unknown option --lcc for emg gen");
    // --help stays accepted everywhere.
    assert!(run("bcc --help").unwrap().contains("USAGE"));
}

#[test]
fn gen_tree_then_lca_checksums_match_across_algorithms() {
    let path = tmp("tree.txt");
    run(&format!(
        "gen tree --nodes 2000 --seed 9 --out {}",
        path.display()
    ))
    .unwrap();
    let mut checksums = Vec::new();
    for alg in [
        "seq",
        "gpu",
        "naive",
        "rmq",
        "sparse-rmq",
        "block-rmq",
        "gpu-rmq",
    ] {
        let out = run(&format!(
            "lca {} --alg {alg} --queries 500 --seed 11",
            path.display()
        ))
        .unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with("checksum:"))
            .unwrap()
            .to_string();
        checksums.push(line);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "checksums differ: {checksums:?}"
    );
}

#[test]
fn lca_rejects_non_tree() {
    for (name, text, want) in [
        (
            "cycle.txt",
            "0 1\n1 2\n2 0\n",
            "not a tree: 3 nodes need 2 edges",
        ),
        (
            "comments.txt",
            "# no edges\n",
            "not a tree: the file has no nodes",
        ),
    ] {
        let path = tmp(name);
        std::fs::write(&path, text).unwrap();
        let err = run(&format!("lca {}", path.display())).unwrap_err();
        assert!(err.contains(want), "{name}: {err}");
    }
}

#[test]
fn bcc_reports_components() {
    let path = tmp("barbell.txt");
    // Two triangles joined by a bridge.
    std::fs::write(&path, "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n").unwrap();
    let out = run(&format!("bcc {}", path.display())).unwrap();
    assert!(out.contains("biconnected components: 3"));
    assert!(out.contains("articulation points: 2"));
}

#[test]
fn convert_between_all_formats_preserves_graph() {
    let snap = tmp("conv.txt");
    run(&format!(
        "gen web --nodes 300 --edges 900 --seed 5 --out {}",
        snap.display()
    ))
    .unwrap();
    let gr = tmp("conv.gr");
    let metis = tmp("conv.graph");
    let back = tmp("conv_back.txt");
    run(&format!(
        "convert {} {} --to dimacs",
        snap.display(),
        gr.display()
    ))
    .unwrap();
    assert_eq!(
        run(&format!("detect {}", gr.display())).unwrap(),
        "dimacs\n"
    );
    run(&format!(
        "convert {} {} --to metis",
        gr.display(),
        metis.display()
    ))
    .unwrap();
    run(&format!(
        "convert {} {} --to snap",
        metis.display(),
        back.display()
    ))
    .unwrap();

    // Node/edge counts survive the round trip (METIS merges directions, so
    // compare canonical undirected simple forms via stats).
    let a = run(&format!("stats {} --lcc", snap.display())).unwrap();
    let b = run(&format!("stats {} --lcc", back.display())).unwrap();
    let pick = |s: &str, key: &str| -> String {
        s.lines().find(|l| l.starts_with(key)).unwrap().to_string()
    };
    assert_eq!(pick(&a, "lcc nodes"), pick(&b, "lcc nodes"));
    assert_eq!(pick(&a, "bridges"), pick(&b, "bridges"));
}

#[test]
fn convert_to_emgbin_round_trips_and_feeds_every_command() {
    let text = tmp("bin_src.txt");
    run(&format!(
        "gen web --nodes 400 --edges 1200 --seed 7 --out {}",
        text.display()
    ))
    .unwrap();

    // `--to` inferred from the .emgbin extension; --csr embeds the CSR.
    let bin = tmp("bin_src.emgbin");
    let out = run(&format!(
        "convert {} {} --csr",
        text.display(),
        bin.display()
    ))
    .unwrap();
    assert!(out.contains("emgbin"), "{out}");
    assert!(out.contains("CSR embedded"), "{out}");
    assert_eq!(
        run(&format!("detect {}", bin.display())).unwrap(),
        "emgbin\n"
    );
    assert_eq!(
        run(&format!("detect --input {}", bin.display())).unwrap(),
        "emgbin\n"
    );
    // --csr only makes sense for emgbin output; text targets reject it
    // instead of silently dropping the cached CSR.
    let err = run(&format!(
        "convert {} {} --to snap --csr",
        bin.display(),
        text.display()
    ))
    .unwrap_err();
    assert!(err.contains("--csr"), "{err}");

    // The binary cache and the text file must be indistinguishable to the
    // pipelines (timings stripped as elsewhere).
    let from_text = run(&format!("bridges {} --alg all", text.display())).unwrap();
    let from_bin = run(&format!("bridges {} --alg all", bin.display())).unwrap();
    assert_eq!(strip_times(&from_text), strip_times(&from_bin));
    let from_text = run(&format!("stats {}", text.display())).unwrap();
    let from_bin = run(&format!("stats {}", bin.display())).unwrap();
    assert_eq!(from_text, from_bin);

    // Back to text: converting the binary cache to SNAP produces exactly
    // the bytes converting the text source would (SNAP re-writing
    // normalizes ids, so compare converted-vs-converted).
    let back_from_bin = tmp("bin_back.txt");
    let back_from_text = tmp("text_back.txt");
    run(&format!(
        "convert {} {} --to snap",
        bin.display(),
        back_from_bin.display()
    ))
    .unwrap();
    run(&format!(
        "convert {} {} --to snap",
        text.display(),
        back_from_text.display()
    ))
    .unwrap();
    assert_eq!(
        std::fs::read_to_string(&back_from_text).unwrap(),
        std::fs::read_to_string(&back_from_bin).unwrap()
    );
}

#[test]
fn input_flag_is_an_alias_for_the_positional_file() {
    let path = tmp("input_flag.txt");
    run(&format!(
        "gen road --width 12 --height 12 --keep 0.9 --seed 4 --out {}",
        path.display()
    ))
    .unwrap();
    let positional = run(&format!("forest {}", path.display())).unwrap();
    let flagged = run(&format!("forest --input {}", path.display())).unwrap();
    assert_eq!(strip_times(&positional), strip_times(&flagged));

    let err = run(&format!(
        "forest {} --input {}",
        path.display(),
        path.display()
    ))
    .unwrap_err();
    assert!(err.contains("not both"), "{err}");
    let err = run("stats").unwrap_err();
    assert!(err.contains("--input"), "{err}");
}

#[test]
fn gen_writes_emgbin_directly() {
    let bin = tmp("gen_direct.emgbin");
    let out = run(&format!(
        "gen ba --nodes 300 --degree 3 --seed 6 --format emgbin --csr --out {}",
        bin.display()
    ))
    .unwrap();
    assert!(out.contains("emgbin"), "{out}");
    let stats = run(&format!("stats --input {}", bin.display())).unwrap();
    assert!(stats.contains("file nodes: 300"), "{stats}");
}

#[test]
fn gen_kron_and_ba_families_produce_graphs() {
    for (family, extra) in [
        ("kron", "--scale 8 --edge-factor 8"),
        ("ba", "--nodes 500 --degree 3"),
    ] {
        let path = tmp(&format!("{family}.txt"));
        let out = run(&format!(
            "gen {family} {extra} --seed 2 --out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("wrote"), "{family}: {out}");
        let stats = run(&format!("stats {}", path.display())).unwrap();
        assert!(stats.contains("file nodes"), "{family}");
    }
}

#[test]
fn gen_rejects_unknown_family_and_format() {
    let path = tmp("never.txt");
    assert!(run(&format!("gen nonsense --out {}", path.display()))
        .unwrap_err()
        .contains("unknown family"));
    assert!(run(&format!(
        "gen ba --nodes 10 --degree 2 --out {} --format xml",
        path.display()
    ))
    .unwrap_err()
    .contains("unknown format"));
    assert!(run(&format!(
        "gen ba --nodes 10 --degree 2 --out {} --csr",
        path.display()
    ))
    .unwrap_err()
    .contains("--csr only applies"));
}

#[test]
fn missing_files_error_cleanly() {
    assert!(run("bridges /nonexistent/graph.txt").is_err());
    assert!(run("stats /nonexistent/graph.txt").is_err());
    assert!(run("detect /nonexistent/graph.txt").is_err());
}
