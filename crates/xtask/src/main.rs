//! CLI entry point: `cargo run -p xtask -- lint`.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        other => {
            eprintln!(
                "usage: cargo run -p xtask -- lint\n       (got: {:?})",
                other
            );
            ExitCode::from(2)
        }
    }
}

/// crates/xtask/ -> workspace root.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn lint() -> ExitCode {
    let findings = xtask::lint_workspace(&workspace_root());
    if findings.is_empty() {
        println!("xtask lint: clean ({} rules)", 10);
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("xtask lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}
