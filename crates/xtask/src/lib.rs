//! # xtask — workspace hygiene tasks
//!
//! `cargo run -p xtask -- lint` runs the **unsafe-usage gate**: a
//! text-level pass over the workspace sources (no parser, no external
//! dependencies) that pins down where `unsafe` is allowed to live and what
//! paperwork it requires. The rules, mirroring DESIGN.md §9:
//!
//! 1. every non-`gpu-sim` crate root carries `#![deny(unsafe_code)]`;
//! 2. `gpu-sim`'s root carries `#![deny(unsafe_op_in_unsafe_fn)]`;
//! 3. the `unsafe` keyword appears **only** inside `gpu-sim` (the device
//!    access layer) — algorithm crates must use the safe tracked views;
//! 4. every `unsafe` inside `gpu-sim` carries a `SAFETY:` (or doc
//!    `# Safety`) justification in the contiguous comment run above it;
//! 5. `allow(unsafe_code)` never appears — the denies cannot be waived;
//! 6. raw-pointer idioms (`slice::from_raw_parts`, `from_raw_parts_mut`,
//!    `as *mut`, `as *const`, `.offset(`) stay inside `gpu-sim` too, so a
//!    crate cannot smuggle pointer arithmetic past rule 3 behind a macro.
//!
//! Two further rules keep the **launch-graph capture plane** honest
//! (DESIGN.md §11):
//!
//! 7. in algorithm crates (`src/` only, not `gpu-sim`), every launch
//!    through a bare `Device` entry point (`device.for_each(`,
//!    `device.map(`, `device.alloc_map(`, `device.alloc_pooled_map(`,
//!    `device.segmented_sort(` — the launchers with no built-in scope
//!    label) must follow a `kernel_label(` opened after the enclosing
//!    function's previous such launch, so each launch site carries its
//!    own label and captured graphs never show anonymous `kernel#N` nodes;
//! 8. empty justification literals — `kernel_label("")` and `.benign("")`
//!    — are rejected everywhere: a whitelist entry or label that says
//!    nothing documents nothing.
//!
//! One rule keeps the **documentation plane** honest:
//!
//! 9. every `EMG_*` knob registered in `gpu-sim/src/env.rs` (a
//!    `pub const NAME: &str = "EMG_...";` item) must appear, backticked,
//!    in the README's consolidated env-var table (the region between the
//!    `<!-- env-table:begin -->` / `<!-- env-table:end -->` markers), and
//!    every backticked `EMG_*` name in that table must be registered; and
//!    every `DESIGN.md §N` reference in workspace `.rs` files must point
//!    at an existing `## N.` section of `DESIGN.md` — docs that name a
//!    knob or section that does not exist are worse than no docs.
//!
//! One rule keeps the **launch seam** the only path to the planes
//! (DESIGN.md §1):
//!
//! 10. in `gpu-sim/src`, `record_launch(` is called only from the launch
//!     guard in `device.rs` (`Device::launch` and the `LaunchGuard`
//!     impls) and inside `metrics.rs`, and the planes' launch hooks
//!     (`begin_launch(`, `end_launch(`, `on_launch(`) only from that
//!     guard and from the planes' own modules — so a primitive cannot
//!     count a launch that skips the fault, capture or sanitizer plane.
//!
//! `vendor/` (offline stand-ins), `target/`, and any path containing
//! `fixtures` are exempt. The `xtask` crate itself is exempt from the
//! content rules (its source must name the patterns it hunts) but not from
//! rule 1 — the compiler still enforces `#![deny(unsafe_code)]` here.

#![deny(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug)]
pub struct Finding {
    /// File the violation is in, relative to the linted root when possible.
    pub path: PathBuf,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Short rule identifier.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Raw-pointer idioms that must not appear outside the access layer.
const RAW_PTR_PATTERNS: &[&str] = &[
    "slice::from_raw_parts",
    "from_raw_parts_mut",
    "as *mut",
    "as *const",
    ".offset(",
];

/// Bare `Device` launch entry points — the launchers with no built-in
/// scope label, whose launches show up as anonymous `kernel#N` nodes in
/// captured graphs unless the enclosing function opens a `kernel_label`.
const LAUNCH_PATTERNS: &[&str] = &[
    "device.for_each(",
    "device.map(",
    "device.alloc_map(",
    "device.alloc_pooled_map(",
    "device.segmented_sort(",
];

/// Empty justification literals: a label or whitelist reason that says
/// nothing documents nothing.
const EMPTY_JUSTIFICATION_PATTERNS: &[&str] = &["kernel_label(\"\")", ".benign(\"\")"];

/// Launch accounting and the planes' launch hooks, each with the
/// `gpu-sim/src` modules that own it (rule 10); anywhere else they may be
/// called only from the launch guard in `device.rs`.
const SEAM_HOOKS: &[(&str, &[&str])] = &[
    ("record_launch(", &["metrics.rs"]),
    ("begin_launch(", &["sanitize.rs", "launch_graph.rs"]),
    ("end_launch(", &["sanitize.rs", "launch_graph.rs"]),
    ("on_launch(", &["fault.rs"]),
];

/// Start marker of the README's consolidated env-var table (rule 9).
pub const ENV_TABLE_BEGIN: &str = "<!-- env-table:begin -->";
/// End marker of the README's consolidated env-var table (rule 9).
pub const ENV_TABLE_END: &str = "<!-- env-table:end -->";

/// The `DESIGN.md §N` reference pattern rule 9 resolves.
const DESIGN_REF: &str = "DESIGN.md \u{a7}";

/// Runs the full unsafe-usage gate over a workspace rooted at `root`.
/// Returns every violation found (empty = clean).
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let sections = design_sections(root);
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match fs::read_dir(&crates_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(e) => {
            findings.push(Finding {
                path: crates_dir.clone(),
                line: 0,
                rule: "structure",
                message: format!("cannot read crates directory: {e}"),
            });
            return findings;
        }
    };
    crate_dirs.sort();

    for dir in &crate_dirs {
        let name = dir.file_name().unwrap_or_default().to_string_lossy();
        let is_gpu_sim = name == "gpu-sim";
        let is_xtask = name == "xtask";

        // Rule 1 / 2: the crate-root attributes.
        let lib = dir.join("src/lib.rs");
        if let Ok(text) = fs::read_to_string(&lib) {
            if is_gpu_sim {
                if !text.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
                    findings.push(finding_at(
                        root,
                        &lib,
                        0,
                        "root-attr",
                        "gpu-sim must carry #![deny(unsafe_op_in_unsafe_fn)] at the crate root"
                            .into(),
                    ));
                }
            } else if !text.contains("#![deny(unsafe_code)]") {
                findings.push(finding_at(
                    root,
                    &lib,
                    0,
                    "root-attr",
                    format!("crate `{name}` must carry #![deny(unsafe_code)] at the crate root"),
                ));
            }
        }

        if is_xtask {
            continue; // content rules: see module docs.
        }
        for file in rust_files(dir) {
            lint_file(root, &file, is_gpu_sim, &sections, &mut findings);
        }
    }

    // The facade package's own sources and integration tests.
    for top in ["src", "tests", "benches", "examples"] {
        let d = root.join(top);
        if d.is_dir() {
            for file in rust_files(&d) {
                lint_file(root, &file, false, &sections, &mut findings);
            }
        }
    }

    // Rule 9a: the env-knob registry vs the README table.
    lint_env_table(root, &mut findings);

    findings
}

/// The set of `## N.` section numbers DESIGN.md actually has, or `None`
/// when there is no DESIGN.md (synthetic test workspaces).
fn design_sections(root: &Path) -> Option<std::collections::BTreeSet<u32>> {
    let text = fs::read_to_string(root.join("DESIGN.md")).ok()?;
    let mut sections = std::collections::BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("## ") {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if !digits.is_empty() && rest[digits.len()..].starts_with('.') {
                if let Ok(n) = digits.parse() {
                    sections.insert(n);
                }
            }
        }
    }
    Some(sections)
}

/// Rule 9b: every `DESIGN.md §N` reference must resolve to an existing
/// `## N.` section. Sub-section references (`§12.4`) resolve by their
/// major number — sub-headings are `### N.M` and move too often to pin.
fn lint_design_refs(
    root: &Path,
    file: &Path,
    lines: &[&str],
    sections: &Option<std::collections::BTreeSet<u32>>,
    findings: &mut Vec<Finding>,
) {
    for (i, raw) in lines.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = raw[from..].find(DESIGN_REF) {
            let start = from + pos + DESIGN_REF.len();
            let digits: String = raw[start..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            // `start` and the ASCII digits keep this a char boundary even
            // when no digits follow the section sign.
            from = start + digits.len();
            let Ok(n) = digits.parse::<u32>() else {
                continue;
            };
            let resolves = match sections {
                Some(s) => s.contains(&n),
                None => false,
            };
            if !resolves {
                findings.push(finding_at(
                    root,
                    file,
                    i + 1,
                    "dangling-design-ref",
                    format!(
                        "reference to DESIGN.md \u{a7}{n} but DESIGN.md has no `## {n}.` section"
                    ),
                ));
            }
        }
    }
}

/// Rule 9a: every `pub const NAME: &str = "EMG_...";` knob in the gpu-sim
/// env registry must appear (backticked) in the README's env-var table,
/// delimited by [`ENV_TABLE_BEGIN`] / [`ENV_TABLE_END`], and every
/// backticked `EMG_*` name in that table must be registered, so a retired
/// knob's row cannot outlive it.
fn lint_env_table(root: &Path, findings: &mut Vec<Finding>) {
    let env_rs = root.join("crates/gpu-sim/src/env.rs");
    let Ok(text) = fs::read_to_string(&env_rs) else {
        return; // synthetic workspaces without an env registry
    };
    let mut knobs: Vec<(usize, String)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let code = code_part(line).trim_start();
        let Some(rest) = code.strip_prefix("pub const ") else {
            continue;
        };
        if !rest.contains(": &str") {
            continue;
        }
        let Some(open) = rest.find('"') else { continue };
        let Some(len) = rest[open + 1..].find('"') else {
            continue;
        };
        let name = &rest[open + 1..open + 1 + len];
        if name.starts_with("EMG_") {
            knobs.push((i + 1, name.to_string()));
        }
    }
    if knobs.is_empty() {
        return;
    }
    let readme = root.join("README.md");
    let readme_text = fs::read_to_string(&readme).unwrap_or_default();
    let (begin, table) = match (
        readme_text.find(ENV_TABLE_BEGIN),
        readme_text.find(ENV_TABLE_END),
    ) {
        (Some(b), Some(e)) if b < e => (b, &readme_text[b..e]),
        _ => {
            findings.push(finding_at(
                root,
                &readme,
                0,
                "env-table",
                format!(
                    "README.md must carry a `{ENV_TABLE_BEGIN}` .. `{ENV_TABLE_END}` region \
                     documenting every EMG_* knob in gpu-sim's env registry"
                ),
            ));
            return;
        }
    };
    for (line, knob) in &knobs {
        if !table.contains(&format!("`{knob}`")) {
            findings.push(finding_at(
                root,
                &env_rs,
                *line,
                "env-table",
                format!(
                    "`{knob}` is registered in gpu-sim::env but missing from the README \
                     env-var table (between the env-table markers)"
                ),
            ));
        }
    }
    let begin_line = readme_text[..begin].matches('\n').count() + 1;
    for (i, row) in table.lines().enumerate() {
        // Odd-numbered pieces of a backtick split are the quoted spans.
        for quoted in row.split('`').skip(1).step_by(2) {
            let name: String = quoted
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            if name.starts_with("EMG_") && !knobs.iter().any(|(_, knob)| *knob == name) {
                findings.push(finding_at(
                    root,
                    &readme,
                    begin_line + i,
                    "env-table",
                    format!(
                        "`{name}` is in the README env-var table but not registered in \
                         gpu-sim::env (a retired knob's row?)"
                    ),
                ));
            }
        }
    }
}

fn finding_at(
    root: &Path,
    file: &Path,
    line: usize,
    rule: &'static str,
    message: String,
) -> Finding {
    Finding {
        path: file.strip_prefix(root).unwrap_or(file).to_path_buf(),
        line,
        rule,
        message,
    }
}

/// Recursively collects `.rs` files, skipping exempt directories.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = fs::read_dir(&d) else { continue };
        for entry in rd.filter_map(|e| e.ok()) {
            let p = entry.path();
            let fname = p
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .to_string();
            if p.is_dir() {
                if fname == "target" || fname == "vendor" || fname.contains("fixtures") {
                    continue;
                }
                stack.push(p);
            } else if fname.ends_with(".rs") && !p.to_string_lossy().contains("fixtures") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Whether `line` contains `unsafe` as a standalone keyword (not as part of
/// a longer identifier like `unsafe_op_in_unsafe_fn`).
fn has_unsafe_keyword(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("unsafe") {
        let start = from + pos;
        let end = start + "unsafe".len();
        let before_ok = start == 0 || !is_word_byte(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_word_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_comment_line(trimmed: &str) -> bool {
    trimmed.starts_with("//")
}

fn is_attr_line(trimmed: &str) -> bool {
    trimmed.starts_with("#[") || trimmed.starts_with("#![")
}

/// Whether the contiguous run of comment/attribute lines directly above
/// `idx` (or the line itself) contains a safety justification.
fn has_safety_comment(lines: &[&str], idx: usize) -> bool {
    let mentions = |s: &str| s.contains("SAFETY") || s.contains("# Safety");
    if mentions(lines[idx]) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if is_comment_line(t) {
            if mentions(t) {
                return true;
            }
        } else if !is_attr_line(t) && !is_continuation_line(t) {
            break;
        }
    }
    false
}

/// Whether a rustfmt-wrapped statement continues past this line — the
/// `unsafe` of `let x =\n    unsafe { … }` sits below its SAFETY comment,
/// so the upward walk must pass through the `let x =` line.
fn is_continuation_line(trimmed: &str) -> bool {
    let code = code_part(trimmed).trim_end();
    code.ends_with('=') || code.ends_with('(') || code.ends_with(',') || code.ends_with("=>")
}

/// Strips a trailing `//` line comment. Naive about `//` inside string
/// literals — acceptable for a text-level gate (the compiler-enforced
/// `#![deny(unsafe_code)]` is the ground truth; this pass is the early,
/// readable report).
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Whether a line opens a function item (where the unlabeled-launch rule
/// forgets any label opened before it).
fn is_fn_line(raw: &str) -> bool {
    let t = code_part(raw).trim_start();
    t.starts_with("fn ")
        || t.starts_with("async fn ")
        || t.starts_with("const fn ")
        || (t.starts_with("pub") && t.contains("fn "))
}

/// Rule 7: in algorithm-crate `src/` files, every bare launch site needs a
/// `kernel_label` opened after the enclosing function's previous bare
/// launch (or after its start, for the first), so no two sites share one
/// label and no site goes without.
fn lint_launch_labels(root: &Path, file: &Path, lines: &[&str], findings: &mut Vec<Finding>) {
    let mut label_open = false;
    for (i, raw) in lines.iter().enumerate() {
        let code = code_part(raw);
        if is_fn_line(raw) {
            label_open = false;
        }
        if code.contains("kernel_label(") {
            label_open = true;
        }
        let Some(pat) = LAUNCH_PATTERNS.iter().find(|p| code.contains(*p)) else {
            continue;
        };
        if !label_open {
            findings.push(finding_at(
                root,
                file,
                i + 1,
                "unlabeled-launch",
                format!(
                    "`{pat}` launches without a `kernel_label` opened since the \
                     function's previous launch; the captured graph would show an \
                     anonymous kernel#N node"
                ),
            ));
        }
        label_open = false;
    }
}

/// Rule 10: a launch hook outside its owning module must sit in the launch
/// guard — in `device.rs`, inside `fn launch(` or an `impl` of
/// `LaunchGuard`. Items are tracked at the text level: a line at column 0
/// opens a top-level item, an `fn` line opens a function.
fn lint_launch_seam(root: &Path, file: &Path, lines: &[&str], findings: &mut Vec<Finding>) {
    let name = file.file_name().unwrap_or_default().to_string_lossy();
    let is_device = name == "device.rs";
    let (mut guard_impl, mut launch_fn) = (false, false);
    for (i, raw) in lines.iter().enumerate() {
        let code = code_part(raw);
        if is_comment_line(raw.trim_start()) || code.trim().is_empty() {
            continue;
        }
        if !raw.starts_with(char::is_whitespace) && !code.starts_with(['}', '#']) {
            let words: Vec<&str> = code.split_whitespace().collect();
            guard_impl = words.iter().any(|w| *w == "impl" || w.starts_with("impl<"))
                && code.contains("LaunchGuard");
            launch_fn = false;
        }
        if is_fn_line(raw) {
            launch_fn = code.contains("fn launch(");
        }
        for (hook, owners) in SEAM_HOOKS {
            let owned = owners.contains(&name.as_ref()) || (is_device && (guard_impl || launch_fn));
            if code.contains(hook) && !owned {
                findings.push(finding_at(
                    root,
                    file,
                    i + 1,
                    "launch-seam",
                    format!(
                        "`{hook}` outside the launch guard: open the launch with \
                         `Device::launch` so every plane sees it"
                    ),
                ));
            }
        }
    }
}

fn lint_file(
    root: &Path,
    file: &Path,
    is_gpu_sim: bool,
    sections: &Option<std::collections::BTreeSet<u32>>,
    findings: &mut Vec<Finding>,
) {
    let Ok(text) = fs::read_to_string(file) else {
        return;
    };
    let lines: Vec<&str> = text.lines().collect();
    // Rule 7 covers shipped pipeline code only: `src/` of the algorithm
    // crates. gpu-sim's own primitives label themselves, and test/bench
    // code never feeds the golden graphs.
    let in_src = file.components().any(|c| c.as_os_str() == "src");
    if !is_gpu_sim && in_src {
        lint_launch_labels(root, file, &lines, findings);
    }
    if is_gpu_sim && in_src {
        lint_launch_seam(root, file, &lines, findings);
    }
    // Rule 9b applies everywhere a section can be cited, comments and
    // test strings included.
    lint_design_refs(root, file, &lines, sections, findings);
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        let lineno = i + 1;
        if is_comment_line(trimmed) {
            continue;
        }
        let code = code_part(raw);

        // Rule 8: empty justifications, everywhere (including gpu-sim).
        for pat in EMPTY_JUSTIFICATION_PATTERNS {
            if code.contains(pat) {
                findings.push(finding_at(
                    root,
                    file,
                    lineno,
                    "empty-justification",
                    format!("`{pat}` carries an empty justification; say why or remove it"),
                ));
            }
        }

        // Rule 5: an attribute is never a comment, so the code part
        // suffices (a commented-out allow is harmless).
        if code.contains("allow(unsafe_code)") {
            findings.push(finding_at(
                root,
                file,
                lineno,
                "allow-unsafe",
                "allow(unsafe_code) waives the workspace deny and is forbidden".into(),
            ));
        }

        if has_unsafe_keyword(code) {
            if !is_gpu_sim {
                findings.push(finding_at(root, file, lineno, "unsafe-outside-gpu-sim",
                    "`unsafe` is only permitted inside the gpu-sim access layer; use the safe tracked views".into()));
            } else if !has_safety_comment(&lines, i) {
                findings.push(finding_at(root, file, lineno, "missing-safety-comment",
                    "`unsafe` in gpu-sim requires a SAFETY: (or doc `# Safety`) justification in the comment run above".into()));
            }
        }

        if !is_gpu_sim {
            for pat in RAW_PTR_PATTERNS {
                if code.contains(pat) {
                    findings.push(finding_at(
                        root,
                        file,
                        lineno,
                        "raw-ptr-outside-gpu-sim",
                        format!("raw-pointer idiom `{pat}` is only permitted inside gpu-sim"),
                    ));
                }
            }
        }
    }
}
