//! The lint gate's own tests: seeded violations in synthetic workspace
//! trees must be caught, and the real workspace must be clean.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::lint_workspace;

/// Builds a throwaway workspace tree under the system temp directory.
struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("xtask-lint-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates")).unwrap();
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let p = self.root.join(rel);
        fs::create_dir_all(p.parent().unwrap()).unwrap();
        fs::write(p, content).unwrap();
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn rules(findings: &[xtask::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn clean_synthetic_workspace_passes() {
    let ws = TempWorkspace::new("clean");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f() -> u32 { 1 }\n",
    );
    ws.write(
        "crates/gpu-sim/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\n// SAFETY: test fixture, trivially disjoint.\npub fn g() { unsafe { std::ptr::null::<u8>().read_volatile(); } }\n",
    );
    assert!(
        lint_workspace(&ws.root).is_empty(),
        "{:?}",
        lint_workspace(&ws.root)
    );
}

#[test]
fn unsafe_outside_gpu_sim_is_flagged() {
    let ws = TempWorkspace::new("outside");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    let f = lint_workspace(&ws.root);
    assert!(rules(&f).contains(&"unsafe-outside-gpu-sim"), "{f:?}");
    assert_eq!(f[0].line, 2);
}

#[test]
fn missing_root_attrs_are_flagged() {
    let ws = TempWorkspace::new("attrs");
    ws.write("crates/algo/src/lib.rs", "pub fn f() {}\n");
    ws.write("crates/gpu-sim/src/lib.rs", "pub fn g() {}\n");
    let f = lint_workspace(&ws.root);
    let r = rules(&f);
    assert_eq!(r.iter().filter(|&&x| x == "root-attr").count(), 2, "{f:?}");
}

#[test]
fn unsafe_without_safety_comment_in_gpu_sim_is_flagged() {
    let ws = TempWorkspace::new("nosafety");
    ws.write(
        "crates/gpu-sim/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\npub fn g(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    let f = lint_workspace(&ws.root);
    assert!(rules(&f).contains(&"missing-safety-comment"), "{f:?}");
}

#[test]
fn safety_comment_through_attributes_is_accepted() {
    let ws = TempWorkspace::new("attrcomment");
    ws.write(
        "crates/gpu-sim/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\n// SAFETY: fixture invariant.\n#[inline]\npub fn g(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    assert!(
        lint_workspace(&ws.root).is_empty(),
        "{:?}",
        lint_workspace(&ws.root)
    );
}

#[test]
fn allow_unsafe_code_is_flagged_everywhere() {
    let ws = TempWorkspace::new("allow");
    ws.write(
        "crates/gpu-sim/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\n#[allow(unsafe_code)]\npub fn g() {}\n",
    );
    let f = lint_workspace(&ws.root);
    assert!(rules(&f).contains(&"allow-unsafe"), "{f:?}");
}

#[test]
fn raw_pointer_idioms_outside_gpu_sim_are_flagged() {
    let ws = TempWorkspace::new("rawptr");
    // No `unsafe` keyword — e.g. hidden behind a macro — but the idiom
    // itself is still caught.
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f(x: &u32) -> usize { (x as *const u32) as usize }\n",
    );
    let f = lint_workspace(&ws.root);
    assert!(rules(&f).contains(&"raw-ptr-outside-gpu-sim"), "{f:?}");
}

#[test]
fn unsafe_in_comments_and_identifiers_is_ignored() {
    let ws = TempWorkspace::new("comments");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\n// this comment says unsafe and that is fine\npub fn unsafe_free() {}\npub const UNSAFE_LOOKING: u32 = 0; // mentions unsafe\n",
    );
    let f = lint_workspace(&ws.root);
    // `unsafe_free` / comment mentions must not trip the keyword rule; the
    // trailing comment on the const line does contain the bare word, which
    // a text-level lint conservatively flags — so the fixture avoids it in
    // code position. Expect fully clean.
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn fixture_directories_are_exempt() {
    let ws = TempWorkspace::new("exempt");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f() {}\n",
    );
    ws.write(
        "crates/algo/tests/fixtures/bad.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    assert!(
        lint_workspace(&ws.root).is_empty(),
        "{:?}",
        lint_workspace(&ws.root)
    );
}

#[test]
fn the_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let findings = lint_workspace(root);
    assert!(
        findings.is_empty(),
        "workspace lint violations:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn launch_outside_the_seam_is_flagged() {
    let ws = TempWorkspace::new("seam");
    ws.write(
        "crates/gpu-sim/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\npub fn g() {}\n",
    );
    // The guard itself may count the launch and open the planes.
    ws.write(
        "crates/gpu-sim/src/device.rs",
        "impl Device {\n    pub(crate) fn launch(&self, work: usize) -> LaunchGuard<'_> {\n        \
         self.metrics.record_launch(work as u64);\n        self.rec.begin_launch(work);\n    }\n}\n\
         impl Drop for LaunchGuard<'_> {\n    fn drop(&mut self) {\n        self.rec.end_launch();\n    }\n}\n",
    );
    // A primitive that counts its own launch skips the guard.
    ws.write(
        "crates/gpu-sim/src/scan.rs",
        "impl Device {\n    fn scan(&self, n: usize) {\n        self.metrics().record_launch(n as u64);\n    }\n}\n",
    );
    let f = lint_workspace(&ws.root);
    assert_eq!(rules(&f), ["launch-seam"], "{f:?}");
    assert!(f[0].path.ends_with("scan.rs"), "{f:?}");
    assert_eq!(f[0].line, 3);
}

#[test]
fn unlabeled_launch_in_src_is_flagged() {
    let ws = TempWorkspace::new("unlabeled");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f(device: &Device, out: &mut [u32]) {\n    device.map(out, |i| i as u32);\n}\n",
    );
    let f = lint_workspace(&ws.root);
    assert!(rules(&f).contains(&"unlabeled-launch"), "{f:?}");
    assert_eq!(f[0].line, 3);
}

/// Lints a one-function crate whose body is `call` and expects an
/// unlabeled-launch finding on the call's line.
fn assert_unlabeled(tag: &str, call: &str) {
    let ws = TempWorkspace::new(tag);
    ws.write(
        "crates/algo/src/lib.rs",
        &format!(
            "#![deny(unsafe_code)]\npub fn f(device: &Device, out: &mut [u64]) {{\n    {call}\n}}\n"
        ),
    );
    let f = lint_workspace(&ws.root);
    assert!(rules(&f).contains(&"unlabeled-launch"), "{f:?}");
    assert_eq!(f[0].line, 3);
}

#[test]
fn unlabeled_pooled_map_is_flagged() {
    assert_unlabeled(
        "pooledmap",
        "let _v = device.alloc_pooled_map(4, |i| i as u32);",
    );
}

#[test]
fn unlabeled_segmented_sort_is_flagged() {
    assert_unlabeled("segsort", "device.segmented_sort(&[0, 2], out);");
}

#[test]
fn two_launches_under_one_label_are_flagged() {
    // The label names the first launch only; the second would show up as
    // an anonymous kernel#N node.
    let ws = TempWorkspace::new("onelabel");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f(device: &Device, out: &mut [u32]) {\n    \
         let _k = device.kernel_label(\"algo_fill\");\n    device.map(out, |i| i as u32);\n    \
         let _v = device.alloc_map(4, |i| i as u32);\n}\n",
    );
    let f = lint_workspace(&ws.root);
    assert_eq!(rules(&f), ["unlabeled-launch"], "{f:?}");
    assert_eq!(f[0].line, 5);
}

#[test]
fn labeled_launch_in_src_passes() {
    let ws = TempWorkspace::new("labeled");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f(device: &Device, out: &mut [u32]) {\n    let _k = device.kernel_label(\"algo_fill\");\n    device.map(out, |i| i as u32);\n}\n",
    );
    assert!(
        lint_workspace(&ws.root).is_empty(),
        "{:?}",
        lint_workspace(&ws.root)
    );
}

#[test]
fn unlabeled_launch_outside_src_is_exempt() {
    // Test and bench code never feeds the golden graphs.
    let ws = TempWorkspace::new("testexempt");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f() {}\n",
    );
    ws.write(
        "crates/algo/tests/smoke.rs",
        "fn check(device: &Device, out: &mut [u32]) {\n    device.map(out, |i| i as u32);\n}\n",
    );
    assert!(
        lint_workspace(&ws.root).is_empty(),
        "{:?}",
        lint_workspace(&ws.root)
    );
}

#[test]
fn unregistered_env_knob_in_readme_is_flagged() {
    let ws = TempWorkspace::new("envtable");
    ws.write(
        "crates/gpu-sim/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\npub mod env;\n",
    );
    ws.write(
        "crates/gpu-sim/src/env.rs",
        "/// Documented knob.\npub const EMG_DOCUMENTED: &str = \"EMG_DOCUMENTED\";\n\
         /// Forgotten knob.\npub const EMG_FORGOTTEN: &str = \"EMG_FORGOTTEN\";\n",
    );
    ws.write(
        "README.md",
        "# demo\n<!-- env-table:begin -->\n| `EMG_DOCUMENTED` | a knob |\n<!-- env-table:end -->\n",
    );
    let f = lint_workspace(&ws.root);
    let env_findings: Vec<_> = f.iter().filter(|x| x.rule == "env-table").collect();
    assert_eq!(env_findings.len(), 1, "{f:?}");
    assert!(env_findings[0].message.contains("EMG_FORGOTTEN"), "{f:?}");
    assert_eq!(env_findings[0].line, 4, "should point at the const line");
}

#[test]
fn stale_env_table_row_is_flagged() {
    let ws = TempWorkspace::new("envstale");
    ws.write(
        "crates/gpu-sim/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\npub mod env;\n",
    );
    ws.write(
        "crates/gpu-sim/src/env.rs",
        "/// Live knob.\npub const EMG_LIVE: &str = \"EMG_LIVE\";\n",
    );
    ws.write(
        "README.md",
        "# demo\n<!-- env-table:begin -->\n| `EMG_LIVE` | `on` | a knob |\n\
         | `EMG_RETIRED` | `500` | a deleted knob |\n<!-- env-table:end -->\n",
    );
    let f = lint_workspace(&ws.root);
    let env_findings: Vec<_> = f.iter().filter(|x| x.rule == "env-table").collect();
    assert_eq!(env_findings.len(), 1, "{f:?}");
    assert!(env_findings[0].message.contains("EMG_RETIRED"), "{f:?}");
    assert!(env_findings[0].path.ends_with("README.md"), "{f:?}");
    assert_eq!(env_findings[0].line, 4, "should point at the stale row");
}

#[test]
fn missing_env_table_markers_are_flagged() {
    let ws = TempWorkspace::new("envmarkers");
    ws.write(
        "crates/gpu-sim/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\npub mod env;\n",
    );
    ws.write(
        "crates/gpu-sim/src/env.rs",
        "pub const EMG_KNOB: &str = \"EMG_KNOB\";\n",
    );
    ws.write("README.md", "# demo, no table markers\n");
    let f = lint_workspace(&ws.root);
    assert!(
        f.iter()
            .any(|x| x.rule == "env-table" && x.message.contains("env-table:begin")),
        "{f:?}"
    );
}

#[test]
fn workspaces_without_an_env_registry_skip_the_table_rule() {
    let ws = TempWorkspace::new("noenvreg");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f() {}\n",
    );
    assert!(
        lint_workspace(&ws.root).is_empty(),
        "{:?}",
        lint_workspace(&ws.root)
    );
}

#[test]
fn dangling_design_section_reference_is_flagged() {
    let ws = TempWorkspace::new("designref");
    ws.write("DESIGN.md", "# design\n## 1. The model\n## 2. The rest\n");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\n//! Spec in DESIGN.md \u{a7}2; details in DESIGN.md \u{a7}7.\npub fn f() {}\n",
    );
    let f = lint_workspace(&ws.root);
    let refs: Vec<_> = f
        .iter()
        .filter(|x| x.rule == "dangling-design-ref")
        .collect();
    assert_eq!(refs.len(), 1, "only \u{a7}7 dangles: {f:?}");
    assert!(refs[0].message.contains("## 7."), "{f:?}");
    assert_eq!(refs[0].line, 2);
}

#[test]
fn subsection_references_resolve_by_major_number() {
    let ws = TempWorkspace::new("designsub");
    ws.write(
        "DESIGN.md",
        "# design\n## 12. The server\n### 12.4 Flushes\n",
    );
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\n// Flush discipline: DESIGN.md \u{a7}12.4.\npub fn f() {}\n",
    );
    assert!(
        lint_workspace(&ws.root).is_empty(),
        "{:?}",
        lint_workspace(&ws.root)
    );
}

#[test]
fn design_refs_without_a_design_doc_are_flagged() {
    let ws = TempWorkspace::new("nodesign");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\n// See DESIGN.md \u{a7}3.\npub fn f() {}\n",
    );
    let f = lint_workspace(&ws.root);
    assert!(f.iter().any(|x| x.rule == "dangling-design-ref"), "{f:?}");
}

#[test]
fn empty_justifications_are_flagged() {
    let ws = TempWorkspace::new("emptyjust");
    ws.write(
        "crates/algo/src/lib.rs",
        "#![deny(unsafe_code)]\npub fn f(device: &Device) {\n    let _k = device.kernel_label(\"\");\n    let v = device.atomic_u32(&mut buf).benign(\"\");\n}\n",
    );
    let f = lint_workspace(&ws.root);
    let r = rules(&f);
    assert_eq!(
        r.iter().filter(|&&x| x == "empty-justification").count(),
        2,
        "{f:?}"
    );
}
