//! # eards-lint — determinism & simulation-safety static analysis
//!
//! The repo's promise is a *bit-identical* reproduction of Goiri et al.'s
//! CLUSTER 2010 tables; until now that was enforced only dynamically, by
//! fingerprint proptests and regenerated-table diffs. This crate closes
//! the gap at the tooling layer: a hand-rolled Rust lexer (no `syn` — the
//! workspace vendors every dependency) plus a rule engine that walks each
//! `.rs` file and reports the domain-specific hazards clippy cannot see:
//!
//! | rule | hazard |
//! |------|--------|
//! | `D001` | `HashMap`/`HashSet` iteration (or map-typed fields) in sim-affecting crates |
//! | `D002` | wall-clock reads (`Instant::now`, `SystemTime`) outside `eards-obs`/`eards-bench` |
//! | `D003` | ambient randomness (`thread_rng`, `rand::random`, `from_entropy`) anywhere |
//! | `D004` | `partial_cmp(..).unwrap()/expect(..)` on floats — use `total_cmp` |
//! | `D005` | wall-clock / ambient-randomness APIs inside an `impl Persist` block |
//! | `P001` | `unwrap`/`expect`/`panic!`/literal indexing in sim library code |
//! | `C001` | raw float↔int `as` casts in `SimTime` arithmetic |
//! | `SNAP001` | hand-written `impl Persist` without a reason the codec macros do not fit |
//! | `S001` | `lint:allow` marker missing its mandatory reason |
//! | `S002` | stale `lint:allow`: its rule fires nothing on the covered lines |
//!
//! Suppression is inline and *reasoned*:
//! `// lint:allow(D001): key-lookup only, never iterated` — covering the
//! comment's line and the line below it. Pre-existing findings live in the
//! checked-in [`Baseline`] (`lint-baseline.toml`), so the gate blocks new
//! findings from day one without a big-bang cleanup.
//!
//! Surfaces: `eards lint [--baseline F --format text|json --write-baseline]`,
//! a blocking CI step, and the fixture self-tests under `tests/`.

#![warn(missing_docs)]

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

pub use baseline::{Baseline, BaselineOutcome};
pub use rules::{Finding, RuleId};
pub use source::SourceFile;

/// Lints one file given its workspace-relative `path` (which drives crate
/// attribution — see [`source::crate_of`]) and contents. Every rule is
/// file-local.
pub fn lint_source(path: &str, text: &str) -> Vec<Finding> {
    rules::check_file(&SourceFile::parse(path, text))
}

/// The result of linting a file tree.
#[derive(Debug, Default)]
pub struct LintRun {
    /// How many `.rs` files were scanned.
    pub files: usize,
    /// Every finding, sorted by path, line, rule.
    pub findings: Vec<Finding>,
}

/// Directory names never descended into: build output, vendored deps,
/// VCS metadata, and the lint fixtures themselves (which are *meant* to
/// contain findings).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Collects every lintable `.rs` file under `root`, workspace-relative,
/// sorted for deterministic report order.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every `.rs` file in the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintRun> {
    let mut run = LintRun::default();
    for path in workspace_files(root)? {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        run.files += 1;
        run.findings.extend(lint_source(&rel, &text));
    }
    report::sort_findings(&mut run.findings);
    Ok(run)
}

/// Ascends from `start` to the workspace root: the first directory whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_end_to_end() {
        let src = "\
use std::collections::HashMap;
struct S { m: HashMap<u32, u32> }
fn f(s: &S) -> u32 {
    let x: Vec<f64> = vec![1.0];
    x.sort_by(|a, b| a.partial_cmp(b).unwrap());
    s.m.len() as u32
}
";
        let fs = lint_source("crates/eards-model/src/x.rs", src);
        assert!(fs.iter().any(|f| f.rule == RuleId::D001 && f.line == 2));
        assert!(fs.iter().any(|f| f.rule == RuleId::D004 && f.line == 5));
        // `as u32` is not SimTime arithmetic here — no C001.
        assert!(!fs.iter().any(|f| f.rule == RuleId::C001));
    }

    #[test]
    fn non_sim_crates_skip_scoped_rules() {
        let src = "struct S { m: HashMap<u32, u32> }\nfn f() { x.unwrap(); }\n";
        let fs = lint_source("crates/eards-metrics/src/x.rs", src);
        assert!(fs.iter().all(|f| f.rule != RuleId::D001));
        assert!(fs.iter().all(|f| f.rule != RuleId::P001));
    }

    #[test]
    fn hand_written_codecs_need_a_reasoned_allow_outside_the_codec_module() {
        let src = "\
impl Persist for Bare {
    fn persist(&self, _w: &mut Writer) {}
}
// lint:allow(SNAP001): restore validates the table
impl Persist for Checked {
    fn persist(&self, _w: &mut Writer) {}
}
";
        let fs = lint_source("crates/eards-metrics/src/x.rs", src);
        let snap: Vec<u32> = fs
            .iter()
            .filter(|f| f.rule == RuleId::SNAP001)
            .map(|f| f.line)
            .collect();
        assert_eq!(snap, [1], "only the unexplained impl fires");
        assert!(fs.iter().all(|f| f.rule != RuleId::S002), "{fs:?}");
        // The codec module's own primitive impls are exempt.
        let fs = lint_source("crates/eards-sim/src/persist.rs", src);
        assert!(fs.iter().all(|f| f.rule != RuleId::SNAP001), "{fs:?}");
    }

    #[test]
    fn workspace_root_discovery() {
        let here = std::env::current_dir().unwrap();
        let root = find_workspace_root(&here).expect("runs inside the workspace");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").exists());
    }
}
