//! `thynvm-lint` — workspace invariant linter.
//!
//! The compiler cannot see ThyNVM's domain invariants: that persisted NVM
//! mutations flow through sealed APIs, that recovery never panics, that
//! every stats counter is live and asserted, that every error variant and
//! config field is exercised. This crate machine-checks them with a
//! hand-rolled lexer (offline-safe: zero dependencies), six token-pattern
//! rules, and three call-graph ordering rules backed by an NVM-effect
//! inference pass ([`graph`], [`effects`]).
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p thynvm-lint --release
//! ```
//!
//! Flags: `--json` (machine-readable diagnostics), `--github` (workflow
//! problem-matcher annotations), `--effects` (print the per-function
//! persistence-effect dump and exit).
//!
//! Exit codes: `0` clean, `1` violations (or stale baseline entries),
//! `2` malformed `lint.baseline`.

pub mod baseline;
pub mod effects;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

use rules::Diagnostic;
use source::FileIndex;

/// Directory names never descended into: build output, vendored
/// third-party code, VCS metadata, and the lint's own known-bad fixtures.
const SKIP_DIRS: &[&str] = &["target", "compat", ".git", "fixtures", "node_modules"];

/// The outcome of one lint run.
pub struct Report {
    /// Violations not covered by the baseline, sorted.
    pub violations: Vec<Diagnostic>,
    /// Stale baseline entries, as synthetic diagnostics.
    pub stale: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run should fail CI.
    #[must_use]
    pub fn is_failure(&self) -> bool {
        !self.violations.is_empty() || !self.stale.is_empty()
    }
}

/// Collects every `.rs` file under `root` (workspace-relative, sorted),
/// skipping build output, vendored crates, VCS metadata, lint fixtures
/// and hidden directories.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
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

/// Parses every workspace `.rs` file under `root` into a [`FileIndex`],
/// in sorted path order (the determinism anchor for the effect dump).
pub fn index_workspace(root: &Path) -> std::io::Result<Vec<FileIndex>> {
    let paths = collect_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        files.push(FileIndex::parse(&rel, &src));
    }
    Ok(files)
}

/// Lints the workspace rooted at `root` against the given baseline entries.
pub fn run(root: &Path, entries: &[baseline::Entry]) -> std::io::Result<Report> {
    let files = index_workspace(root)?;
    let diags = rules::check_all(&files);
    let (violations, stale) = baseline::apply(diags, entries);
    Ok(Report { violations, stale, files_scanned: files.len() })
}

/// Renders the committed `lint.effects` artifact for the workspace at
/// `root`: the transitive persistence-effect set of every production
/// function (see [`effects::render_dump`]).
pub fn effects_dump(root: &Path) -> std::io::Result<String> {
    let files = index_workspace(root)?;
    let graph = graph::CallGraph::build(&files);
    let facts = effects::analyze(&files, &graph);
    Ok(effects::render_dump(&files, &graph, &facts))
}

/// Locates the workspace root: the nearest ancestor of `start` containing
/// a `Cargo.toml` with a `[workspace]` section.
pub fn find_root(start: &Path) -> Option<PathBuf> {
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
    fn find_root_walks_up_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates").is_dir());
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn collect_skips_target_compat_and_fixtures() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above crates/lint");
        let files = collect_files(&root).expect("workspace readable");
        assert!(!files.is_empty());
        for f in &files {
            let s = f.to_string_lossy();
            assert!(!s.contains("/target/"), "{s}");
            assert!(!s.contains("/compat/"), "{s}");
            assert!(!s.contains("/fixtures/"), "{s}");
        }
    }
}
