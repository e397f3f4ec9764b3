//! # rrs-analysis — the workspace invariant linter
//!
//! A self-contained static-analysis pass over the workspace source that
//! machine-checks the load-bearing contracts every other crate relies
//! on: steady-state paths allocate nothing, the sim core is
//! replay-deterministic, `by_id` maps survive only at the public API
//! edge, panics name their invariant, `unsafe` carries `SAFETY:`
//! documentation, the sharded parallel region touches shared state only
//! at barriers, and every `pub` item of a library crate has a caller in
//! another crate.  Each lint is grounded in an invariant the repo
//! already tests *dynamically*; the linter makes the same contract fail
//! at the source level, before a golden re-record or a counting-
//! allocator test has to catch it.
//!
//! The pass ships its own small Rust [`lexer`] (comment-, string- and
//! attribute-aware; `#[cfg(test)]` items are elided for production-path
//! lints) and reads the checked-in `analysis.json` of per-lint path
//! scopes and justified allowlist entries through the vendored
//! `serde_json`, the workspace's one config reader.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p rrs-analysis -- --deny
//! ```
//!
//! which exits non-zero on any violation *or* any stale allowlist entry
//! (an exemption that no longer matches anything must be deleted).  See
//! the README's "Static analysis" section for the lint catalogue and the
//! allowlist policy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod walk;

use std::path::Path;

pub use config::AnalysisConfig;
pub use lints::SourceFile;
pub use report::{AnalysisReport, UnsafeSite, Violation};

/// Loads `analysis.json` from `path`.
pub fn load_config(path: &Path) -> Result<AnalysisConfig, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    AnalysisConfig::from_json(&src)
}

/// Walks the workspace at `root`, lexes every source file in the
/// configured include set, and runs the full lint registry.
pub fn analyze_workspace(root: &Path, config: &AnalysisConfig) -> Result<AnalysisReport, String> {
    let sources = walk::collect_sources(root, &config.include)
        .map_err(|e| format!("source walk failed: {e}"))?;
    let files: Vec<SourceFile> = sources
        .into_iter()
        .map(|(path, src)| SourceFile::parse(path, &src))
        .collect();
    Ok(lints::run(config, &files))
}

/// Locates the workspace root from the crate's own manifest directory
/// (`crates/analysis` → two levels up), falling back to the current
/// directory.  Lets `cargo run -p rrs-analysis` work from any cwd inside
/// the workspace.
pub fn default_root() -> std::path::PathBuf {
    match option_env!("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = Path::new(dir);
            p.parent().and_then(Path::parent).unwrap_or(p).to_path_buf()
        }
        None => std::path::PathBuf::from("."),
    }
}
