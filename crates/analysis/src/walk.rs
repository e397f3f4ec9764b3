//! Deterministic workspace source walker.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, the vendored
/// dependency miniatures (external code, not under the workspace's
/// invariants), the lint fixture corpus (violations on purpose), and VCS
/// metadata.
const SKIP_DIRS: &[&str] = &["target", "vendor", "analysis_fixtures", ".git", "results"];

/// Collects every `.rs` file under the `include` directories of `root`,
/// returning `(workspace-relative path, contents)` pairs sorted by path
/// so runs are deterministic.
pub(crate) fn collect_sources(
    root: &Path,
    include: &[String],
) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for dir in include {
        let abs = root.join(dir);
        if abs.is_dir() {
            visit(&abs, &mut out)?;
        } else if abs.extension().is_some_and(|e| e == "rs") {
            out.push(abs);
        }
    }
    let mut sources = Vec::with_capacity(out.len());
    for path in out {
        let rel = rel_path(root, &path);
        let src = fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    sources.dedup_by(|a, b| a.0 == b.0);
    Ok(sources)
}

fn visit(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                visit(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
