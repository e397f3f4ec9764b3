//! The workspace's own sources must satisfy the invariant linter — the
//! same check CI blocks on via `cargo run -p rrs-analysis -- --deny`,
//! enforced from the test suite too so a plain `cargo test` catches
//! regressions without the extra CI step.

use std::path::Path;

#[test]
fn workspace_passes_the_invariant_linter() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config =
        rrs_analysis::load_config(&root.join("analysis.json")).expect("analysis.json is valid");
    let report = rrs_analysis::analyze_workspace(&root, &config).expect("workspace scan succeeds");
    let mut problems = Vec::new();
    for v in &report.violations {
        problems.push(format!("[{}] {}:{}: {}", v.lint, v.file, v.line, v.snippet));
    }
    for idx in &report.stale_allows {
        let a = &report.allows[*idx];
        problems.push(format!(
            "stale allow [{}] {}: pattern {:?} matched nothing",
            a.lint, a.file, a.pattern
        ));
    }
    assert!(
        report.is_clean(),
        "rrs-analysis found problems in the workspace:\n{}",
        problems.join("\n")
    );
    assert!(report.files_scanned > 0, "the walker found no sources");
    // Every unsafe site must be documented (the violations above would
    // already say so; this keeps the inventory itself honest).
    for site in &report.unsafe_inventory {
        assert!(
            site.documented,
            "undocumented unsafe at {}:{}",
            site.file, site.line
        );
    }
}

#[test]
fn every_lint_has_a_scope_in_the_checked_in_config() {
    // An emptied or deleted `lints.<name>` section would switch its lint
    // off without a word; here it fails by name.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let c = rrs_analysis::load_config(&root.join("analysis.json")).expect("analysis.json is valid");
    for lint in rrs_analysis::config::LINT_NAMES {
        let scoped = match *lint {
            "hot-path-no-alloc" => !c.hot_functions.is_empty(),
            "parallel-region" => !c.parallel_file.is_empty(),
            _ => !c.lint_paths[*lint].is_empty(),
        };
        assert!(
            scoped,
            "lint {lint:?} has an empty scope in analysis.json, so it is switched off"
        );
    }
}
