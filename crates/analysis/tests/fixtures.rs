//! Runs every lint against its fixture pair in `tests/analysis_fixtures/`
//! (at the workspace root): the `*_trigger.rs` file must fire the lint,
//! the `*_clean.rs` file must stay quiet.  Each test builds its config
//! through the real TOML parser, so the fixtures also exercise the
//! config path end to end.

use rrs_analysis::config::AnalysisConfig;
use rrs_analysis::lints::{self, SourceFile};
use rrs_analysis::report::AnalysisReport;
use rrs_analysis::toml;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/analysis_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
}

fn run_lints(cfg: &str, files: &[(&str, String)]) -> AnalysisReport {
    let doc = toml::parse(cfg).expect("fixture config parses");
    let config = AnalysisConfig::from_toml(&doc).expect("fixture config is valid");
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(path, src)| SourceFile::parse(*path, src))
        .collect();
    lints::run(&config, &parsed)
}

fn fired(report: &AnalysisReport, lint: &str) -> usize {
    report.violations.iter().filter(|v| v.lint == lint).count()
}

fn assert_quiet(report: &AnalysisReport) {
    assert!(
        report.violations.is_empty(),
        "clean fixture fired: {:?}",
        report
            .violations
            .iter()
            .map(|v| format!("[{}] {}:{} {}", v.lint, v.file, v.line, v.snippet))
            .collect::<Vec<_>>()
    );
}

const DETERMINISM_CFG: &str = r#"
[paths]
include = ["fixtures"]
[lints.determinism]
paths = ["fixtures"]
"#;

#[test]
fn determinism_fires_on_clocks_and_hash_containers() {
    let report = run_lints(
        DETERMINISM_CFG,
        &[(
            "fixtures/determinism_trigger.rs",
            fixture("determinism_trigger.rs"),
        )],
    );
    assert!(fired(&report, "determinism") >= 2, "{report:?}");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.snippet == "Instant::now"),
        "the called clock is reported as Instant::now"
    );
    assert!(report.violations.iter().any(|v| v.snippet == "HashMap"));
}

#[test]
fn determinism_stays_quiet_on_ordered_containers_and_test_code() {
    let report = run_lints(
        DETERMINISM_CFG,
        &[(
            "fixtures/determinism_clean.rs",
            fixture("determinism_clean.rs"),
        )],
    );
    assert_quiet(&report);
}

const HOT_TRIGGER_CFG: &str = r#"
[paths]
include = ["fixtures"]
[lints.hot-path-no-alloc]
hot = ["fixtures/hot_alloc_trigger.rs::dispatch"]
"#;

const HOT_CLEAN_CFG: &str = r#"
[paths]
include = ["fixtures"]
[lints.hot-path-no-alloc]
hot = ["fixtures/hot_alloc_clean.rs::dispatch"]
"#;

#[test]
fn hot_path_fires_on_allocation_in_a_hot_function() {
    let report = run_lints(
        HOT_TRIGGER_CFG,
        &[(
            "fixtures/hot_alloc_trigger.rs",
            fixture("hot_alloc_trigger.rs"),
        )],
    );
    assert_eq!(fired(&report, "hot-path-no-alloc"), 1, "{report:?}");
    assert_eq!(report.violations[0].snippet, "Vec::new");
}

#[test]
fn hot_path_ignores_allocation_outside_the_hot_set() {
    let report = run_lints(
        HOT_CLEAN_CFG,
        &[("fixtures/hot_alloc_clean.rs", fixture("hot_alloc_clean.rs"))],
    );
    assert_quiet(&report);
}

#[test]
fn hot_path_flags_stale_hot_entries() {
    // A hot entry naming a function that no longer exists is itself a
    // violation — the list cannot silently rot after a rename.
    let cfg = r#"
[paths]
include = ["fixtures"]
[lints.hot-path-no-alloc]
hot = ["fixtures/hot_alloc_clean.rs::renamed_away"]
"#;
    let report = run_lints(
        cfg,
        &[("fixtures/hot_alloc_clean.rs", fixture("hot_alloc_clean.rs"))],
    );
    assert_eq!(fired(&report, "hot-path-no-alloc"), 1, "{report:?}");
    assert!(report.violations[0].message.contains("not found"));
}

const INTEGER_TIME_CFG: &str = r#"
[paths]
include = ["fixtures"]
[lints.integer-time]
paths = ["fixtures"]
"#;

#[test]
fn integer_time_fires_on_f64_seconds_parameters() {
    let report = run_lints(
        INTEGER_TIME_CFG,
        &[(
            "fixtures/integer_time_trigger.rs",
            fixture("integer_time_trigger.rs"),
        )],
    );
    assert_eq!(fired(&report, "integer-time"), 1, "{report:?}");
    assert!(report.violations[0].snippet.contains("duration_s"));
}

#[test]
fn integer_time_allows_integer_micros_and_non_second_f64s() {
    let report = run_lints(
        INTEGER_TIME_CFG,
        &[(
            "fixtures/integer_time_clean.rs",
            fixture("integer_time_clean.rs"),
        )],
    );
    assert_quiet(&report);
}

#[test]
fn edge_only_by_id_fires_outside_edge_files_and_inside_hot_fns() {
    let cfg = r#"
[paths]
include = ["fixtures"]
[lints.edge-only-by-id]
paths = ["fixtures"]
edge_files = ["fixtures/edge_by_id_clean.rs"]
id_maps = ["by_id", "fixtures/edge_by_id_trigger.rs::placement"]
[lints.hot-path-no-alloc]
hot = ["fixtures/edge_by_id_trigger.rs::dispatch", "fixtures/edge_by_id_trigger.rs::actuate"]
"#;
    let report = run_lints(
        cfg,
        &[(
            "fixtures/edge_by_id_trigger.rs",
            fixture("edge_by_id_trigger.rs"),
        )],
    );
    // Struct field + lookup() access in a non-edge file, and the hot
    // dispatch() touch reported with its function name.
    assert!(fired(&report, "edge-only-by-id") >= 2, "{report:?}");
    assert!(report
        .violations
        .iter()
        .any(|v| v.snippet == "by_id in dispatch"));
    assert!(report
        .violations
        .iter()
        .any(|v| v.snippet == "placement in actuate"));
}

#[test]
fn edge_only_by_id_allows_edge_files() {
    let cfg = r#"
[paths]
include = ["fixtures"]
[lints.edge-only-by-id]
paths = ["fixtures"]
edge_files = ["fixtures/edge_by_id_clean.rs"]
id_maps = ["by_id", "fixtures/edge_by_id_trigger.rs::placement"]
[lints.hot-path-no-alloc]
hot = ["fixtures/edge_by_id_clean.rs::dispatch"]
"#;
    let report = run_lints(
        cfg,
        &[(
            "fixtures/edge_by_id_clean.rs",
            fixture("edge_by_id_clean.rs"),
        )],
    );
    assert_quiet(&report);
}

const PANIC_CFG: &str = r#"
[paths]
include = ["fixtures"]
[lints.panic-discipline]
paths = ["fixtures"]
"#;

#[test]
fn panic_discipline_fires_on_bare_unwrap_and_empty_expect() {
    let report = run_lints(
        PANIC_CFG,
        &[("fixtures/panic_trigger.rs", fixture("panic_trigger.rs"))],
    );
    assert_eq!(fired(&report, "panic-discipline"), 2, "{report:?}");
    assert!(report.violations.iter().any(|v| v.snippet == ".unwrap()"));
    assert!(report
        .violations
        .iter()
        .any(|v| v.snippet == "expect(\"\")"));
}

#[test]
fn panic_discipline_accepts_named_invariants_and_test_unwraps() {
    let report = run_lints(
        PANIC_CFG,
        &[("fixtures/panic_clean.rs", fixture("panic_clean.rs"))],
    );
    assert_quiet(&report);
}

const UNSAFE_CFG: &str = r#"
[paths]
include = ["fixtures"]
[lints.unsafe-inventory]
paths = ["fixtures"]
"#;

#[test]
fn unsafe_inventory_fires_on_undocumented_unsafe() {
    let report = run_lints(
        UNSAFE_CFG,
        &[("fixtures/unsafe_trigger.rs", fixture("unsafe_trigger.rs"))],
    );
    assert_eq!(fired(&report, "unsafe-inventory"), 1, "{report:?}");
    assert_eq!(report.unsafe_inventory.len(), 1);
    assert!(!report.unsafe_inventory[0].documented);
}

#[test]
fn unsafe_inventory_accepts_safety_comments_but_still_inventories() {
    let report = run_lints(
        UNSAFE_CFG,
        &[("fixtures/unsafe_clean.rs", fixture("unsafe_clean.rs"))],
    );
    assert_quiet(&report);
    assert_eq!(report.unsafe_inventory.len(), 1);
    assert!(report.unsafe_inventory[0].documented);
}

fn parallel_cfg(file: &str) -> String {
    format!(
        r#"
[paths]
include = ["fixtures"]
[lints.parallel-region]
file = "fixtures/{file}"
allowed_self_fields = ["shards"]
forbidden = ["merge_traces", "loads"]
"#
    )
}

#[test]
fn parallel_region_fires_on_shared_state_inside_the_scope() {
    let report = run_lints(
        &parallel_cfg("parallel_trigger.rs"),
        &[(
            "fixtures/parallel_trigger.rs",
            fixture("parallel_trigger.rs"),
        )],
    );
    assert!(fired(&report, "parallel-region") >= 1, "{report:?}");
    assert!(report.violations.iter().any(|v| v.snippet == "self.loads"));
}

#[test]
fn parallel_region_accepts_barrier_merges_after_the_scope() {
    let report = run_lints(
        &parallel_cfg("parallel_clean.rs"),
        &[("fixtures/parallel_clean.rs", fixture("parallel_clean.rs"))],
    );
    assert_quiet(&report);
}

#[test]
fn parallel_region_presence_fires_when_the_scope_disappears() {
    // Configure the audit against a file with no thread::scope at all:
    // the audit losing its subject is itself an error.
    let report = run_lints(
        &parallel_cfg("panic_clean.rs"),
        &[("fixtures/panic_clean.rs", fixture("panic_clean.rs"))],
    );
    assert_eq!(fired(&report, "parallel-region"), 1, "{report:?}");
    assert!(report.violations[0].message.contains("no `thread::scope`"));
}

#[test]
fn allowlist_absorbs_bounded_matches_and_reports_stale_entries() {
    let cfg = r#"
[paths]
include = ["fixtures"]
[lints.determinism]
paths = ["fixtures"]
[[lints.determinism.allow]]
file = "fixtures/determinism_trigger.rs"
pattern = "Instant"
count = 2
why = "fixture exercising the absorption path"
[[lints.determinism.allow]]
file = "fixtures/determinism_trigger.rs"
pattern = "ThisNeverMatches"
why = "fixture exercising staleness detection"
"#;
    let report = run_lints(
        cfg,
        &[(
            "fixtures/determinism_trigger.rs",
            fixture("determinism_trigger.rs"),
        )],
    );
    // Both Instant sites (the use and the call) are absorbed; the
    // HashMap sites are not; the second entry matched nothing.
    assert_eq!(report.allowed.len(), 2, "{report:?}");
    assert!(report.violations.iter().all(|v| v.snippet.contains("Hash")));
    assert_eq!(report.stale_allows.len(), 1);
    assert!(!report.is_clean(), "stale entries fail the run");
}
