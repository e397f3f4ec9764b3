//! Runs every lint against its fixtures in `tests/analysis_fixtures/`
//! (at the workspace root): the `*_trigger.rs` file must fire the lint,
//! the `*_clean.rs` file must stay quiet; `dead-public`, whose verdict
//! depends on which crate spells a name, gets the miniature workspace
//! under `dead_public/`.  Each test builds its config through the real
//! JSON loader, so the fixtures also exercise the config path end to end.

use rrs_analysis::config::AnalysisConfig;
use rrs_analysis::lints::{self, SourceFile};
use rrs_analysis::report::AnalysisReport;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/analysis_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {}: {e}", path.display()))
}

fn run_lints(cfg: &str, files: &[(&str, String)]) -> AnalysisReport {
    let config = AnalysisConfig::from_json(cfg).expect("fixture config is valid");
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
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "determinism": {
      "paths": ["fixtures"]
    }
  }
}
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
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "hot-path-no-alloc": {
      "hot": ["fixtures/hot_alloc_trigger.rs::dispatch"]
    }
  }
}
"#;

const HOT_CLEAN_CFG: &str = r#"
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "hot-path-no-alloc": {
      "hot": ["fixtures/hot_alloc_clean.rs::dispatch"]
    }
  }
}
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
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "hot-path-no-alloc": {
      "hot": ["fixtures/hot_alloc_clean.rs::renamed_away"]
    }
  }
}
"#;
    let report = run_lints(
        cfg,
        &[("fixtures/hot_alloc_clean.rs", fixture("hot_alloc_clean.rs"))],
    );
    assert_eq!(fired(&report, "hot-path-no-alloc"), 1, "{report:?}");
    assert!(report.violations[0].message.contains("not found"));
}

const INTEGER_TIME_CFG: &str = r#"
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "integer-time": {
      "paths": ["fixtures"]
    }
  }
}
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
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "edge-only-by-id": {
      "paths": ["fixtures"],
      "edge_files": ["fixtures/edge_by_id_clean.rs"],
      "id_maps": ["by_id", "fixtures/edge_by_id_trigger.rs::placement"]
    },
    "hot-path-no-alloc": {
      "hot": ["fixtures/edge_by_id_trigger.rs::dispatch", "fixtures/edge_by_id_trigger.rs::actuate"]
    }
  }
}
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
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "edge-only-by-id": {
      "paths": ["fixtures"],
      "edge_files": ["fixtures/edge_by_id_clean.rs"],
      "id_maps": ["by_id", "fixtures/edge_by_id_trigger.rs::placement"]
    },
    "hot-path-no-alloc": {
      "hot": ["fixtures/edge_by_id_clean.rs::dispatch"]
    }
  }
}
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

#[test]
fn edge_only_by_id_flags_a_tracked_field_its_file_never_names() {
    // A file-scoped id map whose field left its file guards nothing: the
    // entry is stale, and exactly that entry is reported.
    let cfg = r#"
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "edge-only-by-id": {
      "paths": ["fixtures"],
      "edge_files": ["fixtures/edge_by_id_trigger.rs"],
      "id_maps": [
        "by_id",
        "fixtures/edge_by_id_trigger.rs::placement",
        "fixtures/edge_by_id_trigger.rs::job_shard"
      ]
    }
  }
}
"#;
    let report = run_lints(
        cfg,
        &[(
            "fixtures/edge_by_id_trigger.rs",
            fixture("edge_by_id_trigger.rs"),
        )],
    );
    assert_eq!(fired(&report, "edge-only-by-id"), 1, "{report:?}");
    assert_eq!(report.violations[0].snippet, "job_shard");
    assert!(report.violations[0].message.contains("stale"));
    assert!(!report.is_clean());
}

const PANIC_CFG: &str = r#"
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "panic-discipline": {
      "paths": ["fixtures"]
    }
  }
}
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
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "unsafe-inventory": {
      "paths": ["fixtures"]
    }
  }
}
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
{{
  "paths": {{
    "include": ["fixtures"]
  }},
  "lints": {{
    "parallel-region": {{
      "file": "fixtures/{file}",
      "allowed_self_fields": ["shards"],
      "forbidden": ["merge", "loads"]
    }}
  }}
}}
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
fn parallel_region_presence_fires_on_a_name_the_file_never_mentions() {
    // A configured name that exists nowhere in the file guards nothing:
    // exactly one violation, naming it.
    let cfg =
        parallel_cfg("parallel_clean.rs").replace(r#""loads""#, r#""loads", "merged_samples""#);
    let report = run_lints(
        &cfg,
        &[("fixtures/parallel_clean.rs", fixture("parallel_clean.rs"))],
    );
    assert_eq!(fired(&report, "parallel-region"), 1, "{report:?}");
    assert_eq!(report.violations[0].snippet, "merged_samples");
    assert!(report.violations[0].message.contains("never mentions"));
}

#[test]
fn allowlist_absorbs_bounded_matches_and_reports_stale_entries() {
    let cfg = r#"
{
  "paths": {
    "include": ["fixtures"]
  },
  "lints": {
    "determinism": {
      "paths": ["fixtures"],
      "allow": [
        {
          "file": "fixtures/determinism_trigger.rs",
          "pattern": "Instant",
          "count": 2,
          "why": "fixture exercising the absorption path"
        },
        {
          "file": "fixtures/determinism_trigger.rs",
          "pattern": "ThisNeverMatches",
          "why": "fixture exercising staleness detection"
        }
      ]
    }
  }
}
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

/// The `dead_public/` fixture is a miniature workspace, not a file pair:
/// what the lint decides depends on *where* a name is spelled.
const DEAD_PUBLIC_TREE: &[&str] = &[
    "benchmark/src/main.rs",
    "crates/alpha/src/bin/tool.rs",
    "crates/alpha/src/lib.rs",
    "crates/alpha/tests/it.rs",
    "crates/beta/src/lib.rs",
    "examples/demo.rs",
    "src/lib.rs",
    "tests/it.rs",
];

const DEAD_PUBLIC_CFG: &str = r#"
{
  "paths": {
    "include": ["crates", "src", "tests", "examples", "benchmark/src"]
  },
  "lints": {
    "dead-public": {
      "paths": ["crates"]
    }
  }
}
"#;

/// Every unrestricted `pub` item of the fixture's `alpha` library that
/// has no caller: referenced only from its own crate, only from
/// `#[cfg(test)]`, only from `tests/` directories, only from `pub use`
/// lines, only in comments — plus a `const fn`, a `const`, a type named
/// only by its own method's signature, and a free function named only as
/// another crate's method.
const DEAD_IN_ALPHA: &[&str] = &[
    "const DEAD_CONST",
    "fn dead_const_fn",
    "fn method_calls_only",
    "fn only_cfg_test",
    "fn only_comment",
    "fn only_own_crate",
    "fn only_pub_use",
    "fn only_tests_dir",
    "struct SelfNamed",
];

/// Runs `dead-public` over the fixture tree minus the files in `without`.
fn dead_public_without(cfg: &str, without: &[&str]) -> AnalysisReport {
    let files: Vec<(&str, String)> = DEAD_PUBLIC_TREE
        .iter()
        .filter(|path| !without.contains(path))
        .map(|path| (*path, fixture(&format!("dead_public/{path}"))))
        .collect();
    run_lints(cfg, &files)
}

fn flagged(report: &AnalysisReport) -> Vec<&str> {
    let mut names: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.lint == "dead-public")
        .map(|v| v.snippet.as_str())
        .collect();
    names.sort_unstable();
    names
}

#[test]
fn dead_public_flags_exactly_the_items_no_other_crate_calls() {
    // Through the real walker and the fixture's own analysis.json, so the
    // directory classification (src/bin, tests/, examples/, benchmark/src)
    // is exercised end to end.
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/analysis_fixtures/dead_public");
    let config = rrs_analysis::load_config(&root.join("analysis.json")).expect("fixture config");
    let report = rrs_analysis::analyze_workspace(&root, &config).expect("fixture tree scans");
    assert_eq!(report.files_scanned, DEAD_PUBLIC_TREE.len());
    assert_eq!(flagged(&report), DEAD_IN_ALPHA);
    // Every finding names its item, its file and the remedy.
    let v = &report.violations[0];
    assert_eq!(v.file, "crates/alpha/src/lib.rs");
    assert!(v.message.contains("pub(crate)"), "{}", v.message);
    // The same verdict from in-memory sources.
    assert_eq!(
        flagged(&dead_public_without(DEAD_PUBLIC_CFG, &[])),
        DEAD_IN_ALPHA
    );
}

#[test]
fn dead_public_counts_each_kind_of_caller() {
    // Take one caller away and exactly its callee loses its promise.
    for (caller, callees) in [
        (
            "crates/alpha/src/bin/tool.rs",
            &["fn beta_entry", "fn used_by_bin"][..],
        ),
        ("examples/demo.rs", &["fn used_by_example"][..]),
        ("benchmark/src/main.rs", &["fn used_by_benchmark"][..]),
        ("src/lib.rs", &["fn used_by_facade"][..]),
        // Without `beta`, nothing calls `used_by_other_crate`; the type it
        // returns stays exposed by that (still public) signature until the
        // function itself is demoted, `merge` loses its namesake, and the
        // free functions lose their path and by-value spellings.
        (
            "crates/beta/src/lib.rs",
            &[
                "fn merge",
                "fn method_and_path_calls",
                "fn method_calls_and_value",
                "fn used_by_other_crate",
            ][..],
        ),
    ] {
        let report = dead_public_without(DEAD_PUBLIC_CFG, &[caller]);
        let mut expected: Vec<&str> = DEAD_IN_ALPHA.iter().chain(callees).copied().collect();
        expected.sort_unstable();
        assert_eq!(flagged(&report), expected, "without {caller}");
    }
    // Test code is not a caller, so removing it changes nothing.
    let report = dead_public_without(
        DEAD_PUBLIC_CFG,
        &["crates/alpha/tests/it.rs", "tests/it.rs"],
    );
    assert_eq!(flagged(&report), DEAD_IN_ALPHA);
}

#[test]
fn dead_public_allow_entries_absorb_count_matches_and_go_stale() {
    let cfg = r#"
{
  "paths": {
    "include": ["crates", "src", "tests", "examples", "benchmark/src"]
  },
  "lints": {
    "dead-public": {
      "paths": ["crates"],
      "allow": [
        {
          "file": "crates/alpha/src/lib.rs",
          "pattern": "fn only_",
          "count": 3,
          "why": "fixture: three of the five only_* functions are excused"
        },
        {
          "file": "crates/alpha/src/lib.rs",
          "pattern": "fn deleted_last_year",
          "why": "fixture: the item this excused no longer exists"
        }
      ]
    }
  }
}
"#;
    let report = dead_public_without(cfg, &[]);
    assert_eq!(report.allowed.len(), 3, "{report:?}");
    assert_eq!(flagged(&report).len(), DEAD_IN_ALPHA.len() - 3);
    assert_eq!(
        flagged(&report)
            .iter()
            .filter(|s| s.starts_with("fn only_"))
            .count(),
        2,
        "the entry absorbs exactly `count` matches"
    );
    assert_eq!(
        report.stale_allows,
        vec![1],
        "an entry for a vanished item is stale"
    );
    assert!(!report.is_clean());
}
