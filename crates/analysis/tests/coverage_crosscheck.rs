//! Cross-checks the static hot list against the dynamic zero-alloc test:
//! every file with functions declared hot in `analysis.json` must carry a
//! `// hot-coverage: <file>` marker in `tests/zero_alloc_steady_state.rs`
//! (placed where the counting-allocator run actually drives that module),
//! and every marker must name a file still in the hot set — so the static
//! and dynamic halves of the no-alloc contract cannot drift apart.

use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn hot_list_and_zero_alloc_test_cover_each_other() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config =
        rrs_analysis::load_config(&root.join("analysis.json")).expect("analysis.json is valid");
    let declared: BTreeSet<String> = config
        .hot_functions
        .iter()
        .map(|h| h.file.clone())
        .collect();
    assert!(
        !declared.is_empty(),
        "analysis.json declares no hot functions — the zero-alloc contract lost its subject"
    );
    let test_src = std::fs::read_to_string(root.join("tests/zero_alloc_steady_state.rs"))
        .expect("tests/zero_alloc_steady_state.rs exists");
    let marked: BTreeSet<String> = test_src
        .lines()
        .filter_map(|l| l.trim().strip_prefix("// hot-coverage:"))
        .map(|s| s.trim().to_owned())
        .collect();
    let uncovered: Vec<&String> = declared.difference(&marked).collect();
    assert!(
        uncovered.is_empty(),
        "files declared hot in analysis.json but not marked as covered by the \
         zero-alloc test (add the coverage, then the marker): {uncovered:?}"
    );
    let undeclared: Vec<&String> = marked.difference(&declared).collect();
    assert!(
        undeclared.is_empty(),
        "hot-coverage markers in tests/zero_alloc_steady_state.rs for files no \
         longer declared hot in analysis.json: {undeclared:?}"
    );
}
