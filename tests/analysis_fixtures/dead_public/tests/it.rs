//! dead-public fixture: workspace-level integration tests are not callers.
#[test]
fn it() {
    alpha::only_tests_dir();
}
