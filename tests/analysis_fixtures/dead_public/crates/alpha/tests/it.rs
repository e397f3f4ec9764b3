//! dead-public fixture: a crate's integration tests are not callers.
#[test]
fn it() {
    alpha::only_tests_dir();
}
