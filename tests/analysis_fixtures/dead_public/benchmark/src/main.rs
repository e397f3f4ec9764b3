//! dead-public fixture: the benchmark package, scanned read-only as a caller.
fn main() {
    alpha::used_by_benchmark();
}
