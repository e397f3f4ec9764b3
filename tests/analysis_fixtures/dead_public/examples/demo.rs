//! dead-public fixture: an example is a caller.
fn main() {
    alpha::used_by_example();
}
