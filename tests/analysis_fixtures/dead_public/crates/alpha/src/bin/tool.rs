//! dead-public fixture: a binary is a caller of its own crate's library.
fn main() {
    alpha::used_by_bin();
    beta::beta_entry();
}
