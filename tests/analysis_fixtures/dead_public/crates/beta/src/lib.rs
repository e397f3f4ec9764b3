//! dead-public fixture: another library crate.
//!
//! Not a caller either: only_comment.

pub use alpha::only_pub_use;

/// Called by `alpha`'s binary.
pub fn beta_entry() {
    let _held = alpha::used_by_other_crate();
    Totals.merge(&Totals);
    Totals.method_calls_only();
    Totals.method_and_path_calls();
    alpha::method_and_path_calls();
    Totals.method_calls_and_value();
    let _ = [1u32].map(alpha::method_calls_and_value);
}

struct Totals;

impl Totals {
    fn merge(&self, _other: &Totals) {}
    fn method_calls_only(&self) {}
    fn method_and_path_calls(&self) {}
    fn method_calls_and_value(&self) {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        alpha::only_cfg_test();
    }
}
