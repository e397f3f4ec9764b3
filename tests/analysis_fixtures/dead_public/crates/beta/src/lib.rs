//! dead-public fixture: another library crate.
//!
//! Not a caller either: only_comment.

pub use alpha::only_pub_use;

/// Called by `alpha`'s binary.
pub fn beta_entry() {
    let _held = alpha::used_by_other_crate();
    Totals.merge(&Totals);
}

struct Totals;

impl Totals {
    fn merge(&self, _other: &Totals) {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        alpha::only_cfg_test();
    }
}
