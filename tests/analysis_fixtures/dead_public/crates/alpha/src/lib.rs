//! dead-public fixture: the audited library crate.
//!
//! A mention in prose is not a caller: only_comment.

/// Called from this crate only.
pub fn only_own_crate() {}

/// Called from a `#[cfg(test)]` module only (here and in `beta`).
pub fn only_cfg_test() {}

/// Called from `tests/` directories only (this crate's and the root's).
pub fn only_tests_dir() {}

/// Named by `beta`'s `pub use` and the facade's, never called.
pub fn only_pub_use() {}

/// Named in comments only (above, and in `beta`).
pub fn only_comment() {}

/// A `const fn` is audited as a `fn`.
pub const fn dead_const_fn() -> u32 {
    DEAD_CONST
}

/// Read by this crate only.
pub const DEAD_CONST: u32 = 1;

/// Called by `beta`'s non-test code; its return type rides along.
pub fn used_by_other_crate() -> ExposedBySignature {
    only_own_crate();
    ExposedBySignature
}

/// Never spelled outside this crate, but a caller of
/// `used_by_other_crate` holds one: exposed through a public signature.
pub struct ExposedBySignature;

/// Its own method's signature does not keep a type alive.
pub struct SelfNamed;

impl SelfNamed {
    /// `merge` is a live name (`beta` merges something else).
    pub fn merge(&self, _other: &SelfNamed) {}
}

/// A free function `beta` names only as a method call and a method
/// declaration of its own: neither can reach it.
pub fn method_calls_only() {}

/// The same, but `beta` also calls it by path.
pub fn method_and_path_calls() {}

/// The same, but `beta` also passes it by value.
pub fn method_calls_and_value(x: u32) -> u32 {
    x
}

/// Called by this crate's own binary, a different compilation unit.
pub fn used_by_bin() {}

/// Called by an example.
pub fn used_by_example() {}

/// Called by the benchmark package.
pub fn used_by_benchmark() {}

/// Called by the facade's non-re-export code.
pub fn used_by_facade() {}

/// Restricted visibility promises nothing outside the crate.
pub(crate) fn restricted_is_not_audited() {}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        super::only_cfg_test();
        super::restricted_is_not_audited();
    }
}
