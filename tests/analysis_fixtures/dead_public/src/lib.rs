//! dead-public fixture: the facade.  Its re-exports are not callers; the
//! rest of its code is.
pub use alpha::only_pub_use;

/// Facade code that really calls into a library.
pub fn facade_helper() {
    alpha::used_by_facade();
}
