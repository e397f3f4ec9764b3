//! An empty shell: the wall-clock backend is `rrs-api`'s `WallClockHost`.
//! The crate stays only so no manifest changes, which keeps the benchmark
//! package's tracked `Cargo.lock` byte-identical.  It goes, with its
//! dependency edges, once that lock file is no longer tracked.

#![forbid(unsafe_code)]
