#!/usr/bin/env bash
# The benchmark's one entry point: builds the package (release, offline)
# and passes every argument through.  See README.md beside this file.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" -- \
    --out-dir "$here/out" "$@"
