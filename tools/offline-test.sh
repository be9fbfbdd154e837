#!/usr/bin/env bash
# Run the whole workspace's tests with real cargo and no registry access.
#
# Every registry crate is patched from the command line to a std-only
# stand-in: crossbeam / parking_lot / bytes are the ones the benchmark
# crate already ships (perf/stubs), the four dev-dependencies live in
# tools/offline-stubs. Nothing in the repository's manifests changes, and
# no root .cargo/config.toml is involved, so `perf/Cargo.toml` (which
# carries its own [patch.crates-io]) builds exactly as it always does.
#
#   tools/offline-test.sh                      # lib, bin, test and example targets
#   tools/offline-test.sh --test differential  # arguments replace the target selection
#
# The stand-ins differ from the real crates where it cannot matter for a
# pass/fail verdict (no proptest shrinking, other random streams, no
# criterion statistics); report runs made this way as stub-verified.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target/offline}"
mkdir -p "$target"
config="$target/offline-patch.toml"

cat > "$config" <<TOML
[patch.crates-io]
crossbeam   = { path = "$root/perf/stubs/crossbeam" }
parking_lot = { path = "$root/perf/stubs/parking_lot" }
bytes       = { path = "$root/perf/stubs/bytes" }
tempfile    = { path = "$root/tools/offline-stubs/tempfile" }
rand        = { path = "$root/tools/offline-stubs/rand" }
proptest    = { path = "$root/tools/offline-stubs/proptest" }
criterion   = { path = "$root/tools/offline-stubs/criterion" }
TOML

if [ "$#" -eq 0 ]; then
    set -- --workspace --lib --bins --tests --examples
fi

cd "$root"
CARGO_TARGET_DIR="$target" exec cargo test --offline --config "$config" "$@"
