#!/usr/bin/env bash
# Non-test source lines per crate: for every `crates/<crate>/src/**/*.rs`,
# the lines before the file's first `#[cfg(test)]` (the whole file when it
# has none). Blank lines and comments count; only unit tests are left out.
#
#   tools/loc.sh              # this checkout
#   tools/loc.sh <checkout>   # another one, e.g. a `git clone` of a parent
#
# Output: one `<crate> <lines>` line per crate, then `total <lines>`.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
total=0
for src in "$root"/crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    lines=0
    while IFS= read -r -d '' file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
    done < <(find "$src" -name '*.rs' -print0)
    printf '%s %d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf 'total %d\n' "$total"
