#!/usr/bin/env bash
# Paired runs of the end-to-end benchmark: a parent revision against the
# working tree, the way a performance claim has to be measured (ROADMAP,
# "Rules that PR 13 made binding"): same seeds, binaries alternated, one
# captured output per run, `perf-agree` over the two sets.
#
#   tools/perf-pairs.sh <parent-rev> <workload> <seed>...
#   tools/perf-pairs.sh HEAD~1 point_lookup 1 2 3 4 5 6 7 8 9 10
#   tools/perf-pairs.sh --trace HEAD~1 point_lookup 1        # per-layer metrics instead
#   tools/perf-pairs.sh --smoke HEAD point_lookup 1 2        # what CI runs
#
# The parent revision is `git clone`d (never a worktree) and each side is
# built from its own checkout's `perf/` as it is, into its own target
# directory, all under `$CARGO_TARGET_DIR/perf-pairs` (else
# `/root/scratch/perf-pairs`, else `target/perf-pairs`). The two
# `asterix-perf` executables are copied apart before anything runs, because
# a run keeps its instance data beside its executable; the parent's stay
# under `bin/parent-<sha>`, and a later campaign against the same revision
# runs them without cloning or building it again. A campaign holds a lock
# on `lock` there from start to end: a second one waits for it instead of
# deleting the binaries and runs of the first. Runs are strictly
# one after another (the benchmark pins itself to one CPU), odd pairs run
# the parent first and even pairs the change, and a run that fails stops
# the campaign. Nothing here needs a terminal: start a long campaign with
# `setsid nohup tools/perf-pairs.sh ... > pairs.log 2>&1 &`.
#
# `--smoke` runs every workload at 1/20 size with the working tree's build
# standing in for BOTH sides — the clone and the second build are the only
# steps skipped — so CI exercises the loop, the capture and the verdict in
# a minute. Its numbers mean nothing.
#
# Output: one line per pair (ops_per_s, which side ran first), the number
# of pairs each side won, then `perf-agree`'s table — every gated metric's
# median, quartiles and spread on both sides and the verdict against the
# bounds of BENCHMARK.json. The exit status is `perf-agree`'s (0 agree,
# 1 a gated median is worse than its bound, 2 a set could not be read).
set -euo pipefail

smoke=0
trace=0
while [ "$#" -gt 0 ]; do
    case "$1" in
        --smoke) smoke=1 ;;
        --trace) trace=1 ;;
        *) break ;;
    esac
    shift
done
if [ "$#" -lt 3 ]; then
    echo "usage: tools/perf-pairs.sh [--smoke] [--trace] <parent-rev> <workload> <seed>..." >&2
    exit 64
fi
parent_rev="$1"
workload="$2"
shift 2

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    base="$CARGO_TARGET_DIR/perf-pairs"
elif [ -d /root/scratch ]; then
    base=/root/scratch/perf-pairs
else
    base="$root/target/perf-pairs"
fi
runs="$base/runs/$workload"
mkdir -p "$base"
exec 9> "$base/lock"
if ! flock -n 9; then
    echo "perf-pairs: waiting for the campaign that holds $base/lock" >&2
    flock 9
fi
if [ "$smoke" -eq 1 ]; then
    parent_bin="$base/bin/parent"
else
    rev="$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")"
    parent_bin="$base/bin/parent-$rev"
fi
rm -rf "$runs" "$base/bin/change" "$base/bin/parent"
mkdir -p "$runs/parent" "$runs/change" "$base/bin/change"

# Building the benchmark resolves its workspace, and that rewrites the
# committed `perf/Cargo.lock`, which still names crates the workspace no
# longer uses. The lock is saved here and put back on exit, so a campaign
# or a `--smoke` run leaves the working tree as it found it. Regenerating
# the lock would edit `perf/`, which only the benchmark's own change may do
# (ROADMAP item 2).
lock="$root/perf/Cargo.lock"
cp "$lock" "$base/Cargo.lock.saved"
trap 'cp "$base/Cargo.lock.saved" "$lock"' EXIT

# build <checkout> <target dir>: that checkout's benchmark, as the
# benchmark command of BENCHMARK.json builds it.
build() {
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/perf/Cargo.toml" --bins
}

echo "perf-pairs: building the working tree" >&2
build "$root" "$base/target-change"
cp "$base/target-change/release/asterix-perf" "$base/bin/change/"
cp "$base/target-change/release/perf-agree" "$base/bin/"
if [ "$smoke" -eq 1 ]; then
    mkdir -p "$parent_bin"
    cp "$base/bin/change/asterix-perf" "$parent_bin/"
elif [ -x "$parent_bin/asterix-perf" ]; then
    echo "perf-pairs: the parent, $rev, is built already" >&2
else
    echo "perf-pairs: building the parent, $rev" >&2
    rm -rf "$base/src-parent"
    git clone --quiet --no-checkout "$root" "$base/src-parent"
    git -C "$base/src-parent" checkout --quiet --detach "$rev"
    build "$base/src-parent" "$base/target-parent"
    mkdir -p "$parent_bin.tmp"
    cp "$base/target-parent/release/asterix-perf" "$parent_bin.tmp/"
    mv "$parent_bin.tmp" "$parent_bin"
fi

args=(--workload "$workload" --trace "$trace")
if [ "$smoke" -eq 1 ]; then
    args+=(--smoke)
else
    args+=(--seconds "$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")")
fi

# run_one <side> <seed>: one captured output per run, as perf-agree reads them.
run_one() {
    echo "perf-pairs: $workload seed $2, $1" >&2
    local bin="$base/bin/change"
    if [ "$1" = parent ]; then
        bin="$parent_bin"
    fi
    "$bin/asterix-perf" "${args[@]}" --seed "$2" > "$runs/$1/seed-$2.txt"
}

ops_of() {
    tail -n 1 "$1" | sed -n 's/.*"ops_per_s":{"value":\([0-9.eE+-]*\).*/\1/p'
}

pair=0
for seed in "$@"; do
    pair=$((pair + 1))
    if [ $((pair % 2)) -eq 1 ]; then
        order="parent change"
    else
        order="change parent"
    fi
    for side in $order; do
        run_one "$side" "$seed"
    done
    if [ "$trace" -eq 0 ]; then
        echo "pair $pair seed $seed: parent $(ops_of "$runs/parent/seed-$seed.txt")" \
            "change $(ops_of "$runs/change/seed-$seed.txt") ops_per_s (${order%% *} first)"
    fi
done | tee "$runs/pairs.txt"

if [ "$trace" -eq 0 ]; then
    awk '{ n++; if ($8 > $6) c++; else if ($8 < $6) p++ }
         END { printf "ops_per_s: change won %d, parent won %d of %d pairs\n\n", c, p, n }' \
        "$runs/pairs.txt"
fi
status=0
"$base/bin/perf-agree" "$root/BENCHMARK.json" "$runs/parent" "$runs/change" || status=$?
# 1/20-size runs of one build disagree by chance; the smoke fails only if
# the campaign could not be run or read.
if [ "$smoke" -eq 1 ] && [ "$status" -eq 1 ]; then
    status=0
fi
exit "$status"
