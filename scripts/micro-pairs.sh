#!/usr/bin/env bash
# Alternating parent / change pairs of one package's Go micro-benchmarks:
# the witness procedure of a performance PR, run the same way each time
# instead of by hand.
#
#   scripts/micro-pairs.sh PARENT_REF PKG BENCH N
#   scripts/micro-pairs.sh HEAD~1 ./internal/server ColdMiss 5
#
# PARENT_REF is exported with `git archive` into .bench_build/micro/parent/
# (as scripts/pairs.sh does); the change is the working tree. Each side's
# test binary for PKG is built once, then each pair runs both binaries once
# with `-test.run '^$' -test.bench BENCH -test.cpu 1,2` (benchtime from
# BENCHTIME, default 1s), the side that goes first alternating from pair to
# pair, each in its own package directory. Every run is printed, then per
# benchmark (the -cpu 2 runs carry the usual "-2" suffix): each side's
# median and quartiles of the time per op in ms, the relative distance of
# the medians, the pairs the change won (ties count for neither) and the
# parent's own quartile distance; a benchmark only one side has is named
# as such. Everything written lands in .bench_build/ (git-ignored).
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 PARENT_REF PKG BENCH N" >&2
    exit 2
fi
ref=$1 pkg=$2 bench=$3 n=$4
benchtime=${BENCHTIME:-1s}

root=$(cd "$(dirname "$0")/.." && pwd)
work="$root/.bench_build/micro"
parent="$work/parent"
runs="$work/runs.txt"
rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$ref" | tar -x -C "$parent"
(cd "$parent" && go test -c -o "$work/parent.test" "$pkg")
(cd "$root" && go test -c -o "$work/change.test" "$pkg")
: > "$runs"

# run SIDE TREE PAIR: one run of the side's binary in its package
# directory; each benchmark line is echoed and appended to $runs as
# "PAIR SIDE NAME NS_PER_OP".
run() {
    (cd "$2/$pkg" && "$work/$1.test" -test.run '^$' -test.bench "$bench" -test.cpu 1,2 \
        -test.benchtime "$benchtime" -test.benchmem) |
        awk -v side="$1" -v pair="$3" '$1 ~ /^Benchmark/ {
            for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op") { print pair, side, $1, $i; print }
        }' |
        awk -v runs="$runs" 'NF == 4 && $2 ~ /^(parent|change)$/ { print >> runs; next } { print }'
}

echo "parent $(git -C "$root" rev-parse --short "$ref") vs working tree: $pkg -bench $bench, $n pairs"
for i in $(seq 1 "$n"); do
    echo "pair $i"
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run parent "$parent" "$i"
    fi
done

awk '
function quantile(a, n, p,    pos, lo) {
    pos = (n - 1) * p; lo = int(pos)
    return lo + 1 >= n ? a[n] : a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
}
function sorted(side, b, out,    i, j, t, n) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((i, side, b) in v) out[++n] = v[i, side, b]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
    return n
}
{
    v[$1, $2, $3] = $4
    if (!($3 in seen)) { seen[$3] = 1; order[++nb] = $3 }
    if ($1 > pairs) pairs = $1
}
END {
    printf "\n%-40s %34s %34s %8s %9s %12s\n", "benchmark (ms/op)", "parent median [q1, q3]", "change median [q1, q3]", "delta", "pairs won", "parent q3-q1"
    for (k = 1; k <= nb; k++) {
        b = order[k]
        np = sorted("parent", b, P); nc = sorted("change", b, C)
        if (!np || !nc) { printf "%-40s only in the %s\n", b, np ? "parent" : "change"; continue }
        pm = quantile(P, np, 0.5); cm = quantile(C, nc, 0.5)
        won = 0
        for (i = 1; i <= pairs; i++)
            if (((i, "change", b) in v) && ((i, "parent", b) in v) && v[i, "change", b] < v[i, "parent", b]) won++
        printf "%-40s %10.4f [%9.4f, %9.4f] %10.4f [%9.4f, %9.4f] %+7.1f%% %5d/%-3d %12.4f\n", b,
            pm / 1e6, quantile(P, np, 0.25) / 1e6, quantile(P, np, 0.75) / 1e6,
            cm / 1e6, quantile(C, nc, 0.25) / 1e6, quantile(C, nc, 0.75) / 1e6,
            pm ? 100 * (cm - pm) / pm : 0, won, pairs, (quantile(P, np, 0.75) - quantile(P, np, 0.25)) / 1e6
    }
}' "$runs"
