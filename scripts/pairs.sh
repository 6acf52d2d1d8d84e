#!/usr/bin/env bash
# Alternating parent / change pairs of one benchmark workload: the
# procedure behind every performance claim (choosing-metrics §8), so it is
# run the same way each time instead of by hand.
#
#   scripts/pairs.sh PARENT_REF WORKLOAD SEED N
#   scripts/pairs.sh HEAD~1 cold_scatter 3 10
#
# PARENT_REF is exported with `git archive` into .bench_build/parent/ and
# the working tree — uncommitted edits and untracked, not ignored files
# included — the same way into .bench_build/change/, so the two sides
# differ in nothing but their source: each a fresh tree with its own
# bench/ build and build cache, neither the checkout's. Each pair runs
# `bash bench/run.sh --workload WORKLOAD --seed SEED --seconds 10
# --trace 0` once on each side, the side that goes first alternating from
# pair to pair. Every run is printed, then per end-to-end
# metric: each side's median and quartiles, the pairs the change won (ties
# count for neither) and the parent's own quartile distance — claim a gain
# only at >= 9/10 pairs won and medians further apart than that distance.
# Below the summary come two diagnostics from the same runs' `also` lines,
# cpu_ms_per_frame and frames_per_s (median and quartiles, no bound and no
# verdict): fetch_p50_ms of two closed-loop players swings +-10 % on a busy
# host, CPU per frame hardly at all, so it is the steady witness of a
# compute change.
# Nothing under bench/ is touched; everything written lands in
# .bench_build/ (git-ignored), apart from the blobs of the working-tree
# snapshot, which git stores as ordinary unreferenced objects.
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 PARENT_REF WORKLOAD SEED N" >&2
    exit 2
fi
ref=$1 workload=$2 seed=$3 n=$4

root=$(cd "$(dirname "$0")/.." && pwd)
parent="$root/.bench_build/parent"
change="$root/.bench_build/change"
runs="$root/.bench_build/pairs.$workload.$seed.txt"
rm -rf "$parent" "$change"
mkdir -p "$parent" "$change"
git -C "$root" archive "$ref" | tar -x -C "$parent"
# The working tree as a tree object: a scratch index staged with `add -A`
# (the real index is untouched), then archived like the parent.
index="$root/.bench_build/change.index"
rm -f "$index"
GIT_INDEX_FILE="$index" git -C "$root" add -A
git -C "$root" archive "$(GIT_INDEX_FILE="$index" git -C "$root" write-tree)" | tar -x -C "$change"
rm -f "$index"
: > "$runs"

# run SIDE TREE PAIR: one benchmark run; the metrics of its result object
# (the last stdout line, full precision) are appended to $runs as "PAIR
# SIDE METRIC VALUE UNIT", the two diagnostics as "PAIR SIDE also:METRIC
# VALUE UNIT". A failed output check fails the script (run.sh exits
# non-zero).
run() {
    bash "$2/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 |
        awk -v side="$1" -v pair="$3" '{ last = $0 }
            $1 == "also" && ($3 == "cpu_ms_per_frame" || $3 == "frames_per_s") { print pair, side, "also:" $3, $4, $5 }
            END {
                sub(/.*"metrics":\{/, "", last)
                n = split(last, kv, /\},?/)
                for (i = 1; i <= n; i++)
                    if (split(kv[i], f, /[":{,]+/) >= 6) print pair, side, f[2], f[4], f[6]
            }' |
        tee -a "$runs"
}

echo "parent $(git -C "$root" rev-parse --short "$ref") vs working tree: $workload, seed $seed, $n pairs"
for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
done

# Summary. Direction (lower / higher is better) and the regression bound
# of each metric come from BENCHMARK.json's end_to_end entries.
awk '
function quantile(a, n, p,    pos, lo) {
    pos = (n - 1) * p; lo = int(pos)
    return lo + 1 >= n ? a[n] : a[lo + 1] + (pos - lo) * (a[lo + 2] - a[lo + 1])
}
function sorted(side, m, out,    i, j, t, n) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((i, side, m) in v) out[++n] = v[i, side, m]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
    return n
}
# stats prints a label and, for metric m, the unit, the median and quartiles
# of each side and the relative distance of the medians; the sorted runs of
# the parent stay in P[1..np].
function stats(m, label,    nc, pm, cm) {
    np = sorted("parent", m, P); nc = sorted("change", m, C)
    pm = quantile(P, np, 0.5); cm = quantile(C, nc, 0.5)
    printf "%-16s %-5s %12.8g [%10.8g, %10.8g] %12.8g [%10.8g, %10.8g] %+7.1f%%", label, unit[m],
        pm, quantile(P, np, 0.25), quantile(P, np, 0.75), cm, quantile(C, nc, 0.25), quantile(C, nc, 0.75),
        pm ? 100 * (cm - pm) / pm : 0
}
FNR == NR {
    if ($0 ~ /"bound"/ && match($0, /"name": *"[^"]+"/)) {
        name = substr($0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name)
        higher[name] = ($0 ~ /"better": *"higher"/)
        match($0, /"bound": *[0-9.]+/); b = substr($0, RSTART, RLENGTH); sub(/"bound": */, "", b); bound[name] = b
    }
    next
}
{
    v[$1, $2, $3] = $4; unit[$3] = $5
    if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
    if ($1 > pairs) pairs = $1
}
END {
    printf "\n%-16s %-5s %36s %36s %8s %9s %12s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "pairs won", "parent q3-q1"
    for (k = 1; k <= nm; k++) {
        m = order[k]
        if (m ~ /^also:/) continue
        stats(m, m)
        won = 0; lost = 0
        for (i = 1; i <= pairs; i++) {
            d = v[i, "change", m] - v[i, "parent", m]
            if (higher[m]) d = -d
            if (d < 0) won++; else if (d > 0) lost++
        }
        printf " %5d/%-3d %12.6g", won, pairs, quantile(P, np, 0.75) - quantile(P, np, 0.25)
        printf "   (%s is better, bound %s, change lost %d)\n", higher[m] ? "higher" : "lower", bound[m], lost
    }
    printf "\ndiagnostics (per-layer, no bound, no verdict)\n"
    for (k = 1; k <= nm; k++) {
        m = order[k]
        if (m !~ /^also:/) continue
        stats(m, substr(m, 6))
        printf "\n"
    }
}' "$root/BENCHMARK.json" "$runs"
