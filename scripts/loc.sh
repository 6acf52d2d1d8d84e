#!/usr/bin/env bash
# Non-test Go lines under internal/ (in total and per package) and under
# cmd/, plus their combined total, then the command-line flags each cmd/
# binary defines: the numbers a simplicity PR quotes in CHANGES.md (lines
# and knobs), so they are counted the same way each time — a deleted
# command shows up in the cmd/ line, not nowhere.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh DIR      # another checkout, e.g. a clone of the parent
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

count() { find "$1" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }

internal=$(count internal)
cmd=$(count cmd)
printf '%7d  internal/ + cmd/ (non-test Go lines)\n' "$((internal + cmd))"
printf '%7d  internal/\n' "$internal"
for pkg in internal/*/; do
    printf '%7d  %s\n' "$(count "$pkg")" "${pkg%/}"
done
printf '%7d  cmd/\n' "$cmd"

# A flag is one call of a flag-defining function of the standard flag
# package (flag.Int, flag.StringVar, fs.Duration, ...) with its name
# literal: the opening quote keeps Parse, Args and friends out.
flags() {
    find "$1" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat |
        grep -oE '\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Var|TextVar)(Var)?\((&?[A-Za-z_.]+, *)?"' |
        wc -l
}

total=0
for bin in cmd/*/; do
    n=$(flags "$bin")
    total=$((total + n))
    printf '%7d  %s (flags)\n' "$n" "${bin%/}"
done
printf '%7d  cmd/ (flags)\n' "$total"

