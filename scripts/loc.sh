#!/usr/bin/env bash
# Non-test Go lines under internal/ (in total and per package) and under
# cmd/, plus their combined total: the numbers a simplicity PR quotes in
# CHANGES.md, so they are counted the same way each time — a deleted
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
