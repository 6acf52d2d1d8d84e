#!/usr/bin/env bash
# Non-test Go lines under internal/, in total and per package: the number a
# simplicity PR quotes in CHANGES.md, so it is counted the same way each
# time.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh DIR      # another checkout, e.g. a clone of the parent
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

count() { find "$1" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }

printf '%7d  internal/ (non-test Go lines)\n' "$(count internal)"
for pkg in internal/*/; do
    printf '%7d  %s\n' "$(count "$pkg")" "${pkg%/}"
done
