#!/usr/bin/env bash
# Each settable value scripts/loc.sh counts, with the number of non-test Go
# files outside the value's own package that set it by name (`Name:` in a
# composite literal, or `.Name =`), fewest setters first. A value no other
# package sets is a candidate for a constant.
#
# A listing for review, not a gate: it is a name heuristic. A table in
# the value's own package can hide a real use (cache.Version builds every
# cache.Config), and a field name that another struct shares can hide a
# knob.
#
#   scripts/knobs.sh        # the working tree
#   scripts/knobs.sh DIR    # another checkout, e.g. a clone of the parent
set -euo pipefail

loc="$(cd "$(dirname "$0")" && pwd)/loc.sh"
cd "${1:-$(dirname "$0")/..}"

"$loc" --fields . | while read -r file typ name; do
    pkg=$(dirname "$file")
    n=$(find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path "./$pkg/*" -print0 |
        xargs -0 grep -lE "(^|[[:space:]{,])$name:[^=]|\.$name[[:space:]]*=[^=]" | wc -l || true)
    printf '%7d  %s.%s.%s\n' "$n" "${pkg#internal/}" "$typ" "$name"
done | sort -s -n -k1,1
