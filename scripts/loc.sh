#!/usr/bin/env bash
# Non-test Go lines under internal/ (in total and per package) and under
# cmd/, plus their combined total, then the command-line flags each cmd/
# binary defines, then the settable values: the exported fields of every
# config struct. These are the numbers a simplicity PR quotes in
# CHANGES.md (lines, knobs and settable values), so they are counted the
# same way each time — a deleted command shows up in the cmd/ line, not
# nowhere. Last come the exported wire decoders, the surface `make fuzz`
# must cover, so a protocol deletion is quoted the same way too.
#
#   scripts/loc.sh              # the working tree
#   scripts/loc.sh DIR          # another checkout, e.g. a clone of the parent
#   scripts/loc.sh --fields DIR # only the settable values, one per line:
#                               # file, struct and field name (scripts/knobs.sh)
set -euo pipefail

only_fields=false
if [ "${1:-}" = --fields ]; then
    only_fields=true
    shift
fi
cd "${1:-$(dirname "$0")/..}"

# A settable value is one exported field of a struct type under internal/
# whose name ends in Config, Options or Params, or of server.Server (set
# before Serve). Every name counts on a line such as
# `MinRadius, MaxRadius float64`; comments are ignored. Each field prints
# as "F file struct field", each struct as "S file struct count".
fields() {
    find internal -name '*.go' ! -name '*_test.go' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_struct = 0 }
        !in_struct && ($0 ~ /^type [A-Za-z0-9_]*(Config|Options|Params) struct \{/ ||
                       (FILENAME ~ /^internal\/server\// && $0 ~ /^type Server struct \{/)) {
            name = $2; n = 0; in_struct = 1; depth = 1; next
        }
        in_struct {
            line = $0
            sub(/\/\/.*/, "", line)
            if (depth == 1) {
                # "A, B int" -> "A,B int": the first word lists the names.
                list = line
                gsub(/[ \t]*,[ \t]*/, ",", list)
                split(list, words, /[ \t]+/)
                w = words[1] == "" ? 2 : 1
                if (words[w] ~ /^[A-Za-z_][A-Za-z0-9_,]*$/ && words[w + 1] != "") {
                    k = split(words[w], parts, ",")
                    for (i = 1; i <= k; i++) if (parts[i] ~ /^[A-Z]/) {
                        n++
                        printf "F %s %s %s\n", FILENAME, name, parts[i]
                    }
                }
            }
            depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            if (depth == 0) {
                printf "S %s %s %d\n", FILENAME, name, n
                in_struct = 0
            }
        }'
}

if $only_fields; then
    fields | awk '$1 == "F" { print $2, $3, $4 }'
    exit 0
fi

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

out=$(fields | awk '$1 == "S" { printf "%7d  %s.%s\n", $4, $2, $3 }' |
    sed -E 's#internal/([^/]+)/[^ ]*\.go\.#\1.#')
printf '%s\n' "$out"
printf '%7d  settable values (exported config fields)\n' "$(printf '%s\n' "$out" | awk '{ s += $1 } END { print s }')"

# An exported decoder is a package-level function under internal/ that
# parses bytes from the wire or a file: every `func Decode…` plus
# codec.DeltaDecode (methods such as device.Profile.DecodeMs are not).
decoders=$(find internal -name '*.go' ! -name '*_test.go' -print0 | sort -z |
    xargs -0 grep -HoE '^func (Decode[A-Za-z0-9_]*|DeltaDecode)\(' |
    sed -E 's#^internal/([^/]+)/[^:]*:func ([A-Za-z0-9_]+)\($#\1.\2#')
printf '         %s\n' $decoders
printf '%7d  exported decoders (func Decode…, codec.DeltaDecode)\n' "$(printf '%s\n' "$decoders" | grep -c .)"
