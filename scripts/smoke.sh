#!/usr/bin/env bash
# Smoke test for the live client/server path, with the real binaries on
# localhost. Only coterie-server and coterie-client run; every load is one
# or more coterie-client processes. In order:
#
#   1. `make test-procs`: the frame-serving packages at GOMAXPROCS 1, 2, nproc.
#   2. A 2-second TCP session against one server. Mid-session, the server's
#      /metrics must show frames served and a delta-coded frame, and the
#      client's /qoe a sane window FPS and missed-vsync ratio; the client's
#      end-of-session metrics must show cache hits.
#   3. A UDP session (-udp-frames -push) on the same server: datagram frames
#      delivered, at least one pushed frame consumed, no CRC-corrupt drops.
#   4. Three concurrent clients (distinct -player / -seed) on the same
#      server: each exits 0, prints its pipeline report and a sane fetch p95.
set -euo pipefail

cd "$(dirname "$0")/.."

bin=$(mktemp -d)
server_pid=
client_pid=
client_pids=()
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null
    [ -n "$client_pid" ] && kill "$client_pid" 2>/dev/null
    for p in ${client_pids[@]+"${client_pids[@]}"}; do kill "$p" 2>/dev/null; done
    wait 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT INT TERM

# http_get HOST PORT PATH: minimal HTTP/1.0 GET over bash's /dev/tcp so
# the smoke test needs no curl/wget on the host.
http_get() {
    local out
    if ! exec 3<>"/dev/tcp/$1/$2" 2>/dev/null; then
        return 1
    fi
    printf 'GET %s HTTP/1.0\r\nHost: %s\r\n\r\n' "$3" "$1" >&3
    out=$(cat <&3)
    exec 3>&- 3<&-
    printf '%s' "$out"
}

# start_clients LABEL SEED ADDR...: one 2-second coterie-client per
# address, all at once, client i playing player i with movement seed
# SEED+i; their pids land in client_pids, their output in LABEL-i.log.
start_clients() {
    local label=$1 seed=$2 i=0 a
    shift 2
    client_pids=()
    for a in "$@"; do
        i=$((i + 1))
        "$bin/coterie-client" -game pool -addr "$a" -seconds 2 -speed 2 \
            -player "$i" -seed "$((seed + i))" \
            >"$bin/$label-$i.log" 2>&1 &
        client_pids+=($!)
    done
}

# wait_clients LABEL: every client started by start_clients must exit 0
# and report a pipeline, a non-zero fetch count and a sane fetch p95 (the
# players mostly hit warm or nearby store points, so a seconds-long p95
# means the serve path is broken, not just slow hardware).
wait_clients() {
    local label=$1 i=0 p log
    for p in "${client_pids[@]}"; do
        i=$((i + 1))
        log="$bin/$label-$i.log"
        wait "$p" || {
            echo "smoke: $label client $i failed" >&2
            cat "$log" >&2
            exit 1
        }
        awk '
            /^pipeline: /       { pipe = 1 }
            /^fetched /         { fetched = $2 }
            /^fetch latency /   { p95 = $7 }
            END {
                if (!pipe) { print "smoke: no pipeline report"; exit 1 }
                if (fetched + 0 <= 0) { print "smoke: no frames fetched"; exit 1 }
                if (p95 == "" || p95 + 0 < 0 || p95 + 0 > 5000) { print "smoke: fetch p95 insane: " p95; exit 1 }
            }' "$log" || {
            echo "smoke: $label client $i report failed sanity check" >&2
            cat "$log" >&2
            exit 1
        }
    done
    client_pids=()
}

echo "smoke: frame-serving packages at GOMAXPROCS 1, 2 and nproc..."
make test-procs

echo "smoke: building binaries..."
go build -o "$bin/coterie-server" ./cmd/coterie-server
go build -o "$bin/coterie-client" ./cmd/coterie-client

port=$((20000 + RANDOM % 20000))
admin_port=$((port + 1))
client_admin_port=$((port + 2))
addr="127.0.0.1:$port"
admin_addr="127.0.0.1:$admin_port"
client_admin_addr="127.0.0.1:$client_admin_port"

# Small panoramas keep the offline preprocessing and per-frame renders
# fast; the protocol and pipeline are the same at any resolution.
"$bin/coterie-server" -game pool -addr "$addr" -width 64 -height 32 \
    -admin "$admin_addr" -drain 2s -push >"$bin/server.log" 2>&1 &
server_pid=$!

echo "smoke: waiting for server on $addr..."
for _ in $(seq 1 240); do
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "smoke: server exited during startup" >&2
        cat "$bin/server.log" >&2
        exit 1
    fi
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
        exec 3>&- 3<&-
        break
    fi
    sleep 0.5
done

echo "smoke: running 2-second live session..."
"$bin/coterie-client" -game pool -addr "$addr" -seconds 2 -speed 2 \
    -metrics-json "$bin/metrics.json" \
    -admin "$client_admin_addr" \
    >"$bin/client.log" 2>&1 &
client_pid=$!

# Scrape both admin endpoints while the session is live: the server's
# /metrics must show real traffic (the prefetch path pushes
# server.frames_served above zero well before the session ends), and the
# client's /qoe must publish a windowed QoE summary once at least two
# frames have displayed.
echo "smoke: scraping $admin_addr/metrics and $client_admin_addr/qoe mid-session..."
served_ok=
delta_ok=
qoe_ok=
while kill -0 "$client_pid" 2>/dev/null; do
    if http_get 127.0.0.1 "$admin_port" /metrics >"$bin/metrics.scrape" 2>/dev/null; then
        if [ -z "$served_ok" ] &&
            grep -Eq '"server\.frames_served": *[1-9]' "$bin/metrics.scrape"; then
            served_ok=1
        fi
        if [ -z "$delta_ok" ] &&
            grep -Eq '"server\.delta_frames": *[1-9]' "$bin/metrics.scrape"; then
            delta_ok=1
        fi
    fi
    if [ -z "$qoe_ok" ] &&
        http_get 127.0.0.1 "$client_admin_port" /qoe >"$bin/qoe.scrape" 2>/dev/null &&
        grep -Eq '"spans": *([2-9]|[0-9]{2,})' "$bin/qoe.scrape"; then
        qoe_ok=1
    fi
    if [ -n "$served_ok" ] && [ -n "$delta_ok" ] && [ -n "$qoe_ok" ]; then
        break
    fi
    sleep 0.2
done
if [ -z "$served_ok" ] || [ -z "$delta_ok" ]; then
    # The session may have raced past the scrape loop; accept a post-hoc
    # scrape as long as the counters are non-zero (the server keeps them).
    http_get 127.0.0.1 "$admin_port" /metrics >"$bin/metrics.scrape" || true
    grep -Eq '"server\.frames_served": *[1-9]' "$bin/metrics.scrape" || {
        echo "smoke: /metrics never reported frames served" >&2
        cat "$bin/metrics.scrape" >&2
        cat "$bin/server.log" >&2
        exit 1
    }
    # A walking player re-requests nearby grid points, so the session must
    # have produced at least one delta-coded reply.
    grep -Eq '"server\.delta_frames": *[1-9]' "$bin/metrics.scrape" || {
        echo "smoke: /metrics never reported a delta-coded frame" >&2
        cat "$bin/metrics.scrape" >&2
        cat "$bin/server.log" >&2
        exit 1
    }
fi

wait "$client_pid"
client_pid=
cat "$bin/client.log"

# QoE fields must be present and sane. Prefer the mid-session /qoe scrape;
# a session fast enough to race past the scrape loop falls back to the qoe
# section of the end-of-session metrics snapshot (same ComputeQoE path).
qoe_src="$bin/qoe.scrape"
if [ -z "$qoe_ok" ]; then
    echo "smoke: /qoe scrape raced past the session; checking metrics.json qoe section"
    qoe_src="$bin/metrics.json"
fi
awk '
    /"window_fps":/         { v = $2; gsub(/[",]/, "", v); fps = v }
    /"missed_vsync_ratio":/ { v = $2; gsub(/[",]/, "", v); missed = v }
    END {
        if (fps == "" || missed == "") { print "smoke: qoe fields missing"; exit 1 }
        if (fps + 0 <= 0 || fps + 0 > 1000) { print "smoke: window_fps insane: " fps; exit 1 }
        if (missed + 0 < 0 || missed + 0 > 1) { print "smoke: missed_vsync_ratio insane: " missed; exit 1 }
    }' "$qoe_src" || {
    echo "smoke: QoE snapshot failed sanity check ($qoe_src)" >&2
    cat "$qoe_src" >&2
    exit 1
}

grep -q "^pipeline: " "$bin/client.log" || {
    echo "smoke: client report missing" >&2
    cat "$bin/server.log" >&2
    exit 1
}

grep -Eq '"cache\.hits": *[1-9]' "$bin/metrics.json" || {
    echo "smoke: client metrics snapshot shows no cache hits" >&2
    cat "$bin/metrics.json" >&2
    exit 1
}

# Datagram frame path: the same server (started with -push) serves a
# second session over UDP. The client must consume at least one pushed
# frame — either served out of the channel's retained store
# (client.udp.push_serves) or displayed by the pipeline
# (cache.pushed_hits) — and must drop zero frames to CRC corruption.
echo "smoke: running 2-second UDP session with push..."
"$bin/coterie-client" -game pool -addr "$addr" -seconds 2 -speed 2 \
    -udp-frames -push \
    -metrics-json "$bin/metrics-udp.json" \
    >"$bin/client-udp.log" 2>&1 || {
    echo "smoke: UDP client session failed" >&2
    cat "$bin/client-udp.log" "$bin/server.log" >&2
    exit 1
}
grep -q "^pipeline: " "$bin/client-udp.log" || {
    echo "smoke: UDP client report missing" >&2
    cat "$bin/client-udp.log" "$bin/server.log" >&2
    exit 1
}
grep -Eq '"client\.udp\.frames_delivered": *[1-9]' "$bin/metrics-udp.json" || {
    echo "smoke: UDP session delivered no datagram frames" >&2
    cat "$bin/metrics-udp.json" >&2
    exit 1
}
grep -Eq '"(client\.udp\.push_serves|cache\.pushed_hits)": *[1-9]' "$bin/metrics-udp.json" || {
    echo "smoke: UDP session consumed no pushed frames" >&2
    cat "$bin/metrics-udp.json" >&2
    exit 1
}
if grep -Eq '"client\.udp\.corrupt": *[1-9]' "$bin/metrics-udp.json"; then
    echo "smoke: UDP session dropped frames to CRC corruption" >&2
    cat "$bin/metrics-udp.json" >&2
    exit 1
fi

# Several players at once against the same live server.
echo "smoke: running 3 concurrent clients against the live server..."
start_clients multi 10 "$addr" "$addr" "$addr"
wait_clients multi

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=

echo "smoke: OK"
