#!/usr/bin/env sh
# Live-observability smoke: start a headline sweep with -serve active
# (-j 4 across cells), then scrape every endpoint and assert the
# exposition is well-formed — OpenMetrics text that terminates in
# # EOF and carries the noc_packets series every run exports and the
# campaign's sweep_failures series, /status JSON with the cell
# counters, an SSE stream that frames events, and a live pprof index.
# Run via `make serve-smoke`.
set -eu

# Port-collision hardening: by default ask the kernel for an ephemeral
# port (bind :0) and read the resolved address back from the serve
# banner, so parallel CI jobs on one runner can never race on a fixed
# port. SERVE_SMOKE_ADDR still overrides for manual debugging.
ADDR_REQ="${SERVE_SMOKE_ADDR:-127.0.0.1:0}"
OUT="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$OUT"' EXIT INT TERM

go build -o "$OUT/microbank" ./cmd/microbank
"$OUT/microbank" -exp headline -quick -instr 4000 -j 4 \
    -serve "$ADDR_REQ" -serve-linger 120s >"$OUT/stdout" 2>"$OUT/stderr" &
PID=$!

# Resolve the actual bound address from the stderr banner (the server
# binds before the run starts, so this is quick).
ADDR=""
i=0
while [ -z "$ADDR" ]; do
    ADDR="$(sed -n 's#^microbank: serving observability on http://\([^ ]*\) .*#\1#p' "$OUT/stderr" | head -n 1)"
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "serve smoke: serve banner never appeared" >&2
        cat "$OUT/stderr" >&2
        exit 1
    fi
    sleep 0.2
done

i=0
until curl -sf "http://$ADDR/status" >"$OUT/status.json" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "serve smoke: endpoint never came up" >&2
        cat "$OUT/stderr" >&2
        exit 1
    fi
    sleep 0.2
done

# Let the sweep finish so the merged campaign view carries every series.
i=0
until grep -q '"state":"done"' "$OUT/status.json"; do
    i=$((i + 1))
    if [ "$i" -ge 150 ]; then
        echo "serve smoke: sweep did not finish" >&2
        cat "$OUT/status.json" >&2
        exit 1
    fi
    sleep 0.2
    curl -sf "http://$ADDR/status" >"$OUT/status.json"
done

curl -sf "http://$ADDR/metrics" >"$OUT/metrics.txt"

# OpenMetrics shape: TYPE headers, a terminating # EOF, and every line
# either a comment or `name[{labels}] value`.
grep -q '^# TYPE noc_packets gauge$' "$OUT/metrics.txt"
grep -q '^noc_packets ' "$OUT/metrics.txt"
grep -q '^sweep_failures ' "$OUT/metrics.txt"
tail -n 1 "$OUT/metrics.txt" | grep -qx '# EOF'
if grep -vE '^(# (TYPE [a-zA-Z_:][a-zA-Z0-9_:]* gauge|EOF)$|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9a-zA-Z.+-]+$)' "$OUT/metrics.txt"; then
    echo "serve smoke: malformed exposition line(s) above" >&2
    exit 1
fi

# /status carries the campaign report-so-far.
grep -q '"cells":{' "$OUT/status.json"
grep -q '"experiment":"headline"' "$OUT/status.json"

# /events opens with a framed status event.
curl -sf -m 2 "http://$ADDR/events" >"$OUT/events.txt" || true
grep -q '^event: status$' "$OUT/events.txt"
grep -q '^data: {' "$OUT/events.txt"

# pprof mux is mounted.
curl -sf "http://$ADDR/debug/pprof/" | grep -q goroutine

kill "$PID"
wait "$PID" 2>/dev/null || true
echo "serve smoke: /metrics /status /events /debug/pprof/ all healthy"
