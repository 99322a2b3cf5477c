#!/usr/bin/env sh
# Durability smoke for the content-addressed result store: prove that a
# campaign killed with SIGKILL mid-sweep resumes from the store to a
# byte-identical report, that a SIGINT/SIGTERM interrupt checkpoints and
# flushes valid aborted artifacts, that flipped bytes in a committed
# entry are quarantined and re-simulated instead of crashing the run or
# poisoning the result, and that a single `-exp run` killed by a tripped
# limit still writes its trace, metrics and report as valid JSON marked
# aborted. Needs jq. Run via `make crash-smoke`.
set -eu

OUT="$(mktemp -d)"
PID=""
trap 'kill -9 "$PID" 2>/dev/null || true; rm -rf "$OUT"' EXIT INT TERM

# One flag set for every run: the report embeds parallelism, so -j must
# not vary between the runs being byte-compared.
EXP=fig8
FLAGS="-exp $EXP -quick -instr 20000 -j 2"

go build -o "$OUT/microbank" ./cmd/microbank
run() { "$OUT/microbank" $FLAGS "$@"; }
entries() { ls "$1"/*.res 2>/dev/null | wc -l | tr -d ' '; }

# --- Phase 1: store on/off byte-identity + cross-run sharing ----------
run -report "$OUT/ref.json" >/dev/null
run -store "$OUT/store1" -report "$OUT/first.json" >/dev/null 2>"$OUT/first.err"
cmp "$OUT/ref.json" "$OUT/first.json" || {
    echo "crash smoke: store-backed report differs from plain run" >&2; exit 1; }
TOTAL="$(entries "$OUT/store1")"
[ "$TOTAL" -gt 0 ] || { echo "crash smoke: store committed no entries" >&2; exit 1; }

run -store "$OUT/store1" -report "$OUT/replay.json" >/dev/null 2>"$OUT/replay.err"
cmp "$OUT/ref.json" "$OUT/replay.json" || {
    echo "crash smoke: replayed report differs from plain run" >&2; exit 1; }
grep -q 'store: .* 0 miss(es), 0 new' "$OUT/replay.err" || {
    echo "crash smoke: replay run still simulated cells:" >&2
    cat "$OUT/replay.err" >&2; exit 1; }
echo "crash smoke: phase 1 ok ($TOTAL entries, store on/off byte-identical, full replay)"

# --- Phase 2: SIGKILL mid-campaign, resume byte-identically -----------
# Retry if the run ever outpaces the kill (a faster machine); the kill
# must land while the store is still partial for the phase to prove
# anything.
attempt=1
while :; do
    rm -rf "$OUT/store2"
    # Background the binary directly (not via the run() function): $!
    # must be the simulator's own PID for the signals to land on it.
    "$OUT/microbank" $FLAGS -store "$OUT/store2" -report "$OUT/crash.json" \
        >"$OUT/crash.out" 2>"$OUT/crash.err" &
    PID=$!
    i=0
    while [ "$(entries "$OUT/store2")" -lt 5 ] && kill -0 "$PID" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 600 ]; then
            echo "crash smoke: crash run never committed 5 entries" >&2
            cat "$OUT/crash.err" >&2; exit 1
        fi
        sleep 0.05
    done
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    PID=""
    GOT="$(entries "$OUT/store2")"
    if [ "$GOT" -lt "$TOTAL" ]; then
        break
    fi
    if [ "$attempt" -ge 3 ]; then
        echo "crash smoke: run completed before SIGKILL on every attempt" >&2
        exit 1
    fi
    attempt=$((attempt + 1))
done

# Rerunning against the same store is the resume.
run -store "$OUT/store2" -report "$OUT/resume.json" \
    >/dev/null 2>"$OUT/resume.err"
cmp "$OUT/ref.json" "$OUT/resume.json" || {
    echo "crash smoke: resumed-after-SIGKILL report differs from plain run" >&2
    exit 1; }
grep -q 'store: [1-9][0-9]* hit(s)' "$OUT/resume.err" || {
    echo "crash smoke: resume run replayed nothing from the store:" >&2
    cat "$OUT/resume.err" >&2; exit 1; }
echo "crash smoke: phase 2 ok (SIGKILL at $GOT/$TOTAL entries, resume byte-identical)"

# --- Phase 3: graceful SIGTERM flushes valid aborted artifacts --------
rm -rf "$OUT/store3"
"$OUT/microbank" $FLAGS -store "$OUT/store3" -report "$OUT/abort.json" \
    >"$OUT/abort.out" 2>"$OUT/abort.err" &
PID=$!
i=0
while [ "$(entries "$OUT/store3")" -lt 3 ] && kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 600 ]; then
        echo "crash smoke: abort run never committed 3 entries" >&2
        cat "$OUT/abort.err" >&2; exit 1
    fi
    sleep 0.05
done
kill -TERM "$PID" 2>/dev/null || true
rc=0
wait "$PID" || rc=$?
PID=""
[ "$rc" -ne 0 ] || {
    # The sweep may have finished before the signal landed; that run is
    # a complete campaign, not an abort, so only the slow path asserts.
    echo "crash smoke: phase 3 skipped (run finished before SIGTERM landed)"
    rc=-1; }
if [ "$rc" -ge 0 ]; then
    grep -q 'checkpointing and flushing aborted artifacts' "$OUT/abort.err" || {
        echo "crash smoke: SIGTERM handler banner missing:" >&2
        cat "$OUT/abort.err" >&2; exit 1; }
    grep -q '"aborted":' "$OUT/abort.json" || {
        echo "crash smoke: aborted report lacks the aborted marker" >&2
        cat "$OUT/abort.json" >&2; exit 1; }
    echo "crash smoke: phase 3 ok (SIGTERM -> exit $rc, aborted report flushed)"
fi

# --- Phase 4: corruption quarantines and re-simulates -----------------
F="$(ls "$OUT/store1"/*.res | head -n 1)"
SIZE="$(wc -c <"$F")"
# Flip the tail of the payload (the closing '}' of the JSON result):
# the CRC no longer matches and the entry must be quarantined.
printf 'X' | dd of="$F" bs=1 seek="$((SIZE - 2))" conv=notrunc 2>/dev/null
run -store "$OUT/store1" -report "$OUT/heal.json" >/dev/null 2>"$OUT/heal.err"
cmp "$OUT/ref.json" "$OUT/heal.json" || {
    echo "crash smoke: post-corruption report differs from plain run" >&2
    exit 1; }
grep -q 'store: .* [1-9][0-9]* quarantined' "$OUT/heal.err" || {
    echo "crash smoke: corrupt entry was not quarantined:" >&2
    cat "$OUT/heal.err" >&2; exit 1; }
[ "$(ls "$OUT/store1/quarantine" | wc -l)" -gt 0 ] || {
    echo "crash smoke: quarantine directory is empty" >&2; exit 1; }
echo "crash smoke: phase 4 ok (flipped byte quarantined, cell re-simulated, report byte-identical)"

# --- Phase 5: a tripped limit flushes -exp run's artifacts ------------
# The event budget trips long before the spec's 240k instructions
# retire, so the run fails and must still write all three artifacts,
# each valid JSON, and print its failure on stderr once.
rc=0
"$OUT/microbank" -exp run -spec examples/specs/mcf_lpddr-tsi_1x1.json -event-budget 20000 \
    -trace "$OUT/t.json" -metrics-out "$OUT/m.json" -report "$OUT/r.json" \
    >/dev/null 2>"$OUT/run.err" || rc=$?
[ "$rc" -ne 0 ] || {
    echo "crash smoke: -exp run exited 0 despite its event budget" >&2; exit 1; }
for f in t.json m.json r.json; do
    jq -e . "$OUT/$f" >/dev/null || {
        echo "crash smoke: aborted -exp run left $f missing or invalid" >&2
        cat "$OUT/run.err" >&2; exit 1; }
done
[ "$(grep -c 'event budget 20000 exhausted' "$OUT/run.err")" -eq 1 ] || {
    echo "crash smoke: -exp run did not print its failure exactly once" >&2
    cat "$OUT/run.err" >&2; exit 1; }
jq -e '.otherData.aborted | length > 0' "$OUT/t.json" >/dev/null || {
    echo "crash smoke: aborted trace lacks otherData.aborted" >&2; exit 1; }
jq -e '.aborted | length > 0' "$OUT/r.json" >/dev/null || {
    echo "crash smoke: aborted -exp run report lacks the aborted marker" >&2; exit 1; }
echo "crash smoke: phase 5 ok (-exp run event budget -> exit $rc, trace, metrics and report flushed aborted)"

echo "crash smoke: store survives SIGKILL, SIGTERM, and corruption with byte-identical results; -exp run flushes its artifacts on abort"
