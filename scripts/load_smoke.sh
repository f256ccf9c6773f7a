#!/usr/bin/env sh
# load_smoke.sh — CI end-to-end load smoke for the mcmd batch solve daemon:
# build it, boot it on a private port, fire concurrent mixed batches (means,
# ratios, a certified solve, and one doomed 1ms deadline), assert the
# /debug/vars counters line up with what was sent, check one streamed
# (NDJSON) batch, then deliver SIGTERM and require a clean drain (exit 0).
# Fails on any hang, miscount, or non-200 where a 200 was owed.
# docs/SERVING.md documents the workflow.
set -eu

ADDR="${LOAD_SMOKE_ADDR:-127.0.0.1:18574}"
OUT="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$OUT"' EXIT INT TERM

go build -o "$OUT/mcmd" ./cmd/mcmd

"$OUT/mcmd" -addr "$ADDR" -workers 4 -queue 16 -stats=false \
    >"$OUT/mcmd.out" 2>"$OUT/mcmd.err" &
PID=$!

# Wait for readiness.
i=0
until curl -fs "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "load_smoke: FAIL — daemon never became healthy" >&2; cat "$OUT/mcmd.err" >&2; exit 1; }
    sleep 0.1
done

# One batch: a certified mean, a ratio, and a deliberately doomed deadline.
# (mean of the 2-cycle is (3+5)/2 = 4; ratio of the transit cycle is 8/4 = 2.)
BATCH='{
  "requests": [
    {"id": "mean", "text": "p mcm 2 2\na 1 2 3\na 2 1 5\n", "certify": true},
    {"id": "ratio", "text": "p mcm 2 2\na 1 2 4 2\na 2 1 4 2\n", "problem": "ratio"},
    {"id": "doomed", "text": "p mcm 2 2\na 1 2 3\na 2 1 5\n", "algorithm": "lawler", "deadline_ms": 1, "certify": true}
  ]
}'

# Fire 8 concurrent copies and wait for each (a failed curl fails the smoke).
REQS=8
n=0
CURL_PIDS=""
while [ "$n" -lt "$REQS" ]; do
    curl -fs -X POST "http://$ADDR/v1/solve" -d "$BATCH" >"$OUT/resp.$n.json" &
    CURL_PIDS="$CURL_PIDS $!"
    n=$((n + 1))
done
for p in $CURL_PIDS; do
    wait "$p" || { echo "load_smoke: FAIL — a solve request failed outright" >&2; exit 1; }
done

# Every response must be a 200 batch with the right answers.
n=0
while [ "$n" -lt "$REQS" ]; do
    RESP="$OUT/resp.$n.json"
    grep -q '"id": "mean"' "$RESP" || { echo "load_smoke: FAIL — response $n incomplete" >&2; cat "$RESP" >&2; exit 1; }
    # λ* = 4 for the mean entry, ρ* = 2 for the ratio entry.
    grep -q '"rat": "4"' "$RESP" || { echo "load_smoke: FAIL — wrong mean in response $n" >&2; cat "$RESP" >&2; exit 1; }
    grep -q '"rat": "2"' "$RESP" || { echo "load_smoke: FAIL — wrong ratio in response $n" >&2; cat "$RESP" >&2; exit 1; }
    grep -q '"certified": true' "$RESP" || { echo "load_smoke: FAIL — certificate missing in response $n" >&2; cat "$RESP" >&2; exit 1; }
    n=$((n + 1))
done

# The /debug/vars counters must account for every graph: 8 requests x 3
# graphs, of which the doomed ones may or may not beat their 1ms budget.
VARS=$(curl -fs "http://$ADDR/debug/vars")
count() { printf '%s' "$VARS" | grep -o "\"$1\": [0-9]*" | head -1 | grep -o '[0-9]*'; }
REQUESTS=$(count requests)
GRAPHS=$(count graphs)
GRAPHS_OK=$(count graphs_ok)
ERRORS=$(count graph_errors)
RUNS=$(count solver_runs)
[ "$REQUESTS" -eq "$REQS" ] || { echo "load_smoke: FAIL — requests=$REQUESTS, want $REQS" >&2; exit 1; }
[ "$GRAPHS" -eq $((REQS * 3)) ] || { echo "load_smoke: FAIL — graphs=$GRAPHS, want $((REQS * 3))" >&2; exit 1; }
[ $((GRAPHS_OK + ERRORS)) -eq "$GRAPHS" ] || { echo "load_smoke: FAIL — $GRAPHS_OK ok + $ERRORS errors != $GRAPHS graphs" >&2; exit 1; }
[ "$GRAPHS_OK" -ge $((REQS * 2)) ] || { echo "load_smoke: FAIL — only $GRAPHS_OK solved graphs" >&2; exit 1; }
[ "${RUNS:-0}" -gt 0 ] || { echo "load_smoke: FAIL — no solver_runs on /debug/vars" >&2; exit 1; }

# pprof rides the same listener.
curl -fs -o /dev/null "http://$ADDR/debug/pprof/" || {
    echo "load_smoke: FAIL — /debug/pprof/ not served" >&2
    exit 1
}

# The streaming variant answers NDJSON: one line per graph, then a trailer
# carrying "done":true.
STREAM=$(curl -fs -X POST "http://$ADDR/v1/solve?stream=1" \
    -d '{"requests":[{"text":"p mcm 2 2\na 1 2 3\na 2 1 5\n"},{"text":"p mcm 1 1\na 1 1 7\n"}]}')
LINES=$(printf '%s\n' "$STREAM" | grep -c '^{') || LINES=0
[ "$LINES" -eq 3 ] || { echo "load_smoke: FAIL — streaming answered $LINES lines, want 2 results + trailer" >&2; printf '%s\n' "$STREAM" >&2; exit 1; }
printf '%s' "$STREAM" | grep -q '"done":true' || {
    echo "load_smoke: FAIL — streaming response missing the trailer" >&2
    exit 1
}

# SIGTERM must drain clean: process exits 0 and the port closes.
kill -TERM "$PID"
if ! wait "$PID"; then
    echo "load_smoke: FAIL — mcmd exited non-zero on SIGTERM" >&2
    cat "$OUT/mcmd.err" >&2
    exit 1
fi
if curl -fs --max-time 2 "http://$ADDR/healthz" >/dev/null 2>&1; then
    echo "load_smoke: FAIL — daemon still answering after drain" >&2
    exit 1
fi

echo "load_smoke: OK — $REQUESTS requests, $GRAPHS_OK/$GRAPHS graphs solved, $RUNS solver runs, streamed batch, clean drain"
