#!/usr/bin/env bash
# admin_smoke.sh — CI smoke test for the live node telemetry surface.
#
# Starts cmd/ammnode with -admin on a loopback port, waits for the
# listener and the run, and checks that:
#   - /healthz answers 200 with the expected JSON fields,
#   - /metrics exposes the lifecycle gauges, event counters, and
#     per-stage trace quantiles,
#   - /trace returns a Chrome trace-event document with span events,
#   - the stage table the node printed and /metrics agree (both fold the
#     tracer's retained spans) and no stage row claims virtual time,
# then shuts the node down (the -admin surface stays up after the run
# until SIGTERM, which is exactly what lets this script curl a finished
# run's state).
#
# The first leg runs a durable node (-data-dir); the second runs the
# node's default in-memory invocation, whose telemetry must be just as
# full: spans on /trace, sync parts and stage counts on /metrics.
#
# Usage: scripts/admin_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-16230}"
ADDR="127.0.0.1:$PORT"
DIR=$(mktemp -d /tmp/admin_smoke.XXXXXX)
LOG="$DIR/node.log"
BIN="$DIR/ammnode"

cleanup() {
  [ -n "${NODE_PID:-}" ] && kill "$NODE_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/ammnode

# start_node <log> <args...>: runs the node with -admin in the
# background and returns once its run is done and its report printed
# (the process stays alive serving the admin endpoints).
start_node() {
  local log="$1"
  shift
  "$BIN" "$@" -admin "$ADDR" >"$log" 2>&1 &
  NODE_PID=$!
  # Wait for the listener (the listener is up before epoch 1 starts).
  for i in $(seq 1 50); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
    kill -0 "$NODE_PID" 2>/dev/null || { echo "admin_smoke: node died early:"; cat "$log"; exit 1; }
    sleep 0.2
  done
  for i in $(seq 1 300); do
    curl -sf "http://$ADDR/healthz" | grep -q '"run_done":true' && break
    kill -0 "$NODE_PID" 2>/dev/null || { echo "admin_smoke: node died mid-run:"; cat "$log"; exit 1; }
    sleep 0.2
  done
  # The report (and its stage table) prints once the run is done; the
  # admin banner follows it.
  for i in $(seq 1 50); do
    grep -q 'run complete; admin surface stays up' "$log" && break
    sleep 0.2
  done
}

stop_node() {
  kill "$NODE_PID" 2>/dev/null || true
  wait "$NODE_PID" 2>/dev/null || true
  NODE_PID=
}

echo "leg 1: durable node (-data-dir)"
start_node "$LOG" -data-dir "$DIR/store" -pools 8 -epochs 3

fail=0
check() { # check <label> <haystack-file> <needle>...
  local label="$1" file="$2"
  shift 2
  for needle in "$@"; do
    if grep -q "$needle" "$file"; then
      echo "  ok    $label: $needle"
    else
      echo "  FAIL  $label missing: $needle"
      fail=1
    fi
  done
}

curl -sf "http://$ADDR/healthz" >"$DIR/healthz" || { echo "admin_smoke: /healthz unreachable"; exit 1; }
check /healthz "$DIR/healthz" '"status":"ok"' '"epoch":3' '"run_done":true' '"halted":false'

curl -sf "http://$ADDR/metrics" >"$DIR/metrics" || { echo "admin_smoke: /metrics unreachable"; exit 1; }
check /metrics "$DIR/metrics" \
  'ammboost_epoch 3' \
  'ammboost_synced_epoch 3' \
  'ammboost_halted 0' \
  'ammboost_event_total{type="epoch-start"} 3' \
  'ammboost_event_total{type="sync-confirmed"} 3' \
  'ammboost_sync_parts_applied_total 3' \
  'ammboost_sync_part_execs_total 3' \
  'ammboost_trace_spans_total' \
  'ammboost_stage_seconds{stage="execute-shard",q="0.50"}' \
  'ammboost_stage_seconds{stage="commit-build",q="0.99"}' \
  'ammboost_stage_count{stage="seal"}'

# One record of stage timing: the printed table's seal count is the
# served one, and no row is labelled with the simulator's clock.
printed_seal=$(awk '/^=== stage latency/ {on=1; next} on && $1 == "seal" {print $2; exit}' "$LOG")
served_seal=$(sed -n 's/^ammboost_stage_count{stage="seal"} //p' "$DIR/metrics")
if [ -n "$printed_seal" ] && [ "$printed_seal" = "$served_seal" ]; then
  echo "  ok    stage table: seal count $printed_seal = /metrics"
else
  echo "  FAIL  stage table seal count '$printed_seal' != /metrics '$served_seal'"
  fail=1
fi
if grep -q 'sync-confirm is virtual' "$LOG"; then
  echo "  FAIL  node log still labels sync-confirm as virtual time"
  fail=1
fi

curl -sf "http://$ADDR/trace?epochs=3" >"$DIR/trace.json" || { echo "admin_smoke: /trace unreachable"; exit 1; }
check /trace "$DIR/trace.json" \
  '"displayTimeUnit":"ms"' \
  '"ph":"X"' \
  '"name":"execute shard 0"' \
  '"name":"commit-build e' \
  '"name":"store-fsync e' \
  '"name":"sync-submit e'

if command -v jq >/dev/null; then
  jq -e '.traceEvents | length > 0' "$DIR/trace.json" >/dev/null || { echo "  FAIL  /trace is not valid JSON with events"; fail=1; }
fi

# pprof + expvar respond.
curl -sf "http://$ADDR/debug/vars" | grep -q memstats || { echo "  FAIL  /debug/vars missing memstats"; fail=1; }
curl -sf "http://$ADDR/debug/pprof/" >/dev/null || { echo "  FAIL  /debug/pprof/ unreachable"; fail=1; }

stop_node

# Leg 2: the default invocation keeps its state in memory; its telemetry
# must not be empty.
echo "leg 2: in-memory node (no -data-dir)"
start_node "$DIR/mem.log" -epochs 3
curl -sf "http://$ADDR/trace?epochs=3" >"$DIR/mem-trace.json" || { echo "admin_smoke: /trace unreachable"; exit 1; }
check /trace "$DIR/mem-trace.json" '"ph":"X"'
curl -sf "http://$ADDR/metrics" >"$DIR/mem-metrics" || { echo "admin_smoke: /metrics unreachable"; exit 1; }
check /metrics "$DIR/mem-metrics" \
  'ammboost_sync_parts_applied_total 3' \
  'ammboost_stage_count{stage="seal"}'
stop_node

if [ "$fail" -ne 0 ]; then
  echo "admin_smoke: FAILED"
  exit 1
fi
echo "admin_smoke: all admin endpoints healthy"
