#!/usr/bin/env bash
# End-to-end smoke: boot two surrogated back-ends and an sdnd front-end
# on localhost, run one offload request through the full stack, then a
# short closed-loop loadgen run — over JSON/HTTP and over the binary
# framed protocol (surrogate-2 registers as bin://, the front-end also
# listens on bin://). Finally, kill one surrogate and assert the
# failure detector ejects it (probing surrogate-2 over the binary
# protocol) and the front-end keeps serving with zero errors on both
# transports. A final two-region section boots region-labelled
# front-ends, kills the home region, and asserts the geo tier serves
# with zero errors through the surviving region while its /stats counts
# the absorbed cross-region traffic. Exits non-zero on any failure.
# Used by the e2e-smoke CI job; safe to run locally (ports 9100-9107).
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/...

"$BIN/surrogated" -listen 127.0.0.1:9101 -name surrogate-1 &
"$BIN/surrogated" -listen 127.0.0.1:9102 -name surrogate-2 \
  -proto both -listen-bin 127.0.0.1:9104 &
SURROGATE2_PID=$!
# Both surrogates carry the full task pool, so both serve both groups —
# the redundancy the kill-one-surrogate step below relies on.
# Surrogate-2 registers by its binary framed address, so one hop of
# every pair — and its health probes — runs the wire protocol. -probe
# enables the failure detector; -backend-timeout keeps a dead hop from
# stalling a request behind the 30s default.
"$BIN/sdnd" -listen 127.0.0.1:9100 -policy p2c \
  -proto both -listen-bin 127.0.0.1:9103 \
  -probe 100ms -backend-timeout 2s \
  -queue-limit 4 -queue-depth 64 \
  -backend 1=http://127.0.0.1:9101 \
  -backend 1=bin://127.0.0.1:9104 \
  -backend 2=http://127.0.0.1:9101 \
  -backend 2=bin://127.0.0.1:9104 &

# Wait for the stack to come up: the first offload that succeeds proves
# front-end routing and surrogate execution end to end.
ok=""
for _ in $(seq 1 50); do
  if "$BIN/offload" -frontend http://127.0.0.1:9100 -task sieve -size 1 \
      -group 1 -timeout 2s >/dev/null 2>&1; then
    ok=1
    break
  fi
  sleep 0.2
done
if [ -z "$ok" ]; then
  echo "e2e: stack never became healthy" >&2
  exit 1
fi

echo "== one offload request through the full stack =="
"$BIN/offload" -frontend http://127.0.0.1:9100 -task minimax -size 6 -group 2

echo "== one offload request over the binary framed protocol =="
"$BIN/offload" -frontend bin://127.0.0.1:9103 -task minimax -size 6 -group 2

echo "== 2-second closed-loop load-generation run =="
"$BIN/loadgen" -frontend http://127.0.0.1:9100 -mode concurrent \
  -users 4 -rate 5 -duration 2s -seed 1 -groups 1,2 \
  -max-error-rate 0 -out "$BIN/e2e_loadgen.json"

echo "== 2-second loadgen run over the binary framed protocol =="
"$BIN/loadgen" -frontend bin://127.0.0.1:9103 -mode concurrent \
  -users 4 -rate 5 -duration 2s -seed 1 -groups 1,2 \
  -max-error-rate 0 -out "$BIN/e2e_loadgen_bin.json"

echo "== scrape /metrics mid-load on the front-end and a surrogate =="
# Run another loadgen in the background and scrape both exposition
# endpoints while requests are in flight: the hot-path counters must be
# non-zero and every line must parse as Prometheus text exposition with
# no duplicate series.
"$BIN/loadgen" -frontend http://127.0.0.1:9100 -mode concurrent \
  -users 4 -rate 5 -duration 2s -seed 5 -groups 1,2 -span-sample 2 \
  -max-error-rate 0 -out "$BIN/e2e_loadgen_metrics.json" &
LOADGEN_PID=$!
sleep 1
check_metrics() {
  url="$1"
  counter="$2"
  body="$(curl -sf "$url")" || { echo "e2e: $url unreachable" >&2; return 1; }
  bad="$(grep -v '^#' <<<"$body" | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$' || true)"
  if [ -n "$bad" ]; then
    echo "e2e: malformed exposition lines from $url:" >&2
    echo "$bad" >&2
    return 1
  fi
  dups="$(grep -v '^#' <<<"$body" | awk '{print $1}' | sort | uniq -d)"
  if [ -n "$dups" ]; then
    echo "e2e: duplicate series from $url:" >&2
    echo "$dups" >&2
    return 1
  fi
  grep -E "^${counter}(\{[^}]*\})? " <<<"$body" \
    | awk '{ if ($2 + 0 > 0) found = 1 } END { exit !found }' || {
    echo "e2e: $counter not incremented at $url" >&2
    echo "$body" >&2
    return 1
  }
}
check_metrics http://127.0.0.1:9100/metrics accel_offloads_total
check_metrics http://127.0.0.1:9101/metrics accel_surrogate_executed_total
wait "$LOADGEN_PID"
grep -q '"spans"' "$BIN/e2e_loadgen_metrics.json" || {
  echo "e2e: loadgen report has no spans section despite -span-sample" >&2
  cat "$BIN/e2e_loadgen_metrics.json" >&2 || true
  exit 1
}

echo "== admission queues drain to zero once the load stops =="
drained=""
for _ in $(seq 1 50); do
  stats_json="$(curl -sf http://127.0.0.1:9100/stats || true)"
  if grep -q '"queued"' <<<"$stats_json" \
      && ! grep -o '"queued":[0-9]*' <<<"$stats_json" | grep -qv '"queued":0'; then
    drained=1
    break
  fi
  sleep 0.1
done
if [ -z "$drained" ]; then
  echo "e2e: admission queues never drained" >&2
  curl -sf http://127.0.0.1:9100/stats >&2 || true
  exit 1
fi

echo "== canary-weighted front-end: 25% of picks to the v2 backend =="
# Surrogate-2's HTTP listener doubles as the v2 canary next to
# surrogate-1's stable registration; the canary policy stripes picks
# deterministically at the configured weight.
"$BIN/sdnd" -listen 127.0.0.1:9105 -policy canary:v2=0.25 \
  -backend-timeout 2s \
  -backend 1=http://127.0.0.1:9101 \
  -backend 1=http://127.0.0.1:9102@v2 &
canary_ok=""
for _ in $(seq 1 50); do
  if "$BIN/offload" -frontend http://127.0.0.1:9105 -task sieve -size 1 \
      -group 1 -timeout 2s >/dev/null 2>&1; then
    canary_ok=1
    break
  fi
  sleep 0.2
done
if [ -z "$canary_ok" ]; then
  echo "e2e: canary front-end never became healthy" >&2
  exit 1
fi
curl -sf http://127.0.0.1:9105/stats | grep -q '"version":"v2"' || {
  echo "e2e: canary front-end lost the v2 version label" >&2
  curl -sf http://127.0.0.1:9105/stats >&2 || true
  exit 1
}
"$BIN/loadgen" -frontend http://127.0.0.1:9105 -mode concurrent \
  -users 4 -rate 5 -duration 2s -seed 3 -groups 1 \
  -max-error-rate 0 -out "$BIN/e2e_loadgen_canary.json"

echo "== kill surrogate-2, wait for the failure detector to eject it =="
# Surrogate-2 is registered as bin://, so the detector notices over
# binary-protocol health probes.
kill "$SURROGATE2_PID"
ejected=""
for _ in $(seq 1 100); do
  count="$(curl -sf http://127.0.0.1:9100/stats | grep -o '"ejected"' | wc -l || true)"
  # surrogate-2 serves both groups, so both registrations must eject.
  if [ "$count" -ge 2 ]; then
    ejected=1
    break
  fi
  sleep 0.1
done
if [ -z "$ejected" ]; then
  echo "e2e: killed surrogate was never ejected" >&2
  curl -sf http://127.0.0.1:9100/stats >&2 || true
  exit 1
fi

echo "== front-end keeps serving with zero errors after ejection =="
"$BIN/loadgen" -frontend http://127.0.0.1:9100 -mode concurrent \
  -users 4 -rate 5 -duration 2s -seed 2 -groups 1,2 \
  -max-error-rate 0 -out "$BIN/e2e_loadgen_after_kill.json"

echo "== binary front-end keeps serving with zero errors too =="
"$BIN/loadgen" -frontend bin://127.0.0.1:9103 -mode concurrent \
  -users 4 -rate 5 -duration 2s -seed 2 -groups 1,2 \
  -max-error-rate 0 -out "$BIN/e2e_loadgen_bin_after_kill.json"

echo "== two-region deployment: region-a (home) and region-b =="
# Both regional front-ends route to surrogate-1; -region labels each
# one so /stats can attribute absorbed cross-region traffic.
"$BIN/sdnd" -listen 127.0.0.1:9106 -region region-a \
  -backend-timeout 2s -backend 1=http://127.0.0.1:9101 &
REGION_A_PID=$!
"$BIN/sdnd" -listen 127.0.0.1:9107 -region region-b \
  -backend-timeout 2s -backend 1=http://127.0.0.1:9101 &
geo_ok=""
for _ in $(seq 1 50); do
  if curl -sf http://127.0.0.1:9106/healthz >/dev/null 2>&1 \
      && curl -sf http://127.0.0.1:9107/healthz >/dev/null 2>&1; then
    geo_ok=1
    break
  fi
  sleep 0.2
done
if [ -z "$geo_ok" ]; then
  echo "e2e: regional front-ends never became healthy" >&2
  exit 1
fi
curl -sf http://127.0.0.1:9106/stats | grep -q '"region":"region-a"' || {
  echo "e2e: region-a front-end lost its region label" >&2
  curl -sf http://127.0.0.1:9106/stats >&2 || true
  exit 1
}

echo "== kill the home region; geo loadgen must serve via region-b =="
kill "$REGION_A_PID"
"$BIN/loadgen" \
  -regions region-a=http://127.0.0.1:9106,region-b=http://127.0.0.1:9107 \
  -mode concurrent -users 4 -rate 5 -duration 2s -seed 4 -groups 1 \
  -max-error-rate 0 -out "$BIN/e2e_loadgen_geo.json"
grep -q '"region-b"' "$BIN/e2e_loadgen_geo.json" || {
  echo "e2e: geo report has no region-b slice" >&2
  cat "$BIN/e2e_loadgen_geo.json" >&2 || true
  exit 1
}
# Every call carried the region-a origin stamp, so the surviving
# front-end must have counted the absorbed traffic as spilled.
curl -sf http://127.0.0.1:9107/stats | grep -o '"spilled":[0-9]*' | grep -qv '"spilled":0' || {
  echo "e2e: region-b front-end counted no spilled-over calls" >&2
  curl -sf http://127.0.0.1:9107/stats >&2 || true
  exit 1
}

echo "e2e smoke OK"
