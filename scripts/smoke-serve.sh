#!/usr/bin/env bash
# End-to-end smoke for summagen-serve: boot the service, push a job
# through the full lifecycle, cross-check the result digest across two
# identical submissions, and verify the SIGTERM drain is graceful.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18423"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
trap 'kill "$SERVE_PID" "$SERVE_A_PID" "$SERVE_B_PID" "$ROUTER_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT
SERVE_PID="" SERVE_A_PID="" SERVE_B_PID="" ROUTER_PID=""

say()  { echo "smoke-serve: $*"; }
fail() {
  echo "smoke-serve: FAIL: $*" >&2
  [ -f "$WORKDIR/serve.log" ] && sed 's/^/  serve: /' "$WORKDIR/serve.log" >&2
  [ -f "$WORKDIR/serve-chaos.log" ] && sed 's/^/  serve-chaos: /' "$WORKDIR/serve-chaos.log" >&2
  [ -f "$WORKDIR/serve-integrity.log" ] && sed 's/^/  serve-integrity: /' "$WORKDIR/serve-integrity.log" >&2
  [ -f "$WORKDIR/serve-slo.log" ] && sed 's/^/  serve-slo: /' "$WORKDIR/serve-slo.log" >&2
  [ -f "$WORKDIR/router.log" ] && sed 's/^/  router: /' "$WORKDIR/router.log" >&2
  [ -f "$WORKDIR/router-jain.log" ] && sed 's/^/  router-jain: /' "$WORKDIR/router-jain.log" >&2
  [ -f "$WORKDIR/serve-i0.log" ] && sed 's/^/  serve-i0: /' "$WORKDIR/serve-i0.log" >&2
  [ -f "$WORKDIR/serve-i1.log" ] && sed 's/^/  serve-i1: /' "$WORKDIR/serve-i1.log" >&2
  exit 1
}

# jget FILE KEY: extract a scalar field from a JSON file.
jget() {
  python3 - "$1" "$2" <<'PY'
import json, sys
v = json.load(open(sys.argv[1]))
try:
    for k in sys.argv[2].split("."):
        v = v[k]
except KeyError:
    v = 0  # omitted optional field (e.g. attempts on a no-recovery job)
print(v)
PY
}

say "building"
go build -o "$WORKDIR/summagen-serve" ./cmd/summagen-serve

say "starting on $ADDR"
"$WORKDIR/summagen-serve" -addr "$ADDR" -workers 2 -queue-cap 16 \
  >"$WORKDIR/serve.log" 2>&1 &
SERVE_PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVE_PID" 2>/dev/null || fail "server died on startup"
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "server never became healthy"

submit() { # submit BODY -> job id
  curl -sf -X POST "$BASE/jobs" -d "$1" -o "$WORKDIR/sub.json" \
    || fail "submit rejected: $1"
  jget "$WORKDIR/sub.json" id
}

poll() { # poll ID -> terminal state
  local id="$1" state
  for i in $(seq 1 300); do
    curl -sf "$BASE/jobs/$id" -o "$WORKDIR/job.json" || fail "status poll for $id"
    state="$(jget "$WORKDIR/job.json" state)"
    case "$state" in
      done|failed) echo "$state"; return ;;
    esac
    sleep 0.1
  done
  fail "job $id stuck in state $state"
}

say "submitting verified multiply"
ID1="$(submit '{"n": 192, "shape": "auto", "seed": 7, "verify": true}')"
STATE="$(poll "$ID1")"
[ "$STATE" = done ] || fail "job $ID1 ended $STATE: $(cat "$WORKDIR/job.json")"
[ "$(jget "$WORKDIR/job.json" verified)" = True ] || fail "result not verified"
DIGEST1="$(jget "$WORKDIR/job.json" digest)"
[ -n "$DIGEST1" ] || fail "empty digest"
say "job $ID1 done, digest $DIGEST1"

say "re-submitting identical job: digest must match"
ID2="$(submit '{"n": 192, "shape": "auto", "seed": 7, "verify": true}')"
[ "$(poll "$ID2")" = done ] || fail "job $ID2 failed"
DIGEST2="$(jget "$WORKDIR/job.json" digest)"
[ "$DIGEST1" = "$DIGEST2" ] || fail "digest mismatch: $DIGEST1 vs $DIGEST2"

say "checking rejections"
curl -s -X POST "$BASE/jobs" -d '{"n": 32, "shape": "pentagon"}' \
  -o "$WORKDIR/bad.json" -w '%{http_code}' | grep -q 400 \
  || fail "unknown shape not rejected with 400"
grep -q valid_shapes "$WORKDIR/bad.json" || fail "400 does not list valid shapes"

say "checking metrics"
curl -sf "$BASE/metrics" -o "$WORKDIR/metrics.txt"
grep -q '^summagen_jobs_done_total 2' "$WORKDIR/metrics.txt" \
  || fail "metrics missing done counter: $(grep done_total "$WORKDIR/metrics.txt" || true)"
grep -q 'summagen_job_latency_seconds_count{shape=' "$WORKDIR/metrics.txt" \
  || fail "metrics missing per-shape latency histogram"

say "checking graceful SIGTERM drain"
kill -TERM "$SERVE_PID"
for i in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  fail "server did not exit within 10s of SIGTERM"
fi
wait "$SERVE_PID" && RC=0 || RC=$?
[ "$RC" -eq 0 ] || fail "server exited $RC after SIGTERM"
grep -q "drained cleanly" "$WORKDIR/serve.log" || fail "no clean-drain log line"

# ---- kill-then-recover: a netmpi rank dies mid-job, the job must still ----
# ---- finish with the digest the fault-free inproc run produced above  ----

ADDR="127.0.0.1:18424"
BASE="http://$ADDR"

say "restarting with netmpi runtime and a seeded rank kill"
"$WORKDIR/summagen-serve" -addr "$ADDR" -runtime netmpi -workers 1 \
  -op-timeout 2s -recover-attempts 2 -recover-backoff 50ms \
  -chaos 'kill:rank=1,after=1' \
  >"$WORKDIR/serve-chaos.log" 2>&1 &
SERVE_PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORKDIR/serve-chaos.log" >&2; fail "chaos server died on startup"; }
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "chaos server never became healthy"

say "submitting the same multiply; rank 1 will be killed on the first attempt"
ID3="$(submit '{"n": 192, "shape": "auto", "seed": 7}')"
STATE="$(poll "$ID3")"
[ "$STATE" = done ] || fail "job $ID3 did not recover, ended $STATE: $(cat "$WORKDIR/job.json")"
ATTEMPTS="$(jget "$WORKDIR/job.json" attempts)"
[ "$ATTEMPTS" -ge 1 ] || fail "job $ID3 finished without recovering (attempts=$ATTEMPTS) — chaos kill never fired"
RECOVERED_FROM="$(jget "$WORKDIR/job.json" recovered_from)"
echo "$RECOVERED_FROM" | grep -q 1 || fail "recovered_from=$RECOVERED_FROM does not name the killed rank"
DIGEST3="$(jget "$WORKDIR/job.json" digest)"
[ "$DIGEST3" = "$DIGEST1" ] || fail "recovered digest $DIGEST3 != fault-free $DIGEST1"
say "job $ID3 recovered from rank $RECOVERED_FROM in $ATTEMPTS attempt(s), digest matches"

say "checking recovery metrics"
curl -sf "$BASE/metrics" -o "$WORKDIR/metrics.txt"
grep -q '^summagen_recovery_total 1' "$WORKDIR/metrics.txt" \
  || fail "recovery not counted: $(grep recovery_total "$WORKDIR/metrics.txt" || true)"
grep -q '^summagen_recovered_jobs_total 1' "$WORKDIR/metrics.txt" \
  || fail "recovered job not counted"
grep -q '^summagen_recovery_cells_total{outcome="redone"} 0' "$WORKDIR/metrics.txt" \
  || fail "checkpointed cells were redone: $(grep redone "$WORKDIR/metrics.txt" || true)"

say "checking transport metrics and comm-volume audit"
grep -q 'summagen_net_sent_bytes_total{rank=' "$WORKDIR/metrics.txt" \
  || fail "per-peer transport counters missing"
grep -q 'summagen_net_recv_bytes_total{rank=' "$WORKDIR/metrics.txt" \
  || fail "per-peer recv counters missing"
grep -q '^summagen_net_epoch_rejects_total' "$WORKDIR/metrics.txt" \
  || fail "epoch-reject counter missing"
RATIO="$(grep '^summagen_comm_volume_ratio{' "$WORKDIR/metrics.txt" | head -1 | awk '{print $2}')"
[ -n "$RATIO" ] || fail "comm-volume ratio gauge missing"
python3 -c "import sys; r = float(sys.argv[1]); sys.exit(0 if 1.0 <= r <= 1.5 else 1)" "$RATIO" \
  || fail "comm-volume ratio $RATIO outside [1.0, 1.5] — cost model and wire disagree"
say "comm-volume ratio $RATIO within [1.0, 1.5]"

say "checking the merged chrome trace"
curl -sf "$BASE/jobs/$ID3/trace?format=chrome" -o "$WORKDIR/trace.json" \
  || fail "trace endpoint failed"
for span in attempt bcastA recover; do
  grep -q "\"$span\"" "$WORKDIR/trace.json" \
    || fail "trace missing $span span"
done

say "checking per-rank trace lanes (one engine-lane thread per rank)"
python3 - "$WORKDIR/trace.json" "$WORKDIR/job.json" <<'PY' || fail "per-rank lane check failed"
import json, sys
events = json.load(open(sys.argv[1]))
job = json.load(open(sys.argv[2]))
ranks = {r["rank"] for r in job["report"]["imbalance"]["ranks"]}
assert ranks, "imbalance report names no ranks"
ENGINE = 1  # obs.ChromePIDEngine; tid = rank
lanes = {e["tid"] for e in events if e.get("pid") == ENGINE}
assert ranks <= lanes, f"no trace lane for rank(s) {sorted(ranks - lanes)}; lanes={sorted(lanes)}"
dgemm = {e["tid"] for e in events
         if e.get("pid") == ENGINE and e.get("name") == "dgemm"}
assert ranks <= dgemm, f"rank lanes missing dgemm spans: {sorted(ranks - dgemm)}"
print(f"per-rank lanes OK: ranks {sorted(ranks)} each have an engine-lane thread")
PY
grep -q 'summagen_rank_imbalance_ratio{' "$WORKDIR/metrics.txt" \
  || fail "rank imbalance gauge missing from /metrics"
grep -q 'summagen_rank_stage_seconds_total{' "$WORKDIR/metrics.txt" \
  || fail "per-rank stage counters missing from /metrics"
grep -q 'summagen_net_frame_pool_gets_total' "$WORKDIR/metrics.txt" \
  || fail "frame-pool counters missing from /metrics"

say "checking chaos server drains cleanly too"
kill -TERM "$SERVE_PID"
for i in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  fail "chaos server did not exit within 10s of SIGTERM"
fi
wait "$SERVE_PID" && RC=0 || RC=$?
[ "$RC" -eq 0 ] || fail "chaos server exited $RC after SIGTERM"
SERVE_PID=""

# ---- wire integrity: a seeded bit flip in a data frame must be caught  ----
# ---- by the CRC trailer and healed by re-request — transparently, with ----
# ---- zero recovery attempts and the fault-free digest                  ----

ADDR="127.0.0.1:18428"
BASE="http://$ADDR"

say "restarting with a seeded corrupt frame and the gray-failure monitor"
"$WORKDIR/summagen-serve" -addr "$ADDR" -runtime netmpi -workers 1 \
  -op-timeout 2s -recover-attempts 2 -recover-backoff 50ms \
  -chaos 'corrupt:rank=0,after=2,fires=1,flips=1,offset=16,seed=11' -grayfail \
  >"$WORKDIR/serve-integrity.log" 2>&1 &
SERVE_PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORKDIR/serve-integrity.log" >&2; fail "integrity server died on startup"; }
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "integrity server never became healthy"

say "submitting the same multiply; rank 0's second data frame will arrive flipped"
ID4="$(submit '{"n": 192, "shape": "auto", "seed": 7}')"
STATE="$(poll "$ID4")"
[ "$STATE" = done ] || fail "job $ID4 did not survive corruption, ended $STATE: $(cat "$WORKDIR/job.json")"
ATTEMPTS="$(jget "$WORKDIR/job.json" attempts)"
DIGEST4="$(jget "$WORKDIR/job.json" digest)"
[ "$DIGEST4" = "$DIGEST1" ] || fail "digest under corruption $DIGEST4 != fault-free $DIGEST1"

say "checking wire-integrity and gray-failure metrics"
curl -sf "$BASE/metrics" -o "$WORKDIR/metrics.txt"
CORRUPT="$(awk '/^summagen_net_corrupt_frames_total{/ {s += $2} END {print s+0}' "$WORKDIR/metrics.txt")"
[ "$CORRUPT" -ge 1 ] || fail "seeded corrupt frame never detected (corrupt_frames_total=$CORRUPT)"
REREQ="$(awk '/^summagen_net_rerequests_total{/ {s += $2} END {print s+0}' "$WORKDIR/metrics.txt")"
# The CRC must catch the flip; healing is either a transparent re-request
# or (when the op deadline wins the race) one survivor-replan — same
# contract as TestChaosMeshDigestIdentical's corrupt scenario.
if [ "$REREQ" -eq 0 ] && [ "$ATTEMPTS" = 0 ]; then
  fail "corruption neither re-requested nor recovered from"
fi
say "job $ID4 survived: $CORRUPT corrupt frame(s), $REREQ re-request(s), $ATTEMPTS recovery attempt(s), digest matches"
grep -q '^summagen_gray_recoveries_total 0$' "$WORKDIR/metrics.txt" \
  || fail "healthy loopback mesh was condemned as gray: $(grep gray_recoveries "$WORKDIR/metrics.txt" || true)"
grep -q '^summagen_net_gray_degraded_total 0$' "$WORKDIR/metrics.txt" \
  || fail "gray-degraded counter missing or nonzero: $(grep gray_degraded "$WORKDIR/metrics.txt" || true)"

kill -TERM "$SERVE_PID"
for i in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVE_PID" 2>/dev/null && fail "integrity server did not exit within 10s of SIGTERM"
wait "$SERVE_PID" && RC=0 || RC=$?
[ "$RC" -eq 0 ] || fail "integrity server exited $RC after SIGTERM"
SERVE_PID=""

# ---- SLO burn-rate alerting: a TTL'd slowlink chaos torches the error ----
# ---- budget, the fast burn alert fires on /slo and /healthz, the TTL  ----
# ---- heals the link, the alert clears, and the flight recorder        ----
# ---- replays the whole incident                                       ----

ADDR="127.0.0.1:18429"
BASE="http://$ADDR"

say "restarting with a 10s slowlink chaos and second-scale SLO windows"
"$WORKDIR/summagen-serve" -addr "$ADDR" -runtime netmpi -workers 1 \
  -op-timeout 1s -recover-attempts 0 \
  -chaos 'slowlink:rank=1,rate=4k' -chaos-ttl 10s \
  -sample-interval 500ms -slo-window-scale 0.005 \
  >"$WORKDIR/serve-slo.log" 2>&1 &
SERVE_PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVE_PID" 2>/dev/null || fail "SLO server died on startup"
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "SLO server never became healthy"

say "submitting jobs through the slow link; each must fail and burn budget"
for i in 1 2 3 4; do
  FID="$(submit '{"n": 192, "shape": "auto", "seed": 7}')"
  [ "$(poll "$FID")" = failed ] \
    || fail "job $FID finished $(jget "$WORKDIR/job.json" state) despite slowlink chaos"
done

say "waiting for the fast burn-rate alert"
FIRED=""
for i in $(seq 1 40); do
  curl -sf "$BASE/slo" -o "$WORKDIR/slo.json" || fail "GET /slo"
  if python3 - "$WORKDIR/slo.json" <<'PY'
import json, sys
rep = json.load(open(sys.argv[1]))
fast = [a for o in rep.get("objectives") or [] for s in o["slis"] for a in s["alerts"]
        if a["rule"] == "fast" and a["firing"]]
sys.exit(0 if rep["firing"] > 0 and fast else 1)
PY
  then FIRED=1; break; fi
  sleep 0.25
done
[ -n "$FIRED" ] || fail "fast burn-rate alert never fired: $(cat "$WORKDIR/slo.json")"
curl -sf "$BASE/healthz" -o "$WORKDIR/health.json"
[ "$(jget "$WORKDIR/health.json" slo_firing)" -ge 1 ] \
  || fail "/healthz slo_firing = 0 while /slo reports firing alerts"
say "fast alert firing, surfaced on /healthz"

say "waiting out the chaos TTL, then proving the link healed"
sleep 5
HID="$(submit '{"n": 192, "shape": "auto", "seed": 7}')"
[ "$(poll "$HID")" = done ] || fail "post-heal job still failing: $(cat "$WORKDIR/job.json")"
[ "$(jget "$WORKDIR/job.json" digest)" = "$DIGEST1" ] || fail "post-heal digest diverged"

say "waiting for the alert to clear (bad samples age out + clear hold)"
CLEARED=""
for i in $(seq 1 120); do
  curl -sf "$BASE/slo" -o "$WORKDIR/slo.json" || fail "GET /slo"
  [ "$(jget "$WORKDIR/slo.json" firing)" = 0 ] && { CLEARED=1; break; }
  sleep 0.25
done
[ -n "$CLEARED" ] || fail "alert never cleared after heal: $(cat "$WORKDIR/slo.json")"
say "all alerts clear"

say "checking the flight recorder replay"
curl -sf "$BASE/debug/flightrecorder" -o "$WORKDIR/flight.json" || fail "flight recorder endpoint"
python3 - "$WORKDIR/flight.json" <<'PY' || fail "flight recorder replay check failed"
import json, sys
rec = json.load(open(sys.argv[1]))
assert rec["window_seconds"] >= 300, f"window {rec['window_seconds']}s < 300s"
names = {s["name"] for s in rec["series"]}
assert "summagen_slo_requests_total" in names, f"no SLO request series: {sorted(names)[:10]}"
kinds = {e["kind"] for e in rec["events"]}
for want in ("chaos_arm", "chaos_heal", "alert_fire", "alert_clear"):
    assert want in kinds, f"missing {want} event; have {sorted(kinds)}"
print(f"flight recorder OK: {len(rec['series'])} series over "
      f"{rec['window_seconds']:.0f}s, events {sorted(kinds)}")
PY

kill -TERM "$SERVE_PID"
for i in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SERVE_PID" 2>/dev/null && fail "SLO server did not exit within 10s of SIGTERM"
wait "$SERVE_PID" && RC=0 || RC=$?
[ "$RC" -eq 0 ] || fail "SLO server exited $RC after SIGTERM"
SERVE_PID=""

# ---- cluster tier: 2 instances behind the plan-affinity router; same   ----
# ---- plan key sticks to one instance, and killing that instance        ----
# ---- mid-run must still complete the job with the fault-free digest    ----

ADDR_A="127.0.0.1:18425"
ADDR_B="127.0.0.1:18426"
ROUTER_ADDR="127.0.0.1:18427"
BASE="http://$ROUTER_ADDR"

say "building summagen-router"
go build -o "$WORKDIR/summagen-router" ./cmd/summagen-router

say "starting 2 instances + affinity router on $ROUTER_ADDR"
"$WORKDIR/summagen-serve" -addr "$ADDR_A" -instance-id i0 -workers 2 \
  >"$WORKDIR/serve-i0.log" 2>&1 &
SERVE_A_PID=$!
"$WORKDIR/summagen-serve" -addr "$ADDR_B" -instance-id i1 -workers 2 \
  >"$WORKDIR/serve-i1.log" 2>&1 &
SERVE_B_PID=$!
"$WORKDIR/summagen-router" -addr "$ROUTER_ADDR" \
  -backends "http://$ADDR_A,http://$ADDR_B" -policy affinity \
  -probe-interval 100ms \
  >"$WORKDIR/router.log" 2>&1 &
ROUTER_PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" -o "$WORKDIR/fleet.json" 2>/dev/null \
    && [ "$(jget "$WORKDIR/fleet.json" healthy)" = 2 ] && break
  kill -0 "$ROUTER_PID" 2>/dev/null || fail "router died on startup"
  sleep 0.1
done
[ "$(jget "$WORKDIR/fleet.json" healthy)" = 2 ] || fail "fleet never reached 2 healthy instances"
[ "$(jget "$WORKDIR/fleet.json" status)" = ok ] || fail "fleet not ok: $(cat "$WORKDIR/fleet.json")"

say "submitting 4 same-plan-key jobs: affinity must pin them to one instance"
CLUSTER_BODY='{"n": 192, "shape": "auto", "seed": 7}'
OWNER=""
for i in 1 2 3 4; do
  RID="$(submit "$CLUSTER_BODY")"
  INST="$(jget "$WORKDIR/sub.json" instance)"
  if [ -z "$OWNER" ]; then
    OWNER="$INST"
  elif [ "$INST" != "$OWNER" ]; then
    fail "affinity scattered one plan key: job $i went to $INST, earlier to $OWNER"
  fi
  # Poll each job before the next submit so each job after the first is a
  # plan-cache hit on the owning instance, checked one at a time.
  [ "$(poll "$RID")" = done ] || fail "cluster job $RID failed: $(cat "$WORKDIR/job.json")"
  [ "$(jget "$WORKDIR/job.json" digest)" = "$DIGEST1" ] \
    || fail "cluster digest diverged from fault-free run"
done
say "all 4 jobs routed to $OWNER"

say "checking merged cluster metrics (routing + plan-cache hit rate)"
curl -sf "$BASE/metrics" -o "$WORKDIR/cluster-metrics.txt"
ROUTED_LINES="$(grep -c "^summagen_router_routed_total{instance=" "$WORKDIR/cluster-metrics.txt" || true)"
[ "$ROUTED_LINES" = 1 ] || fail "affinity used $ROUTED_LINES instances for one plan key"
grep -q "^summagen_router_routed_total{instance=\"$OWNER\",policy=\"affinity\"} 4" "$WORKDIR/cluster-metrics.txt" \
  || fail "routed counter wrong: $(grep routed_total "$WORKDIR/cluster-metrics.txt" || true)"
HITS="$(grep "^summagen_plan_cache_total{instance=\"$OWNER\",outcome=\"hit\"}" "$WORKDIR/cluster-metrics.txt" | awk '{print $2}')"
[ -n "$HITS" ] && [ "$HITS" -ge 3 ] \
  || fail "affinity plan-cache hits = ${HITS:-0}, want >= 3 (stickiness is not paying off)"
grep -q 'summagen_jobs_done_total{instance="i0"}' "$WORKDIR/cluster-metrics.txt" \
  || fail "merged metrics missing instance-labeled i0 families"
grep -q 'summagen_jobs_done_total{instance="i1"}' "$WORKDIR/cluster-metrics.txt" \
  || fail "merged metrics missing instance-labeled i1 families"
grep -q '^summagen_fleet_queue_depth ' "$WORKDIR/cluster-metrics.txt" \
  || fail "fleet queue-depth gauge missing"
grep -q '^summagen_router_backends{state="healthy"} 2' "$WORKDIR/cluster-metrics.txt" \
  || fail "backend gauge missing"
say "plan-cache hits on $OWNER: $HITS"

say "killing the owner instance; its job must re-route and finish with the fault-free digest"
RID5="$(submit "$CLUSTER_BODY")"
[ "$(jget "$WORKDIR/sub.json" instance)" = "$OWNER" ] || fail "job 5 missed the affinity owner"
case "$OWNER" in
  i0) { kill -KILL "$SERVE_A_PID" && wait "$SERVE_A_PID"; } 2>/dev/null || true; SERVE_A_PID="" ;;
  i1) { kill -KILL "$SERVE_B_PID" && wait "$SERVE_B_PID"; } 2>/dev/null || true; SERVE_B_PID="" ;;
  *) fail "unknown owner $OWNER" ;;
esac
[ "$(poll "$RID5")" = done ] || fail "job $RID5 did not survive the instance kill: $(cat "$WORKDIR/job.json")"
[ "$(jget "$WORKDIR/job.json" digest)" = "$DIGEST1" ] \
  || fail "re-routed digest $(jget "$WORKDIR/job.json" digest) != fault-free $DIGEST1"
SURVIVOR="$(jget "$WORKDIR/job.json" instance)"
[ "$SURVIVOR" != "$OWNER" ] || fail "job still attributed to the killed instance"
say "job $RID5 re-routed $OWNER -> $SURVIVOR, digest matches"

curl -sf "$BASE/metrics" -o "$WORKDIR/cluster-metrics.txt"
grep -q "^summagen_router_reroutes_total{from=\"$OWNER\"}" "$WORKDIR/cluster-metrics.txt" \
  || fail "reroute not attributed to the killed instance"
curl -sf "$BASE/healthz" -o "$WORKDIR/fleet.json"
[ "$(jget "$WORKDIR/fleet.json" status)" = degraded ] \
  || fail "fleet not degraded after kill: $(cat "$WORKDIR/fleet.json")"

say "checking router + survivor drain cleanly"
kill -TERM "$ROUTER_PID"
for i in $(seq 1 100); do
  kill -0 "$ROUTER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$ROUTER_PID" 2>/dev/null && fail "router did not exit within 10s of SIGTERM"
wait "$ROUTER_PID" && RC=0 || RC=$?
[ "$RC" -eq 0 ] || fail "router exited $RC after SIGTERM"
ROUTER_PID=""
case "$OWNER" in
  i0) SURVIVOR_PID="$SERVE_B_PID"; SERVE_B_PID="" ;;
  i1) SURVIVOR_PID="$SERVE_A_PID"; SERVE_A_PID="" ;;
esac
kill -TERM "$SURVIVOR_PID"
for i in $(seq 1 100); do
  kill -0 "$SURVIVOR_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$SURVIVOR_PID" 2>/dev/null && fail "survivor instance did not drain after SIGTERM"
wait "$SURVIVOR_PID" && RC=0 || RC=$?
[ "$RC" -eq 0 ] || fail "survivor instance exited $RC after SIGTERM"

# ---- fairness: a self-contained 2-instance cluster; symmetric traffic ----
# ---- scores Jain ~1.0, one tenant flooding drags the index down       ----

ROUTER_ADDR="127.0.0.1:18430"
BASE="http://$ROUTER_ADDR"

say "starting a -spawn 2 router for the fairness index"
"$WORKDIR/summagen-router" -addr "$ROUTER_ADDR" -spawn 2 -policy round-robin \
  -sample-interval 250ms -fairness-window 1m \
  >"$WORKDIR/router-jain.log" 2>&1 &
ROUTER_PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" -o "$WORKDIR/fleet.json" 2>/dev/null \
    && [ "$(jget "$WORKDIR/fleet.json" healthy)" = 2 ] && break
  kill -0 "$ROUTER_PID" 2>/dev/null || fail "fairness router died on startup"
  sleep 0.1
done
[ "$(jget "$WORKDIR/fleet.json" healthy)" = 2 ] || fail "fairness fleet never reached 2 healthy instances"

# One job per tenant first: a counter series' first sample only anchors
# its rate window, so the scored traffic must land in later samples.
say "priming tenant series, then symmetric traffic"
submit '{"n": 64, "tenant": "alpha"}' >/dev/null
submit '{"n": 64, "tenant": "beta"}' >/dev/null
sleep 0.8
for i in 1 2 3 4; do
  submit '{"n": 64, "tenant": "alpha"}' >/dev/null
  submit '{"n": 64, "tenant": "beta"}' >/dev/null
done
sleep 0.8
curl -sf "$BASE/metrics" -o "$WORKDIR/jain-metrics.txt"
grep -q '^# TYPE summagen_fairness_jain gauge' "$WORKDIR/jain-metrics.txt" \
  || fail "fairness gauge missing from merged exposition"
JAIN="$(awk '/^summagen_fairness_jain / {print $2}' "$WORKDIR/jain-metrics.txt")"
python3 -c "import sys; sys.exit(0 if float(sys.argv[1]) >= 0.95 else 1)" "$JAIN" \
  || fail "symmetric jain $JAIN, want >= 0.95"
say "symmetric jain $JAIN"

say "flooding tenant alpha"
for i in $(seq 1 12); do submit '{"n": 64, "tenant": "alpha"}' >/dev/null; done
sleep 0.8
JAIN="$(curl -sf "$BASE/metrics" | awk '/^summagen_fairness_jain / {print $2}')"
python3 -c "import sys; sys.exit(0 if float(sys.argv[1]) < 0.9 else 1)" "$JAIN" \
  || fail "flooded jain $JAIN, want < 0.9"
say "flooded jain $JAIN"

kill -TERM "$ROUTER_PID"
for i in $(seq 1 100); do
  kill -0 "$ROUTER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$ROUTER_PID" 2>/dev/null && fail "fairness router did not exit within 10s of SIGTERM"
wait "$ROUTER_PID" && RC=0 || RC=$?
[ "$RC" -eq 0 ] || fail "fairness router exited $RC after SIGTERM"
ROUTER_PID=""

say "OK"
