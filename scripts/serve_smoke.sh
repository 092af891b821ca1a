#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the duplexityd daemon over
# a real socket and a real SIGTERM (the parts a Go test can't exercise
# faithfully):
#
#   1. boot duplexityd on a loopback port with a fresh cache dir
#   2. poll /v1/healthz until it answers ok
#   3. submit one cell synchronously and one small campaign (streamed)
#   4. re-submit the same cell and assert it is served from the cache
#      (the response says "cached":true and /v1/statz counts the hit)
#   5. scrape /v1/metricsz (every sample must parse as Prometheus text
#      format) and /v1/tracez (every cell got a stitched timeline with
#      a compute span and stage sums bounded by wall time)
#   6. SIGTERM the daemon and assert it exits 0 within the drain window
#   7. assert the cache dir holds a checkpoint marked clean=false and a
#      journal holding exactly the simulated cells: no incomplete cells
#      and no hit lines (hits are counted, not journaled)
#
# Tunables: SMOKE_SCALE (default 0.02), SMOKE_ADDR (default
# 127.0.0.1:8123).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${SMOKE_SCALE:-0.02}"
ADDR="${SMOKE_ADDR:-127.0.0.1:8123}"

tmp="$(mktemp -d)"
cleanup() {
    [[ -n "${daemon_pid:-}" ]] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== build =="
go build -o "$tmp/duplexityd" ./cmd/duplexityd

echo "== boot =="
"$tmp/duplexityd" serve -addr "$ADDR" -scale "$SCALE" -seed 1 \
    -cachedir "$tmp/cache" 2>"$tmp/daemon.log" &
daemon_pid=$!

for i in $(seq 1 100); do
    if curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "FAIL: daemon died during boot"; cat "$tmp/daemon.log"; exit 1
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR/v1/healthz" | grep -q '"ok"' \
    || { echo "FAIL: daemon never became healthy"; cat "$tmp/daemon.log"; exit 1; }
echo "daemon healthy on $ADDR"

echo "== submit cell =="
"$tmp/duplexityd" submit -addr "$ADDR" -design Baseline -workload RSC -load 0.5 \
    >"$tmp/cell1.json"
grep -q '"cached":false' "$tmp/cell1.json" \
    || { echo "FAIL: cold cell claims to be cached"; cat "$tmp/cell1.json"; exit 1; }

echo "== submit campaign =="
"$tmp/duplexityd" submit -addr "$ADDR" -campaign -kind fig5 \
    -designs Baseline,Duplexity -workloads RSC -loads 0.3 >"$tmp/campaign.ndjson"
lines="$(wc -l <"$tmp/campaign.ndjson")"
[[ "$lines" == "3" ]] \
    || { echo "FAIL: campaign stream has $lines lines, want 3 (2 cells + status)"; exit 1; }
tail -1 "$tmp/campaign.ndjson" | grep -q '"state":"done"' \
    || { echo "FAIL: campaign never finished"; cat "$tmp/campaign.ndjson"; exit 1; }

echo "== warm re-submit =="
"$tmp/duplexityd" submit -addr "$ADDR" -design Baseline -workload RSC -load 0.5 \
    >"$tmp/cell2.json"
grep -q '"cached":true' "$tmp/cell2.json" \
    || { echo "FAIL: repeat cell was re-simulated"; cat "$tmp/cell2.json"; exit 1; }
# Cached or not, the payload must be byte-identical modulo the flag.
if ! diff <(sed 's/"cached":false/"cached":X/' "$tmp/cell1.json") \
          <(sed 's/"cached":true/"cached":X/'  "$tmp/cell2.json") >/dev/null; then
    echo "FAIL: warm result diverges from cold result"
    diff "$tmp/cell1.json" "$tmp/cell2.json" || true
    exit 1
fi

"$tmp/duplexityd" status -addr "$ADDR" >"$tmp/statz.json"
grep -q '"serve.cells.cache_hits": 1' "$tmp/statz.json" \
    || { echo "FAIL: statz does not show the cache hit"; cat "$tmp/statz.json"; exit 1; }

echo "== metricsz =="
curl -fsS "http://$ADDR/v1/metricsz" >"$tmp/metricsz.txt"
# Every non-comment line must be a legal Prometheus text-format sample.
bad="$(grep -v '^#' "$tmp/metricsz.txt" | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+]+|\+Inf|NaN)$' || true)"
[[ -z "$bad" ]] \
    || { echo "FAIL: unparseable metricsz lines:"; echo "$bad"; exit 1; }
grep -q '^# TYPE duplexity_serve_admitted counter$' "$tmp/metricsz.txt" \
    || { echo "FAIL: metricsz lacks a typed serve counter"; cat "$tmp/metricsz.txt"; exit 1; }
grep -q '^duplexity_serve_latency_us_bucket{le="+Inf"}' "$tmp/metricsz.txt" \
    || { echo "FAIL: metricsz lacks the latency histogram"; cat "$tmp/metricsz.txt"; exit 1; }
echo "metricsz parses: $(grep -cv '^#' "$tmp/metricsz.txt") samples"

echo "== tracez =="
curl -fsS "http://$ADDR/v1/tracez" >"$tmp/tracez.json"
python3 - "$tmp/tracez.json" <<'PYEOF'
import json, sys
tz = json.load(open(sys.argv[1]))
traces = tz.get("traces") or []
assert not tz.get("disabled"), "tracing unexpectedly disabled"
# 1 cold cell + 2 campaign cells + 1 warm repeat
assert tz["total"] == 4, f"tracez total = {tz['total']}, want 4"
computes = 0
for tr in traces:
    spans = tr.get("spans") or []
    assert spans, f"trace {tr['trace_id']} has no spans"
    top = sum(s["dur_ns"] for s in spans
              if not s.get("child")
              and not (s["stage"] == "remote" and s.get("hedged") and not s.get("winner")))
    assert 0 < top <= tr["wall_ns"], \
        f"trace {tr['trace_id']}: stage sum {top} outside (0, wall={tr['wall_ns']}]"
    if any(s["stage"] == "compute" for s in spans):
        computes += 1
assert computes == 3, f"{computes} traces have compute spans, want 3 (the warm repeat has none)"
print(f"tracez OK: {len(traces)} stitched traces, {computes} with compute spans")
PYEOF
"$tmp/duplexityd" tracez -addr "$ADDR" -n 2 >"$tmp/waterfall.txt"
grep -q 'compute' "$tmp/waterfall.txt" \
    || { echo "FAIL: tracez waterfall shows no compute stage"; cat "$tmp/waterfall.txt"; exit 1; }
echo "waterfall renders: $(head -1 "$tmp/waterfall.txt")"

echo "== loadgen status counts =="
"$tmp/duplexityd" loadgen -addr "$ADDR" -conc 2 -requests 8 -spread 4 >"$tmp/loadgen.json"
python3 - "$tmp/loadgen.json" <<'PYEOF'
import json, sys
rep = json.load(open(sys.argv[1]))
counts = rep.get("status_counts") or {}
assert sum(counts.values()) == rep["sent"], f"status_counts {counts} do not sum to sent={rep['sent']}"
assert counts.get("200", 0) == rep["ok"], f"status_counts[200]={counts.get('200')} != ok={rep['ok']}"
assert rep["shed_rate"] == rep["shed"] / rep["sent"]
print(f"loadgen status_counts OK: {counts}, shed_rate={rep['shed_rate']}")
PYEOF

echo "== drain =="
kill -TERM "$daemon_pid"
drain_rc=0
wait "$daemon_pid" || drain_rc=$?
daemon_pid=""
[[ "$drain_rc" == "0" ]] \
    || { echo "FAIL: daemon exited $drain_rc on SIGTERM"; cat "$tmp/daemon.log"; exit 1; }
grep -q "drained; checkpoint flushed" "$tmp/daemon.log" \
    || { echo "FAIL: daemon log does not confirm the drain"; cat "$tmp/daemon.log"; exit 1; }

[[ -f "$tmp/cache/checkpoint.json" ]] \
    || { echo "FAIL: no checkpoint.json after drain"; ls "$tmp/cache"; exit 1; }
grep -q '"clean": false' "$tmp/cache/checkpoint.json" \
    || { echo "FAIL: drain checkpoint not marked clean=false"; cat "$tmp/cache/checkpoint.json"; exit 1; }
if grep -q '"status"' "$tmp/cache/journal.jsonl"; then
    echo "FAIL: journal shows incomplete cells after a graceful drain"
    cat "$tmp/cache/journal.jsonl"
    exit 1
fi
# The journal records work done, not requests answered: 3 distinct
# cells from the submit phase plus 3 new load points from the loadgen
# phase (its 4-point spread includes the already-cached load 0.5). The
# repeats were confirmed as hits above, from the response and statz;
# they leave no journal line.
cells="$(grep -c '"cached":false' "$tmp/cache/journal.jsonl")"
[[ "$cells" == "6" ]] \
    || { echo "FAIL: journal shows $cells simulated cells, want 6"; cat "$tmp/cache/journal.jsonl"; exit 1; }
jlines="$(wc -l <"$tmp/cache/journal.jsonl")"
[[ "$jlines" == "$cells" ]] \
    || { echo "FAIL: journal has $jlines lines for $cells simulated cells; hits must not be journaled"; cat "$tmp/cache/journal.jsonl"; exit 1; }
# Completed lines carry the traced per-stage breakdown.
grep -q '"stages_us":{' "$tmp/cache/journal.jsonl" \
    || { echo "FAIL: journal lines carry no stage breakdown"; head -2 "$tmp/cache/journal.jsonl"; exit 1; }

echo "serve smoke OK: $cells cells simulated, cache hit confirmed, graceful drain verified"
