#!/usr/bin/env bash
# check.sh — the repo's pre-merge gate:
#
#   1. gofmt -l . (any listed file fails the gate)
#   2. go vet ./...
#   3. go build ./...
#   4. go test -race on the telemetry, core, campaign, expt, serve,
#      and fleet packages plus the root e2e tests
#   5. the energyprop and twophase end-to-end smoke scripts
#   6. a telemetry-overhead guard benchmark
#
# The guard compares BenchmarkDyadCycleRate (nil sink: every instrumented
# site takes its one-nil-check fast path) against BenchmarkDyadTelemetry
# (ring sink attached: full event emission). The ISSUE bound is on the
# *uninstrumented* overhead, which cannot be measured directly post-merge
# (there is no un-instrumented binary to compare against); instead we
# bound the much larger enabled-vs-disabled gap, which transitively
# bounds the nil-check cost, and telemetry.BenchmarkEmitNil documents the
# per-site fast path (~1ns). The bound is a ratio in percent, default
# 25% (enabled emission is real work), tunable via CHECK_TELEMETRY_PCT;
# set CHECK_SKIP_BENCH=1 to skip the benchmark on loaded CI machines.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt: these files need formatting:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race (telemetry, core, campaign, expt, serve, e2e) =="
# -short skips the multi-million-cycle core simulations, which exceed
# go test's timeout under the race detector's ~10-20x slowdown; the
# race-relevant code paths (telemetry emission, collection, spans) are
# covered by the telemetry suite and the root TestE2E tests below.
go test -race -short -timeout 15m ./internal/telemetry/... ./internal/core/...
# The quick three-way execution-mode equivalence check (stepped vs
# fast-forward vs discrete-event engine) is sized to run under the race
# detector and is named explicitly so a -short or -run tweak above can
# never silently drop it from the raced gate.
go test -race -run 'TestEventEquivalenceQuick' -timeout 15m ./internal/core
# The campaign engine fans simulation cells across a worker pool; these
# suites run real cycle-level cells concurrently (full-matrix tests
# self-skip under race via the raceEnabled build-tag guard).
go test -race -timeout 15m ./internal/campaign ./internal/expt
# The two-layer cache split's correctness spine: the golden digest pins
# for both key layers, the byte-identity of two-phase cells against
# their monolithic equivalents, and the micro-sim singleflight under
# contention. Named explicitly so a -run or -short tweak above can
# never silently drop the warm-cache compatibility guarantee from the
# raced gate.
go test -race -timeout 15m \
    -run 'TestLegacyDigestPinned|TestLambdaZeroKeepsLegacyDigest|TestTwoPhaseDigestsPinned|TestTwoPhaseByteIdentity|TestTwoPhaseMicroComputedOnce|TestTwoPhaseWarmAndGridChange|TestTwoPhaseSingleflight' \
    ./internal/campaign ./internal/expt
# Served cells share one process-wide table of Section V workload specs
# and fingerprints across goroutines. The read-only guard, the served
# key and entry identity tests and the address pins are named
# explicitly so a -run tweak above can never drop them from the raced
# gate.
go test -race -timeout 15m \
    -run 'TestSuiteWorkloadsReadOnly|TestSpecDigestsPinned|TestServedKeyMatchesCLI|TestRunServedMatchesCLIEntry|TestTailServedKeyDefaults' \
    ./internal/expt
# The serving layer is the most concurrency-dense package in the repo
# (admission, coalescing, drain, panic isolation all cross goroutines);
# its whole suite, including the real-simulator e2e tests, runs raced.
go test -race -timeout 15m ./internal/serve
# The job store's scheduler and manager coordinate tenants, the GC
# loop, and resume across goroutines; the whole suite runs raced.
go test -race -timeout 15m ./internal/jobstore
# The fleet coordinator crosses goroutines on every dispatch (hedges,
# window accounting, L1 singleflight, runtime membership changes); its
# suite, including the two-real-workers e2e byte-identity test, runs
# raced.
go test -race -timeout 15m ./internal/fleet
go test -race -run 'TestE2E' -timeout 15m .
# The energy-proportionality subsystem: queueing idle accounting, the
# residency-weighted power model, and the governor-keyed campaign cells.
# Named explicitly so a -run tweak above can never drop the conservation
# invariant (utilization + idle fraction == 1) from the raced gate. The
# stats package carries the latency recorder the queueing stage's
# convergence checks and percentiles read.
go test -race -timeout 15m ./internal/idle ./internal/stats ./internal/queueing ./internal/power
# Trace propagation crosses every concurrency boundary in the system
# (admission queue, coalesced flights, hedged dispatch, ring snapshot);
# name the trace suites explicitly so a -run filter tweak above can
# never silently drop them from the raced gate.
go test -race -timeout 15m \
    -run 'TestTracez|TestCoalescedFollowerTrace|TestTracingOff|TestMetricsz|TestHedgedTrace|TestE2EFleetStitched|TestDoRawTraced|TestLockedRing' \
    ./internal/serve ./internal/fleet ./internal/campaign ./internal/telemetry

echo "== energyprop smoke =="
# End-to-end: CLI energyprop determinism across worker counts, warm
# cache replay with zero re-simulation, and the deep-idle-vs-fill
# qualitative claim. CHECK_SKIP_SMOKE=1 skips it on loaded machines.
if [[ "${CHECK_SKIP_SMOKE:-0}" == "1" ]]; then
    echo "skipped (CHECK_SKIP_SMOKE=1)"
else
    ./scripts/energyprop_smoke.sh
fi

echo "== twophase smoke =="
# End-to-end through duplexityd: a cold tails campaign computes one
# micro-sim per design × workload, a load-grid change re-simulates
# zero micro-sims, and overlapping cells are byte-identical across
# independent caches. Shares the CHECK_SKIP_SMOKE gate.
if [[ "${CHECK_SKIP_SMOKE:-0}" == "1" ]]; then
    echo "skipped (CHECK_SKIP_SMOKE=1)"
else
    ./scripts/twophase_smoke.sh
fi

if [[ "${CHECK_SKIP_BENCH:-0}" == "1" ]]; then
    echo "== telemetry overhead guard skipped (CHECK_SKIP_BENCH=1) =="
    exit 0
fi

echo "== telemetry overhead guard =="
bound_pct="${CHECK_TELEMETRY_PCT:-25}"
bench_out="$(go test -run '^$' -bench 'BenchmarkDyad(CycleRate|Telemetry)$' \
    -benchtime 2000000x -count 3 .)"
echo "$bench_out"

# Median ns/op per benchmark, then the relative gap.
awk -v bound="$bound_pct" '
/^BenchmarkDyadCycleRate/  { base[nb++] = $3 }
/^BenchmarkDyadTelemetry/  { tel[nt++]  = $3 }
function median(a, n,   i, j, t) {
    for (i = 0; i < n; i++)
        for (j = i + 1; j < n; j++)
            if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t }
    return a[int(n / 2)]
}
END {
    if (nb == 0 || nt == 0) { print "guard: benchmarks missing"; exit 1 }
    b = median(base, nb); t = median(tel, nt)
    pct = (t - b) / b * 100
    printf "guard: nil-sink %.1f ns/cycle, ring-sink %.1f ns/cycle, overhead %.1f%% (bound %s%%)\n", b, t, pct, bound
    if (pct > bound + 0) { print "guard: FAIL — telemetry overhead above bound"; exit 1 }
    print "guard: OK"
}' <<<"$bench_out"
