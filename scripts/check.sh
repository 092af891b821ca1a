#!/usr/bin/env bash
# check.sh — the repo's pre-merge gate:
#
#   1. gofmt -l . (any listed file fails the gate)
#   2. go vet ./...
#   3. go build ./...
#   4. go test -race on the telemetry, core, campaign, expt, serve,
#      and fleet packages plus the root e2e tests
#   5. go test on cmd/duplexityd: the daemon as a real process
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
# The campaign engine fans simulation cells across a worker pool; these
# suites run real cycle-level cells concurrently (full-matrix tests
# self-skip under race via the raceEnabled build-tag guard).
go test -race -timeout 15m ./internal/campaign ./internal/expt
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

echo "== go test (duplexityd process) =="
# The daemon and its client subcommands as real processes: SIGTERM
# drain, SIGKILL mid-job and resume, a coordinator over two workers.
# Not raced: the concurrency it reaches runs raced in the serve,
# jobstore and fleet suites above.
go test -timeout 10m ./cmd/duplexityd

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
