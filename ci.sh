#!/bin/sh
# ci.sh — the checks a change must pass before merging.
#
#   ./ci.sh         # gofmt + vet + build + full tests + race pass + bench smoke
#   ./ci.sh quick   # same, but -short tests (skips the full-registry suites)
#
# The race pass covers the packages that actually run goroutines: the
# parallel harness and, through it, the experiment/simulator substrate it
# drives concurrently (every package in the test binary is instrumented).
set -eu

short=""
if [ "${1:-}" = "quick" ]; then
    short="-short"
fi

echo "== gofmt -l"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test $short ./..."
go test $short ./...

echo "== go test -race -short ./internal/harness/... ./internal/sim/... ./internal/metrics/... ./internal/vtrace/... ./internal/fleet/... ./internal/faults/... ./internal/cloudgen/... ./internal/latprof/... ./internal/telemetry/... ./internal/progress/... ./internal/obshttp/..."
go test -race -short ./internal/harness/... ./internal/sim/... ./internal/metrics/... ./internal/vtrace/... ./internal/fleet/... ./internal/faults/... ./internal/cloudgen/... ./internal/latprof/... ./internal/telemetry/... ./internal/progress/... ./internal/obshttp/...

# Engine differential suite under the race detector, explicitly and never
# -short: the timing-wheel engine must match the retained heap engine
# (internal/sim/heapengine) event for event on randomized scripts. This is
# the gate that lets the engine be optimized without re-recording goldens.
echo "== engine differential suite (-race)"
go test -race -run 'Differential|WheelCorners|AllocBudget' ./internal/sim/

# One experiments binary serves every smoke below.
vexp=/tmp/vexp_ci
go build -o "$vexp" ./cmd/experiments

# twice_cmp NAME ARGS...: run the experiments binary twice with ARGS and
# require byte-identical stdout. The first run's stdout stays in
# /tmp/vexp_NAME.txt for further checks.
twice_cmp() {
    name=$1
    shift
    "$vexp" "$@" > "/tmp/vexp_${name}.txt"
    "$vexp" "$@" > "/tmp/vexp_${name}_b.txt"
    cmp "/tmp/vexp_${name}.txt" "/tmp/vexp_${name}_b.txt"
    rm -f "/tmp/vexp_${name}_b.txt"
}

# golden_cmp ID FILE: FILE holds the stdout of a seed-42, full-scale run of
# experiment ID alone; require it to equal ID's section of the checked-in
# experiments_full.txt (from its "== ID:" header to the next header).
golden_cmp() {
    awk -v id="$1" '/^== /{p = index($0, "== " id ":") == 1} p' experiments_full.txt | cmp - "$2"
}

# Attribution smoke: the attrib experiment must produce byte-identical
# reports across two runs of the same seed — the profiler is a deterministic
# fold over the trace stream, and this catches any hidden-state leak the
# in-package tests might scope too narrowly to see.
echo "== attrib determinism smoke"
twice_cmp attrib -run attrib -scale 0.1 -seed 7

# Examples smoke: every program under examples/ must not just compile but
# run to completion — they are the documented entry points.
echo "== examples smoke"
for d in examples/*/; do
    echo "-- go run ./$d"
    go run "./$d" > /dev/null
done

# Tracing-overhead smoke: the disabled path must stay allocation-free and the
# enabled path cheap. TestEmitAllocatesNothing enforces zero allocs; the
# benchmarks print the per-event cost so regressions are visible in CI logs.
echo "== tracer overhead smoke"
go test -run '^$' -bench 'BenchmarkEmit' -benchtime 1000x ./internal/vtrace/

# Simulator-core benchmark smoke: the -bench core pipeline must run end to
# end and emit a schema-valid artifact (the run re-reads what it wrote and
# fails on schema mismatch). Throwaway output; the recorded baseline is
# BENCH_core.json at the repo root. The self-diff of that artifact must then
# report zero regressions and exit 0, which exercises the -bench diff gate.
echo "== simbench pipeline + diff smoke"
"$vexp" -bench core -smoke -out /tmp/vexp_bench_smoke.json > /dev/null
"$vexp" -bench diff /tmp/vexp_bench_smoke.json /tmp/vexp_bench_smoke.json > /dev/null
rm -f /tmp/vexp_bench_smoke.json

# Fleet-scale smoke: the fleetscale experiment at full scale — 1024
# heterogeneous hosts, ~115k VM arrivals (>=100k completed lifetimes), 48
# hours of virtual time — must finish inside the CI budget (the macro
# simulator does the whole thing in seconds) and pass its internal
# serial==sharded snapshot byte-identity gate, which panics on divergence.
# Its report must also match the checked-in full record byte for byte.
echo "== fleetscale determinism + golden smoke (full scale)"
"$vexp" -run fleetscale -seed 42 > /tmp/vexp_fleetscale.txt
golden_cmp fleetscale /tmp/vexp_fleetscale.txt

# Fleet benchmark pipeline: the -bench fleet smoke must emit a schema-valid
# artifact and self-diff clean (exercising the lifetimes_per_sec metric in
# the diff gate). The committed BENCH_fleet.json baseline must also still
# parse and self-diff clean, so the recorded artifact can't rot silently.
echo "== fleet bench pipeline + diff smoke"
"$vexp" -bench fleet -smoke -out /tmp/vexp_fleet_smoke.json > /dev/null
"$vexp" -bench diff /tmp/vexp_fleet_smoke.json /tmp/vexp_fleet_smoke.json > /dev/null
"$vexp" -bench diff BENCH_fleet.json BENCH_fleet.json > /dev/null
rm -f /tmp/vexp_fleet_smoke.json

# Telemetry byte-identity smoke: the fleetobs experiment panics internally if
# its serial and parallel flight-recorder snapshots diverge; on top of that,
# two full runs of the same seed (with -telemetry sparklines on stdout) must
# be byte-identical.
echo "== fleetobs telemetry determinism smoke"
twice_cmp fleetobs -run fleetobs -scale 0.1 -seed 7 -telemetry

# Fault-tolerance smoke: the faulttol experiment embeds three panic gates
# (serial==sharded snapshot bytes with faults active, recovery strictly
# beating no-recovery on completed lifetimes, exact VM conservation). On top
# of finishing at full scale — 1024 hosts, 48 h, the whole crash/brownout/
# stall schedule — two same-seed runs must be byte-identical, and must match
# the checked-in full record.
echo "== faulttol byte-identity + golden smoke (full scale)"
twice_cmp faulttol -run faulttol -seed 42
golden_cmp faulttol /tmp/vexp_faulttol.txt

# Obsplane smoke: the obsplane experiment boots the embedded observability
# server on an ephemeral port, streams the run's progress events over real
# TCP, and scrapes /metrics concurrently — with five internal panic gates
# (snapshot + telemetry byte-identity attached vs detached, ledger
# conservation on the stream, final-scrape exactness). On top of that, two
# serial runs must be byte-identical: observation is inert by construction.
echo "== obsplane observability determinism smoke"
twice_cmp obsplane -run obsplane -scale 0.05 -seed 7
rm -f "$vexp" /tmp/vexp_attrib.txt /tmp/vexp_fleetscale.txt /tmp/vexp_fleetobs.txt \
    /tmp/vexp_faulttol.txt /tmp/vexp_obsplane.txt

echo "CI OK"
