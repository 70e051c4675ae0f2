GO ?= go

.PHONY: all build test vet race check differential lpdebug examples obs-allocs scale-smoke admit-smoke class-smoke profile bench bench-full bench-json bench-compare loc clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The MILP worker pool, the Problem caches and the parallel experiment
# runner must stay race-clean.
race:
	$(GO) test -race ./...

# The overhauls are pinned to their reference implementations: slab kernel
# vs. heap kernel, dense bitset medium vs. map-based medium, parallel
# meshbench vs. sequential, bounded-variable simplex vs. the dense two-phase
# oracle, warm-started branch-and-bound vs. cold, incremental window
# mutation vs. fresh builds, analytic-screened capacity search vs. the
# linear reference scan, partitioned zone scheduling vs. the monolithic
# ILP (window within 10%, bit-identical at any worker count), admission
# engine verdicts vs. cold schedule.MinSlots re-plans — all under the race
# detector.
differential:
	$(GO) test -race -count=1 -run 'TestDifferential|TestWorkersByteIdentical|TestScreenedSearchMatchesLinear|TestGallopSearchWorkers|TestAnalyticSearchMatchesLinear|TestAnalyticVsSimulated' \
		./internal/sim ./internal/mac ./cmd/meshbench ./internal/core \
		./internal/lp ./internal/milp ./internal/schedule ./internal/partition \
		./internal/admit

# Re-run the solver packages with the lpdebug build tag: every simplex
# terminates through an invariant check (basis consistency, B^-1 B = I,
# primal feasibility, dual sign conditions).
lpdebug:
	$(GO) test -count=1 -tags lpdebug ./internal/lp ./internal/milp ./internal/schedule

# Build every example program and smoke-run the quickstart (the fastest
# end-to-end path through the public API). TestExamplesBuild covers the
# builds under plain `go test ./...` too.
examples:
	$(GO) build ./examples/...
	$(GO) test ./examples/ -run TestExamplesBuild -count=1
	$(GO) run ./examples/quickstart > /dev/null

# The observability layer must cost nothing when disabled: nil-sink counter,
# gauge, histogram and trace calls are pinned at 0 allocs/op (and the alloc
# test fails on any regression). The analytic screen rides the same budget:
# a steady-state closed-form probe must not allocate, or screening thousands
# of candidate call counts would feed the GC.
obs-allocs:
	$(GO) test ./internal/obs -run 'TestNilSinkZeroAllocs|TestEnabledSinkZeroAllocsSteadyState' -count=1
	$(GO) test ./internal/obs -run xxx -benchmem \
		-bench 'BenchmarkObsNilCounterInc|BenchmarkObsNilTraceEmit'
	$(GO) test ./internal/analytic -run TestPredictZeroAllocsSteadyState -count=1
	$(GO) test ./internal/analytic -run xxx -benchmem \
		-bench 'BenchmarkAnalyticScreen'

# A reduced city-scale R18 (200 nodes, 1000 offered flows) through the full
# partitioned pipeline — generate, admit, decompose, zone ILPs, stitch —
# under go vet and the race detector. Fast enough for every push; the full
# sweep lives in `meshbench -only R18`.
scale-smoke:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run TestScaleSmoke ./internal/experiments

# A reduced R19 (village grid + 200-node zoned city) through the full serving
# pipeline — workload generation, three-tier admission, release churn,
# compaction — plus a reduced R20 through the sharded path at workers 1 and
# 8 (per-zone locking, joint batches, concurrent dispatcher), all under go
# vet and the race detector. The full sweeps live in `meshbench -only R19`
# and `-only R20`.
admit-smoke:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run 'TestAdmitSmoke|TestShardSmoke' ./internal/experiments

# A reduced R21 (120-node zoned city, mixed UGS/rtPS/nrtPS/BE workload under
# overload) through the class-aware serving pipeline — class deadlines, the
# classed fastpath and solver caps, and preemptive admission with evictions —
# under go vet and the race detector. The full sweep lives in
# `meshbench -only R21`.
class-smoke:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run TestClassSmoke ./internal/experiments

check: vet build race differential lpdebug examples obs-allocs admit-smoke class-smoke

# CPU+heap profile of the scheduler-bound experiments (see README
# "Performance" for reading the output).
profile:
	$(GO) run ./cmd/meshbench -only R7 -workers 1 \
		-cpuprofile cpu.prof -memprofile mem.prof
	$(GO) tool pprof -top -nodecount 15 cpu.prof

# Hot-path micro-benchmarks (kernel schedule/cancel, medium transmit, DCF
# saturation); the first three must report 0 allocs/op.
bench:
	$(GO) test -run xxx -benchmem . \
		-bench 'BenchmarkKernelAfterStep|BenchmarkKernelCancel|BenchmarkMediumTransmit|BenchmarkDCFSaturation'

bench-full:
	$(GO) test -bench=. -benchmem .

# Record the experiment metrics + wall clock as a dated JSON report
# (machine-readable perf trajectory; see README "Performance"). Single
# worker, so wall times measure the data plane, not the runner.
bench-json:
	$(GO) run ./cmd/meshbench -workers 1 -json BENCH_$$(date +%F).json

# Re-run the experiments and compare tables + wall clock against the newest
# committed BENCH_<date>.json: any table cell change (outside the
# wall-clock-dependent columns of R7, R18, R19, R20 and R21 — R19's
# time-budgeted verdict split, all of R20's serial-vs-sharded comparison and
# R21's per-class latency quantiles included) or a >20% wall-clock regression
# fails the target.
bench-compare:
	$(GO) run ./cmd/meshbench -workers 1 -json /tmp/bench-compare.json > /dev/null
	$(GO) run ./cmd/benchcompare $(lastword $(sort $(wildcard BENCH_*.json))) /tmp/bench-compare.json

# Non-test Go source lines of each internal/* and cmd/* package (physical
# lines, as wc -l counts them), then the total — the size ledger the
# simplicity work is measured by.
loc:
	@for d in internal/* internal/*/* cmd/*; do \
		files=$$(ls $$d/*.go 2>/dev/null | grep -v '_test\.go$$'); \
		[ -n "$$files" ] && printf '%6d  %s\n' $$(cat $$files | wc -l) $$d; \
	done; \
	printf '%6d  total\n' $$(ls internal/*/*.go internal/*/*/*.go cmd/*/*.go | grep -v '_test\.go$$' | xargs cat | wc -l)

clean:
	$(GO) clean ./...
