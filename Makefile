GO ?= go

.PHONY: build test tier1 vet race chaos serve-smoke bench bench-smoke bench-predicates fuzz nopanic nocopy ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: everything builds and every test passes.
tier1: build test

vet:
	$(GO) vet ./...

# Concurrency-sensitive packages (the MPI runtime, the fault-tolerant
# pipeline executor with its chaos tests, the render workers sharing one
# mesh, concurrent point location and delta updates on shared delaunay
# meshes, and the shared predicate counters/oracle switch in geom) under
# the race detector.
race:
	$(GO) test -race ./internal/mpi/... ./internal/pipeline/... ./internal/render/... ./internal/delaunay/... ./internal/geom/... ./internal/fieldserve/... ./internal/fault/... ./internal/vtime/...

# Fault-injection suites under the race detector: interior-rank death in
# the reduction tree, cascading failures, dropped/duplicated frames,
# straggler re-dispatch, tolerant receives, and collective attribution.
# The -timeout is the watchdog: a recovery-path hang fails the run instead
# of wedging CI.
chaos:
	$(GO) test -race -timeout 180s -run 'Chaos|Fault|Recover|Crash|Straggler|Tolerant|Attribution|Tree' \
		./internal/mpi/... ./internal/fault/... ./internal/pipeline/... ./internal/render/distrender/... \
		./internal/fieldserve/

# Overload smoke: the resident field service at 2x capacity under the
# race detector — the real service (bounded queue, shedding, degrade
# ladder, goroutine-leak check), the 80%-overlap coalescing storm, and
# the million-request virtual-time load generator with its bounded-p99
# and nonzero-shed assertions.
serve-smoke:
	$(GO) test -race -timeout 300s -run 'OverloadSmoke|OverlapStorm' ./internal/fieldserve/ ./internal/vtime/

# Regression benchmarks: run the kernel/entry/codec/build/predicate/
# distributed-render/field-service/delta-update suite and write
# BENCH_PR10.json with ns/op, allocs/op, and speedup ratios against the
# checked-in baseline in bench/baseline_pr10.json. In the baseline the
# BenchmarkDeltaUpdate entries carry the full-rebuild cost (before
# ApplyDelta, rebuilding was the only way to update a catalog), so the
# delta speedup ratios read directly as delta-vs-rebuild.
bench:
	$(GO) run ./cmd/dtfe-bench -out BENCH_PR10.json -baseline bench/baseline_pr10.json

# Forced-exact predicate microbenchmarks only: the quickest check that a
# predicates change kept the fallback path fast and allocation-free.
bench-predicates:
	$(GO) test -run '^$$' -bench BenchmarkPredicateFallback -benchmem ./internal/geom/

# One-iteration smoke over every benchmark in the tree: catches bit-rot
# in benchmark code without paying for stable timings. -short skips the
# 100k Delaunay builds, which take minutes even for one iteration.
bench-smoke:
	$(GO) test -short -run xxx -bench . -benchtime 1x ./...

# Fuzz smoke: a short budget per target keeps CI fast while still
# exercising the mutation engine against the typed-error contracts.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParticleIO -fuzztime 10s ./internal/particleio/
	$(GO) test -run '^$$' -fuzz FuzzDelaunayInsert -fuzztime 10s ./internal/delaunay/
	$(GO) test -run '^$$' -fuzz FuzzDelaunayDelta -fuzztime 10s ./internal/delaunay/
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzPredicatesExact -fuzztime 10s ./internal/geom/

# The hardened layers (geometry, ingestion, render) must stay panic-free:
# every failure goes through the geomerr taxonomy instead.
nopanic:
	@bad=$$(grep -n 'panic(' internal/delaunay/*.go internal/particleio/*.go internal/render/*.go internal/fieldserve/*.go | grep -v _test.go || true); \
	if [ -n "$$bad" ]; then \
		echo "panic() found in hardened production code:"; echo "$$bad"; exit 1; \
	fi
	@echo "nopanic: clean"

# Atomic-telemetry audit: `go vet -copylocks` (flags copies of values
# carrying locks, which includes every sync/atomic type via its noCopy
# sentinel) plus the structural scan in cmd/nocopy-audit, which flags
# by-value receivers/params/results of any struct embedding sync or
# sync/atomic state — forked counters and copied locks never ship.
nocopy:
	$(GO) vet -copylocks ./...
	$(GO) run ./cmd/nocopy-audit .

ci: tier1 vet nopanic nocopy race chaos serve-smoke bench-smoke fuzz
