# luxvis build gates. `make check` is the full pre-merge battery; the
# individual targets mirror the CI jobs in .github/workflows/ci.yml.

GO ?= go

.PHONY: build test lint vet race bench-smoke fuzz-smoke scenarios bench-visibility bench-stream bench-check stream-soak check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## lint: run the domain-aware static analysis suite (see DESIGN.md,
## "Static invariants"). Fails on any error-severity finding. Every run
## is a full run: module packages are type-checked from source, the
## standard library is read from the go command's export data, and
## packages are analyzed in parallel across all cores (output is
## byte-identical at any worker count).
lint:
	$(GO) run ./cmd/vislint ./...

vet:
	$(GO) vet ./...

## race: the concurrent runtime (one goroutine per robot), the engine,
## the HTTP service, the observability layer, the stream hub and the
## parallel visibility kernel under the race detector. The engine and
## obs packages run at -cpu 1,4: one proc computes inline; with four,
## the sim tests (which lower the 96-robot pipelining floor to 1)
## pipeline Compute on the engine's worker pool.
race:
	$(GO) test -race ./internal/rt/... ./internal/serve/... ./internal/stream/... ./internal/geom/...
	$(GO) test -race -cpu 1,4 ./internal/sim/... ./internal/obs/...

## bench-smoke: every benchmark compiles and completes one iteration
## (catches drift between the experiment harness and bench_test.go).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## fuzz-smoke: short fuzz runs of the geometry differential targets,
## mirroring the CI smoke (corpora live in internal/geom/testdata/fuzz
## and internal/exact/testdata/fuzz).
fuzz-smoke:
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzVisibleAgainstNaive$$' -fuzztime 15s
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzSegmentCross$$' -fuzztime 15s
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzSnapshotUpdate$$' -fuzztime 15s
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzConvexHull$$' -fuzztime 15s
	$(GO) test ./internal/scenario -run '^$$' -fuzz '^FuzzScenarioConfig$$' -fuzztime 15s
	$(GO) test ./internal/exact -run '^$$' -fuzz '^FuzzOrientFilter$$' -fuzztime 15s

## scenarios: the robustness matrix at CI scale — every stressor of the
## scenario suite against the paper's claims, 1 seed, engine-vs-auditor
## parity on every cell, under the race detector. The full matrix is
## `go run ./cmd/visbench -exp R1` (see EXPERIMENTS.md).
scenarios:
	$(GO) test ./internal/exp -race -count=1 -run '^TestRobustnessMatrixSmoke$$' -v
	$(GO) test ./internal/verify -race -count=1 -run '^TestDifferentialScenarioSweep$$' -v

## bench-visibility: regenerate the visibility-kernel benchmark baseline
## (kernel vs per-Look vs incremental, with host info). Takes minutes;
## commit the refreshed BENCH_visibility.json with perf-relevant changes.
bench-visibility:
	$(GO) run ./cmd/visbench -bench-visibility BENCH_visibility.json

## bench-stream: regenerate the stream fan-out benchmark baseline
## (engine overhead at 1/64/1024/4096 subscribers, with drop counts).
## Commit the refreshed BENCH_stream.json with streaming-path changes.
bench-stream:
	$(GO) run ./cmd/visbench -bench-stream BENCH_stream.json

## bench-check: the perf-regression gate — re-measure a CI-sized subset
## and compare ratios (kernel speedup, stream overhead) against the
## checked-in baselines within a tolerance. Skips (exit 0) when this
## host's core count differs from the baseline's: wall-clock ratios
## only transfer within a host shape. Exit 1 = regression.
bench-check:
	$(GO) run ./cmd/visbench -check-baseline

## stream-soak: the CI soak — hundreds of concurrent SSE subscribers on
## one hot run under the race detector, with a goroutine-leak bound.
stream-soak:
	$(GO) test ./internal/serve -race -count=1 -run '^TestStreamSoak$$' -v

## check: everything a PR must pass, in fail-fast order.
check: build vet lint test race bench-smoke fuzz-smoke scenarios
	@echo "all gates passed"
