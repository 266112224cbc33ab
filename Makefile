# Developer entry points mirroring .github/workflows/ci.yml, so the same
# gates that guard a PR run with one command locally. `make` alone runs
# the tier-1 pair (build + test).

GO ?= go

.PHONY: all build test race allocs bench-smoke perf-smoke baseline docs docs-check fuzz-smoke lint vuln clean

all: build test

build:
	$(GO) build ./...

# bwperf/ is its own module (the repo benchmark), so the root ./... never
# compiles it; vet and test it explicitly so an API change cannot break
# the benchmark unseen. The pinned interpreter outputs are also checked at
# GOMAXPROCS 1, 2 and 8 (the CI "Determinism across GOMAXPROCS" step):
# barrier waiters spin only when every thread has a processor.
test:
	$(GO) test ./...
	$(GO) test -count=1 -cpu 1,2,8 -run 'TestGoldenDigest|TestSimTimeDeterministic' \
		./internal/interp/ ./internal/splash/
	cd bwperf && $(GO) vet ./... && $(GO) test ./...

# The concurrency-sensitive packages under the race detector — the same
# list as the CI race job, and the CLIs.
race:
	$(GO) test -race . ./internal/queue/ ./internal/monitor/ ./internal/inject/ \
		./internal/interp/ ./internal/remote/ ./internal/spool/ ./internal/trace/ \
		./internal/metrics/ ./internal/adminhttp/ ./internal/wire/ ./cmd/...
	$(GO) test -race -count=10 -timeout 5m -run 'Park|Wake|RingsBackToBack|WindowUnderRace|Stop' \
		./internal/queue/ ./internal/monitor/ ./internal/remote/ ./internal/interp/ ./internal/inject/

# The alloc gates (the CI "Alloc gates" step): zero-allocation hot paths
# and the flat per-run allocations of warm protected and unprotected runs.
allocs:
	$(GO) test -run 'ZeroAlloc|AllocsFlat' -v . ./internal/wire/ ./internal/monitor/ \
		./internal/remote/ ./internal/interp/

# One iteration of every benchmark: catches benchmark-rot without
# measuring anything.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# The CI performance gate: emit the short perf grid as BENCH_ci.json
# and compare it against the checked-in baseline. -no-time keeps only
# the deterministic gates (record structure, allocs/op) — wall-clock
# drifts >10% between back-to-back runs on a loaded machine. On quiet
# dedicated hardware, drop -no-time to gate ns/op and events/sec too.
perf-smoke:
	$(GO) run ./cmd/bwbench -exp ingest,throughput -q -json BENCH_ci.json
	$(GO) run ./cmd/bwbench compare -no-time -base BENCH_baseline.json -head BENCH_ci.json

# Refresh the checked-in baseline after an intentional performance
# change, then regenerate the docs that render it.
baseline:
	$(GO) run ./cmd/bwbench -exp ingest,throughput -q -json BENCH_baseline.json
	$(MAKE) docs

# Regenerate the generated docs (docs/cli.md, README experiment table,
# benchmarks baseline table); docs-check is the CI drift + link gate.
docs:
	$(GO) run ./cmd/internal/docgen

docs-check:
	$(GO) run ./cmd/internal/docgen -check -links

# Short fuzz sessions over the robustness invariants (CI runs the same
# targets for longer).
fuzz-smoke:
	$(GO) test -fuzz=FuzzCompile -fuzztime=10s ./internal/lower/
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/lang/
	$(GO) test -fuzz=FuzzNoFalsePositive -fuzztime=10s ./internal/lang/langtest/
	$(GO) test -fuzz=FuzzMonitorEvents -fuzztime=10s ./internal/monitor/
	$(GO) test -fuzz=FuzzTableDifferential -fuzztime=10s ./internal/monitor/
	$(GO) test -fuzz=FuzzCheckerDifferential -fuzztime=10s ./internal/monitor/
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzWireRoundTrip -fuzztime=10s ./internal/wire/

# gofmt + vet + staticcheck (when installed; CI always runs it).
lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI runs it)"; fi

# Known-vulnerability scan (requires network; CI runs it on every PR).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else $(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...; fi

clean:
	$(GO) clean ./...
