# Developer entry points mirroring .github/workflows/ci.yml, so the same
# gates that guard a PR run with one command locally. `make` alone runs
# the tier-1 pair (build + test).

GO ?= go

.PHONY: all build test race allocs bench-smoke docs docs-check fuzz-smoke lint vuln clean

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

# The alloc gates (the CI "Alloc gates" step): zero-allocation hot paths,
# the flat per-run allocations of warm protected and unprotected runs, and
# the instance table's layout and footprint.
allocs:
	$(GO) test -run 'ZeroAlloc|AllocsFlat|Footprint' -v . ./internal/wire/ ./internal/monitor/ \
		./internal/remote/ ./internal/interp/

# One iteration of every benchmark: catches benchmark-rot without
# measuring anything.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# Wall-clock cost is measured by the repo benchmark, not by a make
# target: bash bwperf/run.sh --workload kernels-local --seed 1
# (docs/benchmarks.md).

# Regenerate the generated docs (docs/cli.md, README experiment table);
# docs-check is the CI drift + link gate.
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
