# Pipelines must fail when any stage fails (the bench smoke pipes
# through tee; without pipefail a crashing benchmark would pass green).
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO        ?= go
# BENCHTIME=1x keeps `make bench` a smoke check; raise it (e.g. 1s) when
# recording BENCH_<n>.json numbers meant for comparison.
BENCHTIME ?= 1x
# BENCHCOUNT repeats every benchmark; benchjson keeps the minimum ns/op
# across repeats, so recorded numbers track the quiet-machine floor
# instead of whatever scheduling noise one run caught.
BENCHCOUNT ?= 1
# Per-package `go test` timeout for the bench run. The default 10m is
# enough for the 1x smoke, but a recording run (BENCHTIME=10x,
# BENCHCOUNT>1) overruns it in the root package — the packet-level
# ablation alone costs ~20s/op.
BENCHTIMEOUT ?= 10m
# The benchmark families whose ns/op the perf-trajectory record tracks.
BENCH_RECORD ?= BenchmarkAgg|BenchmarkScenarioGeneration|BenchmarkColumnarScan|BenchmarkSegmentOpen|BenchmarkLiveIngest|BenchmarkMultiProducer|BenchmarkFederated|BenchmarkConcurrentQuery|BenchmarkHTTP|BenchmarkParallel|BenchmarkReportAll|BenchmarkMailImpact|BenchmarkIterByStart|BenchmarkSortFloat64s|BenchmarkHoneypotRequestPath

# Pinned third-party linter versions (installed by `make lint-tools`;
# `make lint` runs them when present and says so when not, so the
# offline dev loop stays green while CI gets the full stack).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
STATICCHECK ?= staticcheck
GOVULNCHECK ?= govulncheck

.PHONY: build vet test race bench chaos lint lint-tools docs serve-smoke clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector: the lock-free store read
# paths (writer-vs-readers stress tests in internal/attack and
# internal/federation), the amppot live-flush pipeline, and the query
# executor are the concurrent surfaces it guards. internal/attack runs
# again under -cpu 1,2,4 so the executor's determinism property
# (byte-identical results at any GOMAXPROCS) is checked where worker
# scheduling actually varies. TestConcurrentCatchUp runs 20 more times
# there: two readers extending one derived-index build at once is a
# race only some schedules show.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 ./internal/attack
	$(GO) test -race -run '^TestConcurrentCatchUp$$' -count 20 -cpu 1,2,4 ./internal/attack

# bench runs every benchmark in the module once as a smoke check and
# writes the query/columnar/segment/live-ingest/multi-producer/federation/concurrency
# /http-serving/parallel-executor suites', the full report's, the mail
# analysis's, the float64 sort kernel's and the per-protocol honeypot
# request path's ns/op, B/op
# and allocs/op to bench.json (gitignored).
# A committed BENCH_<n>.json is recorded on purpose: a run with raised
# BENCHTIME/BENCHCOUNT, then `cp bench.json BENCH_<n>.json`.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -timeout $(BENCHTIMEOUT) ./... | tee bench.out
	$(GO) run ./cmd/benchjson -match '$(BENCH_RECORD)' < bench.out > bench.json
	rm -f bench.out

# chaos runs the degraded-mode packages under the race detector: the
# fault-injection proxy, the circuit breaker (state machine, rejoin,
# flapping-site stress), and the HTTP chaos sweep that checks every
# endpoint's degraded answer against the healthy-subset oracle. It then
# runs the -chaos walkthrough, the one end-to-end trip → skip → heal →
# probe-rejoin cycle; the walkthrough waits for the breaker to close,
# so the timeout turns a rejoin that never happens into a failure.
chaos:
	$(GO) test -race ./internal/faultnet ./internal/federation ./internal/httpapi
	timeout 60 $(GO) run ./examples/federation -chaos

# serve-smoke boots dosqueryd over a deterministic generated capture,
# curls the endpoint matrix (counting, cursor pagination, figures,
# failure-mode statuses), and diffs the responses against the golden
# transcript in cmd/dosqueryd/testdata/. UPDATE=1 regenerates the
# golden after an intentional API change.
serve-smoke:
	./scripts/serve_smoke.sh

# lint runs the dosvet suite (internal/lint: scratchescape, readpurity,
# errsentinel, nodeprecated, ctxflow — see docs/ARCHITECTURE.md
# "Enforced invariants") plus staticcheck and govulncheck at the pinned
# versions when installed. The dosvet analyzers are tier-1: they fail
# the build; the third-party tools are skipped with a notice on
# machines that lack them (this container has no network to install
# into — CI runs `make lint-tools` first).
lint:
	$(GO) run ./cmd/dosvet ./...
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else echo "lint: $(STATICCHECK) $(STATICCHECK_VERSION) not installed; skipped (make lint-tools)"; fi
	@if command -v $(GOVULNCHECK) >/dev/null 2>&1; then \
		$(GOVULNCHECK) ./...; \
	else echo "lint: $(GOVULNCHECK) $(GOVULNCHECK_VERSION) not installed; skipped (make lint-tools)"; fi

# lint-tools installs the pinned third-party linters (network needed).
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# docs keeps the documentation honest: the examples must build, the
# godoc Example* snippets must run, and no new caller outside the
# attack package may adopt the deprecated Events() API. The
# deprecated-API check is dosvet's nodeprecated analyzer — type-aware
# call detection that replaced the old variable-name greps, so renaming
# a receiver no longer smuggles a deprecated call past the gate.
docs:
	$(GO) build ./examples/...
	$(GO) test -run Example ./internal/attack ./internal/federation
	$(GO) run ./cmd/dosvet -nodeprecated ./...
	@echo "docs ok"

clean:
	rm -f bench.out bench.json
