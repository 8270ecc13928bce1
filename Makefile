GO ?= go

.PHONY: all build test bench-module vet race bench bench-smoke fma-check fault-smoke cache-smoke obs-smoke serve-smoke prep-smoke check

all: build

build:
	$(GO) build ./...

# vet also fails when any file (bench/ included) is not gofmt-clean; the
# gofmt is the one shipped with $(GO).
vet:
	$(GO) vet ./...
	@unformatted=$$($$($(GO) env GOROOT)/bin/gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: $$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# bench/ is its own module (replace repro => ../), so root API changes are
# only compiled against it, and its golden digests only checked, here.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The race suite is the repository's concurrency gate: the experiment
# harness, both CLIs, and the functional runner all execute under the
# race detector, including the concurrent-runner hammer tests in
# internal/experiments/race_test.go.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-smoke is the CI gate: every benchmark must still run (one
# iteration each), catching bit-rot without burning CI minutes.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# fma-check fails when the arm64 compiler fuses a floating-point
# multiply-add in the R-MAT generator or its RNG (gen.go, rng.go). A
# fused noise factor is rounded once where amd64 rounds it twice, which
# can flip a quadrant and so change every generated graph; explicit
# float64(...) conversions keep each product rounded. The assembly
# listing is the compiler's, which go replays from the build cache, so
# the check also holds on a warm cache; an empty listing fails.
fma-check:
	@listing=$$(GOARCH=arm64 $(GO) build -gcflags='repro/internal/graph=-S' ./internal/graph 2>&1) || \
		{ echo "$$listing" | tail -20; exit 1; }; \
	echo "$$listing" | grep -q '/internal/graph/gen\.go:' || \
		{ echo "fma-check: no arm64 listing of internal/graph/gen.go"; exit 1; }; \
	fused=$$(echo "$$listing" | grep -E '/internal/graph/(gen|rng)\.go:[0-9]+\)[[:space:]]+F(N)?M(ADD|SUB)D'); \
	if [ -n "$$fused" ]; then echo "fma-check: fused multiply-adds in the R-MAT generator:"; echo "$$fused"; exit 1; fi
	@echo fma-check: no fused multiply-add in internal/graph/gen.go or rng.go

# cache-smoke is the content-addressed cache's end-to-end gate: a cold
# quick run populates the on-disk store, a warm run replays entirely
# from it, and the two artifact directories must be byte-identical
# (manifest.json excluded: it records wall time and worker count by
# design). The warm run proves persistence across processes; the diff
# proves a cache hit is indistinguishable from a fresh execution.
CACHE_SMOKE_DIR ?= /tmp/hyve-cache-smoke
cache-smoke:
	rm -rf $(CACHE_SMOKE_DIR)
	$(GO) run ./cmd/hyve-bench -quick -run table3,fig9,fig14 \
		-cache-dir $(CACHE_SMOKE_DIR)/store -artifact-dir $(CACHE_SMOKE_DIR)/cold >/dev/null
	$(GO) run ./cmd/hyve-bench -quick -run table3,fig9,fig14 \
		-cache-dir $(CACHE_SMOKE_DIR)/store -artifact-dir $(CACHE_SMOKE_DIR)/warm >/dev/null
	diff -r -x manifest.json $(CACHE_SMOKE_DIR)/cold $(CACHE_SMOKE_DIR)/warm
	@echo cache-smoke: warm artifacts byte-identical to cold

# obs-smoke is the observability end-to-end gate: a quick bench run with
# the introspection endpoints up, scraped live by hyve-top -lint, which
# fails unless the Prometheus exposition is well-formed (HELP/TYPE on
# every family, monotone cumulative histogram buckets closing at +Inf,
# no duplicate series) and the load-bearing families are present —
# cache counters, an exec-latency histogram, per-worker utilization.
OBS_SMOKE_ADDR ?= 127.0.0.1:6071
obs-smoke:
	$(GO) build -o /tmp/hyve-bench-smoke ./cmd/hyve-bench
	$(GO) build -o /tmp/hyve-top-smoke ./cmd/hyve-top
	/tmp/hyve-bench-smoke -quick -run table3,fig9,fig14 -parallel 4 \
		-pprof $(OBS_SMOKE_ADDR) >/dev/null & \
	BENCH_PID=$$!; \
	/tmp/hyve-top-smoke -lint -wait 60s -url http://$(OBS_SMOKE_ADDR)/metrics \
		-require hyve_cache_hits_total,hyve_cache_misses_total,hyve_parallel_point_exec_seconds,hyve_parallel_worker_utilization,hyve_parallel_points_completed_total; \
	LINT=$$?; \
	wait $$BENCH_PID || { echo "obs-smoke: bench run failed"; exit 1; }; \
	exit $$LINT
	@echo obs-smoke: exposition valid and complete

# serve-smoke is the simulation service's end-to-end gate: start
# hyve-serve, submit a point and a small sweep over HTTP, and require
# (1) the served point body to be byte-identical to a direct
# `hyve-sim -result` run of the same point — cache-hit identity extended
# to the wire, (2) the sweep stream to finish with a clean done event,
# (3) the /metrics exposition to lint clean with every hyve_serve_*
# family present, and (4) SIGTERM to drain with exit status 0.
SERVE_SMOKE_ADDR ?= 127.0.0.1:8093
SERVE_SMOKE_DIR ?= /tmp/hyve-serve-smoke
serve-smoke:
	rm -rf $(SERVE_SMOKE_DIR) && mkdir -p $(SERVE_SMOKE_DIR)
	$(GO) build -o $(SERVE_SMOKE_DIR)/hyve-serve ./cmd/hyve-serve
	$(GO) build -o $(SERVE_SMOKE_DIR)/hyve-sim ./cmd/hyve-sim
	$(GO) build -o $(SERVE_SMOKE_DIR)/hyve-top ./cmd/hyve-top
	set -e; \
	$(SERVE_SMOKE_DIR)/hyve-serve -addr $(SERVE_SMOKE_ADDR) -cache-dir $(SERVE_SMOKE_DIR)/store & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 150); do \
		curl -fsS http://$(SERVE_SMOKE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -fsS -X POST -d '{"dataset":"YT","algo":"PR","config":"sd"}' \
		http://$(SERVE_SMOKE_ADDR)/point -o $(SERVE_SMOKE_DIR)/served.json; \
	$(SERVE_SMOKE_DIR)/hyve-sim -dataset YT -algo PR -config sd -result > $(SERVE_SMOKE_DIR)/direct.json; \
	cmp $(SERVE_SMOKE_DIR)/served.json $(SERVE_SMOKE_DIR)/direct.json; \
	curl -fsS -X POST -d '{"datasets":["YT"],"algos":["PR","BFS"],"configs":["sd"]}' \
		http://$(SERVE_SMOKE_ADDR)/sweep -o $(SERVE_SMOKE_DIR)/sweep.ndjson; \
	grep -q '"event":"done"' $(SERVE_SMOKE_DIR)/sweep.ndjson; \
	! grep -q '"event":"error"' $(SERVE_SMOKE_DIR)/sweep.ndjson; \
	$(SERVE_SMOKE_DIR)/hyve-top -lint -wait 30s -url http://$(SERVE_SMOKE_ADDR)/metrics \
		-require hyve_serve_requests_admitted_total,hyve_serve_points_served_total,hyve_serve_request_seconds,hyve_serve_inflight,hyve_cache_hits_total; \
	kill -TERM $$SERVE_PID; \
	wait $$SERVE_PID
	@echo serve-smoke: served bytes identical to direct simulation, metrics clean, drain clean

# prep-smoke is the prepared-graph end-to-end gate: compile YT into a
# v2 container (self-verified through both readers), then require the
# mmap-loaded dataset to reproduce in-process generation byte for byte:
# hyve-sim's canonical result document for one point, and the artifact
# directories of the same quick sweep (manifest.json excluded: wall time
# and worker count vary by design).
PREP_SMOKE_DIR ?= /tmp/hyve-prep-smoke
prep-smoke:
	rm -rf $(PREP_SMOKE_DIR) && mkdir -p $(PREP_SMOKE_DIR)/prep
	$(GO) run ./cmd/hyve-prep -dataset YT -out $(PREP_SMOKE_DIR)/prep/YT.s8.hyve2 -verify
	$(GO) run ./cmd/hyve-sim -dataset YT -algo PR -config hyve-opt -result \
		> $(PREP_SMOKE_DIR)/generated.result
	$(GO) run ./cmd/hyve-sim -dataset YT -algo PR -config hyve-opt -result \
		-prep-dir $(PREP_SMOKE_DIR)/prep > $(PREP_SMOKE_DIR)/prepared.result
	cmp $(PREP_SMOKE_DIR)/generated.result $(PREP_SMOKE_DIR)/prepared.result
	$(GO) run ./cmd/hyve-bench -quick -run table3,fig9,fig14 \
		-artifact-dir $(PREP_SMOKE_DIR)/generated >/dev/null
	$(GO) run ./cmd/hyve-bench -quick -run table3,fig9,fig14 \
		-prep-dir $(PREP_SMOKE_DIR)/prep -artifact-dir $(PREP_SMOKE_DIR)/prepared >/dev/null
	diff -r -x manifest.json $(PREP_SMOKE_DIR)/generated $(PREP_SMOKE_DIR)/prepared
	@echo prep-smoke: prepared-load artifacts byte-identical to in-process generation

# fault-smoke drives the resilience layer end to end in bounded time:
# the reliability experiment (BER sweep, SECDED accounting, bank
# sparing) plus a conformance sweep with the per-point watchdog armed.
fault-smoke:
	timeout 15s $(GO) run ./cmd/hyve-bench -quick -run reliability
	$(GO) run ./cmd/hyve-check -seed 1 -duration 10s -point-timeout 60s

check: vet build test bench-module race fma-check
