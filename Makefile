GO ?= go

.PHONY: all build test bench-module vet race bench bench-smoke fault-smoke cache-smoke obs-smoke serve-smoke prep-smoke cluster-smoke check

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
# v2 container (grid at the auto-chosen P, self-verified against a
# rebuild through both readers), then run the same quick sweep with and
# without -prep-dir — the mmap-loaded dataset must produce artifact
# directories byte-identical to in-process generation (manifest.json
# excluded: wall time and worker count vary by design).
PREP_SMOKE_DIR ?= /tmp/hyve-prep-smoke
prep-smoke:
	rm -rf $(PREP_SMOKE_DIR) && mkdir -p $(PREP_SMOKE_DIR)/prep
	$(GO) run ./cmd/hyve-prep -dataset YT -out $(PREP_SMOKE_DIR)/prep/YT.s8.hyve2 \
		-grid auto -verify -budget 64
	$(GO) run ./cmd/hyve-bench -quick -run table3,fig9,fig14 \
		-artifact-dir $(PREP_SMOKE_DIR)/generated >/dev/null
	$(GO) run ./cmd/hyve-bench -quick -run table3,fig9,fig14 \
		-prep-dir $(PREP_SMOKE_DIR)/prep -artifact-dir $(PREP_SMOKE_DIR)/prepared >/dev/null
	diff -r -x manifest.json $(PREP_SMOKE_DIR)/generated $(PREP_SMOKE_DIR)/prepared
	@echo prep-smoke: prepared-load artifacts byte-identical to in-process generation

# cluster-smoke is the distributed sweep's end-to-end gate: hyve-sweepd
# (remote workers only, no local fallback) leases a 6-point sweep to two
# real hyve-worker processes, the first of which is SIGKILLed while
# holding a lease. The sweep must still complete through reclaim and
# reassignment, the merged artifact must be byte-identical to
# `hyve-sim -result` over the same sweep, /metrics must lint clean with
# the hyve_cluster_* families present, and the reclaimed counter must
# prove the dead worker's lease actually came back.
CLUSTER_SMOKE_DIR ?= /tmp/hyve-cluster-smoke
CLUSTER_SMOKE_ADDR ?= 127.0.0.1:9631
CLUSTER_SMOKE_PPROF ?= 127.0.0.1:6072
cluster-smoke:
	rm -rf $(CLUSTER_SMOKE_DIR) && mkdir -p $(CLUSTER_SMOKE_DIR)
	$(GO) build -o $(CLUSTER_SMOKE_DIR)/hyve-sweepd ./cmd/hyve-sweepd
	$(GO) build -o $(CLUSTER_SMOKE_DIR)/hyve-worker ./cmd/hyve-worker
	$(GO) build -o $(CLUSTER_SMOKE_DIR)/hyve-sim ./cmd/hyve-sim
	$(GO) build -o $(CLUSTER_SMOKE_DIR)/hyve-top ./cmd/hyve-top
	set -e; \
	$(CLUSTER_SMOKE_DIR)/hyve-sweepd -listen $(CLUSTER_SMOKE_ADDR) -local=false \
		-dataset YT -algo PR,BFS -config hyve-opt,sd,dram -shard 1 -lease-ttl 2s \
		-pprof $(CLUSTER_SMOKE_PPROF) -linger 10s -out $(CLUSTER_SMOKE_DIR)/merged.jsonl & \
	SWEEPD_PID=$$!; \
	$(CLUSTER_SMOKE_DIR)/hyve-top -lint -wait 30s -url http://$(CLUSTER_SMOKE_PPROF)/metrics \
		-require hyve_cluster_shards,hyve_cluster_workers_live,hyve_cluster_leases_granted_total,hyve_cluster_leases_reclaimed_total,hyve_cluster_results_merged_total; \
	$(CLUSTER_SMOKE_DIR)/hyve-worker -connect $(CLUSTER_SMOKE_ADDR) -name victim \
		-chaos-delay 500ms & \
	VICTIM_PID=$$!; \
	for i in $$(seq 1 100); do \
		curl -fsS http://$(CLUSTER_SMOKE_PPROF)/metrics | grep -q '^hyve_cluster_leases_granted_total [1-9]' && break; \
		sleep 0.1; \
	done; \
	kill -9 $$VICTIM_PID; \
	$(CLUSTER_SMOKE_DIR)/hyve-worker -connect $(CLUSTER_SMOKE_ADDR) -name steady; \
	curl -fsS http://$(CLUSTER_SMOKE_PPROF)/metrics | grep -q '^hyve_cluster_leases_reclaimed_total [1-9]' \
		|| { echo "cluster-smoke: victim's lease never reclaimed"; exit 1; }; \
	$(CLUSTER_SMOKE_DIR)/hyve-sim -dataset YT -algo PR,BFS -config hyve-opt,sd,dram -result \
		> $(CLUSTER_SMOKE_DIR)/direct.jsonl; \
	wait $$SWEEPD_PID; \
	cmp $(CLUSTER_SMOKE_DIR)/merged.jsonl $(CLUSTER_SMOKE_DIR)/direct.jsonl
	@echo cluster-smoke: merged artifact byte-identical to hyve-sim after SIGKILL chaos

# fault-smoke drives the resilience layer end to end in bounded time:
# the reliability experiment (BER sweep, SECDED accounting, bank
# sparing) plus a conformance sweep with the per-point watchdog armed.
fault-smoke:
	timeout 15s $(GO) run ./cmd/hyve-bench -quick -run reliability
	$(GO) run ./cmd/hyve-check -seed 1 -duration 10s -point-timeout 60s

check: vet build test bench-module race
