# CI entry points. `make ci` is what a clean checkout must pass:
# vet + build + full test suite under the race detector (the scan
# planner, result cache, commitlog, and store are all concurrent), a
# cache-defeating plain test run, and a one-iteration smoke of the
# durable-engine benchmarks so the WAL path cannot rot unexercised.

GO ?= go

# Label recorded into BENCH_*.json by `make bench-json`.
BENCH_LABEL ?= dev

.PHONY: ci vet build test test-fresh race bench bench-wal bench-api \
	bench-json bench-smoke alloc-guard fmt-check test-wire \
	bench-diff load-smoke bench-load cluster-smoke metrics-lint tier-smoke

# alloc-guard runs inside the plain (non-race) test pass, but is also
# listed explicitly so the allocation budgets cannot rot out of CI.
# test-wire re-runs the v1 wire-protocol suites (api contract, client
# SDK, server surface, SDK-vs-engine corpus equality) by name so a
# filtered test invocation cannot silently drop them.
# bench-diff gates the committed perf trajectories; metrics-lint checks
# the /v1/metrics exposition stays parseable and internally consistent;
# load-smoke drives a short open-loop mixed scenario through the SDK
# against a self-hosted server, scrapes /v1/metrics mid-run, and fails
# on errors or missing series; cluster-smoke proves the multi-process
# replicated cluster survives a kill -9.
ci: vet build race test-fresh alloc-guard test-wire metrics-lint bench-smoke bench-diff load-smoke cluster-smoke tier-smoke

# Tiered-storage smoke: force-evict every sealed segment to a local-fs
# object store and prove the engine corpus stays byte-identical through
# Merkle-verified read-through (including across a reopen), crash images
# cut at every upload/eviction stage recover without losing acked rows,
# a flipped object byte falls back to a replica, and the tiered scan
# benchmark still runs (resident / cached / cold-fetch). Nodes sweep
# concurrently, so the crash-image capture and the one-node-blocked
# partial failure also run ten times under the race detector.
tier-smoke:
	$(GO) test -count=1 -run TestTieredEngineCorpus ./internal/enginetest/
	$(GO) test -count=1 -run 'TestTieredCrashRecovery|TestTieredCorruptionFallsBackToReplica' ./internal/store/
	$(GO) test -race -count=10 -run 'TestTieredCrashRecovery|TestTierSweepPartialFailure' ./internal/store/
	$(GO) test -run XXX -bench BenchmarkTieredScan -benchtime 1x .

# Exposition-format lint plus cluster observability: every /v1/metrics
# line must parse, each metric is typed exactly once, histogram buckets
# are cumulative with +Inf == _count, counters never go negative, the
# slow-query log captures stage timings, per-peer replication series
# appear on every cluster member, and one request ID traces across all
# three processes of a replicated write.
metrics-lint:
	$(GO) test -count=1 -run 'TestMetricsExposition|TestSlowQueryLog' ./internal/server/
	$(GO) test -count=1 -run 'TestMetricsClusterReplication|TestMetricsTracePropagation' ./internal/dist/

# Perf-regression gate: within every committed BENCH_*.json trajectory,
# compare the oldest recorded run against the newest and fail on >15%
# ns/op or allocs/op regressions (for BENCH_load.json the "ns/op" keys
# are p50/p99/p999 latencies, so tail regressions fail the same rule).
# Deterministic: gates recorded history, re-runs nothing.
bench-diff:
	@for f in BENCH_*.json; do \
		echo "== benchdiff $$f"; \
		$(GO) run ./cmd/benchdiff -threshold 0.15 $$f || exit 1; \
	done

# Open-loop load smoke: every traffic class plus live watchers at a
# modest fixed arrival rate against an in-process server with a real
# commitlog; any error rate above 2% fails CI, and a mid-run
# /v1/metrics scrape must show the traffic (request histograms, live
# watch subscribers, fsync latency) or the run fails.
load-smoke:
	$(GO) run ./cmd/loadgen -smoke -selfhost -durable -metrics-check -q -max-error-rate 0.02

# Multi-process cluster smoke: build cmd/hpclogd, spawn a 3-process RF=3
# cluster on loopback ports, drive quorum writes and reads through the
# public wire protocol, kill -9 one process mid-traffic (quorum must keep
# acking), restart it, and assert its own replica converges to every
# acked write.
cluster-smoke:
	HPCLOG_CLUSTER_SMOKE=1 $(GO) test -count=1 -run TestClusterProcessSmoke ./internal/dist/

# Re-record the committed load-latency trajectory from the experiment
# grid: scenarios × repeats from experiments.json, per-class p50/p99/p999
# appended to BENCH_load.json under $(BENCH_LABEL), raw per-run rows in
# load_results.csv (uncommitted scratch output). Every run is scraped
# mid-flight (-metrics-check), so the recorded numbers include the full
# observability layer (tracing + metrics). The store stays in-memory to
# match the conditions of every earlier recorded run — the trajectory
# gates code changes, not storage configuration; the durable commitlog's
# latency contribution is covered by load-smoke (which runs -durable and
# asserts the fsync series) and the WAL benchmarks in BENCH_wal.json.
bench-load:
	$(GO) run ./cmd/loadgen -grid experiments.json -selfhost -metrics-check \
		-csv load_results.csv -bench - \
		| $(GO) run ./cmd/benchjson -o BENCH_load.json -label "$(BENCH_LABEL)"

# The v1 wire protocol: contract types, client SDK (error propagation,
# retries, pagination/stream equality), server surface hardening, and the
# engine-test corpus over the SDK.
test-wire:
	$(GO) test -count=1 ./internal/api/ ./client/ ./internal/server/ ./internal/enginetest/

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -count=1 defeats the build cache's test-result caching.
test-fresh:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

# Serial vs partition-parallel scan comparison for the big-data ops.
bench:
	$(GO) test -run XXX -bench 'BenchmarkScan(Serial|Parallel)' -benchmem .

# Durable storage engine benchmarks (commitlog append, durable ingest).
bench-wal:
	$(GO) test -run XXX -bench 'WAL|DurableIngest' -benchmem .

# Query-planner pushdown benchmarks: selective vs broad predicates with
# block pruning on/off (zone maps + Bloom filters).
bench-filter:
	$(GO) test -run XXX -bench BenchmarkFilterScan -benchmem .

# End-to-end wire-protocol benchmarks: the same query over live HTTP
# one-shot vs NDJSON-streamed vs cursor-paginated through the Go SDK.
bench-api:
	$(GO) test -run XXX -bench BenchmarkAPIQuery -benchmem .

# Record the benchmark suites into the committed perf-trajectory files.
# BENCH_scan.json tracks the read path, BENCH_wal.json the write path;
# each invocation appends (or refreshes) one run labeled $(BENCH_LABEL),
# so future PRs prove speedups/regressions against recorded history.
bench-json:
	$(GO) test -run XXX -bench 'BenchmarkScan(Serial|Parallel)' -benchmem -json . \
		| $(GO) run ./cmd/benchjson -o BENCH_scan.json -label "$(BENCH_LABEL)"
	$(GO) test -run XXX -bench 'WAL|DurableIngest' -benchmem -json . \
		| $(GO) run ./cmd/benchjson -o BENCH_wal.json -label "$(BENCH_LABEL)"
	$(GO) test -run XXX -bench BenchmarkFilterScan -benchmem -json . \
		| $(GO) run ./cmd/benchjson -o BENCH_filter.json -label "$(BENCH_LABEL)"
	$(GO) test -run XXX -bench BenchmarkAPIQuery -benchmem -json . \
		| $(GO) run ./cmd/benchjson -o BENCH_api.json -label "$(BENCH_LABEL)"
	$(GO) test -run XXX -bench BenchmarkHubNotify -benchmem -json ./internal/server/ \
		| $(GO) run ./cmd/benchjson -o BENCH_hub.json -label "$(BENCH_LABEL)"
	$(GO) test -run XXX -bench 'BenchmarkMetricsRecord|BenchmarkSpan' -benchmem -json ./internal/obs/ \
		| $(GO) run ./cmd/benchjson -o BENCH_obs.json -label "$(BENCH_LABEL)"
	$(GO) test -run XXX -bench BenchmarkTieredScan -benchmem -json . \
		| $(GO) run ./cmd/benchjson -o BENCH_tier.json -label "$(BENCH_LABEL)"

bench-smoke:
	$(GO) test -run XXX -bench WAL -benchtime 1x .

# Allocation regression guards: a segment scan, a put-record encode,
# predicate evaluation, the watch hub's write-path notify, and the
# observability hot path (counter bump, histogram record, span stage)
# must stay within fixed testing.AllocsPerRun budgets (see
# *_alloc_guard_test.go; skipped under -race). Predicate evaluation and
# metrics recording in particular must allocate ZERO per op.
alloc-guard:
	$(GO) test -run AllocBudget -count=1 ./internal/store/... ./internal/plan/ ./internal/server/ ./internal/obs/

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" $$out; exit 1; fi
