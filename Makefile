# Repro of "Physical Synthesis of Flow-Based Microfluidic Biochips
# Considering Distributed Channel Storage" (DATE 2019). Stdlib-only Go.

GO ?= go

.PHONY: all build vet test race race-hot check bench bench-smoke bench-load bench-multicore cluster-bench load-bench session-bench overload-bench verify regress table1 clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Extra race pass over the packages with real concurrency (worker pools,
# HTTP handlers, metric registries); -count=2 reorders goroutine
# interleavings cheaply. CI and `make check` both run exactly this
# target, so the package list lives in one place.
race-hot:
	$(GO) test -race -count=2 ./internal/obs/ ./internal/server/ ./internal/jobq/

# The full pre-merge gate: compile, vet, race-enabled tests, the hot
# concurrency packages twice, and smoke runs of the performance-critical
# and workload-engine benchmarks.
check: build vet race race-hot bench-smoke bench-load

# Full benchmark suite with allocation counts (slow).
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmarks the smoke run must still find; a renamed or deleted
# benchmark silently matches nothing with a bare -bench regex, so the run
# greps its own output for each name and fails loudly instead.
BENCH_SMOKE_NAMES := BenchmarkSynthesisCPU BenchmarkAnnealEnergy BenchmarkQuenchSynthetic4 BenchmarkAStarSynthetic4
BENCH_SMOKE_REGEX := BenchmarkSynthesisCPU|BenchmarkAnnealEnergy|BenchmarkQuenchSynthetic4|BenchmarkAStarSynthetic4

# Quick sanity pass over the optimized hot paths: one iteration each of
# the placement, quench, routing and end-to-end synthesis benchmarks.
bench-smoke:
	@out=$$($(GO) test -run xxx -bench '$(BENCH_SMOKE_REGEX)' -benchtime 1x . 2>&1); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	for b in $(BENCH_SMOKE_NAMES); do \
		echo "$$out" | grep -q "$$b" || { echo "bench-smoke: benchmark $$b missing from output" >&2; exit 1; }; \
	done

# Workload-engine benchmarks, same loud-fail guard: the warm batch-submit
# path, the warm single-request cache hit and schedule materialization
# must all still exist by name.
BENCH_LOAD_NAMES := BenchmarkBatchSubmit BenchmarkServeCacheHit BenchmarkScheduleBuild
BENCH_LOAD_REGEX := BenchmarkBatchSubmit|BenchmarkServeCacheHit|BenchmarkScheduleBuild

bench-load:
	@out=$$($(GO) test -run xxx -bench '$(BENCH_LOAD_REGEX)' -benchtime 1x ./internal/server/ ./internal/loadgen/ 2>&1); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	for b in $(BENCH_LOAD_NAMES); do \
		echo "$$out" | grep -q "$$b" || { echo "bench-load: benchmark $$b missing from output" >&2; exit 1; }; \
	done

# Multicore-path benchmarks: parallel-tempering placement and concurrent
# slot-disjoint routing at pool sizes 1 and 4, with allocation counts, plus
# the serving hot-path allocation benchmarks. Same missing-benchmark guard
# as bench-smoke: a renamed benchmark must fail loudly, not match nothing.
BENCH_MULTICORE_NAMES := BenchmarkAnnealTempered BenchmarkRouteParallel
BENCH_MULTICORE_REGEX := BenchmarkAnnealTempered|BenchmarkRouteParallel

bench-multicore:
	@out=$$($(GO) test -run xxx -bench '$(BENCH_MULTICORE_REGEX)' -benchmem -benchtime 1x . 2>&1); \
	status=$$?; echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	for b in $(BENCH_MULTICORE_NAMES); do \
		echo "$$out" | grep -q "$$b" || { echo "bench-multicore: benchmark $$b missing from output" >&2; exit 1; }; \
	done
	$(GO) test -run xxx -bench 'BenchmarkServeCacheHit|BenchmarkWriteJSON|BenchmarkCompleteChurn' -benchmem ./internal/server/ ./internal/jobq/

# Cluster scaling ladder: spawn 1..3 real mfserved processes wired into
# one consistent-hash ring, drive cold and warm rounds through it, write
# the per-node-count table to BENCH_cluster.json, then gate the 1-node
# reference entry with the regression checker (costs exact, wall time
# within the recorded tolerance).
cluster-bench:
	$(GO) run ./cmd/mfserved -cluster-selfbench 3 -cluster-requests 12 -o BENCH_cluster.json
	$(GO) run ./cmd/mfbench -regress BENCH_cluster.json -bench Synthetic1

# Workload engine against an in-process server: replay the steady
# profile for 5 s, write BENCH_load.json, then gate its Synthetic1
# reference entry with the regression checker — the same seal the other
# BENCH documents carry.
load-bench:
	$(GO) run ./cmd/mfload -spawn -profile steady -duration 5s -o BENCH_load.json
	$(GO) run ./cmd/mfbench -regress BENCH_load.json -bench Synthetic1

# Online-repair workload: replay the session profile (closed-loop chip
# sessions with seeded mid-assay fault reports) against an in-process
# server, gate the report's Synthetic1 reference entry, then print the
# incremental-repair-vs-full-resynthesis comparison table.
session-bench:
	$(GO) run ./cmd/mfload -spawn -profile session -duration 5s -o BENCH_session.json
	$(GO) run ./cmd/mfbench -regress BENCH_session.json -bench Synthetic1
	$(GO) run ./cmd/mfbench -repair

# Overload envelope: drive the breaker/shed path on a deliberately tiny
# spawned server (1 worker, 8-deep queue). mfload itself enforces the
# profile's bounded-nonzero shed-rate envelope and the >=1-completed
# rule, so a server that never sheds — or dies — fails the target.
overload-bench:
	$(GO) run ./cmd/mfload -spawn -spawn-workers 1 -spawn-queue 8 -profile overload -duration 3s -o BENCH_overload.json
	$(GO) run ./cmd/mfbench -regress BENCH_overload.json -bench Synthetic1

# Independent audit of every benchmark's synthesized solution (and the
# baseline-BA variant) against the from-scratch constraint model.
verify:
	$(GO) run ./cmd/mfverify -bench all

# Benchmark-regression gate against both checked-in baselines: the
# sequential default path (BENCH_baseline.json) and the combined
# tempering+wave-routing configuration (BENCH_multicore.json). Costs must
# match exactly for each baseline's recorded options; the multicore time
# gate self-disables below its min_cpus.
regress:
	$(GO) run ./cmd/mfbench -j 2 -regress BENCH_baseline.json,BENCH_multicore.json -regress-out bench_regress.json

# Regenerate the paper's Table I.
table1:
	$(GO) run ./cmd/mfbench -table1

clean:
	$(GO) clean ./...
