GO ?= go

.PHONY: build test race vet fmt-check bench smoke analyze-smoke fault-smoke treebuild-smoke kernels-smoke scale-smoke live-smoke ledger-smoke serve-smoke perfbench-smoke ci all

all: build test vet fmt-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with host concurrency (the grouped
# force engine's worker pool and the rank goroutines).
race:
	$(GO) test -race ./internal/core/... ./internal/gravity/... ./internal/htree/... ./internal/mp/... ./internal/obs/... ./internal/serve/...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Times the per-body vs bucket-grouped treewalk on a 32k Plummer sphere and
# writes the comparison to BENCH_treecode.json.
bench:
	$(GO) run ./cmd/ssbench group -o BENCH_treecode.json

# Generates a small trace + metrics pair from a short distributed run and
# schema-validates both files with the tracecheck tool.
smoke:
	$(GO) run ./cmd/spacesim -n 600 -procs 3 -steps 2 \
		-trace /tmp/spacesim-smoke-trace.json -metrics /tmp/spacesim-smoke-metrics.json
	$(GO) run ./cmd/tracecheck \
		-trace /tmp/spacesim-smoke-trace.json -metrics /tmp/spacesim-smoke-metrics.json

# Trace-analysis smoke: a quick analyze run on the 2-module slice,
# schema-validation of the report, and a self-diff (which must pass — the
# no-op case of the CI perf gate).
analyze-smoke:
	$(GO) run ./cmd/ssbench analyze -quick -analysis-out /tmp/spacesim-smoke-analysis.json
	$(GO) run ./cmd/tracecheck -analysis /tmp/spacesim-smoke-analysis.json
	$(GO) run ./cmd/ssbench diff /tmp/spacesim-smoke-analysis.json /tmp/spacesim-smoke-analysis.json

# Fault-injection smoke: a seeded fault-injected run that must crash at
# least once, recover through checkpoint rollback bit-identically to an
# uninterrupted twin, and emit a fault-annotated analysis report; then a
# quick checkpoint-cadence sweep. Both artifacts are schema-validated.
fault-smoke:
	$(GO) run ./cmd/spacesim -n 600 -procs 4 -steps 6 \
		-faults 11 -fault-accel 3000 -verify-recovery \
		-report -analysis /tmp/spacesim-smoke-faults.json
	$(GO) run ./cmd/ssbench faultsweep -quick -o /tmp/spacesim-smoke-faultsweep.json
	$(GO) run ./cmd/tracecheck -analysis /tmp/spacesim-smoke-faults.json \
		-faultsweep /tmp/spacesim-smoke-faultsweep.json

# Tree-construction smoke: a quick seed-vs-pipeline build benchmark (which
# itself verifies bit-identity across worker counts and exits nonzero on
# divergence), schema-validation of the v4 bench record, and a self-diff
# through the bench arm of the perf gate.
treebuild-smoke:
	$(GO) run ./cmd/ssbench treebuild -quick -o /tmp/spacesim-smoke-treebuild.json
	$(GO) run ./cmd/tracecheck -bench /tmp/spacesim-smoke-treebuild.json
	$(GO) run ./cmd/ssbench diff /tmp/spacesim-smoke-treebuild.json /tmp/spacesim-smoke-treebuild.json

# Kernel smoke: a quick variant x length x precision sweep of the force
# kernels (which itself verifies the default float64 path is bit-identical
# to the scalar reference and that the float32 RMS error stays inside the
# pinned budget, exiting nonzero on either breach), schema-validation of
# the v8 bench record, and a self-diff through the bench arm of the gate.
kernels-smoke:
	$(GO) run ./cmd/ssbench kernels -quick -o /tmp/spacesim-smoke-kernels.json
	$(GO) run ./cmd/tracecheck -bench /tmp/spacesim-smoke-kernels.json
	$(GO) run ./cmd/ssbench diff /tmp/spacesim-smoke-kernels.json /tmp/spacesim-smoke-kernels.json

# Engine-scaling smoke: a small rank-count sweep under both the goroutine
# oracle and the discrete-event scheduler (the sweep itself verifies that
# their virtual schedules are bit-identical and exits nonzero on
# divergence), schema-validation of the v5 bench record, and a self-diff
# through the bench arm of the perf gate.
scale-smoke:
	$(GO) run ./cmd/ssbench scale -quick -o /tmp/spacesim-smoke-scale.json
	$(GO) run ./cmd/tracecheck -bench /tmp/spacesim-smoke-scale.json
	$(GO) run ./cmd/ssbench diff /tmp/spacesim-smoke-scale.json /tmp/spacesim-smoke-scale.json

# Live-telemetry smoke: a run served over -http is probed while in flight
# (Prometheus exposition, the progress/ETA JSON, and a 1-second CPU profile
# from net/http/pprof), then the analysis report and the quick group bench
# record — both carrying the sampler's final series dump — are
# schema-validated, live block included.
live-smoke:
	$(GO) build -o /tmp/spacesim-live ./cmd/spacesim
	/tmp/spacesim-live -n 6000 -procs 4 -steps 7 -http 127.0.0.1:17071 \
		-report -analysis /tmp/spacesim-smoke-live.json >/tmp/spacesim-smoke-live.log & pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:17071/progress.json >/dev/null; then up=1; break; fi; sleep 0.1; done; \
	[ $$up = 1 ] || { echo "live-smoke: server never came up"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:17071/metrics | grep -q "# TYPE" || { echo "live-smoke: /metrics"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:17071/progress.json | grep -q '"state"' || { echo "live-smoke: /progress.json"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf -o /tmp/spacesim-smoke-live.pprof "http://127.0.0.1:17071/debug/pprof/profile?seconds=1" || { echo "live-smoke: pprof"; kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid
	$(GO) run ./cmd/tracecheck -analysis /tmp/spacesim-smoke-live.json
	$(GO) run ./cmd/ssbench -quick -http 127.0.0.1:17072 -sample-every 20ms group -o /tmp/spacesim-smoke-live-bench.json
	$(GO) run ./cmd/tracecheck -bench /tmp/spacesim-smoke-live-bench.json

# Run-ledger smoke: two quick grouped-bench runs recorded into a scratch
# ledger must stamp identical config digests (the digest covers only
# deterministic invocation parameters); the trend report must render; the
# baseline arm of the perf gate must pass a self-diff against that history;
# the HTML dashboard must render; and tracecheck must re-verify every run
# record and content-addressed artifact blob.
ledger-smoke:
	$(GO) build -o /tmp/spacesim-smoke-ssbench ./cmd/ssbench
	rm -rf /tmp/spacesim-smoke-ledger
	/tmp/spacesim-smoke-ssbench -quick -ledger /tmp/spacesim-smoke-ledger group -o /tmp/spacesim-smoke-ledger-a.json
	/tmp/spacesim-smoke-ssbench -quick -ledger /tmp/spacesim-smoke-ledger group -o /tmp/spacesim-smoke-ledger-b.json
	@da=$$(grep -o '"config_digest": *"[0-9a-f]*"' /tmp/spacesim-smoke-ledger-a.json); \
	db=$$(grep -o '"config_digest": *"[0-9a-f]*"' /tmp/spacesim-smoke-ledger-b.json); \
	[ -n "$$da" ] && [ "$$da" = "$$db" ] || { echo "ledger-smoke: config digests differ: $$da vs $$db"; exit 1; }; \
	echo "ledger-smoke: identical config digests across both runs"
	/tmp/spacesim-smoke-ssbench trend -ledger /tmp/spacesim-smoke-ledger
	/tmp/spacesim-smoke-ssbench diff -baseline -ledger /tmp/spacesim-smoke-ledger /tmp/spacesim-smoke-ledger-b.json
	/tmp/spacesim-smoke-ssbench report -ledger /tmp/spacesim-smoke-ledger -html /tmp/spacesim-smoke-ledger-runs.html
	$(GO) run ./cmd/tracecheck -ledger /tmp/spacesim-smoke-ledger

# Job-server smoke: the crash-safety story end to end. A spacesimd daemon
# takes a job, is killed -9 mid-run after its first checkpoint, and a
# restarted daemon replays the journal, resumes the job from the checkpoint
# (resumed_step > 0), and finishes it. A duplicate submission must then be a
# cache hit (asserted in the job record and the /metrics counter), a
# no_cache submission must recompute to the identical result digest, and a
# SIGTERM must drain the daemon to a zero exit.
serve-smoke:
	$(GO) build -o /tmp/spacesimd-smoke ./cmd/spacesimd
	rm -rf /tmp/spacesim-smoke-serve
	/tmp/spacesimd-smoke -addr 127.0.0.1:17073 -state /tmp/spacesim-smoke-serve \
		-workers 1 -ledger "" >/tmp/spacesim-smoke-serve.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
		if curl -sf http://127.0.0.1:17073/jobs >/dev/null; then up=1; break; fi; sleep 0.1; done; \
	[ $$up = 1 ] || { echo "serve-smoke: daemon never came up"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf -X POST http://127.0.0.1:17073/jobs \
		-d '{"n":6000,"ranks":4,"steps":10,"checkpoint_every":1,"seed":3}' >/dev/null \
		|| { echo "serve-smoke: submit failed"; kill -9 $$pid; exit 1; }; \
	ck=0; for i in $$(seq 1 100); do \
		if ls /tmp/spacesim-smoke-serve/jobs/*/ck-* >/dev/null 2>&1; then ck=1; break; fi; sleep 0.1; done; \
	[ $$ck = 1 ] || { echo "serve-smoke: no checkpoint appeared before the kill"; kill -9 $$pid; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	echo "serve-smoke: daemon killed -9 mid-job after its first checkpoint"
	/tmp/spacesimd-smoke -addr 127.0.0.1:17073 -state /tmp/spacesim-smoke-serve \
		-workers 1 -ledger "" >>/tmp/spacesim-smoke-serve.log 2>&1 & pid=$$!; \
	ok=0; for i in $$(seq 1 300); do \
		if curl -sf http://127.0.0.1:17073/jobs 2>/dev/null | grep -q '"state": "done"'; then ok=1; break; fi; sleep 0.2; done; \
	[ $$ok = 1 ] || { echo "serve-smoke: job never finished after restart"; kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf http://127.0.0.1:17073/jobs | grep -q '"resumed_step": [1-9]' \
		|| { echo "serve-smoke: restarted job recomputed instead of resuming"; kill $$pid; exit 1; }; \
	echo "serve-smoke: journal replayed, job resumed from its checkpoint"; \
	curl -sf -X POST http://127.0.0.1:17073/jobs \
		-d '{"n":6000,"ranks":4,"steps":10,"checkpoint_every":1,"seed":3}' >/dev/null \
		|| { echo "serve-smoke: duplicate submit failed"; kill $$pid; exit 1; }; \
	ok=0; for i in $$(seq 1 100); do \
		if [ "$$(curl -sf http://127.0.0.1:17073/jobs | grep -c '"state": "done"')" -ge 2 ]; then ok=1; break; fi; sleep 0.1; done; \
	[ $$ok = 1 ] || { echo "serve-smoke: duplicate job never finished"; kill $$pid; exit 1; }; \
	curl -sf http://127.0.0.1:17073/jobs | grep -q '"cache_hit": true' \
		|| { echo "serve-smoke: duplicate submission missed the cache"; kill $$pid; exit 1; }; \
	curl -sf http://127.0.0.1:17073/metrics | grep -q '^spacesim_serve_cache_hits 1' \
		|| { echo "serve-smoke: cache_hits counter not 1"; kill $$pid; exit 1; }; \
	echo "serve-smoke: duplicate submission was a cache hit"; \
	curl -sf -X POST http://127.0.0.1:17073/jobs \
		-d '{"n":6000,"ranks":4,"steps":10,"checkpoint_every":1,"seed":3,"no_cache":true}' >/dev/null \
		|| { echo "serve-smoke: no_cache submit failed"; kill $$pid; exit 1; }; \
	ok=0; for i in $$(seq 1 300); do \
		if [ "$$(curl -sf http://127.0.0.1:17073/jobs | grep -c '"state": "done"')" -ge 3 ]; then ok=1; break; fi; sleep 0.2; done; \
	[ $$ok = 1 ] || { echo "serve-smoke: no_cache job never finished"; kill $$pid; exit 1; }; \
	nd=$$(curl -sf http://127.0.0.1:17073/jobs | grep -o '"result_digest": "[0-9a-f]*"' | sort -u | wc -l); \
	[ "$$nd" -eq 1 ] || { echo "serve-smoke: $$nd distinct result digests across resumed/cached/recomputed runs, want 1"; kill $$pid; exit 1; }; \
	echo "serve-smoke: kill-9-resumed, cached, and no_cache-recomputed digests all identical"; \
	kill -TERM $$pid; wait $$pid \
		|| { echo "serve-smoke: drain exited nonzero"; exit 1; }; \
	echo "serve-smoke: SIGTERM drained cleanly (exit 0)"

# Benchmark-module smoke: perfbench is its own Go module (spacesim/perfbench,
# replacing spacesim with ../), so the root `go test ./...` never compiles
# it. Vet it and run its tests, which drive every benchmark workload at
# reduced size through the public core, htree and sph calls.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Full local CI pass: formatting, static checks, tests, race detector, and
# the observability + trace-analysis + fault-injection + tree-build +
# engine-scaling + live-telemetry + run-ledger + job-server + benchmark-module
# smoke runs.
ci: fmt-check vet test race smoke analyze-smoke fault-smoke treebuild-smoke kernels-smoke scale-smoke live-smoke ledger-smoke serve-smoke perfbench-smoke
