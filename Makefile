# Developer checks for the microbank simulator. `make check` is the
# gate every change should pass: the race detector guards the
# worker-pool experiment layer, the alloc guard keeps the zero-alloc
# hot paths honest, the bench smoke keeps every trajectory benchmark
# running, and the protocol gate runs every shipped configuration under
# the DRAM timing sanitizer (internal/check).

GO ?= go

.PHONY: check build vet test race bench bench-smoke perf-gate \
	alloc-guard check-protocol check-policies fuzz-smoke resilience-smoke \
	crash-smoke update-golden fmt all-quick

check: build vet race alloc-guard bench-smoke check-protocol

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Hard zero-alloc gate: fails (not just reports) if the engine's
# schedule/step/cancel paths, the controller's eval path (enqueue,
# batch formation, selection, issue, retirement — with and without an
# attached obs tracer), the cache's hit/miss/fill path or the
# directory's fill/evict churn allocate in steady state.
alloc-guard:
	$(GO) test -run 'ZeroAllocGuard' -count=1 ./internal/sim/ ./internal/memctrl/ ./internal/cache/

# Benchmark smoke: every trajectory benchmark (engine, controller
# best/eval/formBatch, headline run, sweeps) runs once. It prints
# allocs/op but gates nothing; alloc-guard is the allocation gate and
# perf-gate the end-to-end gate.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkBest|BenchmarkEval|BenchmarkFormBatch|BenchmarkHeadlineRun|BenchmarkSweep' \
		-benchmem -benchtime=1x ./internal/sim ./internal/memctrl .

# Protocol gate: every shipped configuration, page-policy/scheduler
# combination, interleaving, and a multicore run must produce zero
# DRAM timing-protocol violations under the sanitizer. Failures are
# also written to internal/check/protocol-violations.log.
check-protocol:
	$(GO) test -run 'TestProtocol' -count=1 ./internal/check/

# QoS policy gate: the scheduler × SALP × bandwidth-regulator matrix
# under the sanitizer (QOS_MATRIX_FULL=1 widens it to every shipped
# configuration — CI's qos-matrix job does), the map-reference
# scheduler cross-check across the same variants, and the analytic
# worst-case bound property tests, both under the race detector.
check-policies:
	$(GO) test -run 'TestPolicyMatrix' -count=1 ./internal/check/
	$(GO) test -race -run 'TestSchedulerMatchesMapReference' -count=1 ./internal/memctrl/
	$(GO) test -race -count=1 ./internal/qos/

# Resilience smoke: a sweep with an injected panicking cell must run
# every cell under -fail-mode=collect, write a report holding exactly
# one panic failure record and no abort marker, and exit with status 1
# (see the Resilience section of EXPERIMENTS.md).
resilience-smoke:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/microbank" ./cmd/microbank || exit 1; \
	"$$d/microbank" -exp headline -quick -instr 4000 -fail-mode collect \
		-inject panic:1 -report "$$d/r.json" >/dev/null; s=$$?; \
	test "$$s" -eq 1 || { echo "resilience smoke: exit status $$s, want 1"; exit 1; }; \
	test "$$(grep -c '"kind": "panic"' "$$d/r.json")" -eq 1 || \
		{ echo "resilience smoke: want exactly one panic record"; exit 1; }; \
	! grep -q '"aborted"' "$$d/r.json" || { echo "resilience smoke: report marked aborted"; exit 1; }; \
	echo "resilience smoke: 1 injected panic recorded, sweep completed, exit status 1"

# Durability smoke: a campaign SIGKILLed mid-sweep must resume from the
# -store to a byte-identical report, SIGINT/SIGTERM must checkpoint and
# flush valid aborted artifacts, and a corrupted store entry must be
# quarantined and re-simulated (see "Durability & crash recovery" in
# EXPERIMENTS.md).
crash-smoke:
	sh scripts/crash_smoke.sh

# Short fuzz smokes (CI runs them; drop -fuzztime for an open-ended
# session): randomized configurations through the sanitizer,
# schedule/cancel/run sequences through both tiers of the event queue
# against a sorted reference, and fill/evict sequences through the
# coherence directory against its map-keyed reference. The queue and
# directory fuzzers find new coverage every few hundred runs;
# minimizing each find for the default 60 s would spend the whole
# smoke on minimization, so it is capped.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzTimingConfig' -fuzztime 20s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzEngineOrder' -fuzztime 10s -fuzzminimizetime 50x ./internal/sim/
	$(GO) test -run '^$$' -fuzz 'FuzzDirectoryOps' -fuzztime 10s -fuzzminimizetime 50x ./internal/cache/

# Deliberately regenerate the golden run-report fixtures after a
# change that intentionally alters simulation results (see
# EXPERIMENTS.md for the review protocol).
update-golden:
	UPDATE_GOLDEN=1 $(GO) test -count=1 ./internal/check/golden/

# Full benchmark sweep (figures + substrates), as recorded in EXPERIMENTS.md.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim/ ./internal/system/ .

# No-regression gate: perfbench on this checkout against BASE on the
# same host, every BENCHMARK.json workload, bounds from BENCHMARK.json
# (see scripts/perf_gate.sh): make perf-gate BASE=<rev>
perf-gate:
	@test -n "$(BASE)" || { echo "usage: make perf-gate BASE=<rev>"; exit 2; }
	bash scripts/perf_gate.sh $(BASE)

fmt:
	gofmt -l -w .

# Regenerate every paper table/figure at reduced fidelity.
all-quick:
	$(GO) run ./cmd/microbank -exp all -quick
