# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short test-race test-cover cluster-smoke obs-smoke explore-smoke perf-smoke docs-lint bench bench-throughput golden twin-golden experiments examples serve fmt vet staticcheck clean

all: build test

build:
	$(GO) build ./...

# Tier-1 gate: vet first, then the full suite.
test: vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-enabled pass over the whole module; the harness determinism test
# exercises the worker pool under the race detector. The race detector's
# ~10x slowdown pushes the experiments package past go test's default
# 10-minute budget, hence the explicit timeout.
test-race:
	$(GO) test -race -timeout 45m ./...

# Full-module coverage: the go test output is the per-package summary
# (each "ok" line carries its coverage %), the profile lands in coverage.out
# (kept as a CI artifact; locally: go tool cover -html=coverage.out).
test-cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Cluster smoke test: real processes — a visasimcoord with zero static
# backends, two self-registering visasimd daemons, mixed-priority tenanted
# sweeps, and a mid-flight drain, asserting byte-identical results against
# a local run (see scripts/cluster-smoke.sh).
cluster-smoke:
	./scripts/cluster-smoke.sh

# Observability smoke test: boots a real visasimd, runs one cell with a
# known sweep correlation ID, then asserts /metrics/prom serves valid
# Prometheus text (histograms included) and the daemon's structured logs
# carry the sweep ID (see DESIGN.md §9).
obs-smoke:
	./scripts/obs-smoke.sh

# Design-space exploration smoke test: screens a seeded sample through the
# analytical twin and verifies the frontier locally, through a real
# visasimd, and through the dispatch coordinator, asserting the three
# frontier reports are byte-identical (see internal/explore, DESIGN.md §11).
explore-smoke:
	./scripts/explore-smoke.sh

# Prose gate: README/DESIGN/EXPERIMENTS/ROADMAP/CHANGES links and anchors
# must resolve, and every cmd/* binary must be mentioned in README.
docs-lint:
	./scripts/docs-lint.sh

bench:
	$(GO) test -bench=. -benchmem .

# Simulator-, twin- and scheduler-throughput benchmarks only; writes
# machine-readable results to BENCH_pr10.json for regression tracking across
# PRs (earlier PRs' records live in BENCH_pr1/7/8/9.json). The per-mix
# simulator benches (CPU-A, MEM-A, MIX-A) and the batched sweep attribute
# the event-driven core's wins per workload category.
bench-throughput:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput|BenchmarkBatchedSweep|BenchmarkFaultInjection|BenchmarkTwinScreen|BenchmarkDispatchScheduler|BenchmarkIQOrganizations' -benchmem -bench-json BENCH_pr10.json .

# Throughput-floor gate: one baseline cell per workload category through the
# harness, single worker, asserting the batch total's core-loop rate (total
# simulated cycles over total core-loop seconds) clears 354266 cycles/sec —
# 2x the PR1 baseline (177133, see BENCH_pr1.json) — so a core-loop
# performance regression fails the build rather than landing silently.
# Individual cells are not gated: CPU-A alone runs well below the floor.
perf-smoke:
	$(GO) run ./cmd/experiments -n 200000 -workers 1 -bench-json /tmp/perf-smoke.json -bench-min 354266 bench

# Regenerates testdata/golden from current simulator behaviour. Only run
# after a deliberate modelling change; commit the diff with an explanation.
golden:
	$(GO) test . -run TestGolden -update

# Refits the analytical twin against fresh simulator measurements and
# rewrites internal/twin/model.json plus testdata/golden/twin. Run after
# any change to the simulator's modelled behaviour or the twin's equations;
# commit both artifacts together.
twin-golden:
	$(GO) test ./internal/twin -run TestGoldenCalibration -update

# Regenerates every table and figure at the recorded budget (see
# EXPERIMENTS.md). Takes several minutes.
experiments:
	$(GO) run ./cmd/experiments -n 400000 all
	$(GO) run ./cmd/experiments -n 200000 ablations ext-rob

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/memhog
	$(GO) run ./examples/dvmbudget
	$(GO) run ./examples/profiling
	$(GO) run ./examples/service

# Run the simulation daemon (see README "Simulation service").
serve:
	$(GO) run ./cmd/visasimd -addr :8080

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Needs staticcheck on PATH (CI installs it; locally:
# go install honnef.co/go/tools/cmd/staticcheck@2024.1.1).
staticcheck:
	staticcheck ./...

clean:
	$(GO) clean ./...
