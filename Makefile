# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short test-race test-cover cluster-smoke obs-smoke perf-smoke docs-lint golden experiments examples serve fmt vet staticcheck clean

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

# Cluster smoke test: real processes — two visasimd daemons behind an
# `experiments -backends ... -store` Fig. 5 run, one daemon killed
# mid-sweep, output asserted byte-identical to a local run, then a
# store-only re-run asserted identical again (see scripts/cluster-smoke.sh).
cluster-smoke:
	./scripts/cluster-smoke.sh

# Observability smoke test: boots a real visasimd, runs one cell with a
# known sweep correlation ID, then asserts /metrics/prom serves valid
# Prometheus text (histograms included) and the daemon's structured logs
# carry the sweep ID (see DESIGN.md §9).
obs-smoke:
	./scripts/obs-smoke.sh

# Prose gate: README/DESIGN/EXPERIMENTS/ROADMAP/CHANGES links and anchors
# must resolve, and every cmd/* binary must be mentioned in README.
docs-lint:
	./scripts/docs-lint.sh

# Throughput-floor gate: short seed-1 perfbench runs of mem-long and figs
# must report every cell digest correct, no failed operation, a
# simulator rate above each workload's Minstr/s floor and a peak RSS
# under its ceiling (see scripts/perf-smoke.sh, which holds the lengths,
# floors and ceilings).
perf-smoke:
	./scripts/perf-smoke.sh

# Regenerates testdata/golden from current simulator behaviour. Only run
# after a deliberate modelling change; commit the diff with an explanation.
golden:
	$(GO) test . -run TestGolden -update

# Regenerates every table and figure at the recorded budget (see
# EXPERIMENTS.md). Takes several minutes.
experiments:
	$(GO) run ./cmd/experiments -n 400000 all
	$(GO) run ./cmd/experiments -n 200000 ablations ext-rob

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/memhog
	$(GO) run ./examples/dvmbudget
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
