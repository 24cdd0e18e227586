package visasim

import (
	"bytes"
	"encoding/json"
	"testing"

	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

// skipParityCells spans the controller-less configurations where dead-cycle
// skip-ahead is live, across the stall patterns that matter: CPU-bound and
// memory-bound mixes, miss-gating fetch policies (STALL parks threads on L2
// misses, FLUSH squashes them — the longest empty-queue spans), ICOUNT on
// every memory-bound mix (the longest spans holding only parked loads),
// thread counts from 1 to 4, both schedulers, and both issue-queue
// organizations with per-cycle policy state (SWQUE's windowed mode machine)
// and without. Invariant checking stays on for a subset so the sampled
// cross-checks run on both sides of the comparison.
func skipParityCells() []core.Config {
	cpuA := []string{"bzip2", "eon", "gcc", "perlbmk"}
	memA := []string{"mcf", "equake", "vpr", "swim"}
	mix := []string{"mcf", "gcc", "swim", "eon"}
	const budget = 10_000
	swque := config.Default()
	swque.IQOrg = config.OrgSWQUE
	part := config.Default()
	part.IQOrg = config.OrgPartitioned
	ecc := config.Default()
	ecc.IQProtection = config.ProtECC
	cells := []core.Config{
		{Benchmarks: cpuA, Scheme: core.SchemeBase, Policy: pipeline.PolicyICOUNT, MaxInstructions: budget},
		{Benchmarks: memA, Scheme: core.SchemeBase, Policy: pipeline.PolicySTALL, MaxInstructions: budget, InvariantEvery: 2048},
		{Benchmarks: memA, Scheme: core.SchemeBase, Policy: pipeline.PolicyFLUSH, MaxInstructions: budget},
		{Benchmarks: memA, Scheme: core.SchemeVISA, Policy: pipeline.PolicyFLUSH, MaxInstructions: budget, InvariantEvery: 1024},
		{Benchmarks: mix, Scheme: core.SchemeVISA, Policy: pipeline.PolicySTALL, MaxInstructions: budget},
		{Benchmarks: []string{"mcf"}, Scheme: core.SchemeBase, Policy: pipeline.PolicySTALL, MaxInstructions: budget},
		{Benchmarks: mix[:2], Scheme: core.SchemeBase, Policy: pipeline.PolicyPDG, MaxInstructions: budget},
		{Benchmarks: memA, Scheme: core.SchemeBase, Policy: pipeline.PolicySTALL, MaxInstructions: budget, Machine: &swque, InvariantEvery: 4096},
		{Benchmarks: memA, Scheme: core.SchemeVISA, Policy: pipeline.PolicyFLUSH, MaxInstructions: budget, Machine: &part},
		{Benchmarks: memA, Scheme: core.SchemeBase, Policy: pipeline.PolicySTALL, MaxInstructions: budget, Machine: &ecc},
	}
	// perfbench's mem-long cells: ICOUNT memory-bound mixes, where most
	// dead spans hold only loads parked behind unissued stores.
	for _, m := range workload.MixesIn(workload.CatMEM) {
		for _, sc := range []core.Scheme{core.SchemeBase, core.SchemeVISA} {
			cells = append(cells, core.Config{Benchmarks: m.Benchmarks[:], Scheme: sc, Policy: pipeline.PolicyICOUNT, MaxInstructions: budget})
		}
	}
	cells = append(cells,
		core.Config{Benchmarks: memA, Scheme: core.SchemeVISA, Policy: pipeline.PolicyICOUNT, MaxInstructions: budget, Machine: &ecc, InvariantEvery: 1024},
		core.Config{Benchmarks: memA, Scheme: core.SchemeBase, Policy: pipeline.PolicyICOUNT, MaxInstructions: budget, Machine: &part},
	)
	return cells
}

// TestSkipAheadParityMatrix is skip-ahead's correctness pin: for every
// skip-eligible configuration, a skipping run and a cycle-by-cycle run must
// agree on everything — the full Results (AVF accumulator sums, intervals,
// ready-queue histogram, telemetry high-water marks) and the encoded
// decision trace, byte for byte. Only the SkippedCycles throughput counter
// may differ, and on the stalling memory-bound cells it must actually be
// non-zero or the optimization silently died.
func TestSkipAheadParityMatrix(t *testing.T) {
	sawSkips := false
	for i, cfg := range skipParityCells() {
		fast, fastTr, err := core.RunTraced(cfg, core.RunOptions{TraceLevel: 2})
		if err != nil {
			t.Fatalf("cell %d (skip on): %v", i, err)
		}
		slow, slowTr, err := core.RunTraced(cfg, core.RunOptions{TraceLevel: 2, DisableSkipAhead: true})
		if err != nil {
			t.Fatalf("cell %d (skip off): %v", i, err)
		}
		if slow.SkippedCycles != 0 {
			t.Errorf("cell %d: DisableSkipAhead run still skipped %d cycles", i, slow.SkippedCycles)
		}
		if fast.SkippedCycles > 0 {
			sawSkips = true
		}

		// SkippedCycles is the one legitimately differing field; null it
		// before the byte comparison.
		fast.SkippedCycles, slow.SkippedCycles = 0, 0
		a, err := json.Marshal(fast)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(slow)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("cell %d (%v/%v on %v): results differ between skip-ahead and cycle-by-cycle\nskip: %s\nstep: %s",
				i, cfg.Scheme, cfg.Policy, cfg.Benchmarks, a, b)
		}

		var fastBuf, slowBuf bytes.Buffer
		if err := fastTr.WriteNDJSON(&fastBuf); err != nil {
			t.Fatal(err)
		}
		if err := slowTr.WriteNDJSON(&slowBuf); err != nil {
			t.Fatal(err)
		}
		if fastBuf.String() != slowBuf.String() {
			t.Errorf("cell %d: decision trace differs between skip-ahead and cycle-by-cycle", i)
		}
	}
	if !sawSkips {
		t.Error("no cell skipped any cycles; skip-ahead never engaged")
	}
}

// TestSkipAheadIneligibleWithController pins the eligibility rule: a
// controller observes every cycle, so controller-bearing runs must never
// skip even when cycles are dead.
func TestSkipAheadIneligibleWithController(t *testing.T) {
	res, err := core.Run(core.Config{
		Benchmarks:      []string{"mcf", "equake", "vpr", "swim"},
		Scheme:          core.SchemeVISAOpt2,
		Policy:          pipeline.PolicyFLUSH,
		MaxInstructions: 8_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedCycles != 0 {
		t.Errorf("controller-bearing run skipped %d cycles", res.SkippedCycles)
	}
}
