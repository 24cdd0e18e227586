package ace

import (
	"testing"

	"visasim/internal/isa"
	"visasim/internal/workload"
)

// TestProfileDiagnostics prints per-kind ACE ratios and per-PC consistency
// for one benchmark; used to tune generator profiles against the paper's
// Table 1. Not an assertion test beyond sanity bounds.
func TestProfileDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	verbose := map[string]bool{"gcc": true, "mgrid": true, "lucas": true}
	for _, name := range workload.Table1Benchmarks() {
		b := workload.MustGet(name)
		prog, err := b.Generate()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Run(prog, b.Params.Seed, 0, 200_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Aggregate per kind: instances, ACE instances, and mixed PCs
		// (PCs whose instances are neither all-ACE nor all-unACE).
		var inst, aceInst, mixedInst [isa.NumKinds]uint64
		instances, aceInstances := PCCounts(prog, b.Params.Seed, 0, p)
		for i := range prog.Instrs {
			k := prog.Instrs[i].Kind
			inst[k] += uint64(instances[i])
			aceInst[k] += uint64(aceInstances[i])
			if aceInstances[i] > 0 && aceInstances[i] < instances[i] {
				mixedInst[k] += uint64(instances[i] - aceInstances[i])
			}
		}
		t.Logf("%s: aceFrac=%.3f acc=%.3f late=%d", name, p.ACEFraction(), p.Accuracy(), p.LateMarks)
		if !verbose[name] {
			continue
		}
		for k := 0; k < isa.NumKinds; k++ {
			if inst[k] == 0 {
				continue
			}
			t.Logf("  %-6v n=%-8d ace=%.3f mismatch=%.3f", isa.Kind(k), inst[k],
				float64(aceInst[k])/float64(inst[k]),
				float64(mixedInst[k])/float64(inst[k]))
		}
	}
}
