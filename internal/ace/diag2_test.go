package ace

import (
	"sort"
	"testing"

	"visasim/internal/workload"
)

// TestTopInconsistentPCs prints the static instructions with the most
// per-PC tag mismatches for one benchmark — the tuning view used while
// calibrating the generator's dataflow discipline (see DESIGN.md).
func TestTopInconsistentPCs(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	b := workload.MustGet("gcc")
	prog, _ := b.Generate()
	p, err := Run(prog, b.Params.Seed, 0, 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		idx      int
		mismatch uint64
	}
	var rows []row
	var totalMis uint64
	for i := range prog.Instrs {
		if p.ACEInstances[i] > 0 && p.ACEInstances[i] < p.Instances[i] {
			mis := uint64(p.Instances[i] - p.ACEInstances[i])
			rows = append(rows, row{i, mis})
			totalMis += mis
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].mismatch > rows[b].mismatch })
	t.Logf("total mismatch=%d of %d", totalMis, p.DynInstrs)
	if len(rows) > 25 {
		rows = rows[:25]
	}
	for _, r := range rows {
		in := prog.Instrs[r.idx]
		t.Logf("idx=%d n=%d ace=%d pat=%d %v", r.idx, p.Instances[r.idx], p.ACEInstances[r.idx], in.MemPattern, in.String())
	}
}
