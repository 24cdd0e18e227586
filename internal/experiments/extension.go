package experiments

import (
	"fmt"
	"strings"

	"visasim/internal/core"
	"visasim/internal/dvm"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

// ROBDVMResult evaluates the paper's future-work suggestion ("we believe
// our technique could be extended to other microarchitecture structures"):
// the DVM controller retargeted at the reorder buffer, with an online
// tag-based ROB-AVF estimator driving the same trigger/response machinery.
type ROBDVMResult struct {
	Fracs []float64
	// Indexed [category][frac]: ROB-AVF emergencies before/after, and
	// the throughput cost.
	PVEBase [3][]float64
	PVEDVM  [3][]float64
	ThruDeg [3][]float64
}

// ExtensionROBDVM runs the ROB-DVM threshold sweep under ICOUNT.
func ExtensionROBDVM(p Params) (*ROBDVMResult, error) {
	pol := pipeline.PolicyICOUNT
	res, err := runMixes(p, []core.Scheme{core.SchemeBase}, []pipeline.FetchPolicyKind{pol})
	if err != nil {
		return nil, err
	}
	base := func(mix workload.Mix) *core.Result { return res[key(mix.Name, core.SchemeBase, pol)] }
	at, err := runDVM(p, res, pol, dvm.StructROB, nil)
	if err != nil {
		return nil, err
	}
	return &ROBDVMResult{
		Fracs: DVMFracs,
		PVEBase: byFrac(func(mix workload.Mix, f float64) float64 {
			return base(mix).PVEROB(f * base(mix).MaxROBAVF)
		}),
		PVEDVM: byFrac(func(mix workload.Mix, f float64) float64 {
			return at(mix, f).PVEROB(f * base(mix).MaxROBAVF)
		}),
		ThruDeg: byFrac(func(mix workload.Mix, f float64) float64 {
			return 100 * (1 - at(mix, f).ThroughputIPC/base(mix).ThroughputIPC)
		}),
	}, nil
}

// String renders the extension sweep.
func (r *ROBDVMResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: DVM retargeted at the reorder buffer (ICOUNT)\n")
	cats := []string{"CPU", "MIX", "MEM"}
	for ci, cat := range cats {
		fmt.Fprintf(&b, "\n[%s]\n%-14s %12s %12s %12s\n", cat,
			"target", "PVE base", "PVE ROB-DVM", "thru deg %")
		for fi, f := range r.Fracs {
			fmt.Fprintf(&b, "%.1f*MaxROBAVF  %11.1f%% %11.1f%% %12.1f\n",
				f, 100*r.PVEBase[ci][fi], 100*r.PVEDVM[ci][fi], r.ThruDeg[ci][fi])
		}
	}
	return b.String()
}
