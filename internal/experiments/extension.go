package experiments

import (
	"fmt"
	"strings"

	"visasim/internal/core"
	"visasim/internal/dvm"
	"visasim/internal/harness"
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
	base, err := runMixes(p, []core.Scheme{core.SchemeBase}, []pipeline.FetchPolicyKind{pol})
	if err != nil {
		return nil, err
	}

	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		b := base[key(mix.Name, core.SchemeBase, pol)]
		for _, f := range DVMFracs {
			cells = append(cells, harness.Cell{
				Key: key(mix.Name, "robdvm", f),
				Cfg: core.Config{
					Benchmarks:      mix.Benchmarks[:],
					Scheme:          core.SchemeDVM,
					Policy:          pol,
					MaxInstructions: p.budget(),
					DVMTarget:       f * b.MaxROBAVF,
					DVMStructure:    dvm.StructROB,
				},
			})
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}

	out := &ROBDVMResult{Fracs: DVMFracs}
	for ci := range workload.Categories() {
		out.PVEBase[ci] = make([]float64, len(DVMFracs))
		out.PVEDVM[ci] = make([]float64, len(DVMFracs))
		out.ThruDeg[ci] = make([]float64, len(DVMFracs))
	}
	for fi, f := range DVMFracs {
		pveB := categoryMean(func(mix workload.Mix) float64 {
			b := base[key(mix.Name, core.SchemeBase, pol)]
			return b.PVEROB(f * b.MaxROBAVF)
		})
		pveD := categoryMean(func(mix workload.Mix) float64 {
			b := base[key(mix.Name, core.SchemeBase, pol)]
			return res[key(mix.Name, "robdvm", f)].PVEROB(f * b.MaxROBAVF)
		})
		thru := categoryMean(func(mix workload.Mix) float64 {
			b := base[key(mix.Name, core.SchemeBase, pol)]
			d := res[key(mix.Name, "robdvm", f)]
			return 100 * (1 - d.ThroughputIPC/b.ThroughputIPC)
		})
		for ci := 0; ci < 3; ci++ {
			out.PVEBase[ci][fi] = pveB[ci]
			out.PVEDVM[ci][fi] = pveD[ci]
			out.ThruDeg[ci][fi] = thru[ci]
		}
	}
	return out, nil
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
