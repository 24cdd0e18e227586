package experiments

import (
	"fmt"
	"strings"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

// DVMFracs are the reliability-target fractions of MaxIQ_AVF the paper
// sweeps (0.7·MaxAVF down to 0.3·MaxAVF).
var DVMFracs = []float64{0.7, 0.6, 0.5, 0.4, 0.3}

// Fig8Result is DVM efficiency and performance impact under one base fetch
// policy: percentage of vulnerability emergencies (PVE) with and without
// DVM, and throughput/harmonic IPC degradation, per category and threshold.
// Figure 8 uses ICOUNT; Figure 9 repeats it under FLUSH.
type Fig8Result struct {
	Policy pipeline.FetchPolicyKind
	Fracs  []float64
	// Indexed [category][frac].
	PVEBase   [3][]float64
	PVEDVM    [3][]float64
	ThruDeg   [3][]float64 // % throughput IPC degradation (negative = gain)
	HarmDeg   [3][]float64 // % harmonic IPC degradation
	MeanRatio float64      // mean dynamic wq_ratio across runs (for Fig 10)
}

// figDVM runs the DVM threshold sweep under pol.
func figDVM(p Params, pol pipeline.FetchPolicyKind) (*Fig8Result, error) {
	// Phase 1: per-mix baselines define MaxIQ_AVF and reference IPC.
	base, err := runMixes(p, []core.Scheme{core.SchemeBase}, []pipeline.FetchPolicyKind{pol})
	if err != nil {
		return nil, err
	}

	// Phase 2: DVM per mix × threshold.
	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		b := base[key(mix.Name, core.SchemeBase, pol)]
		for _, f := range DVMFracs {
			cells = append(cells, harness.Cell{
				Key: key(mix.Name, "dvm", pol, f),
				Cfg: core.Config{
					Benchmarks:      mix.Benchmarks[:],
					Scheme:          core.SchemeDVM,
					Policy:          pol,
					MaxInstructions: p.budget(),
					DVMTarget:       f * b.MaxIQAVF,
				},
			})
		}
	}
	dvmRes, err := p.Run(cells)
	if err != nil {
		return nil, err
	}

	out := &Fig8Result{Policy: pol, Fracs: DVMFracs}
	var ratioSum float64
	var ratioN int
	for ci := range workload.Categories() {
		out.PVEBase[ci] = make([]float64, len(DVMFracs))
		out.PVEDVM[ci] = make([]float64, len(DVMFracs))
		out.ThruDeg[ci] = make([]float64, len(DVMFracs))
		out.HarmDeg[ci] = make([]float64, len(DVMFracs))
	}
	for fi, f := range DVMFracs {
		pveB := categoryMean(func(mix workload.Mix) float64 {
			b := base[key(mix.Name, core.SchemeBase, pol)]
			return b.PVE(f * b.MaxIQAVF)
		})
		pveD := categoryMean(func(mix workload.Mix) float64 {
			b := base[key(mix.Name, core.SchemeBase, pol)]
			return dvmRes[key(mix.Name, "dvm", pol, f)].PVE(f * b.MaxIQAVF)
		})
		thru := categoryMean(func(mix workload.Mix) float64 {
			b := base[key(mix.Name, core.SchemeBase, pol)]
			d := dvmRes[key(mix.Name, "dvm", pol, f)]
			return 100 * (1 - d.ThroughputIPC/b.ThroughputIPC)
		})
		harm := categoryMean(func(mix workload.Mix) float64 {
			b := base[key(mix.Name, core.SchemeBase, pol)]
			d := dvmRes[key(mix.Name, "dvm", pol, f)]
			if b.HarmonicIPC == 0 {
				return 0
			}
			return 100 * (1 - d.HarmonicIPC/b.HarmonicIPC)
		})
		for ci := 0; ci < 3; ci++ {
			out.PVEBase[ci][fi] = pveB[ci]
			out.PVEDVM[ci][fi] = pveD[ci]
			out.ThruDeg[ci][fi] = thru[ci]
			out.HarmDeg[ci][fi] = harm[ci]
		}
	}
	for _, r := range dvmRes {
		ratioSum += r.DVMMeanRatio
		ratioN++
	}
	out.MeanRatio = ratioSum / float64(ratioN)
	return out, nil
}

// Fig8 reproduces Figure 8 (DVM under ICOUNT).
func Fig8(p Params) (*Fig8Result, error) { return figDVM(p, pipeline.PolicyICOUNT) }

// Fig9 reproduces Figure 9 (DVM under FLUSH).
func Fig9(p Params) (*Fig8Result, error) { return figDVM(p, pipeline.PolicyFLUSH) }

// String renders PVE and degradation per category and threshold.
func (r *Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: DVM efficiency and performance impact (fetch policy: %v)\n",
		map[pipeline.FetchPolicyKind]string{pipeline.PolicyICOUNT: "8", pipeline.PolicyFLUSH: "9"}[r.Policy],
		r.Policy)
	cats := []string{"CPU", "MIX", "MEM"}
	for ci, cat := range cats {
		fmt.Fprintf(&b, "\n[%s]\n%-14s %10s %10s %12s %12s\n", cat,
			"target", "PVE base", "PVE DVM", "thru deg %", "harm deg %")
		for fi, f := range r.Fracs {
			fmt.Fprintf(&b, "%.1f*MaxAVF     %9.1f%% %9.1f%% %12.1f %12.1f\n",
				f, 100*r.PVEBase[ci][fi], 100*r.PVEDVM[ci][fi],
				r.ThruDeg[ci][fi], r.HarmDeg[ci][fi])
		}
	}
	fmt.Fprintf(&b, "\nmean dynamic wq_ratio: %.2f\n", r.MeanRatio)
	return b.String()
}
