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
	res, err := runMixes(p, []core.Scheme{core.SchemeBase}, []pipeline.FetchPolicyKind{pol})
	if err != nil {
		return nil, err
	}
	base := func(mix workload.Mix) *core.Result { return res[key(mix.Name, core.SchemeBase, pol)] }
	// Phase 2: DVM per mix × threshold.
	at, err := runDVM(p, res, pol, dvm.StructIQ, nil)
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{
		Policy: pol,
		Fracs:  DVMFracs,
		PVEBase: byFrac(func(mix workload.Mix, f float64) float64 {
			return base(mix).PVE(f * base(mix).MaxIQAVF)
		}),
		PVEDVM: byFrac(func(mix workload.Mix, f float64) float64 {
			return at(mix, f).PVE(f * base(mix).MaxIQAVF)
		}),
		ThruDeg: byFrac(func(mix workload.Mix, f float64) float64 {
			return 100 * (1 - at(mix, f).ThroughputIPC/base(mix).ThroughputIPC)
		}),
		HarmDeg: byFrac(func(mix workload.Mix, f float64) float64 {
			if base(mix).HarmonicIPC == 0 {
				return 0
			}
			return 100 * (1 - at(mix, f).HarmonicIPC/base(mix).HarmonicIPC)
		}),
	}
	var ratios []float64
	for _, mix := range workload.Mixes() {
		for _, f := range DVMFracs {
			ratios = append(ratios, at(mix, f).DVMMeanRatio)
		}
	}
	out.MeanRatio = mean(ratios)
	return out, nil
}

// runDVM runs one DVM cell per mix × DVMFracs under pol, each targeting f ×
// the mix's base cell MaxIQAVF in base (MaxROBAVF when st is
// dvm.StructROB). With ratio set, the cells run DVM-static at ratio(mix, f).
// It returns each cell's result by mix and fraction.
func runDVM(p Params, base harness.Results, pol pipeline.FetchPolicyKind, st dvm.Structure,
	ratio func(workload.Mix, float64) float64) (func(workload.Mix, float64) *core.Result, error) {
	scheme := core.SchemeDVM
	if ratio != nil {
		scheme = core.SchemeDVMStatic
	}
	cellKey := func(mix workload.Mix, f float64) string { return key(mix.Name, scheme, pol, st, f) }
	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		b := base[key(mix.Name, core.SchemeBase, pol)]
		for _, f := range DVMFracs {
			c := mixCell(p, mix, scheme, pol)
			c.Key = cellKey(mix, f)
			c.Cfg.DVMStructure = st
			c.Cfg.DVMTarget = f * b.MaxIQAVF
			if st == dvm.StructROB {
				c.Cfg.DVMTarget = f * b.MaxROBAVF
			}
			if ratio != nil {
				c.Cfg.DVMStaticRatio = ratio(mix, f)
			}
			cells = append(cells, c)
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}
	return func(mix workload.Mix, f float64) *core.Result { return res[cellKey(mix, f)] }, nil
}

// byFrac tabulates v's category means at each of DVMFracs, indexed
// [category][frac].
func byFrac(v func(mix workload.Mix, f float64) float64) [3][]float64 {
	var out [3][]float64
	for _, f := range DVMFracs {
		m := categoryMean(func(mix workload.Mix) float64 { return v(mix, f) })
		for ci := range out {
			out[ci] = append(out[ci], m[ci])
		}
	}
	return out
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
