package experiments

import (
	"fmt"
	"strings"

	"visasim/internal/core"
	"visasim/internal/dvm"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

// fig10Schemes are the compared reliability schemes, in figure order. The
// DVM variants are handled separately because they need targets.
var fig10Schemes = []core.Scheme{core.SchemeVISA, core.SchemeVISAOpt1, core.SchemeVISAOpt2}

// Fig10Result compares DVM against the open-loop reliability optimisations:
// the percentage of vulnerability emergencies each scheme leaves at each
// reliability target. Only DVM actively tracks the target, so the paper
// expects VISA/+opt1/+opt2 to show high PVE, static-ratio DVM to manage
// partially, and dynamic DVM to win everywhere.
type Fig10Result struct {
	Fracs []float64
	// PVE indexed [scheme][category][frac]; schemes are VISA, +opt1,
	// +opt2, DVM-static, DVM-dynamic.
	Schemes []string
	PVE     [5][3][]float64
}

// Fig10 reproduces Figure 10 (ICOUNT fetch policy).
func Fig10(p Params) (*Fig10Result, error) {
	pol := pipeline.PolicyICOUNT
	// Open-loop schemes plus baseline (for MaxIQ_AVF).
	schemes := append([]core.Scheme{core.SchemeBase}, fig10Schemes...)
	res, err := runMixes(p, schemes, []pipeline.FetchPolicyKind{pol})
	if err != nil {
		return nil, err
	}
	// Dynamic DVM per mix × frac; its mean ratio then configures the
	// static variant, as the paper does.
	dyn, err := runDVM(p, res, pol, dvm.StructIQ, nil)
	if err != nil {
		return nil, err
	}
	stat, err := runDVM(p, res, pol, dvm.StructIQ, func(mix workload.Mix, f float64) float64 {
		return dyn(mix, f).DVMMeanRatio
	})
	if err != nil {
		return nil, err
	}

	pve := func(at func(workload.Mix, float64) *core.Result) [3][]float64 {
		return byFrac(func(mix workload.Mix, f float64) float64 {
			return at(mix, f).PVE(f * res[key(mix.Name, core.SchemeBase, pol)].MaxIQAVF)
		})
	}
	out := &Fig10Result{
		Fracs:   DVMFracs,
		Schemes: []string{"visa", "visa+opt1", "visa+opt2", "dvm-static", "dvm-dynamic"},
	}
	for si, s := range fig10Schemes {
		out.PVE[si] = pve(func(mix workload.Mix, _ float64) *core.Result { return res[key(mix.Name, s, pol)] })
	}
	out.PVE[3], out.PVE[4] = pve(stat), pve(dyn)
	return out, nil
}

// String renders the comparison.
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: PVE of DVM vs. open-loop reliability optimisations (ICOUNT)\n")
	cats := []string{"CPU", "MIX", "MEM"}
	for ci, cat := range cats {
		fmt.Fprintf(&b, "\n[%s]\n%-12s", cat, "target")
		for _, s := range r.Schemes {
			fmt.Fprintf(&b, " %11s", s)
		}
		b.WriteByte('\n')
		for fi, f := range r.Fracs {
			fmt.Fprintf(&b, "%.1f*MaxAVF  ", f)
			for si := range r.Schemes {
				fmt.Fprintf(&b, " %10.1f%%", 100*r.PVE[si][ci][fi])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
