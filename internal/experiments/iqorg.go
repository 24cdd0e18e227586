package experiments

import (
	"fmt"
	"strings"

	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/iqorg"
	"visasim/internal/pipeline"
	"visasim/internal/report"
	"visasim/internal/workload"
)

// iqMatrixMixes are the representative mixes the organization/protection
// matrix sweeps — one per Table 3 category.
var iqMatrixMixes = []string{"CPU-A", "MIX-A", "MEM-A"}

// iqMatrixSchemes are the schemes the matrix crosses the new axes with:
// the unmanaged baseline, the paper's VISA issue priority, and the DVM
// feedback controller (at 0.5·MaxIQ_AVF of the per-mix baseline).
var iqMatrixSchemes = []core.Scheme{core.SchemeBase, core.SchemeVISA, core.SchemeDVM}

// iqMatrixDVMFrac is the DVM target depth the matrix uses. The target is
// absolute and shared by every cell of a mix, so an organization or
// protection that lowers intrinsic vulnerability shows up as fewer
// throttle engagements rather than a shifted goalpost.
const iqMatrixDVMFrac = 0.5

// mixByName resolves a Table 3 mix by its name.
func mixByName(name string) (workload.Mix, error) {
	for _, m := range workload.Mixes() {
		if m.Name == name {
			return m, nil
		}
	}
	return workload.Mix{}, fmt.Errorf("experiments: unknown mix %q", name)
}

// IQMatrixCell is one point of the organization × protection × scheme
// matrix.
type IQMatrixCell struct {
	Mix    string
	Org    iqorg.Kind
	Prot   iqorg.Protection
	Scheme core.Scheme

	IPC         float64
	IQAVF       float64 // residual, after the protection's mitigation
	IQOcc       float64
	DVMTriggers uint64
	// AreaExtra is the protection's added area (AreaPerEntry × IQ
	// entries, in units where an unprotected entry costs 4; see
	// iqorg.ProtCost) — the cost axis the reliability gain trades against.
	AreaExtra float64
}

// IQMatrixResult is the full matrix: every issue-queue organization and
// protection mode crossed with the baseline, VISA and DVM schemes on one
// representative mix per workload category.
type IQMatrixResult struct {
	Mixes   []string
	Orgs    []iqorg.Kind
	Prots   []iqorg.Protection
	Schemes []core.Scheme
	Cells   []IQMatrixCell // mix-major, then org, prot, scheme
}

// cell returns the matrix entry for the given coordinates (nil if absent).
func (r *IQMatrixResult) cell(mix string, org iqorg.Kind, prot iqorg.Protection, scheme core.Scheme) *IQMatrixCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Mix == mix && c.Org == org && c.Prot == prot && c.Scheme == scheme {
			return c
		}
	}
	return nil
}

// IQMatrix sweeps the organization/protection design axes against the
// paper's schemes. Phase 1 measures the per-mix unmanaged baseline (its
// MaxIQ_AVF anchors the DVM target); phase 2 runs the full cross product.
func IQMatrix(p Params) (*IQMatrixResult, error) {
	out := &IQMatrixResult{
		Mixes:   iqMatrixMixes,
		Orgs:    iqorg.Kinds(),
		Prots:   iqorg.Protections(),
		Schemes: iqMatrixSchemes,
	}

	var baseCells []harness.Cell
	for _, mix := range iqMatrixMixes {
		m, err := mixByName(mix)
		if err != nil {
			return nil, err
		}
		baseCells = append(baseCells, harness.Cell{
			Key: key("iqmatrix-ref", mix),
			Cfg: core.Config{
				Benchmarks:      m.Benchmarks[:],
				Scheme:          core.SchemeBase,
				Policy:          pipeline.PolicyICOUNT,
				MaxInstructions: p.budget(),
			},
		})
	}
	baseRes, err := p.Run(baseCells)
	if err != nil {
		return nil, err
	}

	var cells []harness.Cell
	for _, mix := range iqMatrixMixes {
		m, _ := mixByName(mix)
		ref := baseRes[key("iqmatrix-ref", mix)]
		for _, org := range out.Orgs {
			for _, prot := range out.Prots {
				for _, scheme := range out.Schemes {
					mach := config.Default()
					mach.IQOrg = org.String()
					mach.IQProtection = prot.String()
					cfg := core.Config{
						Machine:         &mach,
						Benchmarks:      m.Benchmarks[:],
						Scheme:          scheme,
						Policy:          pipeline.PolicyICOUNT,
						MaxInstructions: p.budget(),
					}
					if scheme == core.SchemeDVM {
						cfg.DVMTarget = iqMatrixDVMFrac * ref.MaxIQAVF
					}
					cells = append(cells, harness.Cell{
						Key: key("iqmatrix", mix, org, prot, scheme),
						Cfg: cfg,
					})
				}
			}
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}

	iqSize := config.Default().IQSize
	for _, mix := range iqMatrixMixes {
		for _, org := range out.Orgs {
			for _, prot := range out.Prots {
				for _, scheme := range out.Schemes {
					r := res[key("iqmatrix", mix, org, prot, scheme)]
					out.Cells = append(out.Cells, IQMatrixCell{
						Mix: mix, Org: org, Prot: prot, Scheme: scheme,
						IPC:         r.ThroughputIPC,
						IQAVF:       r.IQAVF,
						IQOcc:       r.MeanIQOccupancy,
						DVMTriggers: r.DVMTriggers,
						AreaExtra:   prot.AreaCost(iqSize),
					})
				}
			}
		}
	}
	return out, nil
}

// String renders one table per mix: organizations × protections down the
// rows, IPC and residual IQ AVF per scheme across the columns.
func (r *IQMatrixResult) String() string {
	var b strings.Builder
	b.WriteString("IQ organization x protection matrix (ICOUNT fetch; DVM at " +
		fmt.Sprintf("%.1f*MaxIQ_AVF of the per-mix baseline)\n", iqMatrixDVMFrac))
	for _, mix := range r.Mixes {
		cols := []string{"org", "prot", "area+"}
		for _, s := range r.Schemes {
			cols = append(cols, fmt.Sprintf("%v IPC", s), fmt.Sprintf("%v AVF", s))
		}
		t := report.NewTable(fmt.Sprintf("[%s]", mix), cols...)
		for _, org := range r.Orgs {
			for _, prot := range r.Prots {
				row := []string{org.String(), prot.String(),
					fmt.Sprintf("%.0f", prot.AreaCost(config.Default().IQSize))}
				for _, s := range r.Schemes {
					c := r.cell(mix, org, prot, s)
					if c == nil {
						row = append(row, "-", "-")
						continue
					}
					row = append(row, fmt.Sprintf("%.3f", c.IPC), fmt.Sprintf("%.4f", c.IQAVF))
				}
				t.AddRow(row...)
			}
		}
		b.WriteString(t.String())
		// The DVM interplay is the matrix's headline: report how much
		// less the controller throttles once the queue is protected.
		unp := r.cell(mix, iqorg.UnifiedAGE, iqorg.None, core.SchemeDVM)
		par := r.cell(mix, iqorg.UnifiedAGE, iqorg.Parity, core.SchemeDVM)
		if unp != nil && par != nil {
			fmt.Fprintf(&b, "DVM triggers: %d unprotected -> %d under parity\n",
				unp.DVMTriggers, par.DVMTriggers)
		}
		b.WriteString("\n")
	}
	return b.String()
}
