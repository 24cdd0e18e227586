// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Each experiment
// returns structured results plus a rendered text report; cmd/experiments
// prints them.
//
// Absolute numbers differ from the paper (the substrate is a synthetic
// workload model, not SPEC2000 on M-Sim); the shapes — which scheme wins,
// by roughly what factor, and where behaviour crosses over — are the
// reproduction targets, recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"

	"visasim/internal/core"
	"visasim/internal/decision"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

// Params tunes an experiment run.
type Params struct {
	// Budget is the per-simulation committed-instruction budget
	// (DefaultBudget when 0). The paper simulates 400M instructions per
	// workload; see DESIGN.md for the scaling substitution.
	Budget uint64
	// Workers bounds concurrent simulations (GOMAXPROCS when 0).
	Workers int
	// Runner, when non-nil, replaces the local harness for every sweep.
	// It must return keyed results and abort on the first failing cell,
	// as harness.RunStats does. cmd/experiments -backends points it at a
	// dispatch coordinator, so sweeps execute on — and populate the result
	// caches of — visasimd daemons.
	Runner func(cells []harness.Cell) (harness.Results, error)

	// TraceLevel records a per-cell decision trace for every sweep cell
	// (see core.RunOptions.TraceLevel). Traces are delivered to TraceSink
	// as cells finish; tracing never changes results. Only the local
	// harness path records; a Runner ignores it.
	TraceLevel int
	// TraceSink receives each recorded (cell key, trace) pair. Ignored
	// when nil or TraceLevel is 0. An error from it fails the sweep.
	TraceSink func(key string, tr *decision.Trace) error
}

// Run executes one sweep through the configured runner (the local harness
// when none is set). Every experiment goes through this seam, and so does
// cmd/experiments' cells target.
func (p Params) Run(cells []harness.Cell) (harness.Results, error) {
	if p.Runner != nil {
		return p.Runner(cells)
	}
	res, _, traces, err := harness.RunTraced(cells, harness.Options{Workers: p.Workers, TraceLevel: p.TraceLevel})
	if err != nil {
		return nil, err
	}
	if p.TraceSink != nil {
		// Deterministic delivery order regardless of worker schedule.
		keys := make([]string, 0, len(traces))
		for k := range traces {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := p.TraceSink(k, traces[k]); err != nil {
				return nil, fmt.Errorf("trace %s: %w", k, err)
			}
		}
	}
	return res, nil
}

// DefaultBudget is the default per-run instruction budget.
const DefaultBudget = 200_000

func (p Params) budget() uint64 {
	if p.Budget == 0 {
		return DefaultBudget
	}
	return p.Budget
}

// key builds a stable cell key.
func key(parts ...any) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprint(p)
	}
	return s
}

// runMixes runs every Table 3 mix under each (scheme, policy) pair.
func runMixes(p Params, schemes []core.Scheme, policies []pipeline.FetchPolicyKind) (harness.Results, error) {
	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		for _, s := range schemes {
			for _, pol := range policies {
				cells = append(cells, harness.Cell{
					Key: key(mix.Name, s, pol),
					Cfg: core.Config{
						Benchmarks:      mix.Benchmarks[:],
						Scheme:          s,
						Policy:          pol,
						MaxInstructions: p.budget(),
					},
				})
			}
		}
	}
	return p.Run(cells)
}

// categoryMean averages f over the mixes of each category, returning values
// in Table 3 category order (CPU, MIX, MEM).
func categoryMean(f func(mix workload.Mix) float64) [3]float64 {
	var out [3]float64
	for ci, cat := range workload.Categories() {
		mixes := workload.MixesIn(cat)
		sum := 0.0
		for _, m := range mixes {
			sum += f(m)
		}
		out[ci] = sum / float64(len(mixes))
	}
	return out
}
