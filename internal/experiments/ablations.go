package experiments

import (
	"fmt"

	"visasim/internal/ace"
	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/report"
	"visasim/internal/workload"
)

// The ablations probe the design choices DESIGN.md calls out: the 1-bit
// per-PC tag (vs oracle per-instance ACE-ness), the profiling window, and
// the knobs the paper fixes without testing them — opt2's Tcache_miss, the
// 10K-cycle control interval, the IQ size, the machine width and the
// direction predictor. None appears in the paper as a figure; each answers
// a "what if" the paper's design settles by fiat.

// OracleTagResult compares VISA+opt2 driven by profiled tags against the
// same mechanism with perfect per-instance ACE knowledge: the gap is the
// price of the paper's practical 1-bit ISA encoding.
type OracleTagResult struct {
	// Per category: normalised IQ AVF under profiled tags and oracle
	// tags (relative to the unprotected baseline).
	Profiled [3]float64
	Oracle   [3]float64
}

// AblationOracleTags runs the tag-fidelity ablation under ICOUNT.
func AblationOracleTags(p Params) (*OracleTagResult, error) {
	pol := pipeline.PolicyICOUNT
	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		tags := mixCell(p, mix, core.SchemeVISAOpt2, pol)
		oracle := tags
		oracle.Key += "/oracle"
		oracle.Cfg.OracleTags = true
		cells = append(cells, mixCell(p, mix, core.SchemeBase, pol), tags, oracle)
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}
	normAVF := func(suffix string) [3]float64 {
		return categoryMean(func(mix workload.Mix) float64 {
			base := res[key(mix.Name, core.SchemeBase, pol)]
			if base.IQAVF == 0 {
				return 1
			}
			return res[key(mix.Name, core.SchemeVISAOpt2, pol)+suffix].IQAVF / base.IQAVF
		})
	}
	return &OracleTagResult{Profiled: normAVF(""), Oracle: normAVF("/oracle")}, nil
}

// String renders the tag-fidelity comparison.
func (r *OracleTagResult) String() string {
	t := report.NewTable("Ablation: profiled 1-bit tags vs oracle ACE knowledge (VISA+opt2, normalised IQ AVF)",
		"tags", "CPU", "MIX", "MEM", "avg")
	for _, row := range []struct {
		name string
		v    [3]float64
	}{{"profiled tags", r.Profiled}, {"oracle", r.Oracle}} {
		t.AddRowf(3, row.name, row.v[0], row.v[1], row.v[2], (row.v[0]+row.v[1]+row.v[2])/3)
	}
	return t.String()
}

// WindowResult sweeps the offline analysis window: small windows
// over-classify instructions as ACE (conservative window-exit rule), which
// both inflates measured AVF inputs and dilutes VISA's prioritisation.
type WindowResult struct {
	Windows  []int
	Accuracy []float64 // mean committed tag accuracy across Table 1 benchmarks
	ACEFrac  []float64
}

// AblationWindow sweeps the ACE analysis window.
func AblationWindow(p Params) (*WindowResult, error) {
	out := &WindowResult{Windows: []int{2000, 10000, ace.DefaultWindow, 100000}}
	for _, w := range out.Windows {
		acc, frac, err := profileSuite(p, w)
		if err != nil {
			return nil, err
		}
		out.Accuracy = append(out.Accuracy, mean(acc))
		out.ACEFrac = append(out.ACEFrac, mean(frac))
	}
	return out, nil
}

// String renders the window sweep.
func (r *WindowResult) String() string {
	t := report.NewTable("Ablation: post-retirement analysis window (suite means)", "window", "accuracy", "ACE frac")
	for i, w := range r.Windows {
		t.AddRow(fmt.Sprint(w), report.Pct(r.Accuracy[i]), report.Pct(r.ACEFrac[i]))
	}
	return t.String()
}

// Sweep is a knob ablation's result: one row per knob value, holding each
// metric's mean over the swept mixes.
type Sweep struct {
	Title  string
	Knob   string      // header of the label column; it also keys the cells
	Labels []string    // one per row
	Values [][]float64 // [row][metric]
	// metrics are the value columns, in Values order.
	metrics []metric
}

// String renders the sweep as a table.
func (s *Sweep) String() string {
	cols := []string{s.Knob}
	for _, m := range s.metrics {
		cols = append(cols, m.name)
	}
	t := report.NewTable(s.Title, cols...)
	for i, label := range s.Labels {
		row := []string{label}
		for j, m := range s.metrics {
			row = append(row, m.format(s.Values[i][j]))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// A metric is one value column of a Sweep: what it reads off a cell and
// how it prints.
type metric struct {
	name   string
	of     func(*core.Result) float64
	format func(float64) string
}

func decimals(n int) func(float64) string {
	return func(v float64) string { return fmt.Sprintf("%.*f", n, v) }
}

var (
	ipcOf      = func(r *core.Result) float64 { return r.ThroughputIPC }
	iqAVFOf    = func(r *core.Result) float64 { return r.IQAVF }
	ipc        = metric{"IPC", ipcOf, decimals(3)}
	iqAVF      = metric{"IQ AVF", iqAVFOf, decimals(4)}
	normIQAVF  = metric{"IQ AVF", iqAVFOf, decimals(3)}
	mispredict = metric{"mispredict", func(r *core.Result) float64 { return r.MispredictRate }, report.Pct}
)

// A knob is one knob ablation: a setting swept over each mix's ICOUNT base
// cell.
type knob struct {
	title, name string
	mixes       []workload.Mix
	values      []any
	label       func(v any) string // a row's label; fmt.Sprint when nil
	set         func(cfg *core.Config, v any)
	// normalise divides each mix's value by its base cell's before the
	// mixes are averaged.
	normalise bool
	metrics   []metric
}

// frame is k's Sweep without values.
func (k knob) frame() *Sweep {
	s := &Sweep{Title: k.title, Knob: k.name, metrics: k.metrics}
	for _, v := range k.values {
		label := fmt.Sprint(v)
		if k.label != nil {
			label = k.label(v)
		}
		s.Labels = append(s.Labels, label)
	}
	return s
}

// sweep runs k: per mix, one cell per knob value keyed MIX/knob/value, plus
// the base cell when k normalises.
func sweep(p Params, k knob) (*Sweep, error) {
	pol := pipeline.PolicyICOUNT
	var cells []harness.Cell
	for _, mix := range k.mixes {
		if k.normalise {
			cells = append(cells, mixCell(p, mix, core.SchemeBase, pol))
		}
		for _, v := range k.values {
			c := mixCell(p, mix, core.SchemeBase, pol)
			c.Key = key(mix.Name, k.name, v)
			k.set(&c.Cfg, v)
			cells = append(cells, c)
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}
	out := k.frame()
	for _, v := range k.values {
		row := make([]float64, len(k.metrics))
		for i, m := range k.metrics {
			perMix := make([]float64, len(k.mixes))
			for j, mix := range k.mixes {
				perMix[j] = m.of(res[key(mix.Name, k.name, v)])
				if k.normalise {
					perMix[j] /= m.of(res[key(mix.Name, core.SchemeBase, pol)])
				}
			}
			row[i] = mean(perMix)
		}
		out.Values = append(out.Values, row)
	}
	return out, nil
}

// withMachine gives cfg Table 2's machine with edit applied.
func withMachine(cfg *core.Config, edit func(m *config.Machine)) {
	m := config.Default()
	edit(&m)
	cfg.Machine = &m
}

// tcacheKnob sweeps opt2's Tcache_miss on the MIX workloads, where the
// switch between capping and flushing actually matters. An infinite
// threshold never flushes: opt2 degenerates into opt1.
var tcacheKnob = knob{
	title:  "Ablation: opt2 Tcache_miss threshold (MIX workloads, normalised)",
	name:   "threshold",
	mixes:  workload.MixesIn(workload.CatMIX),
	values: []any{uint64(2), uint64(8), uint64(16), uint64(64), uint64(1 << 30)},
	label: func(v any) string {
		if v.(uint64) >= 1<<29 {
			return "∞ (opt1)"
		}
		return fmt.Sprint(v)
	},
	set: func(cfg *core.Config, v any) {
		cfg.Scheme, cfg.Opt2Threshold = core.SchemeVISAOpt2, v.(uint64)
	},
	normalise: true,
	metrics:   []metric{normIQAVF, ipc},
}

// iqSizeKnob sweeps the IQ capacity on the baseline machine: AVF and IPC
// both grow with the window, motivating why the paper manages the IQ
// rather than shrinking it.
var iqSizeKnob = knob{
	title:   "Ablation: issue queue size (baseline, all-mix means)",
	name:    "entries",
	mixes:   workload.Mixes(),
	values:  []any{32, 64, 96, 128},
	set:     func(cfg *core.Config, v any) { withMachine(cfg, func(m *config.Machine) { m.IQSize = v.(int) }) },
	metrics: []metric{ipc, iqAVF},
}

// intervalKnob sweeps opt1's control interval (the paper settled on 10K
// cycles after its own sensitivity experiments).
var intervalKnob = knob{
	title:  "Ablation: opt1 control interval (all-mix means, normalised)",
	name:   "cycles",
	mixes:  workload.Mixes(),
	values: []any{1000, 5000, 10000, 50000},
	set: func(cfg *core.Config, v any) {
		cfg.Scheme, cfg.IntervalCycles = core.SchemeVISAOpt1, v.(int)
	},
	normalise: true,
	metrics:   []metric{normIQAVF, ipc},
}

// widthKnob sweeps the machine width (fetch/issue/commit) with the FU
// complement scaled proportionally: AVF pressure on the IQ grows with the
// exploited parallelism, the observation that motivates the whole paper.
var widthKnob = knob{
	title:  "Ablation: machine width (baseline, all-mix means)",
	name:   "width",
	mixes:  workload.Mixes(),
	values: []any{4, 8, 16},
	set: func(cfg *core.Config, v any) {
		w := v.(int)
		withMachine(cfg, func(m *config.Machine) {
			m.FetchWidth, m.IssueWidth, m.CommitWidth = w, w, w
			for _, n := range []*int{&m.IntALUs, &m.IntMulDivs, &m.LoadStores, &m.FPALUs, &m.FPMulDivs} {
				*n = max(1, *n*w/8)
			}
		})
	},
	metrics: []metric{ipc, iqAVF},
}

// predictorKnob compares branch direction predictors: prediction quality
// sets the wrong-path occupancy, which dilutes the IQ's ACE density while
// wasting bandwidth. (On this synthetic substrate — bias-driven
// conditionals and geometric loop trips — history is of limited value, so
// bimodal is competitive with gshare; on real code gshare wins.)
var predictorKnob = knob{
	title:  "Ablation: direction predictor (baseline, all-mix means)",
	name:   "predictor",
	mixes:  workload.Mixes(),
	values: []any{config.PredGshare, config.PredBimodal},
	set: func(cfg *core.Config, v any) {
		withMachine(cfg, func(m *config.Machine) { m.Branch.Kind = v.(config.PredictorKind) })
	},
	metrics: []metric{ipc, iqAVF, mispredict},
}

// AblationTcache sweeps opt2's L2-miss threshold.
func AblationTcache(p Params) (*Sweep, error) { return sweep(p, tcacheKnob) }

// AblationIQSize sweeps the IQ capacity.
func AblationIQSize(p Params) (*Sweep, error) { return sweep(p, iqSizeKnob) }

// AblationInterval sweeps opt1's control interval.
func AblationInterval(p Params) (*Sweep, error) { return sweep(p, intervalKnob) }

// AblationWidth sweeps the pipeline width.
func AblationWidth(p Params) (*Sweep, error) { return sweep(p, widthKnob) }

// AblationPredictor sweeps the direction predictor.
func AblationPredictor(p Params) (*Sweep, error) { return sweep(p, predictorKnob) }
