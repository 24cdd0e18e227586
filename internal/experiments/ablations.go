package experiments

import (
	"fmt"
	"strings"

	"visasim/internal/ace"
	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

// The ablations probe the design choices DESIGN.md calls out: the 1-bit
// per-PC tag (vs oracle per-instance ACE-ness), the profiling window, the
// 10K-cycle control interval, opt2's Tcache_miss threshold, and the IQ
// size itself. None appears in the paper as a figure; each answers a
// "what if" the paper's design settles by fiat.

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
		for _, variant := range []string{"base", "tags", "oracle"} {
			cfg := core.Config{
				Benchmarks:      mix.Benchmarks[:],
				Scheme:          core.SchemeVISAOpt2,
				Policy:          pol,
				MaxInstructions: p.budget(),
				OracleTags:      variant == "oracle",
			}
			if variant == "base" {
				cfg.Scheme = core.SchemeBase
			}
			cells = append(cells, harness.Cell{Key: key(mix.Name, variant), Cfg: cfg})
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}
	out := &OracleTagResult{}
	for vi, variant := range []string{"tags", "oracle"} {
		m := categoryMean(func(mix workload.Mix) float64 {
			base := res[key(mix.Name, "base")]
			r := res[key(mix.Name, variant)]
			if base.IQAVF == 0 {
				return 1
			}
			return r.IQAVF / base.IQAVF
		})
		for ci := 0; ci < 3; ci++ {
			if vi == 0 {
				out.Profiled[ci] = m[ci]
			} else {
				out.Oracle[ci] = m[ci]
			}
		}
	}
	return out, nil
}

// String renders the tag-fidelity comparison.
func (r *OracleTagResult) String() string {
	t := newAblationTable("Ablation: profiled 1-bit tags vs oracle ACE knowledge (VISA+opt2, normalised IQ AVF)")
	t.AddRowf(3, "profiled tags", r.Profiled[0], r.Profiled[1], r.Profiled[2],
		(r.Profiled[0]+r.Profiled[1]+r.Profiled[2])/3)
	t.AddRowf(3, "oracle", r.Oracle[0], r.Oracle[1], r.Oracle[2],
		(r.Oracle[0]+r.Oracle[1]+r.Oracle[2])/3)
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
		var acc, frac float64
		names := workload.Table1Benchmarks()
		for _, name := range names {
			b, err := workload.Get(name)
			if err != nil {
				return nil, err
			}
			prof, err := core.ProfileFor(b, p.budget(), w)
			if err != nil {
				return nil, err
			}
			acc += prof.Accuracy()
			frac += prof.ACEFraction()
		}
		out.Accuracy = append(out.Accuracy, acc/float64(len(names)))
		out.ACEFrac = append(out.ACEFrac, frac/float64(len(names)))
	}
	return out, nil
}

// String renders the window sweep.
func (r *WindowResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: post-retirement analysis window (suite means)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s\n", "window", "accuracy", "ACE frac")
	for i, w := range r.Windows {
		fmt.Fprintf(&b, "%-10d %9.1f%% %9.1f%%\n", w, 100*r.Accuracy[i], 100*r.ACEFrac[i])
	}
	return b.String()
}

// ThresholdResult sweeps opt2's Tcache_miss on the MIX workloads, where the
// switch between capping and flushing actually matters.
type ThresholdResult struct {
	Thresholds []uint64
	NormAVF    []float64 // MIX-category mean, normalised to baseline
	NormIPC    []float64
}

// AblationTcache sweeps the opt2 L2-miss threshold.
func AblationTcache(p Params) (*ThresholdResult, error) {
	pol := pipeline.PolicyICOUNT
	out := &ThresholdResult{Thresholds: []uint64{2, 8, 16, 64, 1 << 30}}
	var cells []harness.Cell
	for _, mix := range workload.MixesIn(workload.CatMIX) {
		cells = append(cells, harness.Cell{
			Key: key(mix.Name, "base"),
			Cfg: core.Config{
				Benchmarks: mix.Benchmarks[:], Scheme: core.SchemeBase,
				Policy: pol, MaxInstructions: p.budget(),
			},
		})
		for _, th := range out.Thresholds {
			cells = append(cells, harness.Cell{
				Key: key(mix.Name, th),
				Cfg: core.Config{
					Benchmarks: mix.Benchmarks[:], Scheme: core.SchemeVISAOpt2,
					Policy: pol, MaxInstructions: p.budget(), Opt2Threshold: th,
				},
			})
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}
	mixes := workload.MixesIn(workload.CatMIX)
	for _, th := range out.Thresholds {
		var avf, ipc float64
		for _, mix := range mixes {
			base := res[key(mix.Name, "base")]
			r := res[key(mix.Name, th)]
			avf += r.IQAVF / base.IQAVF
			ipc += r.ThroughputIPC / base.ThroughputIPC
		}
		out.NormAVF = append(out.NormAVF, avf/float64(len(mixes)))
		out.NormIPC = append(out.NormIPC, ipc/float64(len(mixes)))
	}
	return out, nil
}

// String renders the threshold sweep.
func (r *ThresholdResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: opt2 Tcache_miss threshold (MIX workloads, normalised)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "threshold", "IQ AVF", "IPC")
	for i, th := range r.Thresholds {
		name := fmt.Sprint(th)
		if th >= 1<<29 {
			name = "∞ (opt1)"
		}
		fmt.Fprintf(&b, "%-12s %10.3f %10.3f\n", name, r.NormAVF[i], r.NormIPC[i])
	}
	return b.String()
}

// IQSizeResult sweeps the issue-queue size on the baseline machine: AVF and
// IPC both grow with the window, motivating why the paper manages the IQ
// rather than shrinking it.
type IQSizeResult struct {
	Sizes []int
	IPC   []float64 // all-mix mean throughput IPC
	AVF   []float64 // all-mix mean IQ AVF
}

// AblationIQSize sweeps the IQ capacity.
func AblationIQSize(p Params) (*IQSizeResult, error) {
	out := &IQSizeResult{Sizes: []int{32, 64, 96, 128}}
	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		for _, size := range out.Sizes {
			m := config.Default()
			m.IQSize = size
			cells = append(cells, harness.Cell{
				Key: key(mix.Name, size),
				Cfg: core.Config{
					Benchmarks: mix.Benchmarks[:], Scheme: core.SchemeBase,
					Policy: pipeline.PolicyICOUNT, MaxInstructions: p.budget(),
					Machine: &m,
				},
			})
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}
	for _, size := range out.Sizes {
		var ipc, avf float64
		for _, mix := range workload.Mixes() {
			r := res[key(mix.Name, size)]
			ipc += r.ThroughputIPC
			avf += r.IQAVF
		}
		n := float64(len(workload.Mixes()))
		out.IPC = append(out.IPC, ipc/n)
		out.AVF = append(out.AVF, avf/n)
	}
	return out, nil
}

// String renders the IQ size sweep.
func (r *IQSizeResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: issue queue size (baseline, all-mix means)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s\n", "entries", "IPC", "IQ AVF")
	for i, s := range r.Sizes {
		fmt.Fprintf(&b, "%-8d %10.3f %10.4f\n", s, r.IPC[i], r.AVF[i])
	}
	return b.String()
}

// IntervalResult sweeps the control interval for opt1 (the paper settled on
// 10K cycles after its own sensitivity experiments).
type IntervalResult struct {
	Intervals []int
	NormAVF   []float64 // all-mix mean vs baseline
	NormIPC   []float64
}

// AblationInterval sweeps the opt1 control interval.
func AblationInterval(p Params) (*IntervalResult, error) {
	pol := pipeline.PolicyICOUNT
	out := &IntervalResult{Intervals: []int{1000, 5000, 10000, 50000}}
	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		cells = append(cells, harness.Cell{
			Key: key(mix.Name, "base"),
			Cfg: core.Config{
				Benchmarks: mix.Benchmarks[:], Scheme: core.SchemeBase,
				Policy: pol, MaxInstructions: p.budget(),
			},
		})
		for _, iv := range out.Intervals {
			cells = append(cells, harness.Cell{
				Key: key(mix.Name, iv),
				Cfg: core.Config{
					Benchmarks: mix.Benchmarks[:], Scheme: core.SchemeVISAOpt1,
					Policy: pol, MaxInstructions: p.budget(), IntervalCycles: iv,
				},
			})
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}
	for _, iv := range out.Intervals {
		var avf, ipc float64
		for _, mix := range workload.Mixes() {
			base := res[key(mix.Name, "base")]
			r := res[key(mix.Name, iv)]
			avf += r.IQAVF / base.IQAVF
			ipc += r.ThroughputIPC / base.ThroughputIPC
		}
		n := float64(len(workload.Mixes()))
		out.NormAVF = append(out.NormAVF, avf/n)
		out.NormIPC = append(out.NormIPC, ipc/n)
	}
	return out, nil
}

// String renders the interval sweep.
func (r *IntervalResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: opt1 control interval (all-mix means, normalised)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s\n", "cycles", "IQ AVF", "IPC")
	for i, iv := range r.Intervals {
		fmt.Fprintf(&b, "%-10d %10.3f %10.3f\n", iv, r.NormAVF[i], r.NormIPC[i])
	}
	return b.String()
}

// WidthResult sweeps the machine width (fetch/issue/commit) with the FU
// complement scaled proportionally: AVF pressure on the IQ grows with the
// exploited parallelism, the observation that motivates the whole paper.
type WidthResult struct {
	Widths []int
	IPC    []float64 // all-mix mean
	AVF    []float64 // all-mix mean IQ AVF
}

// AblationWidth sweeps the pipeline width.
func AblationWidth(p Params) (*WidthResult, error) {
	out := &WidthResult{Widths: []int{4, 8, 16}}
	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		for _, w := range out.Widths {
			m := config.Default()
			scale := func(v int) int { return v * w / 8 }
			m.FetchWidth, m.IssueWidth, m.CommitWidth = w, w, w
			m.IntALUs = scale(m.IntALUs)
			m.IntMulDivs = maxInt(1, scale(m.IntMulDivs))
			m.LoadStores = maxInt(1, scale(m.LoadStores))
			m.FPALUs = maxInt(1, scale(m.FPALUs))
			m.FPMulDivs = maxInt(1, scale(m.FPMulDivs))
			cells = append(cells, harness.Cell{
				Key: key(mix.Name, w),
				Cfg: core.Config{
					Benchmarks: mix.Benchmarks[:], Scheme: core.SchemeBase,
					Policy: pipeline.PolicyICOUNT, MaxInstructions: p.budget(),
					Machine: &m,
				},
			})
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}
	for _, w := range out.Widths {
		var ipc, avf float64
		for _, mix := range workload.Mixes() {
			r := res[key(mix.Name, w)]
			ipc += r.ThroughputIPC
			avf += r.IQAVF
		}
		n := float64(len(workload.Mixes()))
		out.IPC = append(out.IPC, ipc/n)
		out.AVF = append(out.AVF, avf/n)
	}
	return out, nil
}

// String renders the width sweep.
func (r *WidthResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: machine width (baseline, all-mix means)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s\n", "width", "IPC", "IQ AVF")
	for i, w := range r.Widths {
		fmt.Fprintf(&b, "%-8d %10.3f %10.4f\n", w, r.IPC[i], r.AVF[i])
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func newAblationTable(title string) *tableWrap {
	return &tableWrap{title: title}
}

// tableWrap is a minimal 5-column table for the per-category ablations.
type tableWrap struct {
	title string
	rows  []string
}

func (t *tableWrap) AddRowf(prec int, name string, vals ...float64) {
	row := fmt.Sprintf("%-14s", name)
	for _, v := range vals {
		row += fmt.Sprintf(" %8.*f", prec, v)
	}
	t.rows = append(t.rows, row)
}

func (t *tableWrap) String() string {
	head := fmt.Sprintf("%-14s %8s %8s %8s %8s", "", "CPU", "MIX", "MEM", "avg")
	return t.title + "\n" + head + "\n" + strings.Join(t.rows, "\n") + "\n"
}

// PredictorResult compares branch direction predictors: prediction quality
// sets the wrong-path occupancy, which dilutes the IQ's ACE density while
// wasting bandwidth. (On this synthetic substrate — bias-driven
// conditionals and geometric loop trips — history is of limited value, so
// bimodal is competitive with gshare; on real code gshare wins.)
type PredictorResult struct {
	Kinds       []config.PredictorKind
	IPC         []float64 // all-mix mean
	AVF         []float64
	MispredRate []float64
}

// AblationPredictor sweeps the direction predictor.
func AblationPredictor(p Params) (*PredictorResult, error) {
	out := &PredictorResult{Kinds: []config.PredictorKind{config.PredGshare, config.PredBimodal}}
	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		for _, k := range out.Kinds {
			m := config.Default()
			m.Branch.Kind = k
			cells = append(cells, harness.Cell{
				Key: key(mix.Name, k),
				Cfg: core.Config{
					Benchmarks: mix.Benchmarks[:], Scheme: core.SchemeBase,
					Policy: pipeline.PolicyICOUNT, MaxInstructions: p.budget(),
					Machine: &m,
				},
			})
		}
	}
	res, err := p.Run(cells)
	if err != nil {
		return nil, err
	}
	for _, k := range out.Kinds {
		var ipc, avf, mr float64
		for _, mix := range workload.Mixes() {
			r := res[key(mix.Name, k)]
			ipc += r.ThroughputIPC
			avf += r.IQAVF
			mr += r.MispredictRate
		}
		n := float64(len(workload.Mixes()))
		out.IPC = append(out.IPC, ipc/n)
		out.AVF = append(out.AVF, avf/n)
		out.MispredRate = append(out.MispredRate, mr/n)
	}
	return out, nil
}

// String renders the predictor comparison.
func (r *PredictorResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: direction predictor (baseline, all-mix means)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %12s\n", "predictor", "IPC", "IQ AVF", "mispredict")
	for i, k := range r.Kinds {
		fmt.Fprintf(&b, "%-10v %10.3f %10.4f %11.1f%%\n", k, r.IPC[i], r.AVF[i], 100*r.MispredRate[i])
	}
	return b.String()
}
