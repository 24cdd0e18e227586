// Package core is the public face of the reproduction: it assembles
// benchmarks, offline vulnerability profiling, the SMT pipeline and the
// paper's reliability schemes into single-call simulations.
//
// A typical use:
//
//	res, err := core.Run(core.Config{
//	        Benchmarks:      []string{"bzip2", "eon", "gcc", "perlbmk"},
//	        Scheme:          core.SchemeVISAOpt2,
//	        Policy:          pipeline.PolicyICOUNT,
//	        MaxInstructions: 400_000,
//	})
//
// Each benchmark's program image is generated once and shared read-only by
// every cell and profiling pass; offline profiles (the expensive ACE
// analysis pass, which also holds the per-PC tags) are cached per
// (benchmark, budget, window) in a fixed-capacity LRU, so sweeps over
// schemes and policies reuse them.
package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"visasim/internal/ace"
	"visasim/internal/alloc"
	"visasim/internal/config"
	"visasim/internal/decision"
	"visasim/internal/dvm"
	"visasim/internal/pipeline"
	"visasim/internal/uarch"
)

// Scheme selects the paper's reliability mechanism under evaluation.
type Scheme uint8

// Schemes, in the order the paper introduces them.
const (
	// SchemeBase is the unmodified machine (normalisation baseline).
	SchemeBase Scheme = iota
	// SchemeVISA prioritises ready ACE-tagged instructions at issue.
	SchemeVISA
	// SchemeVISAOpt1 adds dynamic IQ resource allocation (Figure 3).
	SchemeVISAOpt1
	// SchemeVISAOpt2 adds L2-miss-sensitive allocation + FLUSH (Figure 4).
	SchemeVISAOpt2
	// SchemeDVMStatic is dynamic vulnerability management with a fixed
	// wq_ratio.
	SchemeDVMStatic
	// SchemeDVM is full dynamic vulnerability management.
	SchemeDVM

	numSchemes
)

var schemeNames = [...]string{
	SchemeBase:      "base",
	SchemeVISA:      "visa",
	SchemeVISAOpt1:  "visa+opt1",
	SchemeVISAOpt2:  "visa+opt2",
	SchemeDVMStatic: "dvm-static",
	SchemeDVM:       "dvm",
}

func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return "scheme(?)"
}

// ParseScheme returns the scheme named s (case-insensitive).
func ParseScheme(s string) (Scheme, error) {
	for v := Scheme(0); v < numSchemes; v++ {
		if strings.EqualFold(v.String(), s) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

// DefaultInstructions is the default per-run committed-instruction budget.
// (The paper simulates 400M per workload; see DESIGN.md for the scaling
// substitution.)
const DefaultInstructions = 400_000

// Config describes one simulation.
type Config struct {
	// Machine is the simulated hardware; the zero value selects the
	// paper's Table 2 configuration.
	Machine *config.Machine

	// Benchmarks names the co-scheduled threads (1 to 8; the paper's
	// workloads use 4).
	Benchmarks []string

	Scheme Scheme
	Policy pipeline.FetchPolicyKind

	// MaxInstructions is the total committed-instruction budget
	// (DefaultInstructions when 0), measured after warmup.
	MaxInstructions uint64
	// MaxCycles optionally bounds wall-clock cycles.
	MaxCycles uint64
	// Warmup commits this many instructions before statistics start
	// (a quarter of the budget when 0; negative disables warmup, and
	// every negative value canonicalizes to -1).
	Warmup int64
	// ProfileWindow is the offline ACE analysis window
	// (ace.DefaultWindow when 0).
	ProfileWindow int

	// DVMTarget is the absolute IQ-AVF reliability target for the DVM
	// schemes (typically a fraction of the baseline's MaxIQAVF).
	DVMTarget float64
	// DVMStaticRatio fixes wq_ratio for SchemeDVMStatic.
	DVMStaticRatio float64
	// DVMStructure selects the structure DVM manages (IQ by default;
	// the ROB extension implements the paper's future-work suggestion).
	DVMStructure dvm.Structure

	// Ablation knobs.

	// OracleTags replaces profiled per-PC tags with perfect
	// per-instance ACE-ness.
	OracleTags bool
	// Opt2Threshold overrides Tcache_miss for SchemeVISAOpt2 (paper
	// value when 0).
	Opt2Threshold uint64
	// IntervalCycles overrides the 10K-cycle control interval.
	IntervalCycles int

	// InvariantEvery, when positive, cross-checks the pipeline's
	// incremental counters against a full structure walk every N cycles
	// (testing aid; see pipeline.Params.InvariantEvery).
	InvariantEvery uint64
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Machine == nil {
		m := config.Default()
		out.Machine = &m
	} else if canon := out.Machine.Canonical(); canon != *out.Machine {
		// Clone before canonicalizing the machine's issue-queue axis
		// fields: `out := *c` copies the Machine pointer, and mutating
		// the caller's machine in place is exactly the aliasing bug that
		// forced the v1→v2 hash-domain bump for Warmup.
		out.Machine = &canon
	}
	if out.MaxInstructions == 0 {
		out.MaxInstructions = DefaultInstructions
	}
	switch {
	case out.Warmup == 0:
		out.Warmup = int64(out.MaxInstructions / 4)
	case out.Warmup < 0:
		// "Warmup disabled" keeps a canonical value distinct from the
		// unset sentinel 0, so canonicalization is idempotent: re-running
		// withDefaults on a canonical Config (as Run does on submissions
		// the service already canonicalized) cannot turn a disabled
		// warmup back into the default. Run clamps to 0 at the point of
		// use.
		out.Warmup = -1
	}
	if out.ProfileWindow == 0 {
		out.ProfileWindow = ace.DefaultWindow
	}
	if len(out.Benchmarks) == 0 || len(out.Benchmarks) > uarch.MaxThreads {
		return out, fmt.Errorf("core: %d benchmarks outside 1..%d", len(out.Benchmarks), uarch.MaxThreads)
	}
	switch out.Scheme {
	case SchemeDVM, SchemeDVMStatic:
		if out.DVMTarget <= 0 {
			return out, fmt.Errorf("core: scheme %v requires a positive DVMTarget", out.Scheme)
		}
	}
	return out, nil
}

// Result is one simulation's outcome.
type Result struct {
	*pipeline.Results

	Scheme Scheme
	Policy pipeline.FetchPolicyKind

	// Benchmarks echoes the thread programs.
	Benchmarks []string

	// ProfileACEFraction is the mean profiled ACE fraction of the
	// threads' committed instructions.
	ProfileACEFraction float64
	// CommittedTagAccuracy is the mean per-PC tag accuracy over
	// committed instructions (Table 1's first metric).
	CommittedTagAccuracy float64

	// DVMMeanRatio is the mean wq_ratio of a dynamic DVM run (zero for
	// other schemes); the paper configures the static variant with it.
	DVMMeanRatio float64
}

// CombinedTagAccuracy folds squashed instructions into the tag accuracy
// (Table 1's second metric, ~83% in the paper): squashed instructions are
// ground-truth un-ACE, so ACE-tagged squashed ones are mismatches.
func (r *Result) CombinedTagAccuracy() float64 {
	committed := float64(r.TotalCommits())
	total := committed + float64(r.SquashedTotal)
	if total == 0 {
		return 1
	}
	matches := r.CommittedTagAccuracy*committed + float64(r.SquashedTotal-r.SquashedTagged)
	return matches / total
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	res, _, err := RunTraced(cfg, RunOptions{})
	return res, err
}

// RunTraced executes one simulation with decision tracing and/or a forced
// counterfactual schedule (DESIGN.md §10). The returned trace is nil when
// opt.TraceLevel is zero. RunOptions is deliberately separate from Config —
// none of it joins Config.Hash, because tracing and replay must never change
// what a content address means.
func RunTraced(cfg Config, opt RunOptions) (*Result, *decision.Trace, error) {
	m, err := build(cfg, opt)
	if err != nil {
		return nil, nil, err
	}
	res, tr := m.run(cfg, opt)
	return res, tr, nil
}

// NewProcessor builds cfg's machine exactly as Run does and returns it
// unstarted, for tools that drive it cycle by cycle (fault-injection
// campaigns). Its Run finishes the simulation, warmup reset included.
func NewProcessor(cfg Config) (*pipeline.Processor, error) {
	m, err := build(cfg, RunOptions{})
	if err != nil {
		return nil, err
	}
	return m.proc, nil
}

// machine is a Config built into a ready-to-run processor, with what the
// run-and-wrap step reads back from the build.
type machine struct {
	cfg  Config // canonical
	proc *pipeline.Processor
	ctrl pipeline.Controller
	rec  *decision.Recorder // nil unless tracing

	aceFrac, tagAcc float64 // mean profiled ACE fraction and tag accuracy
}

// build is the one place a Config becomes a processor: defaults, thread
// streams over cached profiles, scheme → scheduler and controller, and
// pipeline.New.
func build(cfg Config, opt RunOptions) (*machine, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	warmup := c.Warmup
	if warmup < 0 { // canonical "disabled" sentinel
		warmup = 0
	}

	streams, profs, err := threadStreams(c.Benchmarks, c.MaxInstructions+uint64(warmup)+profileSlack, c.ProfileWindow)
	if err != nil {
		return nil, err
	}
	m := &machine{cfg: c}
	for _, prof := range profs {
		m.aceFrac += prof.ACEFraction()
		m.tagAcc += prof.Accuracy()
	}
	m.aceFrac /= float64(len(profs))
	m.tagAcc /= float64(len(profs))

	sched := uarch.SchedOldestFirst
	switch c.Scheme {
	case SchemeVISA:
		sched = uarch.SchedVISA
	case SchemeVISAOpt1:
		sched = uarch.SchedVISA
		m.ctrl = alloc.NewOpt1()
	case SchemeVISAOpt2:
		sched = uarch.SchedVISA
		o2 := alloc.NewOpt2()
		if c.Opt2Threshold > 0 {
			o2.Tcache = c.Opt2Threshold
		}
		m.ctrl = o2
	case SchemeDVM:
		d := dvm.New(c.DVMTarget)
		d.Struct = c.DVMStructure
		m.ctrl = d
	case SchemeDVMStatic:
		ratio := c.DVMStaticRatio
		if ratio <= 0 {
			ratio = 1
		}
		d := dvm.NewStatic(c.DVMTarget, ratio)
		d.Struct = c.DVMStructure
		m.ctrl = d
	}

	params := pipeline.Params{
		Machine:            *c.Machine,
		Scheduler:          sched,
		Policy:             c.Policy,
		Controller:         m.ctrl,
		Streams:            streams,
		MaxInstructions:    c.MaxInstructions,
		MaxCycles:          c.MaxCycles,
		WarmupInstructions: uint64(warmup),
		OracleTags:         c.OracleTags,
		IntervalCycles:     c.IntervalCycles,
		InvariantEvery:     c.InvariantEvery,
		Forced:             opt.Forced,
		DisableSkipAhead:   opt.DisableSkipAhead,
	}
	// Only assign the sink when recording: a nil *Recorder stored in the
	// interface would read as non-nil inside the pipeline.
	if opt.TraceLevel > 0 {
		m.rec = decision.NewRecorder(opt.TraceLevel)
		params.Decisions = m.rec
	}
	if m.proc, err = pipeline.New(params); err != nil {
		return nil, err
	}
	return m, nil
}

// run simulates the built machine and wraps its results, labelling and
// summarizing the decision trace when recording. cfg is the caller's
// Config, whose Hash is the cell's address.
func (m *machine) run(cfg Config, opt RunOptions) (*Result, *decision.Trace) {
	c := m.cfg
	t0 := time.Now()
	res := m.proc.Run()
	if opt.SimTime != nil {
		*opt.SimTime = time.Since(t0)
	}

	out := &Result{
		Results:              res,
		Scheme:               c.Scheme,
		Policy:               c.Policy,
		Benchmarks:           append([]string(nil), c.Benchmarks...),
		ProfileACEFraction:   m.aceFrac,
		CommittedTagAccuracy: m.tagAcc,
	}
	if d, ok := m.ctrl.(*dvm.Controller); ok {
		out.DVMMeanRatio = d.MeanRatio()
	}
	if m.rec == nil {
		return out, nil
	}

	tr := m.rec.Trace()
	tr.Scheme = c.Scheme.String()
	tr.Policy = c.Policy.String()
	tr.Controller = controllerName(c.Scheme)
	tr.CellKey = opt.CellKey
	if blob, err := json.Marshal(c); err == nil {
		tr.ConfigJSON = blob
	}
	if h, err := cfg.Hash(); err == nil {
		tr.ConfigHash = h
	}
	tr.Summary = decision.Summary{
		Cycles:         res.Cycles,
		Commits:        res.TotalCommits(),
		ThroughputIPC:  res.ThroughputIPC,
		IQAVF:          res.IQAVF,
		ROBAVF:         res.ROBAVF,
		MaxIQAVF:       res.MaxIQAVF,
		PolicySwitches: res.PolicySwitches,
		DVMTriggers:    res.DVMTriggers,
	}
	return out, tr
}

// RunOptions are the tracing/replay knobs of RunTraced. None of these fields
// participate in Config.Hash — a traced run simulates the exact same machine
// as an untraced one, and the content-addressed result cache must keep
// treating them as the same cell.
type RunOptions struct {
	// TraceLevel enables decision recording: 0 off, 1 decision edges,
	// 2 adds per-sample observations.
	TraceLevel int
	// Forced overlays a counterfactual schedule on the live controller
	// (empty forces nothing, reproducing the recorded run exactly).
	Forced decision.Schedule
	// CellKey labels the trace with the harness/sweep cell key.
	CellKey string
	// DisableSkipAhead forces cycle-by-cycle simulation (parity testing;
	// see pipeline.Params.DisableSkipAhead). Results are identical either
	// way, which is why it lives here and not in Config.
	DisableSkipAhead bool
	// SimTime, when non-nil, receives the wall time of the pipeline run
	// alone — excluding workload synthesis, ACE profiling and processor
	// construction — so throughput benchmarks can report the core loop's
	// rate separately from the cell's inclusive cost. Out-of-band on
	// purpose: wall time is non-deterministic and must never enter Result.
	SimTime *time.Duration
}

// controllerName names the runtime controller a scheme installs ("" when the
// scheme runs open loop).
func controllerName(s Scheme) string {
	switch s {
	case SchemeVISAOpt1:
		return "opt1"
	case SchemeVISAOpt2:
		return "opt2"
	case SchemeDVM:
		return "dvm"
	case SchemeDVMStatic:
		return "dvm-static"
	}
	return ""
}
