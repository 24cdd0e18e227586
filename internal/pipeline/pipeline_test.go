package pipeline_test

import (
	"testing"

	"visasim/internal/ace"
	"visasim/internal/config"
	"visasim/internal/pipeline"
	"visasim/internal/trace"
	"visasim/internal/uarch"
	"visasim/internal/workload"
)

// buildStreams assembles profiled oracle streams for the named benchmarks.
func buildStreams(t testing.TB, names []string, budget uint64) []*trace.Stream {
	t.Helper()
	streams := make([]*trace.Stream, len(names))
	for i, name := range names {
		b, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := b.Generate()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := ace.Run(prog, b.Params.Seed, 0, budget+8192, 0)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = trace.NewStream(trace.NewExecutor(prog, b.Params.Seed, i), prof.Bits, prof.Tag)
	}
	return streams
}

func newProc(t testing.TB, names []string, mod func(*pipeline.Params)) *pipeline.Processor {
	t.Helper()
	p := pipeline.Params{
		Machine:         config.Default(),
		Scheduler:       uarch.SchedOldestFirst,
		Policy:          pipeline.PolicyICOUNT,
		Streams:         buildStreams(t, names, 80_000),
		MaxInstructions: 20_000,
	}
	if mod != nil {
		mod(&p)
	}
	proc, err := pipeline.New(p)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

var cpuMix = []string{"bzip2", "eon", "gcc", "perlbmk"}
var memMix = []string{"mcf", "equake", "vpr", "swim"}

func TestRunDeterministic(t *testing.T) {
	r1 := newProc(t, cpuMix, nil).Run()
	r2 := newProc(t, cpuMix, nil).Run()
	if r1.Cycles != r2.Cycles || r1.IQAVF != r2.IQAVF || r1.Mispredicts != r2.Mispredicts {
		t.Fatalf("runs differ: %d/%d cycles, %v/%v AVF",
			r1.Cycles, r2.Cycles, r1.IQAVF, r2.IQAVF)
	}
	for i := range r1.Commits {
		if r1.Commits[i] != r2.Commits[i] {
			t.Fatalf("thread %d commits differ", i)
		}
	}
}

func TestInvariantsHoldEveryCycle(t *testing.T) {
	proc := newProc(t, cpuMix, func(p *pipeline.Params) { p.MaxInstructions = 4000 })
	for proc.TotalCommits() < 4000 && proc.Cycle() < 400_000 {
		proc.Step()
		if proc.Cycle()%64 == 0 {
			if err := proc.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", proc.Cycle(), err)
			}
		}
	}
	if err := proc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsUnderFlushPolicy(t *testing.T) {
	proc := newProc(t, memMix, func(p *pipeline.Params) {
		p.MaxInstructions = 3000
		p.Policy = pipeline.PolicyFLUSH
	})
	for proc.TotalCommits() < 3000 && proc.Cycle() < 800_000 {
		proc.Step()
		if proc.Cycle()%64 == 0 {
			if err := proc.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", proc.Cycle(), err)
			}
		}
	}
}

// TestInvariantSamplingDuringRun exercises Params.InvariantEvery: a long
// VISA+FLUSH run on the memory-bound mix cross-checks the incremental
// counters against the O(machine-size) walk every 256 cycles, through both
// the warmup and the measured region. Any drift panics inside Run.
func TestInvariantSamplingDuringRun(t *testing.T) {
	proc := newProc(t, memMix, func(p *pipeline.Params) {
		p.MaxInstructions = 6000
		p.WarmupInstructions = 1500
		p.Policy = pipeline.PolicyFLUSH
		p.Scheduler = uarch.SchedVISA
		p.InvariantEvery = 256
	})
	if r := proc.Run(); r.TotalCommits() == 0 {
		t.Fatal("run committed nothing")
	}
}

func TestBudgetReached(t *testing.T) {
	r := newProc(t, cpuMix, nil).Run()
	if got := r.TotalCommits(); got < 20_000 {
		t.Fatalf("committed %d of 20000", got)
	}
	if r.ThroughputIPC <= 0 || r.ThroughputIPC > 8 {
		t.Fatalf("IPC %v implausible", r.ThroughputIPC)
	}
	for i, c := range r.Commits {
		if c == 0 {
			t.Errorf("thread %d starved", i)
		}
	}
}

func TestSingleThread(t *testing.T) {
	r := newProc(t, []string{"gcc"}, nil).Run()
	if r.TotalCommits() < 20_000 {
		t.Fatal("single-thread run under budget")
	}
	if diff := r.HarmonicIPC - r.ThroughputIPC; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("single thread harmonic %v != throughput %v", r.HarmonicIPC, r.ThroughputIPC)
	}
}

func TestWrongPathActivity(t *testing.T) {
	r := newProc(t, cpuMix, nil).Run()
	if r.Mispredicts == 0 {
		t.Fatal("no mispredicts on biased-branch workload")
	}
	if r.WrongPathFetched == 0 || r.Squashed == 0 {
		t.Fatal("no wrong-path activity despite mispredicts")
	}
	if r.SquashedTotal < r.Squashed/2 {
		t.Fatal("squashed tag accounting missing entries")
	}
}

func TestFlushPolicyFlushes(t *testing.T) {
	r := newProc(t, memMix, func(p *pipeline.Params) {
		p.Policy = pipeline.PolicyFLUSH
		p.MaxInstructions = 10_000
	}).Run()
	if r.Flushes == 0 {
		t.Fatal("FLUSH policy never flushed a memory-bound mix")
	}
	base := newProc(t, memMix, func(p *pipeline.Params) { p.MaxInstructions = 10_000 }).Run()
	if r.IQAVF >= base.IQAVF*1.2 {
		t.Fatalf("FLUSH AVF %.3f not below baseline-ish %.3f", r.IQAVF, base.IQAVF)
	}
}

func TestGatingPoliciesReduceOccupancy(t *testing.T) {
	base := newProc(t, memMix, func(p *pipeline.Params) { p.MaxInstructions = 8000 }).Run()
	for _, pol := range []pipeline.FetchPolicyKind{pipeline.PolicySTALL, pipeline.PolicyDG, pipeline.PolicyPDG} {
		r := newProc(t, memMix, func(p *pipeline.Params) {
			p.MaxInstructions = 8000
			p.Policy = pol
		}).Run()
		if r.MeanIQOccupancy >= base.MeanIQOccupancy {
			t.Errorf("%v occupancy %.1f not below ICOUNT's %.1f", pol, r.MeanIQOccupancy, base.MeanIQOccupancy)
		}
		if r.TotalCommits() < 8000 {
			t.Errorf("%v starved the machine", pol)
		}
	}
}

// capController caps the IQ at a fixed size.
type capController struct{ cap int }

func (c capController) Name() string { return "cap" }
func (c capController) Decide(*pipeline.View) pipeline.Decision {
	d := pipeline.NoDecision()
	d.IQLCap = c.cap
	return d
}

func TestIQLCapRespected(t *testing.T) {
	proc := newProc(t, cpuMix, func(p *pipeline.Params) {
		p.MaxInstructions = 5000
		p.Controller = capController{cap: 24}
	})
	for proc.TotalCommits() < 5000 && proc.Cycle() < 400_000 {
		proc.Step()
		if got := proc.IQ().Len(); got > 24 {
			t.Fatalf("cycle %d: IQ occupancy %d above cap", proc.Cycle(), got)
		}
	}
	if proc.TotalCommits() < 5000 {
		t.Fatal("capped machine starved")
	}
}

// gateAllController blocks all dispatch.
type gateAllController struct{}

func (gateAllController) Name() string { return "gate-all" }
func (gateAllController) Decide(v *pipeline.View) pipeline.Decision {
	d := pipeline.NoDecision()
	for i := 0; i < v.NumThreads; i++ {
		d.GateDispatch[i] = true
	}
	return d
}

func TestGateDispatchStallsMachine(t *testing.T) {
	proc := newProc(t, cpuMix, func(p *pipeline.Params) {
		p.MaxInstructions = 1 << 30
		p.MaxCycles = 3000
		p.Controller = gateAllController{}
	})
	r := proc.Run()
	// The pipeline drains whatever was in flight, then commits nothing.
	if r.TotalCommits() > 500 {
		t.Fatalf("gated machine committed %d instructions", r.TotalCommits())
	}
}

func TestWarmupResetsStatistics(t *testing.T) {
	warm := newProc(t, cpuMix, func(p *pipeline.Params) {
		p.MaxInstructions = 10_000
		p.WarmupInstructions = 10_000
	}).Run()
	cold := newProc(t, cpuMix, func(p *pipeline.Params) {
		p.MaxInstructions = 10_000
	}).Run()
	if warm.TotalCommits() < 10_000 {
		t.Fatal("warm run under budget")
	}
	// Warmed caches/predictors must not be slower than cold start.
	if warm.ThroughputIPC < cold.ThroughputIPC*0.9 {
		t.Fatalf("warm IPC %.2f well below cold %.2f", warm.ThroughputIPC, cold.ThroughputIPC)
	}
	if warm.L1IMissRate > cold.L1IMissRate+0.01 {
		t.Fatal("warmup did not warm the I-cache stats")
	}
}

func TestVISAPrioritisesTagged(t *testing.T) {
	base := newProc(t, cpuMix, func(p *pipeline.Params) {
		p.MaxInstructions = 40_000
		p.WarmupInstructions = 15_000
	}).Run()
	visa := newProc(t, cpuMix, func(p *pipeline.Params) {
		p.MaxInstructions = 40_000
		p.WarmupInstructions = 15_000
		p.Scheduler = uarch.SchedVISA
	}).Run()
	// The schedulers must actually differ in behaviour...
	if visa.Cycles == base.Cycles && visa.IQAVF == base.IQAVF {
		t.Fatal("VISA run identical to baseline")
	}
	t.Logf("base: wait tagged %.2f untagged %.2f AVF %.3f; visa: wait tagged %.2f untagged %.2f AVF %.3f",
		base.MeanReadyWaitTagged, base.MeanReadyWaitUntagged, base.IQAVF,
		visa.MeanReadyWaitTagged, visa.MeanReadyWaitUntagged, visa.IQAVF)
	// ...and VISA's defining mechanism must hold: once ready, tagged
	// instructions issue ahead of untagged ones, by a clearly larger
	// margin than any composition effect under age-order issue.
	if visa.MeanReadyWaitTagged >= visa.MeanReadyWaitUntagged {
		t.Fatalf("VISA does not favour tagged instructions (%.2f vs %.2f)",
			visa.MeanReadyWaitTagged, visa.MeanReadyWaitUntagged)
	}
	gapBase := base.MeanReadyWaitUntagged - base.MeanReadyWaitTagged
	gapVISA := visa.MeanReadyWaitUntagged - visa.MeanReadyWaitTagged
	if gapVISA <= gapBase {
		t.Fatalf("VISA priority gap %.2f not above baseline's %.2f", gapVISA, gapBase)
	}
}

func TestIntervalsRecorded(t *testing.T) {
	r := newProc(t, cpuMix, func(p *pipeline.Params) { p.MaxInstructions = 130_000 }).Run()
	if len(r.Intervals) == 0 {
		t.Fatal("no intervals recorded")
	}
	var commits uint64
	for i, iv := range r.Intervals {
		if iv.Index != i {
			t.Fatalf("interval %d has index %d", i, iv.Index)
		}
		if iv.Cycles != pipeline.IntervalCycles && i != len(r.Intervals)-1 {
			t.Fatalf("interval %d spans %d cycles", i, iv.Cycles)
		}
		if iv.IQAVF < 0 || iv.IQAVF > 1 {
			t.Fatalf("interval %d AVF %v", i, iv.IQAVF)
		}
		commits += iv.Commits
	}
	if commits > r.TotalCommits() {
		t.Fatal("interval commits exceed total")
	}
	if r.MaxIQAVF < r.IQAVF*0.9 {
		t.Fatalf("max interval AVF %.3f below overall %.3f", r.MaxIQAVF, r.IQAVF)
	}
}

func TestParamValidation(t *testing.T) {
	streams := buildStreams(t, []string{"gcc"}, 1000)
	bad := []pipeline.Params{
		{Machine: config.Default(), Streams: nil, MaxInstructions: 1},
		{Machine: config.Default(), Streams: streams, MaxInstructions: 0},
		{Machine: config.Machine{}, Streams: streams, MaxInstructions: 1},
	}
	for i, p := range bad {
		if _, err := pipeline.New(p); err == nil {
			t.Errorf("params %d accepted", i)
		}
	}
}

func TestIQThreadShare(t *testing.T) {
	// Two compute-bound and two memory-bound threads: the memory-bound
	// pair's miss-dependent chains dominate the IQ's ACE-bit-cycles.
	r := newProc(t, []string{"gcc", "mcf", "vpr", "perlbmk"}, func(p *pipeline.Params) {
		p.MaxInstructions = 15_000
	}).Run()
	if len(r.IQThreadShare) != 4 {
		t.Fatalf("share vector %v", r.IQThreadShare)
	}
	sum := 0.0
	for _, s := range r.IQThreadShare {
		if s < 0 || s > 1 {
			t.Fatalf("share out of range: %v", r.IQThreadShare)
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
	memShare := r.IQThreadShare[1] + r.IQThreadShare[2] // mcf, vpr
	cpuShare := r.IQThreadShare[0] + r.IQThreadShare[3] // gcc, perlbmk
	t.Logf("shares: %v (mem %.2f, cpu %.2f)", r.IQThreadShare, memShare, cpuShare)
	if memShare <= cpuShare {
		t.Errorf("memory-bound threads should dominate IQ vulnerability: mem %.2f vs cpu %.2f",
			memShare, cpuShare)
	}
}
