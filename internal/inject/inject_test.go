package inject

import (
	"math"
	"testing"

	"visasim/internal/ace"
	"visasim/internal/config"
	"visasim/internal/pipeline"
	"visasim/internal/trace"
	"visasim/internal/uarch"
	"visasim/internal/workload"
)

func newProc(t testing.TB, names []string, budget uint64) *pipeline.Processor {
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
	proc, err := pipeline.New(pipeline.Params{
		Machine:         config.Default(),
		Scheduler:       uarch.SchedOldestFirst,
		Policy:          pipeline.PolicyICOUNT,
		Streams:         streams,
		MaxInstructions: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

// TestEmpiricalAVFMatchesAccounting is the statistical validation the AVF
// methodology is defined by: random strikes must corrupt at the accounted
// AVF rate.
func TestEmpiricalAVFMatchesAccounting(t *testing.T) {
	const budget = 60_000
	proc := newProc(t, []string{"bzip2", "eon", "gcc", "perlbmk"}, budget)
	c, err := Run(proc, Options{
		Instructions:     budget,
		StrikesPerKCycle: 800, // dense sampling for a tight CI
		Seed:             42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(c.String())
	if c.Trials < 1000 {
		t.Fatalf("only %d strikes", c.Trials)
	}
	diff := math.Abs(c.EmpiricalAVF() - c.MeasuredAVF)
	if tol := 5*c.StdErr() + 0.01; diff > tol {
		t.Fatalf("empirical %.4f vs accounted %.4f differ by %.4f (tol %.4f)",
			c.EmpiricalAVF(), c.MeasuredAVF, diff, tol)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	const budget = 15_000
	run := func() *Campaign {
		proc := newProc(t, []string{"gcc", "mcf"}, budget)
		c, err := Run(proc, Options{Instructions: budget, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if a.Trials != b.Trials || a.Corrupted != b.Corrupted || a.MeasuredAVF != b.MeasuredAVF {
		t.Fatalf("campaigns differ: %v vs %v", a, b)
	}
}

func TestObserverSeesEveryStrike(t *testing.T) {
	const budget = 10_000
	proc := newProc(t, []string{"gcc"}, budget)
	var seen uint64
	var corrupting uint64
	c, err := Run(proc, Options{
		Instructions: budget,
		Seed:         3,
		Observer: func(s Strike) {
			seen++
			if s.Outcome == Corrupting {
				corrupting++
			}
			if s.Slot < 0 || s.Slot >= 96 || s.Bit < 0 || s.Bit >= 128 {
				t.Errorf("strike out of range: %+v", s)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != c.Trials || corrupting != c.Corrupted {
		t.Fatalf("observer saw %d/%d, campaign counted %d/%d",
			seen, corrupting, c.Trials, c.Corrupted)
	}
}

func TestZeroInstructionCampaignRejected(t *testing.T) {
	proc := newProc(t, []string{"gcc"}, 1000)
	if _, err := Run(proc, Options{}); err == nil {
		t.Fatal("zero-instruction campaign accepted")
	}
}

func TestOutcomeString(t *testing.T) {
	if Masked.String() != "masked" || Corrupting.String() != "corrupting" {
		t.Fatal("outcome names")
	}
}
