package inject

import (
	"math"
	"strings"
	"testing"

	"visasim/internal/config"
	"visasim/internal/core"
)

// campaignCfg is a default-machine base-scheme Config for names.
func campaignCfg(names []string, budget uint64) core.Config {
	return core.Config{Benchmarks: names, MaxInstructions: budget}
}

// TestEmpiricalAVFMatchesAccounting is the statistical validation the AVF
// methodology is defined by: random strikes must corrupt at the accounted
// AVF rate.
func TestEmpiricalAVFMatchesAccounting(t *testing.T) {
	const budget = 60_000
	c, err := Run(campaignCfg([]string{"bzip2", "eon", "gcc", "perlbmk"}, budget), Options{
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
		c, err := Run(campaignCfg([]string{"gcc", "mcf"}, budget), Options{Seed: 7})
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
	var seen uint64
	var corrupting uint64
	c, err := Run(campaignCfg([]string{"gcc"}, budget), Options{
		Seed: 3,
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
	if _, err := Run(campaignCfg([]string{"gcc"}, 0), Options{}); err == nil {
		t.Fatal("zero-instruction campaign accepted")
	}
}

// TestAccountedAVFIsTheStruckRun pins what MeasuredAVF means: a campaign
// only observes the machine, so its accounted AVF is that of the same cell
// run by core with warmup off — the region the strikes landed in. Were the
// campaign built with warmup on, the closing Run would reset the statistics
// and account a later region instead.
func TestAccountedAVFIsTheStruckRun(t *testing.T) {
	const budget = 12_000
	for _, scheme := range []core.Scheme{core.SchemeBase, core.SchemeVISAOpt2} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := campaignCfg([]string{"gcc", "mcf"}, budget)
			cfg.Scheme = scheme
			c, err := Run(cfg, Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if c.MeasuredAVF <= 0 {
				t.Fatalf("accounted AVF %v, want > 0", c.MeasuredAVF)
			}
			cfg.Warmup = -1
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.MeasuredAVF != res.IQAVF {
				t.Fatalf("campaign accounted AVF %v, core run with warmup off %v", c.MeasuredAVF, res.IQAVF)
			}
		})
	}
}

func TestProtectedMachineRefused(t *testing.T) {
	m := config.Default()
	m.IQProtection = config.ProtParity
	cfg := campaignCfg([]string{"gcc"}, 1000)
	cfg.Machine = &m
	if _, err := Run(cfg, Options{}); err == nil || !strings.Contains(err.Error(), "protection") {
		t.Fatalf("protected machine: err %v, want a protection refusal", err)
	}
}

func TestOutcomeString(t *testing.T) {
	if Masked.String() != "masked" || Corrupting.String() != "corrupting" {
		t.Fatal("outcome names")
	}
}
