// Package inject runs statistical fault-injection campaigns against the
// simulated issue queue.
//
// The AVF methodology the paper builds on (Mukherjee et al.) defines a
// structure's AVF as the probability that a uniformly random single-bit
// upset — random in both time and location — corrupts architecturally
// visible state. This package performs exactly that experiment: strike a
// uniformly random (cycle, entry, bit) of the IQ during a simulation and
// classify the strike with the simulator's ground-truth ACE analysis. Over
// many trials the corrupting fraction must converge to the accounted IQ
// AVF, which makes a campaign both a validation of the AVF bookkeeping and
// the natural way to translate AVF into an expected soft-error rate.
package inject

import (
	"fmt"
	"math"

	"visasim/internal/avf"
	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/rng"
)

// Outcome classifies one injected upset.
type Outcome uint8

// Strike outcomes.
const (
	// Masked: the struck bit was in an idle entry, a wrong-path
	// instruction, or un-ACE payload — the program's output is
	// unaffected.
	Masked Outcome = iota
	// Corrupting: the struck bit was ACE — architecturally required —
	// so the upset propagates to program-visible state.
	Corrupting
)

func (o Outcome) String() string {
	if o == Corrupting {
		return "corrupting"
	}
	return "masked"
}

// Strike records one injected upset.
type Strike struct {
	Cycle   uint64
	Slot    int
	Bit     int
	Outcome Outcome
}

// Campaign is a completed injection campaign.
type Campaign struct {
	Trials      uint64
	Corrupted   uint64
	IdleHits    uint64  // strikes on unoccupied entries
	WrongPath   uint64  // strikes on wrong-path instructions
	MeasuredAVF float64 // the simulator's accounted IQ AVF over the run
}

// EmpiricalAVF is the corrupting fraction of strikes.
func (c *Campaign) EmpiricalAVF() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Corrupted) / float64(c.Trials)
}

// StdErr is the binomial standard error of EmpiricalAVF.
func (c *Campaign) StdErr() float64 {
	if c.Trials == 0 {
		return 0
	}
	p := c.EmpiricalAVF()
	return math.Sqrt(p * (1 - p) / float64(c.Trials))
}

// String summarises the campaign.
func (c *Campaign) String() string {
	return fmt.Sprintf("strikes %d: corrupting %.4f ±%.4f (accounted AVF %.4f); idle %.1f%%, wrong-path %.1f%%",
		c.Trials, c.EmpiricalAVF(), c.StdErr(), c.MeasuredAVF,
		100*float64(c.IdleHits)/float64(c.Trials),
		100*float64(c.WrongPath)/float64(c.Trials))
}

// Options tunes a campaign.
type Options struct {
	// StrikesPerKCycle is the expected injection rate (strikes are
	// Bernoulli per cycle so time sampling is uniform).
	StrikesPerKCycle float64
	// Seed drives the strike generator.
	Seed uint64
	// Observer, if set, receives every strike.
	Observer func(Strike)
}

// Run builds cfg's machine through core, drives it for cfg.MaxInstructions
// committed instructions while injecting strikes, and returns the campaign
// statistics. Any scheme core builds is accepted. Strikes start at cycle 0,
// so the campaign runs with warmup off whatever cfg.Warmup says: a warmup
// would reset the accounted AVF to a later region than the one struck.
// cfg's machine must leave the IQ unprotected, because strikes are
// classified by the unprotected ACE-bit layout (avf.IQBits).
func Run(cfg core.Config, opt Options) (*Campaign, error) {
	if cfg.MaxInstructions == 0 {
		return nil, fmt.Errorf("inject: zero-instruction campaign")
	}
	if cfg.Machine != nil {
		if prot := cfg.Machine.Canonical().IQProtection; prot != config.ProtNone {
			return nil, fmt.Errorf("inject: IQ protection %q: strikes are classified unprotected", prot)
		}
	}
	cfg.Warmup = -1
	proc, err := core.NewProcessor(cfg)
	if err != nil {
		return nil, err
	}
	rate := opt.StrikesPerKCycle
	if rate <= 0 {
		rate = 64
	}
	p := rate / 1000
	if p > 1 {
		p = 1
	}
	src := rng.New(rng.Hash64(opt.Seed, 0x57121CE))

	c := &Campaign{}
	iq := proc.IQ()
	size := iq.Size()
	n := cfg.MaxInstructions
	cycleCap := proc.Cycle() + 128*n
	for proc.TotalCommits() < n && proc.Cycle() < cycleCap {
		proc.Step()
		if !src.Bool(p) {
			continue
		}
		s := Strike{
			Cycle: proc.Cycle(),
			Slot:  src.Intn(size),
			Bit:   src.Intn(avf.IQEntryBits),
		}
		c.Trials++
		u := iq.At(s.Slot)
		switch {
		case u == nil:
			c.IdleHits++
		case u.WrongPath:
			c.WrongPath++
		case uint64(s.Bit) < avf.IQBits(false, u.ACE):
			s.Outcome = Corrupting
			c.Corrupted++
		}
		if opt.Observer != nil {
			opt.Observer(s)
		}
	}
	res := proc.Run() // budget reached: finalises and returns results
	c.MeasuredAVF = res.IQAVF
	return c, nil
}
