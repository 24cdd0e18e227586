// Command faultsim runs a statistical soft-error injection campaign against
// the simulated issue queue: uniformly random (cycle, entry, bit) strikes
// classified by ground-truth ACE analysis. The corrupting fraction is the
// empirical AVF; it converges on the simulator's accounted AVF, connecting
// the paper's AVF numbers to actual upset outcomes.
//
// Example:
//
//	faultsim -mix MEM-A -n 200000 -rate 200
//	faultsim -mix CPU-A -scheme visa+opt2     # protected machine
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"visasim/internal/ace"
	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/inject"
	"visasim/internal/pipeline"
	"visasim/internal/trace"
	"visasim/internal/uarch"
	"visasim/internal/workload"
)

func main() {
	var (
		mixName    = flag.String("mix", "CPU-A", "Table 3 workload mix")
		schemeName = flag.String("scheme", "base", "reliability scheme: base, visa, visa+opt1, visa+opt2")
		budget     = flag.Uint64("n", 200_000, "instructions to commit during the campaign")
		rate       = flag.Float64("rate", 200, "expected strikes per 1000 cycles")
		seed       = flag.Uint64("seed", 1, "strike-stream seed")
		verbose    = flag.Bool("v", false, "log every corrupting strike")
	)
	flag.Parse()

	var mix *workload.Mix
	for _, m := range workload.Mixes() {
		if strings.EqualFold(m.Name, *mixName) {
			mm := m
			mix = &mm
			break
		}
	}
	if mix == nil {
		fatal(fmt.Errorf("unknown mix %q", *mixName))
	}

	sched := uarch.SchedOldestFirst
	var ctrl pipeline.Controller
	switch strings.ToLower(*schemeName) {
	case "base":
	case "visa":
		sched = uarch.SchedVISA
	case "visa+opt1", "visa+opt2":
		// Controllers live in internal/alloc; reuse core's wiring by
		// refusing here to keep this tool simple.
		fatal(fmt.Errorf("faultsim supports base and visa; use cmd/visasim for %s AVF", *schemeName))
	default:
		fatal(fmt.Errorf("unknown scheme %q", *schemeName))
	}

	streams := make([]*trace.Stream, 4)
	for i, name := range mix.Benchmarks {
		b, err := workload.Get(name)
		if err != nil {
			fatal(err)
		}
		prof, err := core.ProfileFor(b, *budget+8192, ace.DefaultWindow)
		if err != nil {
			fatal(err)
		}
		prog, err := b.Generate()
		if err != nil {
			fatal(err)
		}
		streams[i] = trace.NewStream(trace.NewExecutor(prog, b.Params.Seed, i), prof.Bits, prof.Tag)
	}
	proc, err := pipeline.New(pipeline.Params{
		Machine:         config.Default(),
		Scheduler:       sched,
		Policy:          pipeline.PolicyICOUNT,
		Controller:      ctrl,
		Streams:         streams,
		MaxInstructions: *budget,
	})
	if err != nil {
		fatal(err)
	}

	opts := inject.Options{
		Instructions:     *budget,
		StrikesPerKCycle: *rate,
		Seed:             *seed,
	}
	if *verbose {
		opts.Observer = func(s inject.Strike) {
			if s.Outcome == inject.Corrupting {
				fmt.Printf("cycle %-10d slot %-3d bit %-3d CORRUPTING\n", s.Cycle, s.Slot, s.Bit)
			}
		}
	}
	c, err := inject.Run(proc, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload   %s (%s)\n", mix.Name, strings.Join(mix.Benchmarks[:], ","))
	fmt.Printf("scheme     %s\n", *schemeName)
	fmt.Println(c.String())
	fmt.Printf("\ninterpretation: of %d simulated upsets in the IQ, %.1f%% would corrupt\n",
		c.Trials, 100*c.EmpiricalAVF())
	fmt.Printf("architectural state; the rest land on idle entries, wrong-path\n")
	fmt.Printf("instructions, or dynamically dead (un-ACE) payload bits.\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultsim:", err)
	os.Exit(1)
}
