// Command faultsim runs a statistical soft-error injection campaign against
// the simulated issue queue: uniformly random (cycle, entry, bit) strikes
// classified by ground-truth ACE analysis. The corrupting fraction is the
// empirical AVF; it converges on the simulator's accounted AVF, connecting
// the paper's AVF numbers to actual upset outcomes.
//
// The machine is built by core exactly as visasim builds it, with warmup
// off so strikes start at cycle 0. Every scheme that needs no DVM target
// runs: base, visa, visa+opt1 and visa+opt2.
//
// Example:
//
//	faultsim -mix MEM-A -n 200000 -rate 200
//	faultsim -mix CPU-A -scheme visa+opt2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"visasim/internal/core"
	"visasim/internal/inject"
	"visasim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the campaign, writes the
// report to stdout and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mixName    = fs.String("mix", "CPU-A", "Table 3 workload mix")
		schemeName = fs.String("scheme", "base", "reliability scheme: base, visa, visa+opt1, visa+opt2")
		budget     = fs.Uint64("n", 200_000, "instructions to commit during the campaign")
		rate       = fs.Float64("rate", 200, "expected strikes per 1000 cycles")
		seed       = fs.Uint64("seed", 1, "strike-stream seed")
		verbose    = fs.Bool("v", false, "log every corrupting strike")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "faultsim:", err)
		return 1
	}

	var mix *workload.Mix
	for _, m := range workload.Mixes() {
		if strings.EqualFold(m.Name, *mixName) {
			mix = &m
			break
		}
	}
	if mix == nil {
		return fail(fmt.Errorf("unknown mix %q", *mixName))
	}
	scheme, err := core.ParseScheme(*schemeName)
	if err != nil {
		return fail(err)
	}

	opts := inject.Options{StrikesPerKCycle: *rate, Seed: *seed}
	if *verbose {
		opts.Observer = func(s inject.Strike) {
			if s.Outcome == inject.Corrupting {
				fmt.Fprintf(stdout, "cycle %-10d slot %-3d bit %-3d CORRUPTING\n", s.Cycle, s.Slot, s.Bit)
			}
		}
	}
	c, err := inject.Run(core.Config{
		Benchmarks:      mix.Benchmarks[:],
		Scheme:          scheme,
		MaxInstructions: *budget,
	}, opts)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "workload   %s (%s)\n", mix.Name, strings.Join(mix.Benchmarks[:], ","))
	fmt.Fprintf(stdout, "scheme     %s\n", scheme)
	fmt.Fprintln(stdout, c.String())
	fmt.Fprintf(stdout, "\ninterpretation: of %d simulated upsets in the IQ, %.1f%% would corrupt\n",
		c.Trials, 100*c.EmpiricalAVF())
	fmt.Fprintf(stdout, "architectural state; the rest land on idle entries, wrong-path\n")
	fmt.Fprintf(stdout, "instructions, or dynamically dead (un-ACE) payload bits.\n")
	return 0
}
