package main

import (
	"flag"
	"fmt"

	"visasim/internal/ace"
	"visasim/internal/core"
	"visasim/internal/trace"
	"visasim/internal/workload"
)

// cmdACE prints a window of a benchmark's committed dynamic instruction
// stream with its ground-truth ACE classification and the per-PC tag the
// VISA hardware would see.
func cmdACE(args []string) {
	fs := flag.NewFlagSet("tracedump ace", flag.ExitOnError)
	var (
		bench = fs.String("benchmark", "gcc", "benchmark to trace")
		skip  = fs.Uint64("skip", 0, "instructions to skip before printing")
		n     = fs.Uint64("n", 50, "instructions to print")
	)
	fs.Parse(args)

	b, err := workload.Get(*bench)
	if err != nil {
		fatal(err)
	}
	prof, err := core.ProfileFor(b, *skip+*n+1024, ace.DefaultWindow)
	if err != nil {
		fatal(err)
	}
	prog, err := core.ProgramFor(b)
	if err != nil {
		fatal(err)
	}

	exec := trace.NewExecutor(prog, b.Params.Seed, 0)
	var d trace.DynInst
	for i := uint64(0); i < *skip; i++ {
		exec.Next(&d)
	}
	fmt.Printf("%-8s %-6s %-5s %-42s %-18s %s\n",
		"seq", "truth", "tag", "instruction", "address", "control")
	for i := uint64(0); i < *n; i++ {
		exec.Next(&d)
		truth := "unACE"
		if d.Seq < prof.Bits.Len() && prof.Bits.Get(d.Seq) {
			truth = "ACE"
		}
		// The per-PC tag comes from the profile; the image carries none.
		tag, inst := "-", d.Static.String()
		if prof.Tag.Get(uint64(prog.IndexOf(d.Static.PC))) {
			tag, inst = "ACE", inst+" [ACE]"
		}
		addr := ""
		if d.Static.Kind.IsMem() {
			addr = fmt.Sprintf("%#x", d.Addr)
		}
		ctl := ""
		if d.Static.Kind.IsControl() {
			if d.Taken {
				ctl = fmt.Sprintf("taken -> %#x", d.NextPC)
			} else {
				ctl = "not taken"
			}
		}
		fmt.Printf("%-8d %-6s %-5s %-42s %-18s %s\n", d.Seq, truth, tag, inst, addr, ctl)
	}
}
