// Command avfprof performs the paper's offline instruction vulnerability
// profiling (§2.1) for one benchmark: it classifies every dynamic
// instruction as ACE or un-ACE over a post-retirement analysis window,
// collapses the classification to per-PC tags (the 1-bit ISA extension the
// VISA issue logic reads), and reports the resulting tag accuracy.
//
// Example:
//
//	avfprof -benchmark mcf -n 1000000 -top 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"visasim/internal/ace"
	"visasim/internal/core"
	"visasim/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "avfprof:", err)
		os.Exit(1)
	}
}

// run parses args and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("avfprof", flag.ExitOnError)
	var (
		bench  = fs.String("benchmark", "gcc", "benchmark to profile (see -list)")
		n      = fs.Uint64("n", 400_000, "dynamic instructions to classify")
		window = fs.Int("window", ace.DefaultWindow, "post-retirement analysis window")
		top    = fs.Int("top", 0, "print the N static instructions with the most tag mismatches")
		list   = fs.Bool("list", false, "list available benchmarks and exit")
	)
	fs.Parse(args)

	if *list {
		for _, name := range workload.Names() {
			b := workload.MustGet(name)
			fmt.Fprintf(w, "%-10s %s-intensive\n", name, b.Class)
		}
		return nil
	}

	b, err := workload.Get(*bench)
	if err != nil {
		return err
	}
	prof, err := core.ProfileFor(b, *n, *window)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "benchmark          %s (%s-intensive)\n", b.Name, b.Class)
	fmt.Fprintf(w, "dynamic instrs     %d (window %d)\n", prof.DynInstrs, *window)
	fmt.Fprintf(w, "ACE fraction       %.3f\n", prof.ACEFraction())
	fmt.Fprintf(w, "tag accuracy       %.3f (committed instances vs per-PC tags)\n", prof.Accuracy())
	fmt.Fprintf(w, "windowing errors   %d late marks\n", prof.LateMarks)
	fmt.Fprintf(w, "tagged PCs         %d of %d static instructions\n", prof.Tag.Count(prof.Tag.Len()), prof.Tag.Len())

	if *top > 0 {
		prog, err := core.ProgramFor(b)
		if err != nil {
			return err
		}
		// core.ProfileFor profiles thread 0.
		instances, aceInstances := ace.PCCounts(prog, b.Params.Seed, 0, prof)
		type row struct {
			idx      int
			mismatch uint64
		}
		var rows []row
		for i := range prog.Instrs {
			if prof.Tag.Get(uint64(i)) {
				rows = append(rows, row{i, uint64(instances[i] - aceInstances[i])})
			}
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].mismatch > rows[b].mismatch })
		if len(rows) > *top {
			rows = rows[:*top]
		}
		fmt.Fprintf(w, "\ntop tag false positives (un-ACE instances under ACE-tagged PCs):\n")
		for _, r := range rows {
			fmt.Fprintf(w, "  %8d mismatches  %6d/%6d ACE  %v\n",
				r.mismatch, aceInstances[r.idx], instances[r.idx],
				prog.Instrs[r.idx].String())
		}
	}
	return nil
}
