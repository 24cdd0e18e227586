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
	"os"
	"sort"

	"visasim/internal/ace"
	"visasim/internal/core"
	"visasim/internal/workload"
)

func main() {
	var (
		bench    = flag.String("benchmark", "gcc", "benchmark to profile (see -list)")
		n        = flag.Uint64("n", 400_000, "dynamic instructions to classify")
		window   = flag.Int("window", ace.DefaultWindow, "post-retirement analysis window")
		top      = flag.Int("top", 0, "print the N static instructions with the most tag mismatches")
		list     = flag.Bool("list", false, "list available benchmarks and exit")
		saveFile = flag.String("save", "", "write the profile to this file")
		loadFile = flag.String("load", "", "read a previously saved profile instead of profiling")
	)
	flag.Parse()

	if *list {
		for _, name := range workload.Names() {
			b := workload.MustGet(name)
			fmt.Printf("%-10s %s-intensive\n", name, b.Class)
		}
		return
	}

	b, err := workload.Get(*bench)
	if err != nil {
		fatal(err)
	}
	var prof *ace.Profile
	if *loadFile != "" {
		f, err := os.Open(*loadFile)
		if err != nil {
			fatal(err)
		}
		prof, err = ace.Load(f, b.Name, b.Params.Seed, 0)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		prof, err = core.ProfileFor(b, *n, *window)
		if err != nil {
			fatal(err)
		}
	}
	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			fatal(err)
		}
		if err := prof.Save(f, b.Name, b.Params.Seed, *window); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "profile saved to %s\n", *saveFile)
	}

	fmt.Printf("benchmark          %s (%s-intensive)\n", b.Name, b.Class)
	fmt.Printf("dynamic instrs     %d (window %d)\n", prof.DynInstrs, *window)
	fmt.Printf("ACE fraction       %.3f\n", prof.ACEFraction())
	fmt.Printf("tag accuracy       %.3f (committed instances vs per-PC tags)\n", prof.Accuracy())
	fmt.Printf("windowing errors   %d late marks\n", prof.LateMarks)

	tagged := 0
	for _, v := range prof.Tag {
		if v {
			tagged++
		}
	}
	fmt.Printf("tagged PCs         %d of %d static instructions\n", tagged, len(prof.Tag))

	if *top > 0 {
		prog, err := b.Generate()
		if err != nil {
			fatal(err)
		}
		type row struct {
			idx      int
			mismatch uint64
		}
		var rows []row
		for i := range prog.Instrs {
			if prof.Tag[i] {
				rows = append(rows, row{i, uint64(prof.Instances[i] - prof.ACEInstances[i])})
			}
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].mismatch > rows[b].mismatch })
		if len(rows) > *top {
			rows = rows[:*top]
		}
		fmt.Printf("\ntop tag false positives (un-ACE instances under ACE-tagged PCs):\n")
		for _, r := range rows {
			fmt.Printf("  %8d mismatches  %6d/%6d ACE  %v\n",
				r.mismatch, prof.ACEInstances[r.idx], prof.Instances[r.idx],
				prog.Instrs[r.idx].String())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "avfprof:", err)
	os.Exit(1)
}
