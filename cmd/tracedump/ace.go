package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"slices"

	"visasim/internal/ace"
	"visasim/internal/core"
	"visasim/internal/isa"
	"visasim/internal/program"
	"visasim/internal/report"
	"visasim/internal/trace"
	"visasim/internal/workload"
)

// aceTail is how far past its printed window the ace subcommand profiles,
// so that the window's last instructions are classified with lookahead.
const aceTail = 1024

// loadProfile returns a benchmark, its program image and its thread-0
// profile of n instructions under the default analysis window.
func loadProfile(name string, n uint64) (workload.Benchmark, *program.Program, *ace.Profile, error) {
	b, err := workload.Get(name)
	if err != nil {
		return b, nil, nil, err
	}
	prof, err := core.ProfileFor(b, n, ace.DefaultWindow)
	if err != nil {
		return b, nil, nil, err
	}
	prog, err := core.ProgramFor(b)
	return b, prog, prof, err
}

// cmdProfile reports a benchmark's offline vulnerability profile: it
// classifies every dynamic instruction as ACE or un-ACE over the
// post-retirement analysis window, collapses the classification to the
// per-PC tags the VISA issue logic reads, and reports what the tags get
// right and wrong, overall and per instruction kind.
func cmdProfile(fs *flag.FlagSet) func(io.Writer) error {
	var (
		bench = fs.String("benchmark", "gcc", "benchmark to profile")
		n     = fs.Uint64("n", 400_000, "dynamic instructions to classify")
		top   = fs.Int("top", 0, "also list the K ACE-tagged PCs with the most un-ACE instances")
	)
	return func(w io.Writer) error {
		if *top < 0 {
			return usageError{fmt.Errorf("profile: -top %d is negative", *top)}
		}
		b, prog, prof, err := loadProfile(*bench, *n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "benchmark          %s (%s-intensive)\n", b.Name, b.Class)
		fmt.Fprintf(w, "dynamic instrs     %d (window %d)\n", prof.DynInstrs, ace.DefaultWindow)
		fmt.Fprintf(w, "ACE fraction       %.3f\n", prof.ACEFraction())
		fmt.Fprintf(w, "tag accuracy       %.3f (committed instances vs per-PC tags)\n", prof.Accuracy())
		fmt.Fprintf(w, "windowing errors   %d late marks\n", prof.LateMarks)
		fmt.Fprintf(w, "tagged PCs         %d of %d static instructions\n\n", prof.Tag.Count(prof.Tag.Len()), prof.Tag.Len())

		// core.ProfileFor profiles thread 0.
		instances, aceInstances := ace.PCCounts(prog, b.Params.Seed, 0, prof)
		t := report.NewTable("", "kind", "static PCs", "tagged ACE", "dynamic", "ACE", "tag mismatch")
		for k, c := range byKind(prog, prof.Tag, instances, aceInstances) {
			if c.static == 0 {
				continue
			}
			t.AddRow(isa.Kind(k).String(), fmt.Sprint(c.static),
				report.Pct(float64(c.tagged)/float64(c.static)), fmt.Sprint(c.instances),
				report.Pct(float64(c.ace)/float64(max(c.instances, 1))), report.Pct(float64(c.mismatch)/float64(max(c.instances, 1))))
		}
		fmt.Fprint(w, t.String())

		if *top == 0 {
			return nil
		}
		var tagged []int
		for i := range prog.Instrs {
			if prof.Tag.Get(uint64(i)) {
				tagged = append(tagged, i)
			}
		}
		miss := func(i int) uint32 { return instances[i] - aceInstances[i] }
		slices.SortStableFunc(tagged, func(a, b int) int { return cmp.Compare(miss(b), miss(a)) })
		fmt.Fprintf(w, "\ntop tag false positives (un-ACE instances under ACE-tagged PCs):\n")
		for _, i := range tagged[:min(len(tagged), *top)] {
			fmt.Fprintf(w, "  %8d mismatches  %6d/%6d ACE  %v\n", miss(i), aceInstances[i], instances[i], prog.Instrs[i].String())
		}
		return nil
	}
}

// kindCounts is one instruction kind's share of a profile.
type kindCounts struct {
	static, tagged           int    // static PCs, and how many are ACE-tagged
	instances, ace, mismatch uint64 // dynamic instances, ACE ones, un-ACE ones under tagged PCs
}

// byKind folds per-PC instance counts (ace.PCCounts) and tags into one
// row per instruction kind.
func byKind(prog *program.Program, tag *trace.BitSet, instances, aceInstances []uint32) [isa.NumKinds]kindCounts {
	var out [isa.NumKinds]kindCounts
	for i := range prog.Instrs {
		c := &out[prog.Instrs[i].Kind]
		c.static++
		c.instances += uint64(instances[i])
		c.ace += uint64(aceInstances[i])
		if tag.Get(uint64(i)) {
			c.tagged++
			c.mismatch += uint64(instances[i] - aceInstances[i])
		}
	}
	return out
}

// cmdACE prints a window of a benchmark's committed dynamic instruction
// stream with its ground-truth ACE classification and the per-PC tag the
// VISA hardware would see.
func cmdACE(fs *flag.FlagSet) func(io.Writer) error {
	var (
		bench = fs.String("benchmark", "gcc", "benchmark to trace")
		skip  = fs.Uint64("skip", 0, "instructions to skip before printing")
		n     = fs.Uint64("n", 50, "instructions to print")
	)
	return func(w io.Writer) error {
		b, prog, prof, err := loadProfile(*bench, *skip+*n+aceTail)
		if err != nil {
			return err
		}
		exec := trace.NewExecutor(prog, b.Params.Seed, 0)
		var d trace.DynInst
		for i := uint64(0); i < *skip; i++ {
			exec.Next(&d)
		}
		fmt.Fprintf(w, "%-8s %-6s %-5s %-42s %-18s %s\n",
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
			fmt.Fprintf(w, "%-8d %-6s %-5s %-42s %-18s %s\n", d.Seq, truth, tag, inst, addr, ctl)
		}
		return nil
	}
}
