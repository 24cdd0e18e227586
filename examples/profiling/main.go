// profiling walks the offline vulnerability-profiling flow the paper's ISA
// extension depends on (§2.1): classify a benchmark's dynamic instructions
// as ACE/un-ACE with the post-retirement liveness analyzer, collapse to
// per-PC tags, and inspect what the 1-bit tags get right and wrong.
//
// Run with: go run ./examples/profiling
package main

import (
	"fmt"
	"log"

	"visasim/internal/ace"
	"visasim/internal/core"
	"visasim/internal/isa"
	"visasim/internal/workload"
)

func main() {
	for _, name := range []string{"gcc", "mesa", "mcf"} {
		b, err := workload.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		prof, err := core.ProfileFor(b, 300_000, ace.DefaultWindow)
		if err != nil {
			log.Fatal(err)
		}

		prog, err := b.Generate()
		if err != nil {
			log.Fatal(err)
		}

		// Count per-kind tag composition. The profile's Tag is indexed
		// like the program's instructions.
		var taggedByKind, totalByKind [isa.NumKinds]int
		for i := range prog.Instrs {
			k := prog.Instrs[i].Kind
			totalByKind[k]++
			if prof.Tag[i] {
				taggedByKind[k]++
			}
		}

		fmt.Printf("%s (%s-intensive): %d dynamic instructions profiled\n",
			name, b.Class, prof.DynInstrs)
		fmt.Printf("  ACE fraction %.1f%%, per-PC tag accuracy %.1f%%\n",
			100*prof.ACEFraction(), 100*prof.Accuracy())
		for k := isa.Kind(0); int(k) < isa.NumKinds; k++ {
			if totalByKind[k] == 0 {
				continue
			}
			fmt.Printf("  %-6v %5d static, %4.0f%% tagged ACE\n",
				k, totalByKind[k], 100*float64(taggedByKind[k])/float64(totalByKind[k]))
		}
		fmt.Println()
	}
	fmt.Println("The tags above are what VISA issue reads: a branch is always ACE,")
	fmt.Println("NOPs never are, and everything else depends on whether its value")
	fmt.Println("can still reach architectural state.")
}
