package workload

import (
	"strings"
	"testing"

	"visasim/internal/isa"
	"visasim/internal/trace"
)

func TestAllBenchmarksGenerate(t *testing.T) {
	for _, name := range Names() {
		b := MustGet(name)
		prog, err := b.Generate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prog.Len() < 500 {
			t.Errorf("%s: only %d static instructions", name, prog.Len())
		}
	}
}

func TestSuiteCoversPaper(t *testing.T) {
	names := Names()
	if len(names) != 18 {
		t.Fatalf("suite has %d benchmarks, paper uses 18", len(names))
	}
	if got := len(Table1Benchmarks()); got != 18 {
		t.Fatalf("Table 1 lists %d benchmarks", got)
	}
	for _, n := range Table1Benchmarks() {
		if _, err := Get(n); err != nil {
			t.Errorf("Table 1 benchmark %s missing: %v", n, err)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	_, err := Get("nonesuch")
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The error lists the known names, so a typo is fixable from it alone.
	if !strings.Contains(err.Error(), "mcf") {
		t.Fatalf("error %q names no known benchmark", err)
	}
}

func TestMixesMatchTable3(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 9 {
		t.Fatalf("%d mixes, want 9", len(mixes))
	}
	counts := map[Category]int{}
	for _, m := range mixes {
		counts[m.Category]++
		th, err := m.Threads()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		seen := map[string]bool{}
		for _, b := range th {
			if seen[b.Name] {
				t.Errorf("%s: duplicate thread %s", m.Name, b.Name)
			}
			seen[b.Name] = true
		}
		// Category composition: CPU mixes are all CPU-intensive, MEM
		// all memory-intensive, MIX half and half (Table 3).
		cpu := 0
		for _, b := range th {
			if b.Class == CPUIntensive {
				cpu++
			}
		}
		switch m.Category {
		case CatCPU:
			if cpu != 4 {
				t.Errorf("%s: %d CPU threads, want 4", m.Name, cpu)
			}
		case CatMEM:
			if cpu != 0 {
				t.Errorf("%s: %d CPU threads, want 0", m.Name, cpu)
			}
		case CatMIX:
			if cpu != 2 {
				t.Errorf("%s: %d CPU threads, want 2", m.Name, cpu)
			}
		}
	}
	for _, c := range Categories() {
		if counts[c] != 3 {
			t.Errorf("category %v has %d mixes, want 3", c, counts[c])
		}
		if len(MixesIn(c)) != 3 {
			t.Errorf("MixesIn(%v) = %d", c, len(MixesIn(c)))
		}
	}
}

func TestSpecificTable3Rows(t *testing.T) {
	mixes := Mixes()
	if mixes[0].Benchmarks != [4]string{"bzip2", "eon", "gcc", "perlbmk"} {
		t.Errorf("CPU group A = %v", mixes[0].Benchmarks)
	}
	if mixes[6].Benchmarks != [4]string{"mcf", "equake", "vpr", "swim"} {
		t.Errorf("MEM group A = %v", mixes[6].Benchmarks)
	}
}

// TestClassBehaviourSeparation verifies the taxonomy is real: CPU-class
// programs must produce far fewer long-latency misses than MEM-class ones.
// A cheap proxy: the fraction of load addresses that leave a 64KB footprint.
func TestClassBehaviourSeparation(t *testing.T) {
	bigFootprint := func(name string) float64 {
		b := MustGet(name)
		prog, _ := b.Generate()
		exec := trace.NewExecutor(prog, b.Params.Seed, 0)
		var d trace.DynInst
		pages := map[uint64]bool{}
		loads := 0
		for i := 0; i < 60000; i++ {
			exec.Next(&d)
			if d.Static.Kind == isa.Load {
				loads++
				pages[d.Addr>>12] = true
			}
		}
		return float64(len(pages)) * 4096
	}
	cpu := bigFootprint("bzip2")
	mem := bigFootprint("mcf")
	if mem < 4*cpu {
		t.Fatalf("mcf footprint %.0fKB not clearly larger than bzip2's %.0fKB", mem/1024, cpu/1024)
	}
}

func TestClassString(t *testing.T) {
	if CPUIntensive.String() != "cpu" || MEMIntensive.String() != "mem" {
		t.Fatal("class names")
	}
	if CatCPU.String() != "CPU" || CatMIX.String() != "MIX" || CatMEM.String() != "MEM" {
		t.Fatal("category names")
	}
}
