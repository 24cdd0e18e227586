package ace

import (
	"testing"

	"visasim/internal/workload"
)

func TestProfileDeterministic(t *testing.T) {
	b := workload.MustGet("gcc")
	prog, err := b.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Run(prog, b.Params.Seed, 0, 30_000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Run(prog, b.Params.Seed, 0, 30_000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if p1.DynACE != p2.DynACE || p1.DynInstrs != p2.DynInstrs {
		t.Fatal("profiles differ across runs")
	}
	for i := uint64(0); i < p1.Bits.Len(); i++ {
		if p1.Bits.Get(i) != p2.Bits.Get(i) {
			t.Fatalf("bit %d differs", i)
		}
	}
}

func TestProfileThreadInvariant(t *testing.T) {
	// The address-space tag must not change ACE classification.
	b := workload.MustGet("bzip2")
	prog, _ := b.Generate()
	p0, err := Run(prog, b.Params.Seed, 0, 20_000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := Run(prog, b.Params.Seed, 3, 20_000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < p0.Bits.Len(); i++ {
		if p0.Bits.Get(i) != p3.Bits.Get(i) {
			t.Fatalf("ACE bit %d depends on thread tag", i)
		}
	}
}

func TestProfileTagIsAnyInstance(t *testing.T) {
	b := workload.MustGet("mesa")
	prog, _ := b.Generate()
	p, err := Run(prog, b.Params.Seed, 0, 50_000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Tag {
		if p.Tag[i] != (p.ACEInstances[i] > 0) {
			t.Fatalf("tag[%d]=%v but ACE instances=%d", i, p.Tag[i], p.ACEInstances[i])
		}
		if p.ACEInstances[i] > p.Instances[i] {
			t.Fatalf("instr %d: more ACE instances than instances", i)
		}
	}
}

func TestProfileNoFalseNegatives(t *testing.T) {
	// The paper's claim: PC tagging never mispredicts an ACE instance.
	b := workload.MustGet("twolf")
	prog, _ := b.Generate()
	p, err := Run(prog, b.Params.Seed, 0, 50_000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Tag {
		if !p.Tag[i] && p.ACEInstances[i] > 0 {
			t.Fatalf("instr %d has ACE instances but un-ACE tag", i)
		}
	}
}

func TestProfileAccuracyMatchesDefinition(t *testing.T) {
	b := workload.MustGet("vpr")
	prog, _ := b.Generate()
	p, err := Run(prog, b.Params.Seed, 0, 40_000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	var mismatch, total uint64
	for i := range p.Tag {
		total += uint64(p.Instances[i])
		if p.Tag[i] {
			mismatch += uint64(p.Instances[i] - p.ACEInstances[i])
		}
	}
	want := 1 - float64(mismatch)/float64(total)
	if got := p.Accuracy(); got != want {
		t.Fatalf("Accuracy() = %v, recomputed %v", got, want)
	}
	if total != p.DynInstrs {
		t.Fatalf("instance total %d != DynInstrs %d", total, p.DynInstrs)
	}
}

func TestRunRejectsZeroLength(t *testing.T) {
	b := workload.MustGet("gcc")
	prog, _ := b.Generate()
	if _, err := Run(prog, 1, 0, 0, 0); err == nil {
		t.Fatal("zero-length profile accepted")
	}
}

// TestRunRejectsOverlongProfile checks the bound that keeps the per-PC
// instance counters within 32 bits; Run refuses before allocating.
func TestRunRejectsOverlongProfile(t *testing.T) {
	b := workload.MustGet("gcc")
	prog, _ := b.Generate()
	if _, err := Run(prog, 1, 0, maxProfileInstrs, 0); err == nil {
		t.Fatal("profile of 2^32 instructions accepted")
	}
}

// TestSuiteShapes asserts the paper-level aggregates across the full
// benchmark suite: average tagging accuracy near the paper's 93% and a
// plausible ACE fraction.
func TestSuiteShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var accSum, aceSum float64
	n := 0
	for _, name := range workload.Table1Benchmarks() {
		b := workload.MustGet(name)
		prog, err := b.Generate()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Run(prog, b.Params.Seed, 0, 150_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		acc := p.Accuracy()
		if acc < 0.55 || acc > 1 {
			t.Errorf("%s: accuracy %.3f out of plausible range", name, acc)
		}
		accSum += acc
		aceSum += p.ACEFraction()
		n++
	}
	avgAcc := accSum / float64(n)
	avgACE := aceSum / float64(n)
	t.Logf("suite: avg accuracy %.3f, avg ACE fraction %.3f", avgAcc, avgACE)
	if avgAcc < 0.85 || avgAcc > 0.99 {
		t.Errorf("average accuracy %.3f, paper reports ~0.93", avgAcc)
	}
	if avgACE < 0.30 || avgACE > 0.75 {
		t.Errorf("average ACE fraction %.3f out of plausible range", avgACE)
	}
}
