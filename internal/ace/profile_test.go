package ace

import (
	"reflect"
	"testing"

	"visasim/internal/trace"
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
	instances, aceInstances := PCCounts(prog, b.Params.Seed, 0, p)
	for i := range instances {
		if p.Tag.Get(uint64(i)) != (aceInstances[i] > 0) {
			t.Fatalf("tag[%d]=%v but ACE instances=%d", i, p.Tag.Get(uint64(i)), aceInstances[i])
		}
		if aceInstances[i] > instances[i] {
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
	_, aceInstances := PCCounts(prog, b.Params.Seed, 0, p)
	for i := range aceInstances {
		if !p.Tag.Get(uint64(i)) && aceInstances[i] > 0 {
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
	instances, aceInstances := PCCounts(prog, b.Params.Seed, 0, p)
	var mismatch, total uint64
	for i := range instances {
		total += uint64(instances[i])
		if p.Tag.Get(uint64(i)) {
			mismatch += uint64(instances[i] - aceInstances[i])
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

// TestProfileSize keeps a cached profile lean: every process keeps tens of
// profiles live, so a profile holds its two bit vectors (one bit per
// profiled instruction, one per static instruction) and scalar totals, and
// no per-PC slice. The length is a figs cell's profile length (200k
// committed plus the quarter warmup plus the in-flight slack).
func TestProfileSize(t *testing.T) {
	const n = 254_096
	b := workload.MustGet("gcc")
	prog, err := b.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(prog, b.Params.Seed, 0, n, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	bitSet := reflect.TypeOf((*trace.BitSet)(nil))
	var words int
	v := reflect.ValueOf(p).Elem()
	for i := range v.NumField() {
		f := v.Type().Field(i)
		switch {
		case f.Type == bitSet:
			words += len(v.Field(i).Interface().(*trace.BitSet).Words())
		case f.Type.Kind() != reflect.Uint64:
			t.Errorf("Profile.%s is a %v: want bit sets and uint64 totals only", f.Name, f.Type)
		}
	}
	if want := (n+63)/64 + (prog.Len()+63)/64; words != want {
		t.Errorf("profile of %d instructions over %d PCs holds %d words, want %d", n, prog.Len(), words, want)
	}
}

func TestRunRejectsZeroLength(t *testing.T) {
	b := workload.MustGet("gcc")
	prog, _ := b.Generate()
	if _, err := Run(prog, 1, 0, 0, 0); err == nil {
		t.Fatal("zero-length profile accepted")
	}
}

// TestRunRejectsOverlongProfile checks the bound that keeps Run's per-PC
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

// TestProfilePrefixProperty checks what lets core keep one ACE bit vector
// per benchmark and window: Run analyzes a full window past the profiled
// prefix, so a shorter profile's bits are the first bits of every longer
// one. Lengths around a word boundary and around the window are compared
// with a profile one instruction longer than the longest of them and with
// a much longer one.
func TestProfilePrefixProperty(t *testing.T) {
	const window, l, long = 1000, 30_000, 200_000
	for _, name := range []string{"gcc", "mcf", "swim", "eon"} {
		b := workload.MustGet(name)
		prog, err := b.Generate()
		if err != nil {
			t.Fatal(err)
		}
		run := func(n uint64) *Profile {
			p, err := Run(prog, b.Params.Seed, 0, n, window)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		refs := []*Profile{run(l + 1), run(long)}
		for _, n := range []uint64{1, 63, 64, 65, window - 1, window, window + 1, l} {
			p := run(n)
			if p.DynInstrs != n {
				t.Fatalf("%s at %d: %d instructions classified", name, n, p.DynInstrs)
			}
			for _, ref := range refs {
				for i := range n {
					if p.Bits.Get(i) != ref.Bits.Get(i) {
						t.Fatalf("%s: ACE bit %d at length %d differs from length %d", name, i, n, ref.Bits.Len())
					}
				}
				if got := ref.Bits.Count(n); got != p.DynACE {
					t.Fatalf("%s: %d ACE in the first %d of length %d, %d at length %d", name, got, n, ref.Bits.Len(), p.DynACE, n)
				}
			}
		}
	}
}
