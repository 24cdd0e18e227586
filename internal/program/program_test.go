package program

import (
	"testing"
	"testing/quick"

	"visasim/internal/isa"
)

// testParams returns a small valid parameter set.
func testParams(seed uint64) Params {
	return Params{
		Name:          "test",
		Seed:          seed,
		StaticInstrs:  800,
		Phases:        2,
		LoopsPerPhase: 2,
		LoopNestProb:  0.4,
		TripMean:      12,
		BlockLen:      6,
		IfProb:        0.4,
		IfBiasMean:    0.85,
		IfBiasSpread:  0.1,
		Routines:      2,
		CallProb:      0.5,
		Mix:           KindMix{IntALU: 0.5, Load: 0.25, Store: 0.12, Nop: 0.05, IntMul: 0.03},
		DepMean:       5,
		IndepFrac:     0.2,
		DeadFrac:      0.15,
		AccumFrac:     0.05,
		Mem: MemParams{
			LoadBufBytes: 512,
			OutBufBytes:  1 << 20,
			CommBufBytes: 512,
			TempFrac:     0.2,
			CommFrac:     0.3,
			StrideBytes:  8,
			RandomFrac:   0.05,
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(testParams(1))
	b := MustGenerate(testParams(1))
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	if len(a.Streams) != len(b.Streams) || len(a.Branches) != len(b.Branches) {
		t.Fatal("metadata differs")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(testParams(1))
	b := MustGenerate(testParams(2))
	same := 0
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if a.Instrs[i] == b.Instrs[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestGenerateValidates(t *testing.T) {
	p := MustGenerate(testParams(3))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Len() < testParams(3).StaticInstrs/2 {
		t.Fatalf("program too small: %d", p.Len())
	}
}

func TestParamErrors(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.StaticInstrs = 10 },
		func(p *Params) { p.Phases = 0 },
		func(p *Params) { p.TripMean = 0.5 },
		func(p *Params) { p.Mix = KindMix{} },
		func(p *Params) { p.DepMean = 0 },
		func(p *Params) { p.Mem.LoadBufBytes = 8 },
		func(p *Params) { p.Mem.StrideBytes = 0 },
		func(p *Params) { p.Mem.TempFrac = 0.8; p.Mem.CommFrac = 0.8 },
	}
	for i, mut := range mutations {
		p := testParams(1)
		p.Mix = KindMix{IntALU: 1, Load: 0.3, Store: 0.1}
		mut(&p)
		if _, err := Generate(p); err == nil {
			t.Errorf("mutation %d generated but should error", i)
		}
	}
}

func TestScratchNeverSourced(t *testing.T) {
	p := testParams(4)
	p.Mix = KindMix{IntALU: 0.5, Load: 0.25, Store: 0.12, Nop: 0.05}
	prog := MustGenerate(p)
	for i, in := range prog.Instrs {
		for _, r := range [2]isa.Reg{in.Src1, in.Src2} {
			if r >= scratchBase && r < scratchBase+scratchCount {
				t.Fatalf("instr %d sources scratch register %v", i, r)
			}
		}
	}
}

func TestControlTargetsInImage(t *testing.T) {
	p := testParams(5)
	p.Mix = KindMix{IntALU: 0.5, Load: 0.25, Store: 0.12, Nop: 0.05}
	prog := MustGenerate(p)
	end := CodeBase + uint64(prog.Len())*isa.InstBytes
	branches, loops := 0, 0
	for _, in := range prog.Instrs {
		if !in.Kind.IsControl() || in.Kind == isa.Return {
			continue
		}
		if in.Target < CodeBase || in.Target >= end {
			t.Fatalf("target %#x outside image", in.Target)
		}
		if in.Kind == isa.Branch {
			branches++
			if prog.Branch(&in).Class == BranchLoop {
				loops++
				if in.Target >= in.PC {
					t.Fatalf("loop back-edge at %#x targets forward %#x", in.PC, in.Target)
				}
			} else if in.Target <= in.PC {
				t.Fatalf("if-branch at %#x targets backward %#x", in.PC, in.Target)
			}
		}
	}
	if branches == 0 || loops == 0 {
		t.Fatalf("no branches (%d) or loops (%d) generated", branches, loops)
	}
}

func TestIndexOfRoundTrip(t *testing.T) {
	p := testParams(6)
	p.Mix = KindMix{IntALU: 1}
	prog := MustGenerate(p)
	for i := 0; i < prog.Len(); i += 17 {
		if got := prog.IndexOf(prog.PCOf(i)); got != i {
			t.Fatalf("IndexOf(PCOf(%d)) = %d", i, got)
		}
	}
	// Wrapping: out-of-image PCs stay in range.
	for _, pc := range []uint64{0, CodeBase - 4, CodeBase + uint64(prog.Len())*4, 1 << 60} {
		idx := prog.IndexOf(pc)
		if idx < 0 || idx >= prog.Len() {
			t.Fatalf("IndexOf(%#x) = %d out of range", pc, idx)
		}
	}
	// The in-image fast path agrees with plain modular wrapping on and
	// around both image edges, misaligned PCs included.
	n := uint64(prog.Len())
	wrap := func(pc uint64) int {
		if pc < CodeBase {
			return int((n - 1) - (CodeBase-pc)/isa.InstBytes%n)
		}
		return int((pc - CodeBase) / isa.InstBytes % n)
	}
	end := CodeBase + n*isa.InstBytes
	for _, base := range []uint64{CodeBase, end} {
		for pc := base - 3*isa.InstBytes; pc < base+3*isa.InstBytes; pc++ {
			if got, want := prog.IndexOf(pc), wrap(pc); got != want {
				t.Fatalf("IndexOf(%#x) = %d, wrapping gives %d", pc, got, want)
			}
		}
	}
}

func TestStreamsDisjointBuffers(t *testing.T) {
	p := testParams(7)
	p.Mix = KindMix{IntALU: 0.5, Load: 0.3, Store: 0.15}
	prog := MustGenerate(p)
	if len(prog.Streams) == 0 {
		t.Fatal("no streams generated")
	}
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for _, s := range prog.Streams {
		ivs = append(ivs, iv{s.Base, s.Base + s.Mask})
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			a, b := ivs[i], ivs[j]
			if a.lo == b.lo && a.hi == b.hi {
				continue // the shared temp stream id is reused, not duplicated
			}
			if a.lo <= b.hi && b.lo <= a.hi {
				t.Fatalf("streams %d and %d overlap: [%#x,%#x] vs [%#x,%#x]",
					i, j, a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

func TestMemPatternsAssigned(t *testing.T) {
	p := testParams(8)
	p.Mix = KindMix{IntALU: 0.5, Load: 0.3, Store: 0.15}
	prog := MustGenerate(p)
	loads, stores := 0, 0
	for _, in := range prog.Instrs {
		switch in.Kind {
		case isa.Load:
			loads++
			if in.MemPattern == 0 {
				t.Fatal("load without stream")
			}
		case isa.Store:
			stores++
			if in.MemPattern == 0 {
				t.Fatal("store without stream")
			}
		}
	}
	if loads == 0 || stores == 0 {
		t.Fatalf("loads=%d stores=%d", loads, stores)
	}
}

// Property: any parameter point in a reasonable envelope generates a
// program that passes Validate.
func TestQuickGenerateAlwaysValid(t *testing.T) {
	f := func(seed uint64, trip, block, dead uint8) bool {
		p := testParams(seed)
		p.Mix = KindMix{IntALU: 0.5, Load: 0.25, Store: 0.12, Nop: 0.05}
		p.TripMean = 2 + float64(trip%60)
		p.BlockLen = 2 + int(block%16)
		p.DeadFrac = float64(dead%50) / 100
		prog, err := Generate(p)
		if err != nil {
			return false
		}
		return prog.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
