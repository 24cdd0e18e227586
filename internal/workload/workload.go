// Package workload defines the benchmark suite and SMT workload mixes used
// by the paper's evaluation.
//
// The paper runs SPEC CPU2000 binaries; this reproduction substitutes
// synthetic programs (package program) whose generator parameters are tuned
// per named benchmark so that the performance-relevant characteristics —
// compute- vs memory-intensity, ILP, branch behaviour, code footprint and
// dead-code fraction — land the benchmark in the same taxonomy the paper
// uses (Table 3): CPU-intensive, memory-intensive, or mixed.
package workload

import (
	"fmt"
	"sort"

	"visasim/internal/program"
	"visasim/internal/rng"
)

// Class is a benchmark's resource-behaviour class.
type Class uint8

// Benchmark classes.
const (
	CPUIntensive Class = iota
	MEMIntensive
)

func (c Class) String() string {
	if c == CPUIntensive {
		return "cpu"
	}
	return "mem"
}

// Benchmark is one named single-threaded workload.
type Benchmark struct {
	Name   string
	Class  Class
	Params program.Params
}

// Generate builds the benchmark's program image.
func (b Benchmark) Generate() (*program.Program, error) {
	return program.Generate(b.Params)
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// intMix returns a kind mix for an integer benchmark.
func intMix(load, store, nop float64) program.KindMix {
	return program.KindMix{
		IntALU: 1 - load - store - nop - 0.04,
		IntMul: 0.03,
		IntDiv: 0.01,
		Load:   load,
		Store:  store,
		Nop:    nop,
	}
}

// fpMix returns a kind mix for a floating-point benchmark.
func fpMix(load, store, nop, fp float64) program.KindMix {
	alu := 1 - load - store - nop - fp
	return program.KindMix{
		IntALU: alu,
		Load:   load,
		Store:  store,
		FPALU:  fp * 0.6,
		FPMul:  fp * 0.3,
		FPDiv:  fp * 0.1,
		Nop:    nop,
	}
}

// base returns generator defaults shared by all profiles; per-benchmark
// definitions override the distinguishing knobs.
func base(name string) program.Params {
	return program.Params{
		Name:         name,
		Seed:         rng.HashString(name),
		StaticInstrs: 3000,
		Phases:       4,

		LoopsPerPhase: 3,
		LoopNestProb:  0.4,
		TripMean:      24,
		BlockLen:      8,
		IfProb:        0.45,
		IfBiasMean:    0.90,
		IfBiasSpread:  0.08,
		Routines:      3,
		CallProb:      0.5,

		DepMean:   6,
		IndepFrac: 0.24,
		DeadFrac:  0.18,
		AccumFrac: 0.06,

		Mem: program.MemParams{
			LoadBufBytes: 512,
			OutBufBytes:  1 * mb,
			CommBufBytes: 512,
			TempFrac:     0.2,
			CommFrac:     0.35,
			StrideBytes:  8,
			RandomFrac:   0.05,
		},
	}
}

// benchmarks is the SPEC CPU2000 subset named by the paper (Tables 1 and 3).
var benchmarks = buildBenchmarks()

func buildBenchmarks() map[string]Benchmark {
	m := map[string]Benchmark{}
	add := func(name string, class Class, tune func(*program.Params)) {
		p := base(name)
		tune(&p)
		m[name] = Benchmark{Name: name, Class: class, Params: p}
	}

	// --- CPU-intensive integer programs -------------------------------
	// Each static load walks its own 1-2 KB buffer, so a thread's load
	// footprint is 0.4-1.6 MB and a four-thread CPU mix's 2.2-3.5 MB
	// exceeds both the shared 64 KB L1D and the 2 MB L2: at 200k
	// instructions their L1D miss rate is ~5% and about half of their L2
	// accesses miss. Low access randomness still keeps them
	// compute-bound, as their SPEC namesakes are at their SimPoints: at
	// 1M instructions CPU-A commits ~5 instructions per cycle, MEM-A ~0.6.
	add("bzip2", CPUIntensive, func(p *program.Params) {
		p.Mix = intMix(0.24, 0.10, 0.06)
		p.DepMean, p.TripMean = 8, 40
		p.DeadFrac, p.AccumFrac = 0.18, 0.10
		p.Mem = program.MemParams{LoadBufBytes: 1 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.25, CommFrac: 0.35, StrideBytes: 8, RandomFrac: 0.02}
	})
	add("eon", CPUIntensive, func(p *program.Params) {
		p.Mix = intMix(0.22, 0.12, 0.05)
		p.DepMean, p.TripMean = 9, 20
		p.DeadFrac, p.AccumFrac = 0.16, 0.09
		p.Routines, p.CallProb = 6, 0.8
		p.Mem = program.MemParams{LoadBufBytes: 1 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.20, CommFrac: 0.40, StrideBytes: 8, RandomFrac: 0.01}
	})
	add("gcc", CPUIntensive, func(p *program.Params) {
		p.Mix = intMix(0.25, 0.11, 0.07)
		p.StaticInstrs = 5000
		p.DepMean, p.TripMean = 7, 14
		p.IfBiasMean, p.IfBiasSpread = 0.85, 0.12
		p.DeadFrac, p.AccumFrac = 0.16, 0.04
		p.Mem = program.MemParams{LoadBufBytes: 2 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.30, CommFrac: 0.30, StrideBytes: 8, RandomFrac: 0.03}
	})
	add("perlbmk", CPUIntensive, func(p *program.Params) {
		p.Mix = intMix(0.26, 0.12, 0.05)
		p.DepMean, p.TripMean = 8, 18
		p.Routines, p.CallProb = 5, 0.7
		p.DeadFrac, p.AccumFrac = 0.12, 0.004
		p.Mem = program.MemParams{LoadBufBytes: 1 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.20, CommFrac: 0.40, StrideBytes: 8, RandomFrac: 0.02}
	})
	add("gap", CPUIntensive, func(p *program.Params) {
		p.Mix = intMix(0.24, 0.10, 0.06)
		p.DepMean, p.TripMean = 8, 30
		p.DeadFrac, p.AccumFrac = 0.12, 0.02
		p.Mem = program.MemParams{LoadBufBytes: 1 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.15, CommFrac: 0.40, StrideBytes: 8, RandomFrac: 0.02}
	})
	add("crafty", CPUIntensive, func(p *program.Params) {
		p.Mix = intMix(0.22, 0.08, 0.05)
		p.DepMean, p.TripMean = 9, 12
		p.IfBiasMean = 0.85
		p.DeadFrac, p.AccumFrac = 0.18, 0.06
		p.Mem = program.MemParams{LoadBufBytes: 1 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.25, CommFrac: 0.35, StrideBytes: 8, RandomFrac: 0.02}
	})
	add("facerec", CPUIntensive, func(p *program.Params) {
		p.Mix = fpMix(0.22, 0.08, 0.04, 0.30)
		p.DepMean, p.TripMean = 10, 50
		p.DeadFrac, p.AccumFrac = 0.12, 0.03
		p.Mem = program.MemParams{LoadBufBytes: 2 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.15, CommFrac: 0.40, StrideBytes: 8, RandomFrac: 0.02}
	})
	add("mesa", CPUIntensive, func(p *program.Params) {
		p.Mix = fpMix(0.20, 0.10, 0.05, 0.28)
		p.DepMean, p.TripMean = 9, 26
		// mesa has the paper's lowest PC-tagging accuracy (74.9%):
		// lots of per-instance ACE variation from accumulators and
		// dead writes.
		p.DeadFrac, p.AccumFrac = 0.22, 0.25
		p.Mem = program.MemParams{LoadBufBytes: 1 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.30, CommFrac: 0.30, StrideBytes: 8, RandomFrac: 0.03}
	})

	// --- memory-intensive programs -------------------------------------
	add("mcf", MEMIntensive, func(p *program.Params) {
		p.Mix = intMix(0.32, 0.09, 0.05)
		p.DepMean, p.TripMean = 4, 30
		p.IndepFrac = 0.18
		p.IfBiasMean, p.IfBiasSpread = 0.70, 0.20
		p.DeadFrac, p.AccumFrac = 0.12, 0.03
		p.Mem = program.MemParams{LoadBufBytes: 128 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.10, CommFrac: 0.30, StrideBytes: 32, RandomFrac: 0.20}
	})
	add("vpr", MEMIntensive, func(p *program.Params) {
		p.Mix = intMix(0.28, 0.10, 0.05)
		p.DepMean, p.TripMean = 4.5, 22
		p.IndepFrac = 0.20
		p.IfBiasMean = 0.72
		p.DeadFrac, p.AccumFrac = 0.20, 0.14
		p.Mem = program.MemParams{LoadBufBytes: 64 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.20, CommFrac: 0.30, StrideBytes: 16, RandomFrac: 0.10}
	})
	add("equake", MEMIntensive, func(p *program.Params) {
		p.Mix = fpMix(0.30, 0.10, 0.04, 0.26)
		p.DepMean, p.TripMean = 4.5, 60
		p.IndepFrac = 0.22
		p.DeadFrac, p.AccumFrac = 0.10, 0.02
		p.Mem = program.MemParams{LoadBufBytes: 64 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.10, CommFrac: 0.30, StrideBytes: 16, RandomFrac: 0.08}
	})
	add("swim", MEMIntensive, func(p *program.Params) {
		p.Mix = fpMix(0.30, 0.12, 0.03, 0.30)
		p.DepMean, p.TripMean = 5, 120
		p.IndepFrac = 0.25
		p.IfProb = 0.2
		p.DeadFrac, p.AccumFrac = 0.08, 0.01
		p.Mem = program.MemParams{LoadBufBytes: 128 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.08, CommFrac: 0.30, StrideBytes: 16, RandomFrac: 0.06}
	})
	add("lucas", MEMIntensive, func(p *program.Params) {
		p.Mix = fpMix(0.28, 0.10, 0.03, 0.32)
		p.DepMean, p.TripMean = 5, 90
		p.IndepFrac = 0.22
		p.IfProb = 0.25
		p.DeadFrac, p.AccumFrac = 0.08, 0.02
		p.Mem = program.MemParams{LoadBufBytes: 64 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.08, CommFrac: 0.30, StrideBytes: 16, RandomFrac: 0.08}
	})
	add("galgel", MEMIntensive, func(p *program.Params) {
		p.Mix = fpMix(0.27, 0.10, 0.04, 0.34)
		p.DepMean, p.TripMean = 5, 70
		p.IndepFrac = 0.22
		p.DeadFrac, p.AccumFrac = 0.10, 0.02
		p.Mem = program.MemParams{LoadBufBytes: 64 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.10, CommFrac: 0.30, StrideBytes: 16, RandomFrac: 0.08}
	})
	add("twolf", MEMIntensive, func(p *program.Params) {
		p.Mix = intMix(0.27, 0.10, 0.05)
		p.DepMean, p.TripMean = 4.5, 18
		p.IndepFrac = 0.20
		p.IfBiasMean = 0.74
		p.DeadFrac, p.AccumFrac = 0.16, 0.07
		p.Mem = program.MemParams{LoadBufBytes: 32 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.18, CommFrac: 0.30, StrideBytes: 16, RandomFrac: 0.10}
	})

	// --- Table 1-only FP programs (profiling accuracy study) -----------
	add("applu", CPUIntensive, func(p *program.Params) {
		p.Mix = fpMix(0.24, 0.10, 0.03, 0.34)
		p.DepMean, p.TripMean = 8, 100
		p.IfProb = 0.2
		p.DeadFrac, p.AccumFrac = 0.10, 0.001
		p.Mem = program.MemParams{LoadBufBytes: 2 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.10, CommFrac: 0.40, StrideBytes: 8, RandomFrac: 0.01}
	})
	add("mgrid", CPUIntensive, func(p *program.Params) {
		p.Mix = fpMix(0.26, 0.09, 0.03, 0.36)
		p.DepMean, p.TripMean = 9, 150
		p.IfProb = 0.15
		p.DeadFrac, p.AccumFrac = 0.08, 0.0005
		p.Mem = program.MemParams{LoadBufBytes: 2 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.08, CommFrac: 0.40, StrideBytes: 8, RandomFrac: 0.01}
	})
	add("wupwise", CPUIntensive, func(p *program.Params) {
		p.Mix = fpMix(0.24, 0.10, 0.03, 0.32)
		p.DepMean, p.TripMean = 8, 80
		p.IfProb = 0.25
		p.DeadFrac, p.AccumFrac = 0.10, 0.01
		p.Mem = program.MemParams{LoadBufBytes: 1 * kb, OutBufBytes: 1 * mb, CommBufBytes: 512, TempFrac: 0.10, CommFrac: 0.40, StrideBytes: 8, RandomFrac: 0.01}
	})

	return m
}

// Get returns the named benchmark.
func Get(name string) (Benchmark, error) {
	b, ok := benchmarks[name]
	if !ok {
		return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q (known: %v)", name, Names())
	}
	return b, nil
}

// MustGet is Get, panicking on unknown names (for static tables).
func MustGet(name string) Benchmark {
	b, err := Get(name)
	if err != nil {
		panic(err)
	}
	return b
}

// Names returns all benchmark names, sorted.
func Names() []string {
	names := make([]string, 0, len(benchmarks))
	for n := range benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Category classifies an SMT mix: all CPU-intensive threads, all
// memory-intensive, or half and half.
type Category uint8

// Mix categories (Table 3 row groups).
const (
	CatCPU Category = iota
	CatMIX
	CatMEM
)

func (c Category) String() string {
	switch c {
	case CatCPU:
		return "CPU"
	case CatMIX:
		return "MIX"
	default:
		return "MEM"
	}
}

// Categories lists the three mix categories in Table 3 order.
func Categories() []Category { return []Category{CatCPU, CatMIX, CatMEM} }

// Mix is one 4-context SMT workload (a Table 3 row).
type Mix struct {
	Name       string
	Category   Category
	Group      string // "A", "B" or "C"
	Benchmarks [4]string
}

// Threads resolves the mix's benchmarks.
func (m Mix) Threads() ([4]Benchmark, error) {
	var out [4]Benchmark
	for i, n := range m.Benchmarks {
		b, err := Get(n)
		if err != nil {
			return out, fmt.Errorf("mix %s: %w", m.Name, err)
		}
		out[i] = b
	}
	return out, nil
}

// Mixes returns the nine SMT workloads of Table 3.
func Mixes() []Mix {
	return []Mix{
		{"CPU-A", CatCPU, "A", [4]string{"bzip2", "eon", "gcc", "perlbmk"}},
		{"CPU-B", CatCPU, "B", [4]string{"gap", "facerec", "crafty", "mesa"}},
		{"CPU-C", CatCPU, "C", [4]string{"gcc", "perlbmk", "facerec", "crafty"}},
		{"MIX-A", CatMIX, "A", [4]string{"gcc", "mcf", "vpr", "perlbmk"}},
		{"MIX-B", CatMIX, "B", [4]string{"mcf", "mesa", "crafty", "equake"}},
		{"MIX-C", CatMIX, "C", [4]string{"vpr", "facerec", "swim", "gap"}},
		{"MEM-A", CatMEM, "A", [4]string{"mcf", "equake", "vpr", "swim"}},
		{"MEM-B", CatMEM, "B", [4]string{"lucas", "galgel", "mcf", "vpr"}},
		{"MEM-C", CatMEM, "C", [4]string{"equake", "swim", "twolf", "galgel"}},
	}
}

// MixesIn returns the Table 3 workloads in the given category.
func MixesIn(cat Category) []Mix {
	var out []Mix
	for _, m := range Mixes() {
		if m.Category == cat {
			out = append(out, m)
		}
	}
	return out
}

// Table1Benchmarks lists the benchmarks of the paper's Table 1 in its
// column order.
func Table1Benchmarks() []string {
	return []string{
		"applu", "bzip2", "crafty", "eon", "equake", "facerec",
		"galgel", "gap", "gcc", "lucas", "mcf", "mesa",
		"mgrid", "perlbmk", "swim", "twolf", "vpr", "wupwise",
	}
}
