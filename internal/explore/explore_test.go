package explore

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/iqorg"
	"visasim/internal/pipeline"
	"visasim/internal/twin"
)

func testModel(t *testing.T) *twin.Model {
	t.Helper()
	m, err := twin.Default()
	if err != nil {
		t.Fatalf("loading embedded model: %v", err)
	}
	return m
}

// tinySpace is small enough to enumerate by hand in tests (a few hundred
// points) while still exercising every axis, including the DVM expansion.
func tinySpace() Space {
	return Space{
		Mixes:    []int{0, 4, 8},
		Threads:  []int{2, 4},
		Schemes:  []core.Scheme{core.SchemeBase, core.SchemeVISA, core.SchemeDVM},
		DVMFracs: []float64{0.3, 0.6},
		Policies: []pipeline.FetchPolicyKind{pipeline.PolicyICOUNT, pipeline.PolicyFLUSH},
		IQSizes:  []int{48, 96},
		FUs:      [][5]int{{8, 4, 4, 8, 4}, {4, 2, 2, 4, 2}},
	}
}

func TestCompileSizeAndDecodeBijection(t *testing.T) {
	m := testModel(t)
	e, err := tinySpace().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// 3 mixes × 2 threads × (2 + 2 DVM fracs) × 2 policies × 2 IQ × 2 FU.
	want := int64(3 * 2 * 4 * 2 * 2 * 2)
	if e.Size() != want {
		t.Fatalf("size %d, want %d", e.Size(), want)
	}
	seen := map[twin.Input]bool{}
	var in twin.Input
	for i := int64(0); i < e.Size(); i++ {
		e.Decode(i, &in)
		if err := m.Valid(&in); err != nil {
			t.Fatalf("index %d decodes to invalid input: %v", i, err)
		}
		if seen[in] {
			t.Fatalf("index %d decodes to a duplicate input %+v", i, in)
		}
		seen[in] = true
	}
}

func TestCompileRejectsBadAxes(t *testing.T) {
	m := testModel(t)
	cases := map[string]func(*Space){
		"no-mixes":     func(s *Space) { s.Mixes = nil },
		"bad-mix":      func(s *Space) { s.Mixes = []int{99} },
		"bad-threads":  func(s *Space) { s.Threads = []int{9} },
		"dvm-static":   func(s *Space) { s.Schemes = []core.Scheme{core.SchemeDVMStatic} },
		"dvm-no-fracs": func(s *Space) { s.DVMFracs = nil },
		"bad-frac":     func(s *Space) { s.DVMFracs = []float64{1.5} },
		"tiny-iq":      func(s *Space) { s.IQSizes = []int{2} },
		"fu-no-loadstore": func(s *Space) {
			s.FUs = [][5]int{{8, 4, 0, 8, 4}}
		},
	}
	for name, mod := range cases {
		s := tinySpace()
		mod(&s)
		if _, err := s.Compile(m); err == nil {
			t.Errorf("%s: compile accepted an invalid space", name)
		}
	}
}

// bruteFront recomputes the frontier definition directly from all points:
// keep p unless some q strictly dominates it or ties it with a lower index.
func bruteFront(pts []Point) []Point {
	var out []Point
	for i := range pts {
		kept := true
		for j := range pts {
			if i != j && beats(&pts[j], &pts[i]) {
				kept = false
				break
			}
		}
		if kept {
			out = append(out, pts[i])
		}
	}
	return out
}

func TestScreenMatchesBruteForce(t *testing.T) {
	m := testModel(t)
	e, err := tinySpace().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Screen(m, e, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Screened != e.Size() {
		t.Fatalf("screened %d of %d", res.Screened, e.Size())
	}

	all := make([]Point, e.Size())
	for i := int64(0); i < e.Size(); i++ {
		all[i].Index = i
		e.Decode(i, &all[i].In)
		m.Evaluate(&all[i].In, &all[i].Pred)
	}
	want := bruteFront(all)
	if !reflect.DeepEqual(res.Frontier, want) {
		t.Fatalf("frontier (%d points) differs from brute force (%d points)",
			len(res.Frontier), len(want))
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
}

// TestScreenWorkerInvariance pins the property CI's byte-parity check
// relies on: the frontier is identical for every worker count, exhaustive
// or sampled.
func TestScreenWorkerInvariance(t *testing.T) {
	m := testModel(t)
	e, err := tinySpace().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{},
		{Samples: 117, Seed: 42},
	} {
		opt.Workers = 1
		ref, err := Screen(m, e, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			opt.Workers = workers
			res, err := Screen(m, e, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Frontier, ref.Frontier) {
				t.Fatalf("samples=%d: frontier with %d workers differs from 1 worker",
					opt.Samples, workers)
			}
		}
	}
}

func TestScreenSampledDeterminismAndSeedSensitivity(t *testing.T) {
	m := testModel(t)
	e, err := tinySpace().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Screen(m, e, Options{Samples: 60, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Screen(m, e, Options{Samples: 60, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Frontier, b.Frontier) {
		t.Fatal("same seed produced different frontiers")
	}
	c, err := Screen(m, e, Options{Samples: 60, Seed: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Frontier, c.Frontier) {
		t.Fatal("different seeds produced identical sampled frontiers (sampler ignores the seed?)")
	}
}

func TestFrontierPointsAreMutuallyNonDominated(t *testing.T) {
	m := testModel(t)
	e, err := DefaultSpace().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Screen(m, e, Options{Samples: 20_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Frontier
	for i := range f {
		for j := range f {
			if i != j && beats(&f[i], &f[j]) {
				t.Fatalf("frontier point %d dominates frontier point %d", f[i].Index, f[j].Index)
			}
		}
	}
}

func TestSelectSpreadsAndBounds(t *testing.T) {
	m := testModel(t)
	e, err := tinySpace().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Screen(m, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) < 3 {
		t.Skipf("frontier too small (%d) to exercise selection", len(res.Frontier))
	}
	sel := Select(res.Frontier, 3)
	if len(sel) > 3 {
		t.Fatalf("Select returned %d > 3 points", len(sel))
	}
	// Endpoints of the area range must be present.
	minA, maxA := res.Frontier[0].Pred.Area, res.Frontier[0].Pred.Area
	for _, p := range res.Frontier {
		if p.Pred.Area < minA {
			minA = p.Pred.Area
		}
		if p.Pred.Area > maxA {
			maxA = p.Pred.Area
		}
	}
	if sel[0].Pred.Area != minA || sel[len(sel)-1].Pred.Area != maxA {
		t.Fatalf("selection does not span the area range: got [%v, %v], frontier [%v, %v]",
			sel[0].Pred.Area, sel[len(sel)-1].Pred.Area, minA, maxA)
	}
	one := Select(res.Frontier, 1)
	if len(one) != 1 {
		t.Fatalf("Select(1) returned %d points", len(one))
	}
}

// TestVerifyThroughRunnerSeam checks the frontier verifies through the
// same Runner seam the experiment harness uses, and that the twin's
// predictions for verified points track the live simulator.
func TestVerifyThroughRunnerSeam(t *testing.T) {
	if testing.Short() {
		t.Skip("live simulator verification skipped in -short mode")
	}
	m := testModel(t)
	e, err := tinySpace().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Screen(m, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sel := Select(res.Frontier, 4)

	var runnerCalls int
	runner := func(cells []harness.Cell, opt harness.Options) (harness.Results, error) {
		runnerCalls++
		return harness.Run(cells, opt)
	}
	verified, err := Verify(m, sel, runner, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runnerCalls != 1 {
		t.Fatalf("runner called %d times, want 1", runnerCalls)
	}
	if len(verified) != len(sel) {
		t.Fatalf("verified %d of %d points", len(verified), len(sel))
	}
	for _, v := range verified {
		if v.Obs.IPC <= 0 {
			t.Errorf("point %d: simulator reported non-positive IPC %v", v.Index, v.Obs.IPC)
		}
		if rel := (v.Pred.IPC - v.Obs.IPC) / v.Obs.IPC; rel > 0.5 || rel < -0.5 {
			t.Errorf("point %d: twin IPC %.3f vs simulator %.3f (%.0f%% off)",
				v.Index, v.Pred.IPC, v.Obs.IPC, 100*rel)
		}
	}

	var buf bytes.Buffer
	if err := WriteFrontier(&buf, sel, verified); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"POINT", "SCHEME", "AREA", "IPC*", "ERR(IPC)"} {
		if !strings.Contains(out, col) {
			t.Errorf("frontier table missing column %s:\n%s", col, out)
		}
	}
}

func TestWriteFrontierWithoutVerification(t *testing.T) {
	m := testModel(t)
	e, err := tinySpace().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Screen(m, e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrontier(&buf, Select(res.Frontier, 5), nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "ERR(IPC)") {
		t.Fatal("unverified table should not contain simulator columns")
	}
	if !strings.Contains(Summary(res), "frontier") {
		t.Fatalf("summary missing frontier count: %s", Summary(res))
	}
}

// TestCompileIQAxes covers the organization/protection axes: empty axes
// compile to the default singleton without changing the space's size or
// bijection, populated axes multiply the size, and every decoded point
// carries a protection-priced area.
func TestCompileIQAxes(t *testing.T) {
	m := testModel(t)
	plain, err := tinySpace().Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	var in twin.Input
	plain.Decode(0, &in)
	if in.Org != iqorg.UnifiedAGE || in.Prot != iqorg.None {
		t.Fatalf("empty axes decoded to %v/%v, want defaults", in.Org, in.Prot)
	}

	s := tinySpace()
	s.Orgs = iqorg.Kinds()
	s.Prots = []iqorg.Protection{iqorg.None, iqorg.ECC}
	e, err := s.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if want := plain.Size() * int64(len(s.Orgs)) * 2; e.Size() != want {
		t.Fatalf("size %d, want %d", e.Size(), want)
	}
	seen := map[[2]int]bool{}
	sawECCPrice := false
	var p twin.Prediction
	for i := int64(0); i < e.Size(); i++ {
		e.Decode(i, &in)
		if err := m.Valid(&in); err != nil {
			t.Fatalf("index %d decodes to invalid input: %v", i, err)
		}
		seen[[2]int{int(in.Org), int(in.Prot)}] = true
		if in.Prot == iqorg.ECC {
			m.Evaluate(&in, &p)
			base := twin.AreaProxy(in.IQSize, in.Threads, &in.FU)
			if p.Area != base+iqorg.ECC.AreaCost(in.IQSize) {
				t.Fatalf("index %d: ECC area %v not priced over proxy %v", i, p.Area, base)
			}
			sawECCPrice = true
		}
	}
	if len(seen) != len(s.Orgs)*2 {
		t.Fatalf("decoded %d org/prot pairs, want %d", len(seen), len(s.Orgs)*2)
	}
	if !sawECCPrice {
		t.Fatal("no ECC point was decoded")
	}
}

// BenchmarkTwinScreen measures the analytical twin's screening throughput
// (configs/sec): the rate Screen evaluates design points at. One op = one
// Decode+Evaluate over the default design space, single goroutine.
func BenchmarkTwinScreen(b *testing.B) {
	model, err := twin.Default()
	if err != nil {
		b.Fatal(err)
	}
	enum, err := DefaultSpace().Compile(model)
	if err != nil {
		b.Fatal(err)
	}
	var in twin.Input
	var pred twin.Prediction
	size := enum.Size()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enum.Decode(int64(i)%size, &in)
		model.Evaluate(&in, &pred)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "configs/sec")
}
