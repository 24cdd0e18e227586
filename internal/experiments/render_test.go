package experiments

import (
	"strings"
	"testing"

	"visasim/internal/pipeline"
	"visasim/internal/stats"
)

// Rendering tests with synthetic data: the String() methods are part of the
// reproduction's deliverable (cmd/experiments output), so their structure is
// pinned here without running simulations.

func TestFig1Render(t *testing.T) {
	r := &Fig1Result{}
	for ci := 0; ci < 3; ci++ {
		r.AVF[ci] = [4]float64{0.43, 0.16, 0.11, 0.02}
	}
	s := r.String()
	for _, want := range []string{"Figure 1", "IQ", "ROB", "RF", "FU", "43.0%", "CPU", "MEM"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestFig2Render(t *testing.T) {
	h := stats.NewRQHistogram(96)
	for i := 0; i < 100; i++ {
		h.Observe(i%30, (i%30)/2)
	}
	r := &Fig2Result{Hist: h, MeanLen: h.MeanLen(), MeanACEPct: h.MeanACEPct(), MaxLen: h.MaxObserved()}
	s := r.String()
	for _, want := range []string{"Figure 2", "mean RQL", "ACE%"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestTable1Render(t *testing.T) {
	r := &Table1Result{
		Benchmarks:        []string{"bzip2", "mcf"},
		Accuracy:          []float64{0.9, 0.8},
		ACEFrac:           []float64{0.4, 0.5},
		Average:           0.85,
		SquashedInclusive: 0.8,
	}
	s := r.String()
	for _, want := range []string{"Table 1", "bzip2", "90.0%", "AVG", "85.0%", "squashed"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestFig5Render(t *testing.T) {
	r := &Fig5Result{}
	for si := 0; si < 3; si++ {
		for ci := 0; ci < 3; ci++ {
			r.NormAVF[si][ci] = 0.5
			r.NormIPC[si][ci] = 1.01
		}
	}
	s := r.String()
	for _, want := range []string{"Figure 5", "visa+opt2", "0.500", "1.010", "AVF reduction 50%"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	if got := r.AvgAVFReduction(2); got != 0.5 {
		t.Errorf("reduction %v", got)
	}
	if got := r.AvgIPCChange(2); got < 0.0099 || got > 0.0101 {
		t.Errorf("ipc change %v", got)
	}
}

func TestFig8Render(t *testing.T) {
	r := &Fig8Result{Policy: pipeline.PolicyICOUNT, Fracs: DVMFracs, MeanRatio: 1.2}
	for ci := 0; ci < 3; ci++ {
		r.PVEBase[ci] = []float64{0.7, 0.6, 0.5, 0.4, 0.3}
		r.PVEDVM[ci] = []float64{0, 0, 0.01, 0.02, 0.1}
		r.ThruDeg[ci] = []float64{1, 2, 3, 4, 5}
		r.HarmDeg[ci] = []float64{1, 2, 3, 4, 5}
	}
	s := r.String()
	for _, want := range []string{"Figure 8", "ICOUNT", "0.5*MaxAVF", "wq_ratio: 1.20"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	r.Policy = pipeline.PolicyFLUSH
	if !strings.Contains(r.String(), "Figure 9") {
		t.Error("FLUSH variant must render as Figure 9")
	}
}

func TestFig10Render(t *testing.T) {
	r := &Fig10Result{
		Fracs:   DVMFracs,
		Schemes: []string{"visa", "visa+opt1", "visa+opt2", "dvm-static", "dvm-dynamic"},
	}
	for si := range r.PVE {
		for ci := range r.PVE[si] {
			r.PVE[si][ci] = make([]float64, len(DVMFracs))
		}
	}
	s := r.String()
	for _, want := range []string{"Figure 10", "dvm-dynamic", "0.3*MaxAVF"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestAblationRenders(t *testing.T) {
	or := &OracleTagResult{Profiled: [3]float64{0.8, 0.7, 0.9}, Oracle: [3]float64{0.7, 0.6, 0.8}}
	if !strings.Contains(or.String(), "oracle") {
		t.Error("oracle render")
	}
	wr := &WindowResult{Windows: []int{2000}, Accuracy: []float64{0.9}, ACEFrac: []float64{0.4}}
	if !strings.Contains(wr.String(), "2000") {
		t.Error("window render")
	}
	for _, tc := range []struct {
		k      knob
		labels []string
	}{
		{tcacheKnob, []string{"2", "8", "16", "64", "∞ (opt1)"}},
		{iqSizeKnob, []string{"32", "64", "96", "128"}},
		{intervalKnob, []string{"1000", "5000", "10000", "50000"}},
		{widthKnob, []string{"4", "8", "16"}},
		{predictorKnob, []string{"gshare", "bimodal"}},
	} {
		s := tc.k.frame()
		for range s.Labels {
			s.Values = append(s.Values, make([]float64, len(s.metrics)))
		}
		out := s.String()
		lines := strings.Split(out, "\n")
		if lines[0] != tc.k.title || !strings.HasPrefix(lines[2], tc.k.name) {
			t.Errorf("%s: title or knob header missing:\n%s", tc.k.name, out)
		}
		if len(lines) != 4+len(tc.labels)+1 {
			t.Fatalf("%s: %d lines, want %d rows:\n%s", tc.k.name, len(lines), len(tc.labels), out)
		}
		for i, l := range tc.labels {
			if !strings.HasPrefix(lines[4+i], l+" ") {
				t.Errorf("%s: row %d is %q, want label %q", tc.k.name, i, lines[4+i], l)
			}
		}
	}
	ext := &ROBDVMResult{Fracs: []float64{0.5}}
	for ci := 0; ci < 3; ci++ {
		ext.PVEBase[ci] = []float64{1}
		ext.PVEDVM[ci] = []float64{0}
		ext.ThruDeg[ci] = []float64{10}
	}
	if !strings.Contains(ext.String(), "reorder buffer") {
		t.Error("extension render")
	}
}

func TestCSVEmitters(t *testing.T) {
	var buf strings.Builder

	f1 := &Fig1Result{}
	f1.AVF[0][0] = 0.5
	if err := f1.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "structure,category,avf") ||
		!strings.Contains(buf.String(), "IQ,CPU,0.500000") {
		t.Fatalf("fig1 csv:\n%s", buf.String())
	}

	buf.Reset()
	f5 := &Fig5Result{}
	f5.NormAVF[2][1] = 0.6
	f5.NormIPC[2][1] = 1.02
	if err := f5.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "visa+opt2,MIX,0.600000,1.020000") {
		t.Fatalf("fig5 csv:\n%s", buf.String())
	}

	buf.Reset()
	f8 := &Fig8Result{Fracs: []float64{0.5}}
	for ci := 0; ci < 3; ci++ {
		f8.PVEBase[ci] = []float64{0.9}
		f8.PVEDVM[ci] = []float64{0.01}
		f8.ThruDeg[ci] = []float64{5}
		f8.HarmDeg[ci] = []float64{4}
	}
	if err := f8.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CPU,0.5,0.900000,0.010000,5.000,4.000") {
		t.Fatalf("fig8 csv:\n%s", buf.String())
	}

	buf.Reset()
	f10 := &Fig10Result{Fracs: []float64{0.5}, Schemes: []string{"a", "b", "c", "d", "e"}}
	for si := range f10.PVE {
		for ci := range f10.PVE[si] {
			f10.PVE[si][ci] = []float64{0.25}
		}
	}
	if err := f10.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a,CPU,0.5,0.250000") {
		t.Fatalf("fig10 csv:\n%s", buf.String())
	}

	buf.Reset()
	t1 := &Table1Result{Benchmarks: []string{"gcc"}, Accuracy: []float64{0.9}, ACEFrac: []float64{0.4}}
	if err := t1.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gcc,0.900000,0.400000") {
		t.Fatalf("table1 csv:\n%s", buf.String())
	}
}
