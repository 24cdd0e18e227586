package experiments

import (
	"fmt"
	"strings"
	"testing"

	"visasim/internal/core"
	"visasim/internal/iqorg"
	"visasim/internal/pipeline"
	"visasim/internal/stats"
	"visasim/internal/workload"
)

// small returns a budget small enough for CI but large enough to cross
// interval boundaries on slow (MEM) mixes.
func small() Params { return Params{Budget: 60_000} }

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := Fig1(small())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// The paper's headline: the IQ is the reliability hot-spot in every
	// workload category.
	if got := r.MaxStructure(); got != "IQ" {
		t.Errorf("most vulnerable structure = %q, paper says IQ", got)
	}
	for ci := range r.AVF {
		for si := range r.AVF[ci] {
			if v := r.AVF[ci][si]; v < 0 || v > 1 {
				t.Errorf("AVF[%d][%d] = %v", ci, si, v)
			}
		}
	}
}

func TestFig2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := Fig2(Params{Budget: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// Abundant ready instructions relative to the issue width of 8, and
	// a majority-ACE ready population (paper: ~60%).
	if r.MeanLen < 8 {
		t.Errorf("mean ready-queue length %.1f below issue width", r.MeanLen)
	}
	if r.MaxLen < 24 {
		t.Errorf("max ready-queue length %d suspiciously small", r.MaxLen)
	}
	if r.MeanACEPct < 30 || r.MeanACEPct > 90 {
		t.Errorf("ready-ACE share %.1f%% implausible", r.MeanACEPct)
	}
}

func TestTable1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := Table1(Params{Budget: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if len(r.Benchmarks) != 18 {
		t.Fatalf("%d benchmarks", len(r.Benchmarks))
	}
	// Paper: average ~93%, spread 74.9%–99.9%; squashed-inclusive ~83%.
	if r.Average < 0.82 || r.Average > 0.99 {
		t.Errorf("average accuracy %.3f, paper ~0.93", r.Average)
	}
	if r.SquashedInclusive >= r.Average {
		t.Error("squashed instructions must reduce accuracy")
	}
	if r.SquashedInclusive < 0.65 {
		t.Errorf("squashed-inclusive accuracy %.3f too low", r.SquashedInclusive)
	}
}

func TestTables2And3Render(t *testing.T) {
	if !strings.Contains(Table2(), "96") || !strings.Contains(Table2(), "Gshare") {
		t.Error("Table 2 misses configuration rows")
	}
	r, err := Table3(Params{Budget: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	t3 := r.String()
	for _, want := range []string{"CPU", "MIX", "MEM", "bzip2", "mcf", "Tcache_miss = 16"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
	rows := map[string]string{} // benchmark list → rendered row
	for _, line := range strings.Split(t3, "\n") {
		for _, m := range workload.Mixes() {
			if list := strings.Join(m.Benchmarks[:], ", "); strings.Contains(line, list) {
				rows[list] = line
			}
		}
	}
	if len(rows) != 9 {
		t.Fatalf("Table 3 has %d mix rows, want 9:\n%s", len(rows), t3)
	}

	// The MEM-A row shows its ICOUNT baseline cell, run directly.
	memA := []string{"mcf", "equake", "vpr", "swim"}
	direct, err := core.Run(core.Config{Benchmarks: memA, MaxInstructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	_, med := l2Misses(direct)
	for _, want := range []string{fmt.Sprintf("  %.2f  ", direct.ThroughputIPC), fmt.Sprintf("  %.1f ", med)} {
		if row := rows[strings.Join(memA, ", ")]; !strings.Contains(row, want) {
			t.Errorf("MEM-A row %q lacks the direct run's %q", row, want)
		}
	}
}

func TestMedianIntervalL2(t *testing.T) {
	for _, tc := range []struct {
		misses []uint64
		want   float64
	}{
		{nil, 0},
		{[]uint64{7}, 7},
		{[]uint64{30, 2, 17}, 17},
		{[]uint64{40, 3, 16, 20}, 18},
	} {
		r := &core.Result{Results: &pipeline.Results{Commits: []uint64{1}}}
		for _, m := range tc.misses {
			r.Intervals = append(r.Intervals, stats.Interval{L2Misses: m})
		}
		if _, got := l2Misses(r); got != tc.want {
			t.Errorf("median of %v = %v, want %v", tc.misses, got, tc.want)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := Fig5(Params{Budget: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// Scheme indices: 0=visa, 1=+opt1, 2=+opt2.
	// VISA alone: small effect (paper −5% AVF, +1% IPC).
	if red := r.AvgAVFReduction(0); red < -0.15 || red > 0.3 {
		t.Errorf("VISA AVF reduction %.2f outside small-effect band", red)
	}
	// opt1: strong AVF cut, real IPC cost on MIX/MEM.
	if r.AvgAVFReduction(1) < 0.2 {
		t.Errorf("opt1 AVF reduction %.2f too small", r.AvgAVFReduction(1))
	}
	if r.NormIPC[1][1] > 0.95 && r.NormIPC[1][2] > 0.95 {
		t.Error("opt1 should cost IPC on MIX/MEM (paper §4)")
	}
	// opt2: large AVF cut at near-baseline IPC (paper: −48%, +1%).
	if r.AvgAVFReduction(2) < 0.1 {
		t.Errorf("opt2 AVF reduction %.2f too small", r.AvgAVFReduction(2))
	}
	if ipc := r.AvgIPCChange(2); ipc < -0.10 || ipc > 0.25 {
		t.Errorf("opt2 IPC change %.2f not near baseline", ipc)
	}
	// opt2 must dominate opt1's performance on MIX/MEM.
	if r.NormIPC[2][1] <= r.NormIPC[1][1] || r.NormIPC[2][2] <= r.NormIPC[1][2] {
		t.Error("opt2 does not recover opt1's MIX/MEM performance loss")
	}
}

func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := Fig8(Params{Budget: 80_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	for ci := 0; ci < 3; ci++ {
		for fi := range r.Fracs {
			base, dvm := r.PVEBase[ci][fi], r.PVEDVM[ci][fi]
			if dvm > base+1e-9 {
				t.Errorf("cat %d frac %v: DVM PVE %.2f above baseline %.2f",
					ci, r.Fracs[fi], dvm, base)
			}
		}
		// DVM eliminates the majority of emergencies at the middle
		// threshold (paper: to ~1%).
		if r.PVEBase[ci][2] > 0.2 && r.PVEDVM[ci][2] > 0.5*r.PVEBase[ci][2] {
			t.Errorf("cat %d: DVM PVE %.2f vs base %.2f at 0.5*MaxAVF",
				ci, r.PVEDVM[ci][2], r.PVEBase[ci][2])
		}
	}
	if r.MeanRatio <= 0 {
		t.Error("mean wq_ratio not recorded")
	}
}

func TestFig10Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := Fig10(Params{Budget: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// Aggregate PVE across categories and thresholds per scheme: the
	// open-loop schemes cannot manage runtime vulnerability; dynamic
	// DVM must beat them, and the static variant must sit in between
	// open-loop and dynamic.
	var agg [5]float64
	for si := 0; si < 5; si++ {
		for ci := 0; ci < 3; ci++ {
			for fi := range r.Fracs {
				agg[si] += r.PVE[si][ci][fi]
			}
		}
	}
	openLoop := (agg[0] + agg[1] + agg[2]) / 3
	if agg[4] >= openLoop {
		t.Errorf("dynamic DVM PVE %.2f not below open-loop schemes %.2f", agg[4], openLoop)
	}
	if agg[4] > agg[3]+1e-9 {
		t.Errorf("dynamic DVM PVE %.2f above static variant %.2f", agg[4], agg[3])
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	p := Params{Budget: 50_000}

	oracle, err := AblationOracleTags(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + oracle.String())

	tc, err := AblationTcache(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tc.String())
	// An infinite threshold degenerates opt2 into opt1: it must cost
	// more IPC on MIX than the paper's finite threshold.
	last := len(tc.Thresholds) - 1
	if tc.NormIPC[last] >= tc.NormIPC[2] {
		t.Errorf("opt1-degenerate IPC %.3f not below Tcache=16's %.3f",
			tc.NormIPC[last], tc.NormIPC[2])
	}

	iq, err := AblationIQSize(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + iq.String())
	// Bigger windows expose more ILP: IPC must not shrink with size.
	if iq.IPC[len(iq.IPC)-1] < iq.IPC[0] {
		t.Errorf("IPC fell from %.3f to %.3f as the IQ grew", iq.IPC[0], iq.IPC[len(iq.IPC)-1])
	}

	ivl, err := AblationInterval(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + ivl.String())

	win, err := AblationWindow(Params{Budget: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + win.String())
	// Windows shorter than typical value lifetimes inflate the ACE
	// fraction via the conservative exit rule.
	if win.ACEFrac[0] <= win.ACEFrac[2] {
		t.Errorf("2K window ACE fraction %.3f not above 40K's %.3f",
			win.ACEFrac[0], win.ACEFrac[2])
	}
}

func TestExtensionROBDVM(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := ExtensionROBDVM(Params{Budget: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// The retargeted controller must reduce ROB emergencies wherever the
	// baseline has a meaningful number of them.
	for ci := 0; ci < 3; ci++ {
		for fi := range r.Fracs {
			if r.PVEBase[ci][fi] > 0.3 && r.PVEDVM[ci][fi] > r.PVEBase[ci][fi]*0.8 {
				t.Errorf("cat %d frac %v: ROB-DVM PVE %.2f vs base %.2f",
					ci, r.Fracs[fi], r.PVEDVM[ci][fi], r.PVEBase[ci][fi])
			}
		}
	}
}

func TestAblationWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := AblationWidth(Params{Budget: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if r.IPC[2] <= r.IPC[0] {
		t.Errorf("16-wide IPC %.2f not above 4-wide %.2f", r.IPC[2], r.IPC[0])
	}
}

func TestAblationPredictor(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := AblationPredictor(Params{Budget: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	// No direction assertion: on this synthetic substrate (bias-driven
	// conditionals, geometric loop trips) history can hurt as much as it
	// helps. Both predictors must simply be in a plausible band.
	for i, mr := range r.MispredRate {
		if mr < 0.01 || mr > 0.35 {
			t.Errorf("%v mispredict rate %.3f implausible", r.Kinds[i], mr)
		}
	}
}

func TestIQMatrixShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r, err := IQMatrix(Params{Budget: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if want := len(r.Mixes) * len(r.Orgs) * len(r.Prots) * len(r.Schemes); len(r.Cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(r.Cells), want)
	}
	for _, mix := range r.Mixes {
		// The default corner must behave like the unadorned scheme runs,
		// and every protection must leave the baseline scheme with no more
		// residual vulnerability than the unprotected queue.
		unp := r.cell(mix, iqorg.UnifiedAGE, iqorg.None, core.SchemeBase)
		if unp == nil || unp.IPC <= 0 {
			t.Fatalf("%s: missing or implausible default cell", mix)
		}
		for _, prot := range []iqorg.Protection{iqorg.Parity, iqorg.ECC, iqorg.PartialReplication} {
			c := r.cell(mix, iqorg.UnifiedAGE, prot, core.SchemeBase)
			if c.IQAVF >= unp.IQAVF {
				t.Errorf("%s/%v: residual AVF %.4f not below unprotected %.4f",
					mix, prot, c.IQAVF, unp.IQAVF)
			}
			if c.AreaExtra <= 0 {
				t.Errorf("%s/%v: protection reported no area cost", mix, prot)
			}
		}
		// Protected queues need less DVM throttling at the same absolute
		// target.
		dvmU := r.cell(mix, iqorg.UnifiedAGE, iqorg.None, core.SchemeDVM)
		dvmP := r.cell(mix, iqorg.UnifiedAGE, iqorg.Parity, core.SchemeDVM)
		if dvmU.DVMTriggers > 0 && dvmP.DVMTriggers > dvmU.DVMTriggers {
			t.Errorf("%s: parity increased DVM triggers (%d -> %d)",
				mix, dvmU.DVMTriggers, dvmP.DVMTriggers)
		}
	}
}
