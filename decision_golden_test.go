package visasim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"visasim/internal/core"
	"visasim/internal/decision"
	"visasim/internal/pipeline"
)

// decisionGoldenCell is one pinned decision-trace fixture: a cell whose
// recorded decision stream is compared byte-for-byte against its NDJSON
// golden. The cells cover each control loop the tracer observes: DVM's
// waiting-queue throttle (with level-2 sample events), Opt2's allocation cap
// plus FLUSH engagement, and Opt1's IPC-driven allocation.
type decisionGoldenCell struct {
	Name   string
	Cfg    core.Config
	Level  int
	Budget uint64
}

func decisionGoldenCells() []decisionGoldenCell {
	memA := []string{"mcf", "equake", "vpr", "swim"}
	mixA := []string{"gcc", "mcf", "vpr", "perlbmk"}
	cells := []decisionGoldenCell{
		// The DVM cell runs a smaller budget: its per-thread dispatch gates
		// re-decide every cycle, so gate edges dominate the stream and a
		// full golden-budget fixture would be megabytes.
		{"memA-dvm-icount", core.Config{Benchmarks: memA, Scheme: core.SchemeDVM, Policy: pipeline.PolicyICOUNT, DVMTarget: 0.04}, 2, 4_000},
		{"memA-visaopt2-flush", core.Config{Benchmarks: memA, Scheme: core.SchemeVISAOpt2, Policy: pipeline.PolicyFLUSH}, 1, goldenBudget},
		{"mixA-visaopt1-icount", core.Config{Benchmarks: mixA, Scheme: core.SchemeVISAOpt1, Policy: pipeline.PolicyICOUNT}, 1, goldenBudget},
	}
	for i := range cells {
		cells[i].Cfg.MaxInstructions = cells[i].Budget
	}
	return cells
}

func decisionGoldenPath(name string) string {
	return filepath.Join("testdata", "golden", "decisions", name+".ndjson")
}

// TestGoldenDecisionTraces pins the recorded decision streams bit-for-bit
// (NDJSON renders floats in shortest-round-trip form, so byte equality is
// bit equality). Regenerate alongside the result goldens:
//
//	go test -run TestGolden -update .
//
// A diff here means the control loops decided differently — a modelling
// change that must be deliberate, not a side effect.
func TestGoldenDecisionTraces(t *testing.T) {
	for _, cell := range decisionGoldenCells() {
		t.Run(cell.Name, func(t *testing.T) {
			t.Parallel()
			_, tr, err := core.RunTraced(cell.Cfg, core.RunOptions{
				TraceLevel: cell.Level,
				CellKey:    cell.Name,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Events) == 0 {
				t.Fatal("trace records no events; the cell exercises no control loop")
			}
			var buf bytes.Buffer
			if err := tr.WriteNDJSON(&buf); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()

			path := decisionGoldenPath(cell.Name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test -run TestGolden -update .`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("decision trace drifted from %s\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}

			// Reading the golden back must reproduce it.
			tr2, err := decision.ReadNDJSON(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			var buf2 bytes.Buffer
			if err := tr2.WriteNDJSON(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, buf2.Bytes()) {
				t.Error("reading and rewriting the golden changed its bytes")
			}
		})
	}
}

// TestDecisionGoldenFilesHaveCells mirrors TestGoldenFilesHaveCells for the
// decisions/ subdirectory.
func TestDecisionGoldenFilesHaveCells(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden", "decisions"))
	if err != nil {
		t.Skipf("no decision golden directory yet: %v", err)
	}
	known := map[string]bool{}
	for _, c := range decisionGoldenCells() {
		known[c.Name+".ndjson"] = true
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("stale decision golden %s has no matrix cell", e.Name())
		}
	}
}
