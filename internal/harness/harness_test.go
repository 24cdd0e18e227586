package harness

import (
	"errors"
	"strings"
	"testing"

	"visasim/internal/core"
	"visasim/internal/pipeline"
)

func cell(key, bench string) Cell {
	return Cell{
		Key: key,
		Cfg: core.Config{
			Benchmarks:      []string{bench},
			Scheme:          core.SchemeBase,
			Policy:          pipeline.PolicyICOUNT,
			MaxInstructions: 8000,
		},
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	cells := []Cell{cell("a", "gcc"), cell("b", "mcf"), cell("c", "bzip2")}
	seq, _, err := RunStats(cells, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := RunStats(cells, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := range seq {
		if seq[k].Cycles != par[k].Cycles || seq[k].IQAVF != par[k].IQAVF {
			t.Fatalf("cell %s differs between schedules", k)
		}
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	if _, _, err := RunStats([]Cell{cell("x", "gcc"), cell("x", "mcf")}, Options{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if err := ValidateKeys([]Cell{cell("x", "gcc"), cell("x", "mcf")}); err == nil {
		t.Fatal("ValidateKeys accepted duplicate keys")
	}
	if err := ValidateKeys([]Cell{cell("x", "gcc"), cell("y", "gcc")}); err != nil {
		t.Fatalf("ValidateKeys rejected distinct keys: %v", err)
	}
}

func TestErrorPropagates(t *testing.T) {
	bad := Cell{Key: "bad", Cfg: core.Config{Benchmarks: []string{"nonesuch"}, MaxInstructions: 1000}}
	_, _, err := RunStats([]Cell{cell("ok", "gcc"), bad}, Options{Workers: 2})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error %v does not name the failing cell", err)
	}
}

// TestAbortErrorIsKeyed pins the abort path's contract: when a cell fails,
// the batch aborts, no partial results leak out, and the returned error is
// a *CellError carrying the failing cell's key and the underlying cause.
func TestAbortErrorIsKeyed(t *testing.T) {
	bad := Cell{Key: "doomed", Cfg: core.Config{Benchmarks: []string{"nonesuch"}, MaxInstructions: 1000}}
	cells := []Cell{bad, cell("ok1", "gcc"), cell("ok2", "mcf")}

	res, stats, err := RunStats(cells, Options{Workers: 1})
	if err == nil {
		t.Fatal("bad cell did not abort the batch")
	}
	if res != nil || stats != nil {
		t.Fatalf("aborted batch leaked partial results: %v %v", res, stats)
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *CellError", err)
	}
	if ce.Key != "doomed" {
		t.Fatalf("CellError names cell %q, want %q", ce.Key, "doomed")
	}
	if ce.Err == nil || !strings.Contains(ce.Err.Error(), "nonesuch") {
		t.Fatalf("CellError cause %v does not carry the simulation error", ce.Err)
	}
	// The wrapped cause must stay reachable through errors.Unwrap.
	if !errors.Is(err, ce.Err) {
		t.Fatal("errors.Is cannot reach the wrapped cause")
	}
}

func TestEmptyBatch(t *testing.T) {
	res, stats, err := RunStats(nil, Options{})
	if err != nil || len(res) != 0 || len(stats) != 0 {
		t.Fatalf("empty batch: %v %v %v", res, stats, err)
	}
}
