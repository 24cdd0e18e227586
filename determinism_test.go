package visasim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/inject"
	"visasim/internal/pipeline"
	"visasim/internal/replay"
)

// determinismCells is a small batch spanning schemes and policies; every
// cell must produce the identical result regardless of the worker schedule
// it runs under.
func determinismCells() []harness.Cell {
	cpuA := []string{"bzip2", "eon", "gcc", "perlbmk"}
	memA := []string{"mcf", "equake", "vpr", "swim"}
	const budget = 12_000
	return []harness.Cell{
		{Key: "base", Cfg: core.Config{Benchmarks: cpuA, Scheme: core.SchemeBase, Policy: pipeline.PolicyICOUNT, MaxInstructions: budget}},
		{Key: "visa", Cfg: core.Config{Benchmarks: cpuA, Scheme: core.SchemeVISA, Policy: pipeline.PolicyICOUNT, MaxInstructions: budget}},
		{Key: "opt2", Cfg: core.Config{Benchmarks: memA, Scheme: core.SchemeVISAOpt2, Policy: pipeline.PolicyFLUSH, MaxInstructions: budget}},
		{Key: "dvm", Cfg: core.Config{Benchmarks: memA, Scheme: core.SchemeDVM, Policy: pipeline.PolicyICOUNT, DVMTarget: 0.04, MaxInstructions: budget}},
		// Controller-less memory-bound STALL cell: dead-cycle skip-ahead is
		// live here, so the matrix also pins that skipping runs stay
		// schedule-invariant and observation-neutral.
		{Key: "stall", Cfg: core.Config{Benchmarks: memA, Scheme: core.SchemeBase, Policy: pipeline.PolicySTALL, MaxInstructions: budget}},
	}
}

// serializeBatch reduces a harness result map to a canonical byte form
// (keyed summaries, deterministic field order via the goldenSummary
// projection plus the result metadata).
func serializeBatch(t *testing.T, res harness.Results) map[string]string {
	t.Helper()
	out := make(map[string]string, len(res))
	for key, r := range res {
		blob, err := json.Marshal(struct {
			Summary goldenSummary
			Scheme  string
			ACEFrac float64
			TagAcc  float64
		}{summarize(r), r.Scheme.String(), r.ProfileACEFraction, r.CommittedTagAccuracy})
		if err != nil {
			t.Fatal(err)
		}
		out[key] = string(blob)
	}
	return out
}

// TestHarnessWorkerCountInvariance runs the same batch serially and fully
// parallel: the worker schedule must never leak into results. (This is the
// property that lets the experiment harness parallelise sweeps at all, and
// the test -race exercises the worker pool for data races.)
func TestHarnessWorkerCountInvariance(t *testing.T) {
	cells := determinismCells()
	serial, _, err := harness.RunStats(cells, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := harness.RunStats(cells, harness.Options{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := serializeBatch(t, serial), serializeBatch(t, parallel)
	if len(a) != len(b) {
		t.Fatalf("result count differs: %d serial vs %d parallel", len(a), len(b))
	}
	for key, want := range a {
		if got := b[key]; got != want {
			t.Errorf("cell %s differs across worker counts\nserial:   %s\nparallel: %s", key, want, got)
		}
	}
}

// encodeTraces reduces a traces map to canonical per-key bytes.
func encodeTraces(t *testing.T, traces harness.Traces) map[string]string {
	t.Helper()
	out := make(map[string]string, len(traces))
	for key, tr := range traces {
		var buf bytes.Buffer
		if err := tr.WriteNDJSON(&buf); err != nil {
			t.Fatalf("encoding trace %s: %v", key, err)
		}
		out[key] = buf.String()
	}
	return out
}

// TestTracingDoesNotPerturbResults runs the determinism batch untraced and
// traced at the verbose level: results must be byte-identical. This is the
// observation-only guarantee that lets TraceLevel stay out of Config.Hash.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	cells := determinismCells()
	plain, _, err := harness.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	traced, _, traces, err := harness.RunTraced(cells, harness.Options{TraceLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := serializeBatch(t, plain), serializeBatch(t, traced)
	for key, want := range a {
		if got := b[key]; got != want {
			t.Errorf("cell %s: traced result differs from untraced\nuntraced: %s\ntraced:   %s", key, want, got)
		}
	}
	// Every controller-bearing cell must actually have recorded something.
	for _, key := range []string{"opt2", "dvm"} {
		if tr := traces[key]; tr == nil || len(tr.Events) == 0 {
			t.Errorf("cell %s recorded no decision events", key)
		}
	}
}

// TestReplayDeterminismMatrix is the replay pin: traces recorded under
// different worker schedules are byte-identical, and an untouched replay of
// each — reconstructed purely from the trace's embedded config — reproduces
// both the result and the trace byte-for-byte.
func TestReplayDeterminismMatrix(t *testing.T) {
	cells := determinismCells()
	res1, _, traces1, err := harness.RunTraced(cells, harness.Options{Workers: 1, TraceLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, tracesN, err := harness.RunTraced(cells, harness.Options{Workers: runtime.GOMAXPROCS(0), TraceLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	enc1, encN := encodeTraces(t, traces1), encodeTraces(t, tracesN)
	if len(enc1) != len(encN) {
		t.Fatalf("trace counts differ: %d serial vs %d parallel", len(enc1), len(encN))
	}
	for key, want := range enc1 {
		if got := encN[key]; got != want {
			t.Errorf("cell %s: trace differs across worker counts", key)
		}
	}

	for key, tr := range traces1 {
		if len(tr.Events) == 0 {
			continue // controller-less cells have nothing to replay against
		}
		replayRes, replayTr, err := replay.Replay(tr, nil)
		if err != nil {
			t.Fatalf("replaying %s: %v", key, err)
		}
		wantRes, err := json.Marshal(res1[key])
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := json.Marshal(replayRes)
		if err != nil {
			t.Fatal(err)
		}
		if string(wantRes) != string(gotRes) {
			t.Errorf("cell %s: untouched replay changed the result", key)
		}
		var buf bytes.Buffer
		if err := replayTr.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != enc1[key] {
			t.Errorf("cell %s: untouched replay changed the trace encoding", key)
		}
	}
}

// TestInjectCampaignDeterminism re-runs a seeded fault-injection campaign:
// the full strike sequence — time, location, and outcome of every upset —
// must repeat exactly. Statistical conclusions from a campaign are only
// reproducible if the campaign itself is.
func TestInjectCampaignDeterminism(t *testing.T) {
	const budget = 8_000
	mix := []string{"gcc", "mcf", "vpr", "perlbmk"}
	run := func() ([]inject.Strike, *inject.Campaign) {
		var strikes []inject.Strike
		cfg := core.Config{Benchmarks: mix, Scheme: core.SchemeVISA, MaxInstructions: budget}
		c, err := inject.Run(cfg, inject.Options{
			StrikesPerKCycle: 400,
			Seed:             1234,
			Observer:         func(s inject.Strike) { strikes = append(strikes, s) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return strikes, c
	}

	strikes1, c1 := run()
	strikes2, c2 := run()
	if len(strikes1) == 0 {
		t.Fatal("campaign injected no strikes; budget too small to test anything")
	}
	if !reflect.DeepEqual(strikes1, strikes2) {
		n := len(strikes1)
		if len(strikes2) < n {
			n = len(strikes2)
		}
		for i := 0; i < n; i++ {
			if strikes1[i] != strikes2[i] {
				t.Fatalf("strike %d differs: %+v vs %+v", i, strikes1[i], strikes2[i])
			}
		}
		t.Fatalf("strike counts differ: %d vs %d", len(strikes1), len(strikes2))
	}
	if *c1 != *c2 {
		t.Errorf("campaign stats differ:\n%+v\n%+v", *c1, *c2)
	}
}
