package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/server"
)

// TestCheckArgs covers every command line checkArgs refuses, plus the
// accepted shapes next to each, so a refusal never spreads to a valid one.
func TestCheckArgs(t *testing.T) {
	const url = "http://localhost:8080"
	figs := []string{"fig5", "fig8"}
	for _, tc := range []struct {
		name string
		a    args
		want string // substring of the error; "" means accepted
	}{
		{"local", args{targets: figs}, ""},
		{"local traced", args{traceLevel: 1, targets: figs}, ""},
		{"every target", args{targets: []string{"fig1", "fig2", "fig5", "fig6", "fig8", "fig9",
			"fig10", "table1", "table2", "table3", "iqmatrix", "ext-rob", "ablations"}}, ""},
		{"one backend", args{backends: url, targets: figs}, ""},
		{"backends with store", args{backends: url, store: "ckpt", resume: true, targets: figs}, ""},
		{"traced backends", args{traceLevel: 2, backends: url, targets: figs}, "-trace-level"},
		{"store without backends", args{store: "ckpt", targets: figs}, "-backends"},
		{"resume without backends", args{resume: true, targets: figs}, "-backends"},
		{"resume without store", args{backends: url, resume: true, targets: figs}, "-store"},
		{"unknown target last", args{targets: []string{"fig5", "fgi6"}}, `"fgi6"`},
		{"retired bench target", args{targets: []string{"bench"}}, `"bench"`},
		{"retired explore target", args{targets: []string{"explore"}}, `"explore"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkArgs(tc.a)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error mentioning %s", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %s", err, tc.want)
			}
		})
	}
}

// TestRemoteRunnerHonoursWorkers pins that -workers reaches the dispatch
// coordinator behind -backends: a daemon that counts the cells it holds at
// once (from submission to the end of the cell's job stream) sees one at a
// time under -workers 1, and more than one under the coordinator's default.
func TestRemoteRunnerHonoursWorkers(t *testing.T) {
	sim := server.New(server.Options{})
	var (
		mu             sync.Mutex
		inflight, peak int
	)
	h := sim.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			mu.Lock()
			inflight++
			peak = max(peak, inflight)
			mu.Unlock()
		case strings.HasSuffix(r.URL.Path, "/stream"):
			// Hold each stream long enough for concurrent cells to overlap.
			time.Sleep(100 * time.Millisecond)
			defer func() {
				mu.Lock()
				inflight--
				mu.Unlock()
			}()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		sim.Shutdown(ctx) //nolint:errcheck
	})

	var cells []harness.Cell
	for i, b := range []string{"gcc", "mcf", "eon", "swim"} {
		cells = append(cells, harness.Cell{Key: fmt.Sprint(i), Cfg: core.Config{
			Benchmarks: []string{b}, Policy: pipeline.PolicyICOUNT, MaxInstructions: 4000}})
	}
	// peakFor runs the cells through -backends with the given -workers and
	// returns the most cells the daemon held at once.
	peakFor := func(workers int) int {
		mu.Lock()
		peak = 0
		mu.Unlock()
		run, err := remoteRunner(context.Background(), ts.URL, workers, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(cells)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(cells) {
			t.Fatalf("-workers %d: %d results for %d cells", workers, len(res), len(cells))
		}
		mu.Lock()
		defer mu.Unlock()
		return peak
	}
	if p := peakFor(1); p != 1 {
		t.Errorf("-workers 1: daemon held up to %d cells at once", p)
	}
	// The default must overlap cells, or the check above proves nothing.
	if p := peakFor(0); p < 2 {
		t.Errorf("default -workers: daemon never held more than %d cell at once", p)
	}
}
