package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"visasim/internal/server"
)

const testURL = "http://localhost:8080"

// flags is the set of flags named on a command line, as args.set holds it.
func flags(names ...string) map[string]bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return set
}

// argsCase is one command line for checkArgs and the error it should draw.
type argsCase struct {
	name string
	a    args
	want string // substring of the error; "" means accepted
}

func runArgsCases(t *testing.T, cases []argsCase) {
	t.Helper()
	for _, tc := range cases {
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

// TestCheckArgs covers every command line checkArgs refuses for the figure
// and health targets, plus the accepted shapes next to each, so a refusal
// never spreads to a valid one.
func TestCheckArgs(t *testing.T) {
	figs := []string{"fig5", "fig8"}
	health := []string{"health"}
	runArgsCases(t, []argsCase{
		{"local", args{targets: figs}, ""},
		{"local traced", args{traceLevel: 1, targets: figs}, ""},
		{"every target", args{targets: []string{"fig1", "fig2", "fig5", "fig6", "fig8", "fig9",
			"fig10", "table1", "table2", "table3", "iqmatrix", "ext-rob", "ablations"}}, ""},
		{"one backend", args{backends: testURL, targets: figs}, ""},
		{"backends with store", args{backends: testURL, store: "ckpt", targets: figs}, ""},
		{"traced backends", args{traceLevel: 2, backends: testURL, targets: figs}, "-trace-level"},
		{"store without backends", args{store: "ckpt", targets: figs}, "-backends"},
		{"unknown target last", args{targets: []string{"fig5", "fgi6"}}, `"fgi6"`},
		{"retired bench target", args{targets: []string{"bench"}}, `"bench"`},
		{"retired explore target", args{targets: []string{"explore"}}, `"explore"`},

		{"health", args{backends: testURL, targets: health, set: flags("backends", "log-level")}, ""},
		{"health without backends", args{targets: health}, "-backends"},
		{"health with a figure", args{backends: testURL, targets: []string{"fig5", "health"}}, "alone"},
		{"health with cells", args{backends: testURL, targets: []string{"health", "cells"}}, "alone"},
		{"health with n", args{backends: testURL, targets: health, set: flags("n")}, "-n"},
		{"health with csv", args{backends: testURL, targets: health, set: flags("csv")}, "-csv"},
		{"health with store", args{backends: testURL, store: "ckpt", targets: health, set: flags("store")}, "-store"},
		{"health with trace-level", args{traceLevel: 1, backends: testURL, targets: health}, "-trace-level"},
		{"health with trace-level 0", args{backends: testURL, targets: health, set: flags("trace-level")}, "-trace-level"},
		{"health with workers", args{backends: testURL, targets: health, set: flags("workers")}, "-workers"},
	})
}

// TestCheckCellsArgs covers the command lines of the cells target: a batch
// of cells read from stdin, run locally or across -backends.
func TestCheckCellsArgs(t *testing.T) {
	cells := []string{"cells"}
	runArgsCases(t, []argsCase{
		{"local", args{targets: cells}, ""},
		{"local with workers and logging", args{targets: cells, set: flags("workers", "log-level", "log-format")}, ""},
		{"local traced", args{traceLevel: 1, targets: cells, set: flags("trace-level", "trace-dir")}, ""},
		{"backends", args{backends: testURL, targets: cells, set: flags("backends", "workers")}, ""},
		{"backends with store", args{backends: testURL, store: "ckpt", targets: cells}, ""},
		{"store without backends", args{store: "ckpt", targets: cells}, "-backends"},
		{"traced backends", args{traceLevel: 1, backends: testURL, targets: cells}, "-trace-level"},
		{"with a figure", args{targets: []string{"cells", "fig5"}}, "alone"},
		{"twice", args{targets: []string{"cells", "cells"}}, "alone"},
		{"with n", args{targets: cells, set: flags("n")}, "-n"},
		{"with csv", args{targets: cells, set: flags("csv")}, "-csv"},
	})
}

// TestRetiredFlagsRefused pins that retired flags — those of the retired
// batch CLI that experiments did not take over, and -resume, which -store
// now implies — are refused with exit status 2 rather than ignored.
func TestRetiredFlagsRefused(t *testing.T) {
	for _, argv := range [][]string{
		{"-local", "cells"},
		{"-results-only", "cells"},
		{"-cells", "c.json", "cells"},
		{"-seed", "1", "cells"},
		{"-timeout", "1m", "cells"},
		{"-v", "cells"},
		{"-resume", "cells"},
	} {
		t.Run(argv[0], func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(argv, strings.NewReader(""), &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
		})
	}
}

// countingDaemon is an in-process visasimd that counts the cells it holds
// at once, from submission to the end of the cell's job stream.
type countingDaemon struct {
	*httptest.Server
	mu             sync.Mutex
	inflight, peak int
}

func newCountingDaemon(t *testing.T) *countingDaemon {
	t.Helper()
	sim := server.New(server.Options{})
	d := &countingDaemon{}
	h := sim.Handler()
	d.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			d.mu.Lock()
			d.inflight++
			d.peak = max(d.peak, d.inflight)
			d.mu.Unlock()
		case strings.HasSuffix(r.URL.Path, "/stream"):
			// Hold each stream long enough for concurrent cells to overlap.
			time.Sleep(100 * time.Millisecond)
			defer func() {
				d.mu.Lock()
				d.inflight--
				d.mu.Unlock()
			}()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		d.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		sim.Shutdown(ctx) //nolint:errcheck
	})
	return d
}

// takePeak returns the most cells held at once since the last call.
func (d *countingDaemon) takePeak() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.peak
	d.peak = 0
	return p
}

// cellsJSON is a cells-target batch of one-benchmark cells.
func cellsJSON(benchmarks ...string) string {
	var b strings.Builder
	b.WriteString(`{"cells":[`)
	for i, name := range benchmarks {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"key":"c%d","config":{"Benchmarks":[%q],"Scheme":3,"MaxInstructions":4000}}`, i, name)
	}
	b.WriteString("]}")
	return b.String()
}

// runCLI runs the command in-process and fails the test unless it exits
// with want.
func runCLI(t *testing.T, want int, stdin string, argv ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(argv, strings.NewReader(stdin), &out, &errb); code != want {
		t.Fatalf("experiments %s: exit %d, want %d; stderr:\n%s", strings.Join(argv, " "), code, want, errb.String())
	}
	return out.String(), errb.String()
}

// TestRemoteRunnerHonoursWorkers pins that -workers reaches the dispatch
// coordinator behind -backends: the counting daemon sees one cell at a time
// under -workers 1, and more than one under the coordinator's default.
func TestRemoteRunnerHonoursWorkers(t *testing.T) {
	d := newCountingDaemon(t)
	batch := cellsJSON("gcc", "mcf", "eon", "swim")
	runCLI(t, 0, batch, "-backends", d.URL, "-workers", "1", "cells")
	if p := d.takePeak(); p != 1 {
		t.Errorf("-workers 1: daemon held up to %d cells at once", p)
	}
	// The default must overlap cells, or the check above proves nothing.
	runCLI(t, 0, batch, "-backends", d.URL, "cells")
	if p := d.takePeak(); p < 2 {
		t.Errorf("default -workers: daemon never held more than %d cell at once", p)
	}
}

// TestCellsLocalMatchesBackends runs one batch in-process and through a
// daemon: the cells target must print the same bytes both ways, and the
// -backends run must report the daemon's member line on stderr.
func TestCellsLocalMatchesBackends(t *testing.T) {
	d := newCountingDaemon(t)
	batch := cellsJSON("gcc", "mcf", "swim")
	local, _ := runCLI(t, 0, batch, "-workers", "2", "cells")
	remote, stderr := runCLI(t, 0, batch, "-backends", d.URL, "cells")
	if !strings.Contains(local, `"key": "c2"`) || !strings.Contains(local, `"IQAVF"`) {
		t.Fatalf("local cells output carries no keyed results:\n%s", local)
	}
	if local != remote {
		t.Errorf("cells output differs between local and -backends runs\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	member := regexp.MustCompile(`(?m)^experiments: backend ` + regexp.QuoteMeta(d.URL) + ` healthy, 3 dispatched$`)
	if !member.MatchString(stderr) {
		t.Errorf("no member line for the daemon on stderr:\n%s", stderr)
	}
}

// TestFailedTraceWriteFailsRun pins that a trace that cannot be written
// fails the run with exit status 1 instead of being reported and skipped.
// A directory sits where one cell's trace file belongs (permission bits
// would not stop a root test run).
func TestFailedTraceWriteFailsRun(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "c1.ndjson.gz"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, stderr := runCLI(t, 1, cellsJSON("gcc", "mcf"), "-trace-level", "1", "-trace-dir", dir, "cells")
	if !strings.Contains(stderr, "trace c1") {
		t.Errorf("stderr does not name the failed trace:\n%s", stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "c0.ndjson.gz")); err != nil {
		t.Errorf("the writable trace is missing: %v", err)
	}
}

// TestHealth probes a live daemon and a closed one: one line each, and
// exit status 1 because one is down.
func TestHealth(t *testing.T) {
	up := newCountingDaemon(t)
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	stdout, _ := runCLI(t, 1, "", "-backends", up.URL+","+down.URL, "health")
	if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(up.URL) + ` +healthy$`).MatchString(stdout) {
		t.Errorf("live daemon not reported healthy:\n%s", stdout)
	}
	if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(down.URL) + ` +DOWN: `).MatchString(stdout) {
		t.Errorf("closed daemon not reported DOWN:\n%s", stdout)
	}
	runCLI(t, 0, "", "-backends", up.URL, "health")
}
