package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
)

func newTestClient(t *testing.T) *Client {
	t.Helper()
	_, ts := newTestServer(t, Options{})
	return &Client{BaseURL: ts.URL, PollInterval: 5 * time.Millisecond}
}

// TestClientMatchesLocalRun proves the client is a drop-in harness.Run
// replacement: same keys, and results that decode to the same numbers a
// local run produces.
func TestClientMatchesLocalRun(t *testing.T) {
	cli := newTestClient(t)
	cells := []harness.Cell{
		{Key: "base", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "visa", Cfg: testCfg("gcc", core.SchemeVISA)},
	}

	remote, remoteStats, err := cli.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 2 || len(remoteStats) != 2 {
		t.Fatalf("remote returned %d results, %d stats", len(remote), len(remoteStats))
	}
	for key := range local {
		r, l := remote[key], local[key]
		if r == nil {
			t.Fatalf("cell %s missing from remote results", key)
		}
		if r.Cycles != l.Cycles || r.IQAVF != l.IQAVF || r.ThroughputIPC != l.ThroughputIPC {
			t.Fatalf("cell %s differs remote vs local: %d/%d cycles, %v/%v IQAVF",
				key, r.Cycles, l.Cycles, r.IQAVF, l.IQAVF)
		}
		if r.TotalCommits() != l.TotalCommits() {
			t.Fatalf("cell %s commits differ", key)
		}
	}
	// The histogram must survive the HTTP round trip (derived totals, no
	// private state): MeanLen is computed from it on the client side.
	for key := range local {
		if got, want := remote[key].RQHist.MeanLen(), local[key].RQHist.MeanLen(); got != want {
			t.Fatalf("cell %s RQHist.MeanLen %v != %v after round trip", key, got, want)
		}
	}
}

func TestClientSubmitErrors(t *testing.T) {
	cli := newTestClient(t)
	_, err := cli.Run([]harness.Cell{{Key: "bad", Cfg: core.Config{Benchmarks: []string{"nonesuch"}}}}, harness.Options{})
	if err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("bad config error not surfaced: %v", err)
	}
	if _, err := cli.Job(context.Background(), "no-such-job"); err == nil {
		t.Fatal("missing job did not error")
	}
	empty, err := cli.Run(nil, harness.Options{})
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}

// TestWaitDeadline pins that a daemon which never finishes a job cannot
// hang the client: Wait honours its context and Client.Timeout bounds a
// whole RunStats call. A stub server stands in for the wedged daemon.
func TestWaitDeadline(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: "job-1", Cells: 1})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, JobStatus{ID: "job-1", State: StateRunning})
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	cli := &Client{BaseURL: stub.URL, PollInterval: time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cli.Wait(ctx, "job-1"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on a never-terminal job returned %v, want deadline exceeded", err)
	}

	cli.Timeout = 50 * time.Millisecond
	cells := []harness.Cell{{Key: "c", Cfg: testCfg("gcc", core.SchemeBase)}}
	if _, _, err := cli.RunStats(cells, harness.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunStats with Timeout returned %v, want deadline exceeded", err)
	}
}
