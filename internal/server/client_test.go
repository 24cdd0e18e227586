package server

import (
	"context"
	"encoding/json"
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
	return &Client{BaseURL: ts.URL}
}

// TestClientMatchesLocalRun proves Submit and Wait carry a sweep to the
// daemon and back: same keys, and results that decode to the same numbers
// a local run produces.
func TestClientMatchesLocalRun(t *testing.T) {
	cli := newTestClient(t)
	cells := []harness.Cell{
		{Key: "base", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "visa", Cfg: testCfg("gcc", core.SchemeVISA)},
	}

	ctx := context.Background()
	ack, err := cli.Submit(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cli.Wait(ctx, ack)
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := harness.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("remote returned %d cells", len(got))
	}
	for _, cs := range got {
		l := local[cs.Key]
		if l == nil || cs.Error != "" || !cs.Done {
			t.Fatalf("unexpected cell %+v", cs)
		}
		var r core.Result
		if err := json.Unmarshal(cs.Result, &r); err != nil {
			t.Fatal(err)
		}
		if r.Cycles != l.Cycles || r.IQAVF != l.IQAVF || r.ThroughputIPC != l.ThroughputIPC {
			t.Fatalf("cell %s differs remote vs local: %d/%d cycles, %v/%v IQAVF",
				cs.Key, r.Cycles, l.Cycles, r.IQAVF, l.IQAVF)
		}
		if r.TotalCommits() != l.TotalCommits() {
			t.Fatalf("cell %s commits differ", cs.Key)
		}
		// The histogram must survive the HTTP round trip (derived totals,
		// no private state): MeanLen is computed from it on the client side.
		if got, want := r.RQHist.MeanLen(), l.RQHist.MeanLen(); got != want {
			t.Fatalf("cell %s RQHist.MeanLen %v != %v after round trip", cs.Key, got, want)
		}
		if cs.Stats.Cycles != r.Cycles {
			t.Fatalf("cell %s stats cycles %d != result cycles %d", cs.Key, cs.Stats.Cycles, r.Cycles)
		}
	}
}

func TestClientSubmitErrors(t *testing.T) {
	cli := newTestClient(t)
	ctx := context.Background()
	_, err := cli.Submit(ctx, []harness.Cell{{Key: "bad", Cfg: core.Config{Benchmarks: []string{"nonesuch"}}}})
	var he *HTTPError
	if !errors.As(err, &he) || he.Temporary() || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("bad config error not surfaced as a permanent HTTP error: %v", err)
	}
	if _, err := cli.Submit(ctx, nil); !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty submission: %v, want HTTP 400", err)
	}
	missing := SubmitResponse{ID: "no-such-job", Cells: 1, Stream: "/v1/jobs/no-such-job/stream"}
	if _, err := cli.Wait(ctx, missing); !errors.As(err, &he) || he.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %v, want HTTP 404", err)
	}
	// The ack must echo the number of cells submitted: Wait holds the
	// stream to that count.
	miscount := &Client{BaseURL: stubDaemon(t, 2, endlessStream).URL}
	if _, err := miscount.Submit(ctx, []harness.Cell{{Key: "c", Cfg: testCfg("gcc", core.SchemeBase)}}); err == nil ||
		!strings.Contains(err.Error(), "accepted 2 cells, 1 submitted") {
		t.Fatalf("miscounted ack: %v, want an error", err)
	}
}

// stubDaemon answers every submission with a job of `cells` cells and
// serves its stream with the given handler, standing in for a daemon that
// misbehaves while streaming.
func stubDaemon(t *testing.T, cells int, stream http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: "job-1", Cells: cells, Stream: "/v1/jobs/job-1/stream"})
	})
	mux.HandleFunc("GET /v1/jobs/job-1/stream", stream)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// endlessStream starts a stream and never ends it, like a daemon that never
// finishes the job; it returns when the client goes away.
func endlessStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.(http.Flusher).Flush()
	<-r.Context().Done()
}

// writeEvents writes NDJSON stream events and flushes them to the client.
func writeEvents(w http.ResponseWriter, evs ...StreamEvent) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, ev := range evs {
		enc.Encode(ev) //nolint:errcheck
	}
	w.(http.Flusher).Flush()
}

// TestWaitDeadline pins that a daemon which never finishes a job cannot
// hang the client: Wait on a stream that never ends returns at its
// context's deadline.
func TestWaitDeadline(t *testing.T) {
	stub := stubDaemon(t, 1, endlessStream)
	cli := &Client{BaseURL: stub.URL}
	ack, err := cli.Submit(context.Background(), []harness.Cell{{Key: "c", Cfg: testCfg("gcc", core.SchemeBase)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cli.Wait(ctx, ack); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on a never-ending stream returned %v, want deadline exceeded", err)
	}
}

// TestWaitRefusesIncompleteStream pins that only a stream reaching its
// "end" event is a result: for a two-cell job, one "cell" event followed by
// a hang-up, by a clean close, or by an "end" event must all fail with
// ErrIncompleteStream, as must a canceled job with an error of its own.
func TestWaitRefusesIncompleteStream(t *testing.T) {
	one := StreamEvent{Type: "cell", Cell: &CellStatus{Key: "a", Done: true, Result: json.RawMessage(`{"Cycles":1}`)}}
	for _, tc := range []struct {
		name       string
		stream     http.HandlerFunc
		incomplete bool
	}{
		{"hang-up after one cell", func(w http.ResponseWriter, r *http.Request) {
			writeEvents(w, one)
			panic(http.ErrAbortHandler) // drop the connection mid-body
		}, true},
		{"clean close after one cell", func(w http.ResponseWriter, r *http.Request) {
			writeEvents(w, one)
		}, true},
		{"end after one cell", func(w http.ResponseWriter, r *http.Request) {
			writeEvents(w, one, StreamEvent{Type: "end", State: StateDone})
		}, true},
		{"canceled job", func(w http.ResponseWriter, r *http.Request) {
			writeEvents(w, StreamEvent{Type: "end", State: StateCanceled, Error: "server shutting down"})
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli := &Client{BaseURL: stubDaemon(t, 2, tc.stream).URL}
			ctx := context.Background()
			ack, err := cli.Submit(ctx, []harness.Cell{
				{Key: "a", Cfg: testCfg("gcc", core.SchemeBase)},
				{Key: "b", Cfg: testCfg("gcc", core.SchemeVISA)},
			})
			if err != nil {
				t.Fatal(err)
			}
			cells, err := cli.Wait(ctx, ack)
			if err == nil {
				t.Fatalf("accepted %d cells from an incomplete stream", len(cells))
			}
			if errors.Is(err, ErrIncompleteStream) != tc.incomplete {
				t.Fatalf("error %v: ErrIncompleteStream %v, want %v", err, !tc.incomplete, tc.incomplete)
			}
		})
	}
}
