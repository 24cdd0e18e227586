package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
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
	"visasim/internal/store"
)

const testBudget = 6000

func testCfg(bench string, scheme core.Scheme) core.Config {
	return core.Config{
		Benchmarks:      []string{bench},
		Scheme:          scheme,
		Policy:          pipeline.PolicyICOUNT,
		MaxInstructions: testBudget,
	}
}

// newBackend boots one real in-process visasimd backend.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	s := server.New(server.Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return ts
}

func newCoordinator(t *testing.T, opt Options) *Coordinator {
	t.Helper()
	if opt.BaseBackoff == 0 {
		opt.BaseBackoff = time.Millisecond
	}
	if opt.MaxBackoff == 0 {
		opt.MaxBackoff = 5 * time.Millisecond
	}
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// backendDispatchCounts returns per-backend dispatch counts keyed by URL.
func backendDispatchCounts(c *Coordinator) map[string]int64 {
	out := map[string]int64{}
	for _, m := range c.Members() {
		out[m.URL] = m.Dispatched
	}
	return out
}

// totalDispatched sums the dispatch attempts sent to every backend.
func totalDispatched(c *Coordinator) int64 {
	var n int64
	for _, m := range c.Members() {
		n += m.Dispatched
	}
	return n
}

// logBuffer collects a coordinator's log records as JSON lines; safe for
// the concurrent writes of a sweep's workers.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) logger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(l, nil))
}

// count returns how many records carry the message msg.
func (l *logBuffer) count(msg string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Count(l.buf.String(), `"msg":"`+msg+`"`)
}

// TestClusterParity is the acceptance check: a sweep dispatched across two
// in-process backends returns results byte-identical to a local
// harness.RunStats, exercises both backends, and folds duplicate configs into
// one dispatch. Run under -race in CI.
func TestClusterParity(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	c := newCoordinator(t, Options{Backends: []string{b1.URL, b2.URL}})

	cells := []harness.Cell{
		{Key: "gcc-base", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "gcc-visa", Cfg: testCfg("gcc", core.SchemeVISA)},
		{Key: "mcf-base", Cfg: testCfg("mcf", core.SchemeBase)},
		{Key: "mcf-visa", Cfg: testCfg("mcf", core.SchemeVISA)},
		{Key: "gcc-base-dup", Cfg: testCfg("gcc", core.SchemeBase)}, // same hash as gcc-base
	}
	remote, remoteStats, err := c.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := harness.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(cells) || len(remoteStats) != len(cells) {
		t.Fatalf("remote returned %d results, %d stats, want %d", len(remote), len(remoteStats), len(cells))
	}
	for key := range local {
		rj, err := json.Marshal(remote[key])
		if err != nil {
			t.Fatal(err)
		}
		lj, err := json.Marshal(local[key])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s: dispatched Result differs from local harness.RunStats", key)
		}
	}

	counts := backendDispatchCounts(c)
	for url, n := range counts {
		if n == 0 {
			t.Errorf("backend %s received no dispatches: %v", url, counts)
		}
	}
	// Five cells, four distinct hashes: gcc-base-dup folds into gcc-base,
	// and healthy backends need no retries.
	if got := totalDispatched(c); got != 4 {
		t.Errorf("dispatched %d attempts for 4 groups, want 4", got)
	}
}

// flakyBackend wraps a real backend handler and fails the first `left`
// sweep submissions: errors when hang is false, stalls until client
// disconnect when true. Everything else (healthz, job streams) passes
// through, like a daemon that is reachable but misbehaving on work.
type flakyBackend struct {
	real    http.Handler
	hang    bool
	release chan struct{} // unblocks hung handlers at test teardown
	mu      sync.Mutex
	left    int
	tripped int
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweeps") {
		f.mu.Lock()
		bad := f.left > 0
		if bad {
			f.left--
			f.tripped++
		}
		f.mu.Unlock()
		if bad {
			if f.hang {
				// Drain the body first: with unread request data the server
				// never notices a client disconnect (its one-byte background
				// read eats a body byte and stops), so r.Context() would only
				// cancel when the handler returns — a deadlock.
				io.Copy(io.Discard, r.Body) //nolint:errcheck
				select {
				case <-r.Context().Done():
				case <-f.release:
				}
				return
			}
			http.Error(w, `{"error":"injected fault"}`, http.StatusInternalServerError)
			return
		}
	}
	f.real.ServeHTTP(w, r)
}

// TestFlakyBackendDoesNotFailSweep is the fault-injection satellite: a
// backend that errors on first contact costs retries/failovers, never the
// sweep, and the results still match a local run byte-for-byte.
func TestFlakyBackendDoesNotFailSweep(t *testing.T) {
	healthySrv := newBackend(t)

	flakySim := server.New(server.Options{})
	flaky := &flakyBackend{real: flakySim.Handler(), left: 2}
	flakyTS := httptest.NewServer(flaky)
	t.Cleanup(func() {
		flakyTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		flakySim.Shutdown(ctx) //nolint:errcheck
	})

	// The flaky backend first so least-loaded tie-breaking sends the first
	// cell straight into the fault.
	var logs logBuffer
	c := newCoordinator(t, Options{
		Backends:    []string{flakyTS.URL, healthySrv.URL},
		MaxAttempts: 4,
		Logger:      logs.logger(),
	})
	cells := []harness.Cell{
		{Key: "a", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "b", Cfg: testCfg("gcc", core.SchemeVISA)},
		{Key: "c", Cfg: testCfg("mcf", core.SchemeBase)},
	}
	remote, _, err := c.Run(context.Background(), cells)
	if err != nil {
		t.Fatalf("sweep failed despite a healthy backend: %v", err)
	}
	local, _, err := harness.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range local {
		rj, _ := json.Marshal(remote[key])
		lj, _ := json.Marshal(local[key])
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s differs from local run after failover", key)
		}
	}
	if flaky.tripped == 0 {
		t.Fatal("fault was never exercised")
	}
	if got := logs.count("cell retrying"); got < 1 {
		t.Fatalf("%d cell retrying records, want >= 1", got)
	}
	if got := logs.count("cell failing over"); got < 1 {
		t.Fatalf("%d cell failing over records, want >= 1", got)
	}
}

// TestCellErrorKeySurvivesDispatch pins the error contract through the
// cluster: a doomed cell aborts the sweep with a *harness.CellError whose
// Key is the submitted cell's key, exactly as local harness.RunStats would.
func TestCellErrorKeySurvivesDispatch(t *testing.T) {
	b := newBackend(t)
	var logs logBuffer
	c := newCoordinator(t, Options{Backends: []string{b.URL}, Logger: logs.logger()})

	cells := []harness.Cell{
		{Key: "fine", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "doomed", Cfg: core.Config{Benchmarks: []string{"nonesuch"}, MaxInstructions: 1000}},
	}
	_, _, err := c.Run(context.Background(), cells)
	if err == nil {
		t.Fatal("sweep with a doomed cell succeeded")
	}
	var ce *harness.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *harness.CellError: %v", err, err)
	}
	if ce.Key != "doomed" {
		t.Fatalf("CellError key %q, want %q", ce.Key, "doomed")
	}
	// Rejected requests are permanent: no retry storm against the backend,
	// so each of the two groups is sent at most once.
	if got := logs.count("cell retrying"); got != 0 {
		t.Fatalf("%d cell retrying records for a permanent failure, want 0", got)
	}
	if got := totalDispatched(c); got > int64(len(cells)) {
		t.Fatalf("dispatched %d attempts for %d groups, want at most one each", got, len(cells))
	}
}

// TestResumeSkipsCompletedCells is the checkpointed-resume acceptance
// check: a coordinator killed mid-sweep leaves its completed cells in the
// store; re-running with Resume dispatches only the missing hashes.
func TestResumeSkipsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	cells := []harness.Cell{
		{Key: "a", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "b", Cfg: testCfg("gcc", core.SchemeVISA)},
		{Key: "c", Cfg: testCfg("mcf", core.SchemeBase)},
		{Key: "d", Cfg: testCfg("mcf", core.SchemeVISA)},
	}

	// "First life": the sweep got through cells a and b before the
	// coordinator died — their results are checkpointed in the store.
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := newBackend(t)
	first := newCoordinator(t, Options{Backends: []string{b1.URL}, Store: st1})
	if _, _, err := first.Run(context.Background(), cells[:2]); err != nil {
		t.Fatal(err)
	}
	if st1.Len() != 2 {
		t.Fatalf("store holds %d checkpoints after partial sweep, want 2", st1.Len())
	}

	// "Second life": fresh store handle, fresh coordinator, fresh
	// backend, full sweep in resume mode.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b2 := newBackend(t)
	second := newCoordinator(t, Options{Backends: []string{b2.URL}, Store: st2, Resume: true})
	remote, _, err := second.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := harness.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range local {
		rj, _ := json.Marshal(remote[key])
		lj, _ := json.Marshal(local[key])
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s differs after resume", key)
		}
	}
	if total := totalDispatched(second); total != 2 {
		t.Fatalf("resumed sweep dispatched %v cells, want only the 2 missing ones", total)
	}
	if st2.Len() != 4 {
		t.Fatalf("store holds %d checkpoints after resume, want 4", st2.Len())
	}
}

// TestWedgedBackendTimesOutAndFailsOver: the first backend accepts the
// connection and then hangs. CellTimeout fails that attempt, the backend is
// marked unhealthy, and the cell fails over to the second backend, so the
// sweep costs one timeout rather than stalling.
func TestWedgedBackendTimesOutAndFailsOver(t *testing.T) {
	goodSrv := newBackend(t)

	wedgedSim := server.New(server.Options{})
	wedged := &flakyBackend{real: wedgedSim.Handler(), left: 1, hang: true, release: make(chan struct{})}
	wedgedTS := httptest.NewServer(wedged)

	// Wedged backend first in the list so the single cell lands on it. Run
	// probes only demoted backends, so only the timed-out attempt can mark
	// it unhealthy.
	var logs logBuffer
	c := newCoordinator(t, Options{
		Backends:    []string{wedgedTS.URL, goodSrv.URL},
		CellTimeout: 300 * time.Millisecond,
		Logger:      logs.logger(),
	})
	t.Cleanup(func() {
		close(wedged.release) // runs before wedgedTS.Close would wait on the conn
		wedgedTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		wedgedSim.Shutdown(ctx) //nolint:errcheck
	})
	cells := []harness.Cell{{Key: "x", Cfg: testCfg("gcc", core.SchemeBase)}}
	done := make(chan error, 1)
	var remote harness.Results
	go func() {
		var err error
		remote, _, err = c.Run(context.Background(), cells)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not finish while a backend hung")
	}
	if got := logs.count("cell failing over"); got < 1 {
		t.Fatalf("%d cell failing over records, want >= 1", got)
	}
	for _, m := range c.Members() {
		if m.URL == wedgedTS.URL && m.Healthy {
			t.Fatal("timed-out backend still marked healthy")
		}
	}
	local, _, err := harness.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := json.Marshal(remote["x"])
	lj, _ := json.Marshal(local["x"])
	if !bytes.Equal(rj, lj) {
		t.Fatal("failed-over result differs from local run")
	}
}

// cutStreamBackend is a stub daemon whose job streams never carry the
// submitted cell's result: it accepts every submission, and each stream
// does what mode says —
//   - "cut": one "cell" event carrying a bogus result, then a hang-up
//     before the "end" event;
//   - "short": an "end" event for a done job without its cell;
//   - "foreign": a complete stream whose one cell has another content hash,
//     like a restarted daemon that reused the job ID for another job.
type cutStreamBackend struct {
	mode    string
	mu      sync.Mutex
	cells   map[string]server.SubmitCell // by job ID
	streams int
}

func (b *cutStreamBackend) handler(t *testing.T) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok"}`) //nolint:errcheck
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req server.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Cells) != 1 {
			t.Errorf("stub got a bad submission (%v, %d cells)", err, len(req.Cells))
			http.Error(w, `{"error":"bad submission"}`, http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		id := fmt.Sprintf("job-%d", len(b.cells)+1)
		b.cells[id] = req.Cells[0]
		b.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.SubmitResponse{ //nolint:errcheck
			ID: id, Cells: 1, Stream: "/v1/jobs/" + id + "/stream"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		sc, ok := b.cells[r.PathValue("id")]
		b.streams++
		b.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		hash, err := sc.Config.Hash()
		if err != nil {
			t.Error(err)
		}
		enc := json.NewEncoder(w)
		bogus := server.StreamEvent{Type: "cell", Cell: &server.CellStatus{
			Key: sc.Key, Hash: hash, Done: true, Result: json.RawMessage(`{"Cycles":1}`)}}
		done := server.StreamEvent{Type: "end", State: server.StateDone}
		switch b.mode {
		case "cut":
			enc.Encode(bogus) //nolint:errcheck
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // hang up mid-stream
		case "short":
			enc.Encode(done) //nolint:errcheck
		case "foreign":
			bogus.Cell.Hash = strings.Repeat("0", len(hash))
			enc.Encode(bogus) //nolint:errcheck
			enc.Encode(done)  //nolint:errcheck
		}
	})
	return mux
}

// TestCutStreamFailsOver pins that only a job stream reaching its "end"
// event with the submitted cell counts as a result: a backend whose streams
// are cut after a bogus cell event, end without their cell, or answer with
// another job's cell costs a failover, and the two-cell sweep still comes
// out byte-identical to a local run.
func TestCutStreamFailsOver(t *testing.T) {
	for _, mode := range []string{"cut", "short", "foreign"} {
		t.Run(mode, func(t *testing.T) {
			healthy := newBackend(t)
			stub := &cutStreamBackend{mode: mode, cells: map[string]server.SubmitCell{}}
			stubTS := httptest.NewServer(stub.handler(t))
			t.Cleanup(stubTS.Close)

			// The stub first, so least-loaded tie-breaking sends it a cell;
			// it starts healthy and is not probed, so only the cut stream
			// can mark it unhealthy.
			var logs logBuffer
			c := newCoordinator(t, Options{
				Backends: []string{stubTS.URL, healthy.URL},
				Logger:   logs.logger(),
			})
			cells := []harness.Cell{
				{Key: "a", Cfg: testCfg("gcc", core.SchemeBase)},
				{Key: "b", Cfg: testCfg("gcc", core.SchemeVISA)},
			}
			remote, _, err := c.Run(context.Background(), cells)
			if err != nil {
				t.Fatalf("sweep failed despite a healthy backend: %v", err)
			}
			local, _, err := harness.RunStats(cells, harness.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for key := range local {
				rj, _ := json.Marshal(remote[key])
				lj, _ := json.Marshal(local[key])
				if !bytes.Equal(rj, lj) {
					t.Fatalf("cell %s differs from local run after a bad stream", key)
				}
			}
			stub.mu.Lock()
			streams := stub.streams
			stub.mu.Unlock()
			if streams == 0 {
				t.Fatal("no stream was ever read from the stub")
			}
			if got := logs.count("cell failing over"); got < 1 {
				t.Fatalf("%d cell failing over records, want >= 1", got)
			}
		})
	}
}

// TestProbeMarksDownBackend: a dead URL is reported unhealthy by Probe and
// dispatch routes around it without retries once probed.
func TestProbeMarksDownBackend(t *testing.T) {
	alive := newBackend(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	c := newCoordinator(t, Options{Backends: []string{deadURL, alive.URL}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sts := c.Probe(ctx)
	if len(sts) != 2 {
		t.Fatalf("probe returned %d statuses", len(sts))
	}
	if sts[0].Healthy || sts[0].Error == "" {
		t.Fatalf("dead backend reported healthy: %+v", sts[0])
	}
	if !sts[1].Healthy {
		t.Fatalf("live backend reported unhealthy: %+v", sts[1])
	}

	remote, _, err := c.Run(context.Background(), []harness.Cell{{Key: "k", Cfg: testCfg("gcc", core.SchemeBase)}})
	if err != nil {
		t.Fatal(err)
	}
	if remote["k"] == nil {
		t.Fatal("no result for k")
	}
	counts := backendDispatchCounts(c)
	if counts[deadURL] != 0 {
		t.Fatalf("dispatched %v cells to a probed-down backend", counts[deadURL])
	}
}

// TestEmptyAndInvalidSweeps covers the edges shared with harness.RunStats.
func TestEmptyAndInvalidSweeps(t *testing.T) {
	b := newBackend(t)
	c := newCoordinator(t, Options{Backends: []string{b.URL}})
	res, stats, err := c.Run(context.Background(), nil)
	if err != nil || len(res) != 0 || len(stats) != 0 {
		t.Fatalf("empty sweep: %v %v %v", res, stats, err)
	}
	dup := []harness.Cell{
		{Key: "x", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "x", Cfg: testCfg("mcf", core.SchemeBase)},
	}
	if _, _, err := c.Run(context.Background(), dup); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

// TestNewRejectsBadBackendLists pins constructor validation.
func TestNewRejectsBadBackendLists(t *testing.T) {
	for _, bad := range [][]string{nil, {}, {""}, {"http://a", "http://a/"}} {
		if _, err := New(Options{Backends: bad}); err == nil {
			t.Errorf("New(%q) succeeded", bad)
		}
	}
}
