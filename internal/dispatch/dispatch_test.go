package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
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
	opt.PollInterval = 2 * time.Millisecond
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
	t.Cleanup(c.Close)
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

// TestClusterParity is the acceptance check: a sweep dispatched across two
// in-process backends returns results byte-identical to a local
// harness.Run, exercises both backends, and folds duplicate configs into
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
	remote, remoteStats, err := c.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := harness.Run(cells, harness.Options{})
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
			t.Fatalf("cell %s: dispatched Result differs from local harness.Run", key)
		}
	}

	counts := backendDispatchCounts(c)
	for url, n := range counts {
		if n == 0 {
			t.Errorf("backend %s received no dispatches: %v", url, counts)
		}
	}
	if got := c.met.dedupShares.Value(); got != 1 {
		t.Errorf("dedup_shares = %v, want 1 (gcc-base-dup folds into gcc-base)", got)
	}
	if got := c.met.cellsTotal.Value(); got != int64(len(cells)) {
		t.Errorf("cells_total = %v, want %d", got, len(cells))
	}
}

// flakyBackend wraps a real backend handler and fails the first `left`
// sweep submissions: errors when hang is false, stalls until client
// disconnect when true. Everything else (healthz, job polls) passes
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
	c := newCoordinator(t, Options{
		Backends:    []string{flakyTS.URL, healthySrv.URL},
		MaxAttempts: 4,
	})
	cells := []harness.Cell{
		{Key: "a", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "b", Cfg: testCfg("gcc", core.SchemeVISA)},
		{Key: "c", Cfg: testCfg("mcf", core.SchemeBase)},
	}
	remote, err := c.Run(cells, harness.Options{})
	if err != nil {
		t.Fatalf("sweep failed despite a healthy backend: %v", err)
	}
	local, err := harness.Run(cells, harness.Options{})
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
	if got := c.met.retries.Value(); got < 1 {
		t.Fatalf("retries = %v, want >= 1", got)
	}
	if got := c.met.failovers.Value(); got < 1 {
		t.Fatalf("failovers = %v, want >= 1", got)
	}
}

// TestCellErrorKeySurvivesDispatch pins the error contract through the
// cluster: a doomed cell aborts the sweep with a *harness.CellError whose
// Key is the submitted cell's key, exactly as local harness.Run would.
func TestCellErrorKeySurvivesDispatch(t *testing.T) {
	b := newBackend(t)
	c := newCoordinator(t, Options{Backends: []string{b.URL}})

	cells := []harness.Cell{
		{Key: "fine", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "doomed", Cfg: core.Config{Benchmarks: []string{"nonesuch"}, MaxInstructions: 1000}},
	}
	_, err := c.Run(cells, harness.Options{})
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
	// Rejected requests are permanent: no retry storm against the backend.
	if got := c.met.retries.Value(); got != 0 {
		t.Fatalf("retries = %v for a permanent failure, want 0", got)
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
	if _, err := first.Run(cells[:2], harness.Options{}); err != nil {
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
	remote, err := second.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := harness.Run(cells, harness.Options{})
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
	if got := second.met.resumeSkips.Value(); got != 2 {
		t.Fatalf("resume_skips = %v, want 2", got)
	}
	var total int64
	for _, n := range backendDispatchCounts(second) {
		total += n
	}
	if total != 2 {
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

	// Wedged backend first in the list so the single cell lands on it. No
	// probe runs during the test, so only the timed-out attempt can mark it
	// unhealthy.
	c := newCoordinator(t, Options{
		Backends:      []string{wedgedTS.URL, goodSrv.URL},
		CellTimeout:   300 * time.Millisecond,
		ProbeInterval: time.Hour,
	})
	// Registered after the coordinator so it runs first: a still-hung
	// attempt is released before c.Close waits for it.
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
		remote, err = c.Run(cells, harness.Options{})
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
	if got := c.met.failovers.Value(); got < 1 {
		t.Fatalf("failovers = %v, want >= 1", got)
	}
	for _, m := range c.Members() {
		if m.URL == wedgedTS.URL && m.Healthy {
			t.Fatal("timed-out backend still marked healthy")
		}
	}
	local, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := json.Marshal(remote["x"])
	lj, _ := json.Marshal(local["x"])
	if !bytes.Equal(rj, lj) {
		t.Fatal("failed-over result differs from local run")
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

	remote, err := c.Run([]harness.Cell{{Key: "k", Cfg: testCfg("gcc", core.SchemeBase)}}, harness.Options{})
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

// TestEmptyAndInvalidSweeps covers the edges shared with harness.Run.
func TestEmptyAndInvalidSweeps(t *testing.T) {
	b := newBackend(t)
	c := newCoordinator(t, Options{Backends: []string{b.URL}})
	res, stats, err := c.RunStats(nil, harness.Options{})
	if err != nil || len(res) != 0 || len(stats) != 0 {
		t.Fatalf("empty sweep: %v %v %v", res, stats, err)
	}
	dup := []harness.Cell{
		{Key: "x", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "x", Cfg: testCfg("mcf", core.SchemeBase)},
	}
	if _, err := c.Run(dup, harness.Options{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

// TestNewRejectsBadBackendLists pins constructor validation.
func TestNewRejectsBadBackendLists(t *testing.T) {
	for _, bad := range [][]string{nil, {}, {""}, {"http://a", "http://a/"}} {
		if c, err := New(Options{Backends: bad}); err == nil {
			c.Close()
			t.Errorf("New(%q) succeeded", bad)
		}
	}
}
