package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/server"
)

// noKeepAlive returns an HTTP client that closes each connection after its
// request, so no idle pooled connection holds goroutines between sweeps.
func noKeepAlive() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
}

// waitGoroutines waits until at most want goroutines run — the connection
// goroutines of a finished request exit asynchronously — and fails the test
// with every goroutine's stack if the count stays above want.
func waitGoroutines(t *testing.T, when string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines running, want at most %d:\n%s", when, n, want, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoGoroutineOutlivesRun pins the coordinator's lifecycle: New starts
// no goroutine, and every goroutine a sweep starts has exited once Run
// returns — after a clean sweep, a permanent cell failure, and a sweep
// canceled while an attempt hangs on its backend.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	// The canceled case's backend hangs every submission and signals the
	// first on entered.
	entered := make(chan struct{}, 1)
	cases := []struct {
		name    string
		backend func(t *testing.T) string
		cells   []harness.Cell
		cancel  bool // cancel the sweep once its first submission hangs
		wantErr bool
	}{
		{
			name:    "success",
			backend: func(t *testing.T) string { return newBackend(t).URL },
			cells: []harness.Cell{
				{Key: "a", Cfg: testCfg("gcc", core.SchemeBase)},
				{Key: "b", Cfg: testCfg("mcf", core.SchemeVISA)},
			},
		},
		{
			name:    "permanent-failure",
			backend: func(t *testing.T) string { return newBackend(t).URL },
			cells: []harness.Cell{
				{Key: "fine", Cfg: testCfg("gcc", core.SchemeBase)},
				{Key: "doomed", Cfg: core.Config{Benchmarks: []string{"nonesuch"}, MaxInstructions: 1000}},
			},
			wantErr: true,
		},
		{
			name: "canceled",
			backend: func(t *testing.T) string {
				sim := server.New(server.Options{})
				f := &flakyBackend{real: sim.Handler(), left: 1 << 30, hang: true, release: make(chan struct{})}
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method == http.MethodPost {
						select {
						case entered <- struct{}{}:
						default:
						}
					}
					f.ServeHTTP(w, r)
				}))
				t.Cleanup(func() {
					close(f.release) // frees a still-hung handler before ts.Close waits on it
					ts.Close()
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					defer cancel()
					sim.Shutdown(ctx) //nolint:errcheck
				})
				return ts.URL
			},
			cells:   []harness.Cell{{Key: "x", Cfg: testCfg("gcc", core.SchemeBase)}},
			cancel:  true,
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url := tc.backend(t)
			base := runtime.NumGoroutine()
			c := newCoordinator(t, Options{Backends: []string{url}, HTTP: noKeepAlive()})
			waitGoroutines(t, "after New", base)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				go func() {
					select {
					case <-entered:
						cancel()
					case <-ctx.Done():
					}
				}()
			}
			_, _, err := c.Run(ctx, tc.cells)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Run error = %v, want error %v", err, tc.wantErr)
			}
			waitGoroutines(t, "after Run", base)
		})
	}
}

// TestDemotedBackendRejoinsNextSweep pins health without a background
// prober: a backend whose first submission fails is demoted for the rest
// of its sweep, and the next sweep's re-probe lets it back in, so it
// receives dispatches again.
func TestDemotedBackendRejoinsNextSweep(t *testing.T) {
	healthy := newBackend(t)
	flakySim := server.New(server.Options{})
	flaky := &flakyBackend{real: flakySim.Handler(), left: 1}
	flakyTS := httptest.NewServer(flaky)
	t.Cleanup(func() {
		flakyTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		flakySim.Shutdown(ctx) //nolint:errcheck
	})

	// The flaky backend first, so least-loaded tie-breaking sends each
	// sweep's first cell to it.
	c := newCoordinator(t, Options{Backends: []string{flakyTS.URL, healthy.URL}})
	sweep := func(scheme core.Scheme) {
		t.Helper()
		cells := []harness.Cell{
			{Key: "gcc", Cfg: testCfg("gcc", scheme)},
			{Key: "mcf", Cfg: testCfg("mcf", scheme)},
		}
		res, _, err := c.Run(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			if res[cell.Key] == nil {
				t.Fatalf("no result for %s", cell.Key)
			}
		}
	}

	sweep(core.SchemeBase)
	first := c.Members()[0]
	flaky.mu.Lock()
	tripped := flaky.tripped
	flaky.mu.Unlock()
	if tripped != 1 || first.Healthy {
		t.Fatalf("after sweep 1: fault tripped %d times, flaky backend %+v; want 1 and demoted",
			tripped, first)
	}

	sweep(core.SchemeVISA)
	second := c.Members()[0]
	if !second.Healthy {
		t.Fatalf("flaky backend not re-admitted after passing its re-probe: %+v", second)
	}
	if second.Dispatched <= first.Dispatched {
		t.Fatalf("flaky backend got no dispatch in sweep 2 (%d attempts before, %d after)",
			first.Dispatched, second.Dispatched)
	}
}

// TestWorkersBoundOneSweep: a sweep with more groups than Workers never
// has more than Workers attempts at the backend at once, and the groups
// beyond the bound still dispatch and come back byte-identical to a local
// run.
func TestWorkersBoundOneSweep(t *testing.T) {
	upstream := newBackend(t)
	target, err := url.Parse(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var mu sync.Mutex
	active, peak := 0, 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		active++
		peak = max(peak, active)
		mu.Unlock()
		defer func() {
			mu.Lock()
			active--
			mu.Unlock()
		}()
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	const workers = 2
	c := newCoordinator(t, Options{Backends: []string{ts.URL}, Workers: workers})
	cells := make([]harness.Cell, 5)
	for i := range cells {
		cfg := testCfg("gcc", core.SchemeBase)
		cfg.MaxInstructions = testBudget + uint64(i) // distinct content hashes
		cells[i] = harness.Cell{Key: fmt.Sprintf("w-%d", i), Cfg: cfg}
	}
	remote, _, err := c.Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := peak
	mu.Unlock()
	if got > workers {
		t.Fatalf("%d requests at the backend at once, want at most Workers = %d", got, workers)
	}
	local, _, err := harness.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range local {
		rj, _ := json.Marshal(remote[key])
		lj, _ := json.Marshal(local[key])
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s differs from local run", key)
		}
	}
}
