package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
)

// TestPromMetricsEndpoint exercises GET /metrics/prom end to end: run one
// job, scrape, and check the exposition is well formed — correct content
// type, counters reflecting the job, and populated histograms.
func TestPromMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ack := submit(t, ts, SubmitRequest{Cells: []SubmitCell{
		{Key: "a", Config: testCfg("gcc", core.SchemeBase)},
		{Key: "b", Config: testCfg("gcc", core.SchemeBase)}, // same hash: a cache share
	}})
	if ack.Sweep == "" {
		t.Fatal("submit ack carries no sweep correlation ID")
	}
	waitJob(t, ts, ack)

	resp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics/prom: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text 0.0.4", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(blob)

	for _, want := range []string{
		"# TYPE visasimd_jobs_done_total counter",
		"visasimd_jobs_done_total 1",
		"visasimd_cells_total 2",
		"visasimd_sims_run_total 1",
		"# TYPE visasimd_queue_wait_seconds histogram",
		"visasimd_queue_wait_seconds_bucket{le=\"+Inf\"} 1",
		"visasimd_queue_wait_seconds_count 1",
		"# TYPE visasimd_simulate_seconds histogram",
		"visasimd_simulate_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every sample line must parse as "name[{labels}] value" with no stray
	// output; a loose sanity pass over the whole body.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestPromFamilySet pins the daemon's exact metric families, name and TYPE,
// for a daemon with a store after a one-cell job. perfbench's
// service workload reads the queue-wait and simulate histograms and the
// cells, cache-hit and store counters; make obs-smoke greps jobs_done and
// the histograms. A rename or removal must show up here as a deliberate
// diff.
func TestPromFamilySet(t *testing.T) {
	_, ts := newTestServer(t, Options{Store: openStore(t, t.TempDir())})
	ack := submit(t, ts, SubmitRequest{Cells: []SubmitCell{
		{Key: "a", Config: testCfg("gcc", core.SchemeBase)},
	}})
	if st := waitJob(t, ts, ack); st.State != StateDone {
		t.Fatalf("job state %s (error %q)", st.State, st.Error)
	}

	want := []string{
		"visasimd_cache_entries gauge",
		"visasimd_cache_evictions_total counter",
		"visasimd_cache_hits_total counter",
		"visasimd_cache_serve_seconds histogram",
		"visasimd_cells_total counter",
		"visasimd_jobs_canceled_total counter",
		"visasimd_jobs_done_total counter",
		"visasimd_jobs_failed_total counter",
		"visasimd_jobs_queued gauge",
		"visasimd_jobs_rejected_total counter",
		"visasimd_jobs_running gauge",
		"visasimd_jobs_submitted_total counter",
		"visasimd_queue_wait_seconds histogram",
		"visasimd_sim_cycles_total counter",
		"visasimd_sim_instructions_total counter",
		"visasimd_sims_run_total counter",
		"visasimd_simulate_seconds histogram",
		"visasimd_store_bytes gauge",
		"visasimd_store_entries gauge",
		"visasimd_store_hits_total counter",
		"visasimd_store_misses_total counter",
		"visasimd_store_put_errors_total counter",
	}
	got := typeLines(t, ts.URL+"/metrics/prom")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("metric families changed:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// typeLines fetches a Prometheus exposition and returns its "# TYPE" lines
// as "name type", in exposition order.
func typeLines(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, rest)
		}
	}
	return out
}

// TestClientHonorsCancellation pins that a canceled caller context aborts
// Wait promptly even while the daemon's stream never ends.
func TestClientHonorsCancellation(t *testing.T) {
	cli := &Client{BaseURL: stubDaemon(t, 1, endlessStream).URL}
	ctx, cancel := context.WithCancel(context.Background())
	ack, err := cli.Submit(ctx, []harness.Cell{{Key: "x", Cfg: testCfg("gcc", core.SchemeBase)}})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()

	done := make(chan error, 1)
	go func() {
		_, err := cli.Wait(ctx, ack)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait ignored cancellation")
	}
}
