package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"visasim/internal/core"
	"visasim/internal/harness"
)

// TestTracedJobServesNDJSONTrace covers the trace download path: a
// trace_level submission records per-cell decision traces, serves them as
// NDJSON, and produces results byte-identical to an untraced submission of
// the same cell (tracing is observation only).
func TestTracedJobServesNDJSONTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := testCfg("mcf", core.SchemeVISAOpt2)

	ack := submit(t, ts, SubmitRequest{
		Cells:      []SubmitCell{{Key: "traced", Config: cfg}},
		TraceLevel: 1,
	})
	st := waitJob(t, ts, ack.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s (error %q)", st.State, st.Error)
	}
	c := st.Cells[0]
	if !c.HasTrace {
		t.Fatal("traced cell reports no trace")
	}
	if c.CacheHit {
		t.Fatal("traced cell claims a cache hit; traced jobs must bypass the cache")
	}
	// A traced cell is a fresh simulation and is counted as one, so
	// cells_total == cache_hits_total + sims_run_total holds.
	m := getMetrics(t, ts)
	if m["visasimd_cells_total"] != 1 || m["visasimd_cache_hits_total"] != 0 ||
		m["visasimd_sims_run_total"] != 1 || c.Stats.Instructions == 0 ||
		m["visasimd_sim_instructions_total"] != float64(c.Stats.Instructions) {
		t.Errorf("after one traced cell: cells %v, cache hits %v, sims run %v, sim instructions %v (cell ran %d)",
			m["visasimd_cells_total"], m["visasimd_cache_hits_total"], m["visasimd_sims_run_total"],
			m["visasimd_sim_instructions_total"], c.Stats.Instructions)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + ack.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace download: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("NDJSON trace has %d lines, want header + summary at least", len(lines))
	}
	if !strings.Contains(lines[0], `"type":"header"`) || !strings.Contains(lines[0], `"trace_level":1`) {
		t.Errorf("bad header line: %s", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], `"type":"summary"`) {
		t.Errorf("bad summary line: %s", lines[len(lines)-1])
	}

	// Tracing must not perturb the simulation: an untraced submission of
	// the identical cell returns byte-identical result JSON.
	plain := waitJob(t, ts, submit(t, ts, SubmitRequest{
		Cells: []SubmitCell{{Key: "plain", Config: cfg}},
	}).ID)
	if plain.State != StateDone {
		t.Fatalf("untraced job state %s", plain.State)
	}
	if !bytes.Equal(c.Result, plain.Cells[0].Result) {
		t.Error("traced and untraced results differ")
	}
}

// TestTraceEndpointErrors covers the endpoint's rejection paths.
func TestTraceEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := testCfg("gcc", core.SchemeBase)

	// Untraced job: no trace to serve.
	plain := submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "a", Config: cfg}}})
	waitJob(t, ts, plain.ID)
	if code := getStatus(t, ts.URL+"/v1/jobs/"+plain.ID+"/trace"); code != http.StatusNotFound {
		t.Errorf("untraced job trace: HTTP %d, want 404", code)
	}

	// Traced multi-cell job: cell selection required, unknown keys 404.
	traced := submit(t, ts, SubmitRequest{
		Cells: []SubmitCell{
			{Key: "a", Config: cfg},
			{Key: "b", Config: testCfg("mcf", core.SchemeBase)},
		},
		TraceLevel: 1,
	})
	waitJob(t, ts, traced.ID)
	base := ts.URL + "/v1/jobs/" + traced.ID + "/trace"
	if code := getStatus(t, base); code != http.StatusBadRequest {
		t.Errorf("multi-cell trace without ?cell: HTTP %d, want 400", code)
	}
	if code := getStatus(t, base+"?cell=nope"); code != http.StatusNotFound {
		t.Errorf("unknown cell: HTTP %d, want 404", code)
	}
	if code := getStatus(t, base+"?cell=b"); code != http.StatusOK {
		t.Errorf("known cell: HTTP %d, want 200", code)
	}
	if code := getStatus(t, ts.URL+"/v1/jobs/nope/trace"); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

// TestClientTraceDownload exercises the client-side path: a TraceLevel
// client submits traced sweeps and downloads each cell's trace.
func TestClientTraceDownload(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cli := &Client{BaseURL: ts.URL, TraceLevel: 1}

	cells := []harness.Cell{{Key: "c1", Cfg: testCfg("mcf", core.SchemeVISAOpt2)}}
	ack, err := cli.Submit(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Wait(context.Background(), ack.ID); err != nil {
		t.Fatal(err)
	}
	body, err := cli.Trace(context.Background(), ack.ID, "c1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"type":"header"`) {
		t.Errorf("trace body missing header line: %.120s", body)
	}
}
