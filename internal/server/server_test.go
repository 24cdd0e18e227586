package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
)

// testBudget keeps simulations fast; profiles are cached process-wide, so
// reusing benchmarks across tests costs little.
const testBudget = 6000

func testCfg(bench string, scheme core.Scheme) core.Config {
	return core.Config{
		Benchmarks:      []string{bench},
		Scheme:          scheme,
		Policy:          pipeline.PolicyICOUNT,
		MaxInstructions: testBudget,
	}
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := newHTTPServer(t, s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s, ts
}

// newHTTPServer mounts an existing Server on an httptest listener without
// tying the Server's lifetime to the test (the warm-restart test shuts the
// first Server down itself, mid-test).
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest) SubmitResponse {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var ack SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// jobEnd is a finished job as its event stream reported it.
type jobEnd struct {
	State, Error string
	// Cells holds the job's resolved cells by key.
	Cells map[string]CellStatus
}

// waitJob reads the job's event stream to its end event through the
// client's stream reader, so a cut or short stream fails the test.
func waitJob(t *testing.T, ts *httptest.Server, ack SubmitResponse) jobEnd {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+ack.Stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s stream: HTTP %d", ack.ID, resp.StatusCode)
	}
	cells, end, err := readStream(resp.Body, ack.Cells)
	if err != nil {
		t.Fatalf("job %s: %v", ack.ID, err)
	}
	out := jobEnd{State: end.State, Error: end.Error, Cells: map[string]CellStatus{}}
	for _, c := range cells {
		out.Cells[c.Key] = c
	}
	return out
}

// jobState reads a job's current state straight from the server.
func jobState(t *testing.T, s *Server, id string) string {
	t.Helper()
	j := s.lookup(id)
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// getMetrics scrapes GET /metrics/prom and returns its unlabeled samples
// by name.
func getMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad sample line %q", line)
		}
		m[name] = v
	}
	return m
}

func TestSubmitAndStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ack := submit(t, ts, SubmitRequest{Cells: []SubmitCell{
		{Key: "gcc-base", Config: testCfg("gcc", core.SchemeBase)},
	}})
	if ack.Cells != 1 || ack.ID == "" || ack.Stream != "/v1/jobs/"+ack.ID+"/stream" {
		t.Fatalf("bad ack %+v", ack)
	}
	st := waitJob(t, ts, ack)
	if st.State != StateDone {
		t.Fatalf("job state %s, want done (error %q)", st.State, st.Error)
	}
	c, ok := st.Cells["gcc-base"]
	if len(st.Cells) != 1 || !ok {
		t.Fatalf("got cells %+v", st.Cells)
	}
	if c.Key != "gcc-base" || !c.Done || c.Error != "" || len(c.Result) == 0 {
		t.Fatalf("bad cell %+v", c)
	}
	var res core.Result
	if err := json.Unmarshal(c.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.TotalCommits() < testBudget {
		t.Fatalf("implausible result: cycles=%d commits=%d", res.Cycles, res.TotalCommits())
	}
	if c.Stats.Cycles != res.Cycles {
		t.Fatalf("stats cycles %d != result cycles %d", c.Stats.Cycles, res.Cycles)
	}
}

// TestCachedResultByteIdentical is the acceptance check: the second
// submission of an identical cell is a cache hit whose Result JSON is
// byte-identical to both the first response and a fresh harness.RunStats.
func TestCachedResultByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := testCfg("mcf", core.SchemeVISA)

	first := waitJob(t, ts, submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "c", Config: cfg}}}))
	second := waitJob(t, ts, submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "c", Config: cfg}}}))
	if first.State != StateDone || second.State != StateDone {
		t.Fatalf("states %s/%s", first.State, second.State)
	}
	if first.Cells["c"].CacheHit {
		t.Fatal("first submission claims a cache hit")
	}
	if !second.Cells["c"].CacheHit {
		t.Fatalf("second submission not served from cache: %+v", second.Cells["c"])
	}
	if !bytes.Equal(first.Cells["c"].Result, second.Cells["c"].Result) {
		t.Fatal("cached Result JSON differs from the original run")
	}

	fresh, _, err := harness.RunStats([]harness.Cell{{Key: "c", Cfg: cfg}}, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	freshJSON, err := json.Marshal(fresh["c"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Cells["c"].Result, freshJSON) {
		t.Fatal("cached Result JSON differs from a fresh harness.RunStats of the same config")
	}

	m := getMetrics(t, ts)
	if hits := m["visasimd_cache_hits_total"]; hits != 1 {
		t.Fatalf("visasimd_cache_hits_total = %v, want 1", hits)
	}
}

// TestNoWarmupParity guards the canonicalization fix for Warmup<0: a
// submitted no-warmup cell must simulate without warmup (not silently pick
// up the default when core.Run re-applies defaults to the canonical form),
// so the daemon's Result is byte-identical to a local harness.RunStats of the
// same config.
func TestNoWarmupParity(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := testCfg("gcc", core.SchemeBase)
	cfg.Warmup = -1

	st := waitJob(t, ts, submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "nowarm", Config: cfg}}}))
	if st.State != StateDone {
		t.Fatalf("job state %s (error %q)", st.State, st.Error)
	}

	local, _, err := harness.RunStats([]harness.Cell{{Key: "nowarm", Cfg: cfg}}, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := json.Marshal(local["nowarm"])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Cells["nowarm"].Result, localJSON) {
		t.Fatal("daemon Result for a no-warmup cell differs from a local harness.RunStats")
	}

	// Guard against the test passing vacuously: disabling warmup must
	// actually change the simulation relative to the default-warmup config.
	withWarmup, _, err := harness.RunStats([]harness.Cell{{Key: "warm", Cfg: testCfg("gcc", core.SchemeBase)}}, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if local["nowarm"].Cycles == withWarmup["warm"].Cycles {
		t.Fatal("no-warmup run matches default-warmup cycle count; warmup was not disabled")
	}
}

// TestSingleFlight pins the de-duplication guarantee: many concurrent
// identical submissions trigger exactly one simulation. Run under -race via
// the tier-1 race target.
func TestSingleFlight(t *testing.T) {
	const n = 8
	_, ts := newTestServer(t, Options{JobWorkers: 4})
	cfg := testCfg("bzip2", core.SchemeVISAOpt2)

	var wg sync.WaitGroup
	acks := make([]SubmitResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acks[i] = submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "same", Config: cfg}}})
		}(i)
	}
	wg.Wait()

	var want []byte
	for i := 0; i < n; i++ {
		st := waitJob(t, ts, acks[i])
		if st.State != StateDone {
			t.Fatalf("job %s state %s (%s)", acks[i].ID, st.State, st.Error)
		}
		if want == nil {
			want = st.Cells["same"].Result
		} else if !bytes.Equal(want, st.Cells["same"].Result) {
			t.Fatalf("job %s returned a different Result", acks[i].ID)
		}
	}

	m := getMetrics(t, ts)
	if sims := m["visasimd_sims_run_total"]; sims != 1 {
		t.Fatalf("%d concurrent identical submissions ran %v simulations, want exactly 1", n, sims)
	}
	if total := m["visasimd_cells_total"]; total != n {
		t.Fatalf("visasimd_cells_total = %v, want %d", total, n)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name, body string
		want       string // substring of the error body; "" checks only that there is one
	}{
		{"malformed JSON", `{"cells": [`, ""},
		{"no cells", `{"cells": []}`, ""},
		{"unknown benchmark", `{"cells":[{"config":{"Benchmarks":["nonesuch"]}}]}`, ""},
		{"no benchmarks", `{"cells":[{"config":{}}]}`, ""},
		{"dvm without target", `{"cells":[{"config":{"Benchmarks":["gcc"],"Scheme":5}}]}`, ""},
		{"duplicate keys", `{"cells":[{"key":"x","config":{"Benchmarks":["gcc"]}},{"key":"x","config":{"Benchmarks":["mcf"]}}]}`, ""},
		{"bad machine", `{"cells":[{"config":{"Benchmarks":["gcc"],"Machine":{"IQSize":-1}}}]}`, ""},
		// Retired request fields are refused by name, never ignored.
		{"retired trace_level", `{"cells":[{"config":{"Benchmarks":["gcc"]}}],"trace_level":1}`, `unknown field "trace_level"`},
	}
	for _, tc := range cases {
		resp := post(tc.body)
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400 (error %q)", tc.name, resp.StatusCode, er.Error)
		} else if er.Error == "" || !strings.Contains(er.Error, tc.want) {
			t.Errorf("%s: 400 with error %q, want it to mention %q", tc.name, er.Error, tc.want)
		}
	}
}

// TestJobHistoryEviction checks the terminal-job cap: with JobHistory 1,
// finishing a second job evicts the first (its stream 404s) while the
// newest terminal job stays streamable and the result cache keeps both
// results.
func TestJobHistoryEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{JobHistory: 1})
	first := submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "a", Config: testCfg("gcc", core.SchemeBase)}}})
	waitJob(t, ts, first)
	second := submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "b", Config: testCfg("gcc", core.SchemeVISA)}}})
	waitJob(t, ts, second)

	// Retirement runs just after the terminal state becomes visible, so
	// poll briefly for the eviction.
	deadline := time.Now().Add(time.Minute)
	for s.lookup(first.ID) != nil {
		if time.Now().After(deadline) {
			t.Fatal("first job was never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + first.Stream)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job: HTTP %d, want 404", resp.StatusCode)
	}
	if st := waitJob(t, ts, second); st.State != StateDone {
		t.Fatalf("newest job state %s, want done", st.State)
	}
	if n := s.cache.size(); n != 2 {
		t.Fatalf("result cache has %d entries after eviction, want 2", n)
	}
}

// TestJobNotFound: an unknown job's stream 404s, and so do the retired
// poll and trace endpoints of a job that exists — the stream is the one way
// to read a job.
func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ack := submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "a", Config: testCfg("gcc", core.SchemeBase)}}})
	waitJob(t, ts, ack)
	for _, path := range []string{"/v1/jobs/nope/stream", "/v1/jobs/" + ack.ID, "/v1/jobs/" + ack.ID + "/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ack := submit(t, ts, SubmitRequest{Cells: []SubmitCell{
		{Key: "a", Config: testCfg("gcc", core.SchemeBase)},
		{Key: "b", Config: testCfg("gcc", core.SchemeVISA)},
	}})
	resp, err := http.Get(ts.URL + ack.Stream)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var cells, ends int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		switch ev.Type {
		case "cell":
			cells++
			if ev.Cell == nil || !ev.Cell.Done {
				t.Fatalf("cell event without a resolved cell: %+v", ev)
			}
		case "end":
			ends++
			if ev.State != StateDone {
				t.Fatalf("end state %s", ev.State)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cells != 2 || ends != 1 {
		t.Fatalf("stream delivered %d cell events and %d end events", cells, ends)
	}
}

// TestShutdown pins the graceful-shutdown contract: the in-flight job
// finishes, the queued job is canceled cleanly, and new submissions are
// rejected with 503. To make the race-free ordering testable, the test
// claims the in-flight cell's cache entry first (becoming its single-flight
// leader), so the job blocks as a follower until the test releases it —
// the job is deterministically "in flight" across the shutdown.
func TestShutdown(t *testing.T) {
	// One job worker so the second job is necessarily queued behind the
	// first.
	s, ts := newTestServer(t, Options{JobWorkers: 1})
	gated := testCfg("eon", core.SchemeBase)
	canon, err := gated.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := canon.Hash()
	if err != nil {
		t.Fatal(err)
	}
	entry, leader := s.cache.claim(hash)
	if !leader {
		t.Fatal("test could not claim the gate entry")
	}

	inflight := submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "inflight", Config: gated}}})
	queued := submit(t, ts, SubmitRequest{Cells: []SubmitCell{{Key: "queued", Config: testCfg("vpr", core.SchemeBase)}}})

	deadline := time.Now().Add(time.Minute)
	for jobState(t, s, inflight.ID) != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Shutdown blocks on the gated in-flight job; run it in the
	// background and wait until it has flipped the server to closed
	// (healthz 503) before releasing the gate.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Release the in-flight job with a real result for its config.
	res, stats, err := harness.RunStats([]harness.Cell{{Key: hash, Cfg: canon}}, harness.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.cache.fill(entry, res[hash], stats[hash])
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if st := waitJob(t, ts, inflight); st.State != StateDone {
		t.Fatalf("in-flight job ended %s, want done (error %q)", st.State, st.Error)
	}
	if st := waitJob(t, ts, queued); st.State != StateCanceled {
		t.Fatalf("queued job ended %s, want canceled", st.State)
	}

	blob, _ := json.Marshal(SubmitRequest{Cells: []SubmitCell{{Config: testCfg("gcc", core.SchemeBase)}}})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: HTTP %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown healthz: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestFailedCellFailsJob exercises the run-path failure handling. Submit
// validation is a superset of the run-time checks, so a failing cell cannot
// be provoked through the HTTP API; inject a job with an unknown benchmark
// directly into the queue instead.
func TestFailedCellFailsJob(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	j := &job{
		id:    "job-injected",
		state: StateQueued,
		cells: []jobCell{{
			key:  "doomed",
			hash: "deadbeefdeadbeef",
			cfg:  core.Config{Benchmarks: []string{"nonesuch"}, MaxInstructions: 1000},
		}},
		changed: make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.met.jobsQueued.Add(1)
	s.queue <- j

	st := waitJob(t, ts, SubmitResponse{ID: j.id, Cells: 1, Stream: "/v1/jobs/" + j.id + "/stream"})
	if st.State != StateFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	if c := st.Cells["doomed"]; c.Error == "" || !strings.Contains(c.Error, "nonesuch") || c.Result != nil {
		t.Fatalf("failed cell %+v", c)
	}
	// Failed entries are evicted so the address can retry later.
	if n := s.cache.size(); n != 0 {
		t.Fatalf("failed entry stayed cached (%d entries)", n)
	}
}
