package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/server"
)

// recordingBackend wraps a real backend handler and records the cell key
// of every sweep submission, in arrival order.
type recordingBackend struct {
	real http.Handler

	mu   sync.Mutex
	keys []string
}

func (rb *recordingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweeps") {
		blob, err := io.ReadAll(r.Body)
		if err == nil {
			var req server.SubmitRequest
			if json.Unmarshal(blob, &req) == nil {
				rb.mu.Lock()
				for _, c := range req.Cells {
					rb.keys = append(rb.keys, c.Key)
				}
				rb.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(blob))
		}
	}
	rb.real.ServeHTTP(w, r)
}

func (rb *recordingBackend) seen() []string {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return append([]string(nil), rb.keys...)
}

// newRecordingBackend boots a real in-process backend that records
// submission order.
func newRecordingBackend(t *testing.T) (*httptest.Server, *recordingBackend) {
	t.Helper()
	s := server.New(server.Options{})
	rb := &recordingBackend{real: s.Handler()}
	ts := httptest.NewServer(rb)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return ts, rb
}

// bulkCells builds n distinct single-benchmark cells named prefix-i.
func bulkCells(prefix string, n int) []harness.Cell {
	cells := make([]harness.Cell, n)
	for i := range cells {
		cfg := testCfg("gcc", core.SchemeBase)
		cfg.MaxInstructions = testBudget + uint64(i) // distinct content hashes
		cells[i] = harness.Cell{Key: fmt.Sprintf("%s-%d", prefix, i), Cfg: cfg}
	}
	return cells
}

// TestPrioritySchedulingResistsStarvation pins the SLO scheduler: with one
// dispatcher and a queue full of bulk work, a later interactive sweep
// jumps the line — its cells dispatch before the bulk backlog, so bulk
// load cannot starve interactive latency.
func TestPrioritySchedulingResistsStarvation(t *testing.T) {
	ts, rb := newRecordingBackend(t)
	c := newCoordinator(t, Options{Backends: []string{ts.URL}, Workers: 1})

	bulk := bulkCells("bulk", 12)
	interactive := bulkCells("inter", 3)
	for i := range interactive {
		interactive[i].Cfg.MaxInstructions = testBudget + 100 + uint64(i)
	}

	var wg sync.WaitGroup
	var bulkErr, interErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, bulkErr = c.RunContext(cluster.WithClass(context.Background(), cluster.Bulk),
			bulk, harness.Options{})
	}()
	// Wait until the bulk backlog is actually queued and being served.
	deadline := time.Now().Add(5 * time.Second)
	for len(rb.seen()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(rb.seen()) == 0 {
		t.Fatal("bulk sweep never started dispatching")
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, interErr = c.RunContext(cluster.WithClass(context.Background(), cluster.Interactive),
			interactive, harness.Options{})
	}()
	wg.Wait()
	if bulkErr != nil || interErr != nil {
		t.Fatalf("sweeps failed: bulk=%v interactive=%v", bulkErr, interErr)
	}

	order := rb.seen()
	lastInter := -1
	for i, k := range order {
		if strings.HasPrefix(k, "inter-") {
			lastInter = i
		}
	}
	if lastInter < 0 {
		t.Fatalf("no interactive submissions recorded in %v", order)
	}
	bulkAfter := 0
	for _, k := range order[lastInter+1:] {
		if strings.HasPrefix(k, "bulk-") {
			bulkAfter++
		}
	}
	// With a single dispatcher at most a couple of bulk cells can be
	// in flight when the interactive sweep lands; the rest of the backlog
	// must queue behind it.
	if bulkAfter < 3 {
		t.Fatalf("interactive cells did not jump the bulk backlog; order: %v", order)
	}

	// The scheduler's class families observed the traffic.
	var prom bytes.Buffer
	c.WritePrometheus(&prom)
	for _, want := range []string{
		`visasim_dispatch_class_admitted_cells_total{class="bulk"} 12`,
		`visasim_dispatch_class_admitted_cells_total{class="interactive"} 3`,
		`visasim_dispatch_class_latency_seconds_count{class="interactive"} 3`,
		"visasim_dispatch_jain_fairness",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestJoinAndDrainMidSweepLosesNoCells pins dynamic membership: a sweep
// starts on one backend, a second joins mid-flight, the first drains away
// — and every cell still resolves, byte-identical to a local run.
func TestJoinAndDrainMidSweepLosesNoCells(t *testing.T) {
	ts1, rb1 := newRecordingBackend(t)
	ts2, _ := newRecordingBackend(t)
	c := newCoordinator(t, Options{Backends: []string{ts1.URL}, Dynamic: true, Workers: 2})

	cells := bulkCells("cell", 16)
	var (
		wg      sync.WaitGroup
		results harness.Results
		runErr  error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results, runErr = c.Run(cells, harness.Options{})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for len(rb1.seen()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(rb1.seen()) < 2 {
		t.Fatal("sweep never started on the first backend")
	}
	if err := c.Join(ts2.URL); err != nil {
		t.Fatalf("Join: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Drain(ctx, ts1.URL); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatalf("sweep failed across the membership change: %v", runErr)
	}

	local, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range local {
		rj, _ := json.Marshal(results[key])
		lj, _ := json.Marshal(local[key])
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s: result differs after join+drain", key)
		}
	}

	members := c.Members()
	if len(members) != 1 || members[0].URL != ts2.URL {
		t.Fatalf("members after drain = %+v, want only the joined backend", members)
	}
	if members[0].Dispatched == 0 {
		t.Fatal("joined backend received no work")
	}
	if got := c.met.joins.Value(); got != 2 { // seed + join
		t.Errorf("joins = %v, want 2", got)
	}
	if got := c.met.drains.Value(); got != 1 {
		t.Errorf("drains = %v, want 1", got)
	}
	if got := c.met.leaves.Value(); got != 1 {
		t.Errorf("leaves = %v, want 1", got)
	}
}

// TestDynamicPoolWaitsForFirstBackend: a sweep submitted to an empty
// dynamic pool blocks instead of failing, and completes once the first
// backend registers.
func TestDynamicPoolWaitsForFirstBackend(t *testing.T) {
	c := newCoordinator(t, Options{Dynamic: true, Workers: 2})
	ts := newBackend(t)

	cells := bulkCells("cell", 3)
	done := make(chan error, 1)
	var results harness.Results
	go func() {
		var err error
		results, err = c.Run(cells, harness.Options{})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("sweep resolved with no backends: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := c.Join(ts.URL); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sweep failed after late join: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not resolve after a backend joined")
	}
	if len(results) != len(cells) {
		t.Fatalf("got %d results, want %d", len(results), len(cells))
	}
}

// sameBackendRate runs the same distinct-cell sweep twice through c and
// reports what fraction of cells hit the same backend both times.
func sameBackendRate(t *testing.T, c *Coordinator, rbs map[string]*recordingBackend, n int) float64 {
	t.Helper()
	cells := bulkCells("aff", n)
	for run := 0; run < 2; run++ {
		if _, err := c.Run(cells, harness.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	owner := map[string][]string{} // key -> backends that served it, in order
	for url, rb := range rbs {
		for _, k := range rb.seen() {
			owner[k] = append(owner[k], url)
		}
	}
	same := 0
	for _, urls := range owner {
		if len(urls) == 2 && urls[0] == urls[1] {
			same++
		}
	}
	return float64(same) / float64(n)
}

// TestAffinityRoutingBeatsRandom pins cache-affinity routing: re-submitted
// cells land on the backend that already served them (hit rate 1), while
// the random control arm scatters them.
func TestAffinityRoutingBeatsRandom(t *testing.T) {
	const n = 12
	newPair := func(routing Routing) (*Coordinator, map[string]*recordingBackend) {
		ts1, rb1 := newRecordingBackend(t)
		ts2, rb2 := newRecordingBackend(t)
		c := newCoordinator(t, Options{
			Backends: []string{ts1.URL, ts2.URL},
			Routing:  routing,
			Seed:     7,
		})
		return c, map[string]*recordingBackend{ts1.URL: rb1, ts2.URL: rb2}
	}

	affC, affRBs := newPair(RouteAffinity)
	affinity := sameBackendRate(t, affC, affRBs, n)
	randC, randRBs := newPair(RouteRandom)
	random := sameBackendRate(t, randC, randRBs, n)

	if affinity != 1 {
		t.Errorf("affinity same-backend rate = %v, want 1.0", affinity)
	}
	// 12 independent coin flips all landing on their first backend has
	// probability 2^-12; any real random run scatters at least one.
	if random >= affinity {
		t.Errorf("random same-backend rate %v not below affinity %v", random, affinity)
	}
}

// TestCoordinatorAdmission pins the admission gate at Run entry: unknown
// keys bounce, quota exhaustion returns a typed AdmissionError before any
// dispatch, and released quota admits again.
func TestCoordinatorAdmission(t *testing.T) {
	reg, err := cluster.NewRegistry([]cluster.Tenant{
		{ID: "papers", Key: "pk", Class: "interactive", RatePerSec: 10000, MaxQueued: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newBackend(t)
	c := newCoordinator(t, Options{
		Backends:  []string{ts.URL},
		Admission: cluster.NewAdmission(reg),
	})

	cells := bulkCells("adm", 3)
	if _, err := c.Run(cells, harness.Options{}); !errors.Is(err, cluster.ErrUnknownKey) {
		t.Fatalf("keyless Run err = %v, want ErrUnknownKey", err)
	}
	ctx := cluster.WithAPIKey(context.Background(), "pk")
	if _, err := c.RunContext(ctx, cells, harness.Options{}); err != nil {
		t.Fatalf("admitted Run failed: %v", err)
	}

	var ae *cluster.AdmissionError
	if _, err := c.RunContext(ctx, bulkCells("big", 5), harness.Options{}); !errors.As(err, &ae) {
		t.Fatalf("over-quota Run err = %v, want AdmissionError", err)
	}
	if ae.Reason != "quota" || ae.RetryAfter <= 0 {
		t.Fatalf("AdmissionError = %+v, want quota reason with a retry hint", ae)
	}

	// The completed sweep released its quota: a fitting sweep admits.
	if _, err := c.RunContext(ctx, bulkCells("adm", 2), harness.Options{}); err != nil {
		t.Fatalf("Run after release failed: %v", err)
	}

	snap := c.opt.Admission.Snapshot()
	if len(snap) != 1 || snap[0].Admitted != 5 || snap[0].Rejected != 5 || snap[0].Queued != 0 {
		t.Fatalf("tenant status = %+v, want 5 admitted, 5 rejected, 0 queued", snap)
	}
}
