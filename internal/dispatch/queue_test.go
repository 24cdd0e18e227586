package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/server"
)

// TestQueueFIFOOrder pins the queue's one ordering rule: jobs pop in push
// order, each stamped with its enqueue time, and a closed queue drains its
// backlog before reporting done.
func TestQueueFIFOOrder(t *testing.T) {
	q := newQueue()
	jobs := make([]*schedJob, 4)
	for i := range jobs {
		jobs[i] = &schedJob{g: &group{hash: fmt.Sprint(i)}}
		if !q.push(jobs[i]) {
			t.Fatalf("push %d refused before close", i)
		}
		if jobs[i].enqueued.IsZero() {
			t.Fatalf("push %d did not stamp the enqueue time", i)
		}
	}
	q.close()
	if q.push(&schedJob{}) {
		t.Fatal("push after close accepted")
	}
	for i, want := range jobs {
		if got, ok := q.pop(); !ok || got != want {
			t.Fatalf("pop %d = %v, %v; want job %d", i, got, ok, i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop after drain reported a job")
	}
}

// TestQueuePopBlocksUntilPush: an idle dispatcher parks in pop and wakes on
// the next push.
func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := newQueue()
	got := make(chan *schedJob, 1)
	go func() {
		j, ok := q.pop()
		if !ok {
			t.Error("pop returned !ok before close")
		}
		got <- j
	}()
	time.Sleep(10 * time.Millisecond) // let the pop block
	late := &schedJob{}
	q.push(late)
	select {
	case j := <-got:
		if j != late {
			t.Fatalf("popped %v, want the pushed job", j)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not wake on push")
	}
}

// gatedBackend wraps a real backend handler and holds every sweep
// submission until release is closed, signalling each arrival on entered.
type gatedBackend struct {
	real    http.Handler
	entered chan struct{}
	release chan struct{}
}

func (g *gatedBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweeps") {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	}
	g.real.ServeHTTP(w, r)
}

// waitFor polls cond until it holds, failing the test after a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseDrainsQueuedSweepsThenRefuses pins the queue's close semantics
// through the coordinator: groups queued before Close still dispatch and
// their sweep finishes byte-identical to a local run, Close waits for them,
// and a Run after Close fails with "coordinator closed".
func TestCloseDrainsQueuedSweepsThenRefuses(t *testing.T) {
	sim := server.New(server.Options{})
	gate := &gatedBackend{real: sim.Handler(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	ts := httptest.NewServer(gate)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		sim.Shutdown(ctx) //nolint:errcheck
	})
	// One dispatcher: the first group holds it at the gate, the rest wait
	// in the queue.
	c := newCoordinator(t, Options{Backends: []string{ts.URL}, Workers: 1})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	t.Cleanup(release) // runs before c.Close on a failed test

	cells := make([]harness.Cell, 3)
	for i := range cells {
		cfg := testCfg("gcc", core.SchemeBase)
		cfg.MaxInstructions = testBudget + uint64(i) // distinct content hashes
		cells[i] = harness.Cell{Key: fmt.Sprintf("q-%d", i), Cfg: cfg}
	}
	type outcome struct {
		res harness.Results
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, _, err := c.Run(context.Background(), cells)
		done <- outcome{res, err}
	}()

	select {
	case <-gate.entered:
	case <-time.After(time.Minute):
		t.Fatal("first group never reached the backend")
	}
	queued := func() (int, bool) {
		c.queue.mu.Lock()
		defer c.queue.mu.Unlock()
		return len(c.queue.jobs), c.queue.closed
	}
	waitFor(t, "the other groups to queue", func() bool { n, _ := queued(); return n == len(cells)-1 })

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	waitFor(t, "Close to shut the queue", func() bool { _, shut := queued(); return shut })

	lateErr := make(chan error, 1)
	go func() {
		_, _, err := c.Run(context.Background(), []harness.Cell{{Key: "late", Cfg: testCfg("mcf", core.SchemeBase)}})
		lateErr <- err
	}()
	select {
	case err := <-lateErr:
		if err == nil || !strings.Contains(err.Error(), "coordinator closed") {
			t.Fatalf("Run after Close returned %v, want a coordinator closed error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run after Close did not fail at once")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while queued groups were still pending")
	default:
	}

	release()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(time.Minute):
		t.Fatal("sweep queued before Close never finished")
	}
	if out.err != nil {
		t.Fatalf("sweep queued before Close failed: %v", out.err)
	}
	select {
	case <-closed:
	case <-time.After(time.Minute):
		t.Fatal("Close did not return after the queue drained")
	}
	local, _, err := harness.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range local {
		rj, _ := json.Marshal(out.res[key])
		lj, _ := json.Marshal(local[key])
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s differs from local run", key)
		}
	}
}
