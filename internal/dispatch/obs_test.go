package dispatch

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/server"
)

// TestSweepCorrelationAcrossLayers runs one sweep through all three layers —
// server.Client, the dispatch coordinator, and a visasimd daemon — each
// logging to its own buffer, and asserts the single correlation ID shows up
// in every one: the grep-one-ID-to-see-the-whole-sweep property DESIGN.md §9
// promises.
func TestSweepCorrelationAcrossLayers(t *testing.T) {
	var bufClient, bufCoord, bufDaemon bytes.Buffer
	newLogger := func(buf *bytes.Buffer) *slog.Logger {
		return slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	srv := server.New(server.Options{Logger: newLogger(&bufDaemon)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})

	ctx, sweep := obs.EnsureSweep(context.Background())

	cli := &server.Client{BaseURL: ts.URL, PollInterval: 2 * time.Millisecond,
		Logger: newLogger(&bufClient)}
	if _, err := cli.RunContext(ctx, []harness.Cell{
		{Key: "direct", Cfg: testCfg("gcc", core.SchemeBase)},
	}, harness.Options{}); err != nil {
		t.Fatal(err)
	}

	coord := newCoordinator(t, Options{
		Backends: []string{ts.URL},
		Logger:   newLogger(&bufCoord),
	})
	if _, err := coord.RunContext(ctx, []harness.Cell{
		{Key: "via-coord", Cfg: testCfg("gcc", core.SchemeVISA)},
	}, harness.Options{}); err != nil {
		t.Fatal(err)
	}

	for _, layer := range []struct {
		name string
		buf  *bytes.Buffer
	}{
		{"client", &bufClient},
		{"coordinator", &bufCoord},
		{"daemon", &bufDaemon},
	} {
		if !strings.Contains(layer.buf.String(), sweep) {
			t.Errorf("%s log does not mention sweep %s:\n%s", layer.name, sweep, layer.buf.String())
		}
	}
}

// TestSeededBackoffReproducible pins the satellite fix for the jitter RNG:
// two coordinators with the same Options.Seed draw identical backoff
// sequences (reproducible retry timing in tests), and drawing does not touch
// the process-global math/rand state.
func TestSeededBackoffReproducible(t *testing.T) {
	mk := func(seed int64) *Coordinator {
		c, err := New(Options{Backends: []string{"http://unused:1"}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	draw := func(c *Coordinator) []time.Duration {
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = c.backoff(i%3 + 1)
		}
		return out
	}

	a, b := draw(mk(42)), draw(mk(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(mk(43))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical backoff sequences")
	}
}

// TestPromFamilySet pins the coordinator's exact metric families, name and
// TYPE, for a coordinator with admission after a one-cell dispatch, so a
// later rename or removal shows up here as a deliberate diff.
func TestPromFamilySet(t *testing.T) {
	reg, err := cluster.NewRegistry([]cluster.Tenant{{ID: "papers", Key: "pk"}})
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, Options{
		Backends:  []string{newBackend(t).URL},
		Admission: cluster.NewAdmission(reg),
	})
	ctx := cluster.WithAPIKey(context.Background(), "pk")
	if _, err := c.RunContext(ctx, []harness.Cell{
		{Key: "a", Cfg: testCfg("gcc", core.SchemeBase)},
	}, harness.Options{}); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"visasim_dispatch_admission_rejected_sweeps_total counter",
		"visasim_dispatch_attempt_seconds histogram",
		"visasim_dispatch_backend_dispatched_total counter",
		"visasim_dispatch_backend_draining gauge",
		"visasim_dispatch_backend_failures_total counter",
		"visasim_dispatch_backend_healthy gauge",
		"visasim_dispatch_backend_inflight gauge",
		"visasim_dispatch_cells_total counter",
		"visasim_dispatch_class_admitted_cells_total counter",
		"visasim_dispatch_class_latency_seconds histogram",
		"visasim_dispatch_class_queued_groups gauge",
		"visasim_dispatch_dedup_shares_total counter",
		"visasim_dispatch_failovers_total counter",
		"visasim_dispatch_jain_fairness gauge",
		"visasim_dispatch_membership_drains_total counter",
		"visasim_dispatch_membership_joins_total counter",
		"visasim_dispatch_membership_leaves_total counter",
		"visasim_dispatch_queue_wait_seconds histogram",
		"visasim_dispatch_resume_skips_total counter",
		"visasim_dispatch_retries_total counter",
		"visasim_dispatch_served_cells_total counter",
		"visasim_dispatch_store_hits_total counter",
		"visasim_dispatch_store_misses_total counter",
		"visasim_dispatch_store_put_errors_total counter",
		"visasim_dispatch_tenant_admitted_cells_total counter",
		"visasim_dispatch_tenant_queued_cells gauge",
		"visasim_dispatch_tenant_rejected_cells_total counter",
	}
	var text bytes.Buffer
	c.WritePrometheus(&text)
	var got []string
	for _, line := range strings.Split(text.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, rest)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("metric families changed:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
