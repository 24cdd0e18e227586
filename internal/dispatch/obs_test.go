package dispatch

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
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

// TestTotalFamiliesAreCounters: Prometheus reserves the _total suffix for
// counters, so every family so named — on the daemon's GET /metrics/prom
// and in the coordinator's exposition, tenant families included — must
// declare TYPE counter.
func TestTotalFamiliesAreCounters(t *testing.T) {
	reg, err := cluster.NewRegistry([]cluster.Tenant{{ID: "papers", Key: "pk"}})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	resp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	coord := newCoordinator(t, Options{
		Backends:  []string{ts.URL},
		Admission: cluster.NewAdmission(reg),
	})
	var coordProm bytes.Buffer
	coord.WritePrometheus(&coordProm)

	for name, text := range map[string]string{"daemon": string(daemon), "coordinator": coordProm.String()} {
		totals := 0
		for _, line := range strings.Split(text, "\n") {
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" || !strings.HasSuffix(f[2], "_total") {
				continue
			}
			totals++
			if f[3] != "counter" {
				t.Errorf("%s: %s has TYPE %s, want counter", name, f[2], f[3])
			}
		}
		if totals < 10 {
			t.Errorf("%s: only %d _total families in the exposition:\n%s", name, totals, text)
		}
	}
}
