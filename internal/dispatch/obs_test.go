package dispatch

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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

	cli := &server.Client{BaseURL: ts.URL, Logger: newLogger(&bufClient)}
	ack, err := cli.Submit(ctx, []harness.Cell{{Key: "direct", Cfg: testCfg("gcc", core.SchemeBase)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Wait(ctx, ack); err != nil {
		t.Fatal(err)
	}

	coord := newCoordinator(t, Options{
		Backends: []string{ts.URL},
		Logger:   newLogger(&bufCoord),
	})
	if _, _, err := coord.Run(ctx, []harness.Cell{
		{Key: "via-coord", Cfg: testCfg("gcc", core.SchemeVISA)},
	}); err != nil {
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
