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

// TestBackoffJitterBounds pins the retry delay: BaseBackoff doubled per
// retry and capped at MaxBackoff (shift overflow included), then jittered
// into [0.5, 1.5) of that.
func TestBackoffJitterBounds(t *testing.T) {
	c, err := New(Options{Backends: []string{"http://unused:1"},
		BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		attempt int
		capped  time.Duration
	}{{1, 100 * time.Millisecond}, {2, 200 * time.Millisecond}, {4, 800 * time.Millisecond},
		{5, time.Second}, {70, time.Second}} {
		for i := 0; i < 100; i++ {
			d := c.backoff(tc.attempt)
			if d < tc.capped/2 || d >= tc.capped*3/2 {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", tc.attempt, d, tc.capped/2, tc.capped*3/2)
			}
		}
	}
}
