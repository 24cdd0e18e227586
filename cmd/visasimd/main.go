// Command visasimd is the long-running simulation service: an HTTP daemon
// that accepts sweep cells (core.Config JSON), simulates fresh ones in
// arrival order on -workers cell workers, and serves repeated cells from a
// content-addressed result cache — the simulator is deterministic, so a
// cached result is byte-identical to re-running the cell. With -store DIR the cache is
// backed by a persistent on-disk store (internal/store): results survive
// restarts, and a warm daemon serves them from disk without re-simulating.
//
// Endpoints — the whole API; a client submits, then reads the stream:
//
//	POST /v1/sweeps           submit cells, returns a job ID and stream URL
//	GET  /v1/jobs/{id}/stream NDJSON per-cell results as they resolve, then
//	                          an "end" event with the job's terminal state
//	GET  /healthz             liveness
//	GET  /metrics/prom        Prometheus text metrics: job, cell, cache and
//	                          store counters plus queue-wait (a fresh
//	                          cell's wait for a worker)/simulate/
//	                          cache-serve histograms
//
// Logging is structured (-log-format text|json, -log-level debug|info|...);
// every line about a job carries the submission's sweep correlation ID
// (the X-Visasim-Sweep header, minted server-side when absent), so client,
// coordinator and daemon logs of one sweep grep together. Several daemons
// form a pool only from the client side: `experiments -backends` shards
// a figure's sweeps, or a batch of cells, over a static URL list through
// the in-process dispatch coordinator.
//
// Quickstart:
//
//	visasimd -addr :8080 &
//	curl -s localhost:8080/v1/sweeps -d '{"cells":[{"key":"demo",
//	  "config":{"Benchmarks":["gcc","mcf","vpr","perlbmk"],"Scheme":1,
//	  "MaxInstructions":100000}}]}'
//	curl -sN localhost:8080/v1/jobs/job-1/stream
//	curl -s localhost:8080/metrics/prom
//
// At most 64 jobs are unfinished at once; a submission past that gets 503,
// and the last 256 finished jobs stay streamable. SIGINT/SIGTERM trigger a
// graceful shutdown: new submissions get 503 and every admitted job
// finishes within -drain. A bad flag value, a negative -cache-entries
// included, exits 2 before anything listens.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"visasim/internal/obs"
	"visasim/internal/server"
	"visasim/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the whole command: it parses args, serves until SIGINT/SIGTERM,
// drains and returns the exit status.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("visasimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		simWorkers = fs.Int("workers", 0, "cell workers: concurrent simulations across all jobs (0 = GOMAXPROCS)")
		drainWait  = fs.Duration("drain", 10*time.Minute, "shutdown grace period for admitted jobs")
		storeDir   = fs.String("store", "", "persist results to this directory; warm restarts serve from disk")
		cacheMax   = fs.Int("cache-entries", 0, "resolved results kept in memory, LRU-evicted beyond it (0 = default 4096)")
		logLevel   = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat  = fs.String("log-format", "text", "log line format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err == nil && *cacheMax < 0 {
		err = fmt.Errorf("-cache-entries %d: must not be negative", *cacheMax)
	}
	if err != nil {
		fmt.Fprintf(stderr, "visasimd: %v\n", err)
		return 2
	}

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir)
		if err != nil {
			logger.Error("opening store failed", "dir", *storeDir, "err", err)
			return 1
		}
		logger.Info("store opened", "dir", st.Dir(),
			"entries", st.Len(), "bytes", st.Bytes())
	}

	srv := server.New(server.Options{
		SimWorkers:   *simWorkers,
		CacheEntries: *cacheMax,
		Store:        st,
		Logger:       logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", *simWorkers)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		return 1
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", *drainWait)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Warn("http shutdown", "err", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("drain failed", "err", err)
		return 1
	}
	return 0
}
