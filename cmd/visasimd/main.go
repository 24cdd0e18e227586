// Command visasimd is the long-running simulation service: an HTTP daemon
// that accepts sweep cells (core.Config JSON), executes them on a bounded
// worker pool, and serves repeated cells from a content-addressed result
// cache — the simulator is deterministic, so a cached result is
// byte-identical to re-running the cell. With -store DIR the cache is
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
//	                          store counters plus queue-wait/simulate/
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
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight jobs finish, queued
// jobs are canceled, new submissions get 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		jobWorkers = flag.Int("job-workers", 2, "concurrently executing jobs")
		simWorkers = flag.Int("workers", 0, "concurrent simulations across all jobs (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 64, "bounded job queue; beyond it submissions get 503")
		jobHistory = flag.Int("job-history", 256, "terminal jobs whose stream stays readable; older ones are evicted")
		drainWait  = flag.Duration("drain", 10*time.Minute, "shutdown grace period for in-flight jobs")
		storeDir   = flag.String("store", "", "persist results to this directory; warm restarts serve from disk")
		storeMax   = flag.Int64("store-max-bytes", 0, "evict oldest store entries beyond this size (0 = unbounded)")
		cacheMax   = flag.Int("cache-entries", 0, "resolved results kept in memory, LRU-evicted beyond it (0 = default 4096, negative = unbounded)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat  = flag.String("log-format", "text", "log line format: text or json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "visasimd: %v\n", err)
		os.Exit(2)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMax})
		if err != nil {
			logger.Error("opening store failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		logger.Info("store opened", "dir", st.Dir(),
			"entries", st.Len(), "bytes", st.Bytes())
	}

	srv := server.New(server.Options{
		JobWorkers:   *jobWorkers,
		SimWorkers:   *simWorkers,
		QueueDepth:   *queueDepth,
		JobHistory:   *jobHistory,
		CacheEntries: *cacheMax,
		Store:        st,
		Logger:       logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr,
		"job_workers", *jobWorkers, "queue_depth", *queueDepth)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
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
		os.Exit(1)
	}
}
