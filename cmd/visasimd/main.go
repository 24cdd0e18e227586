// Command visasimd is the long-running simulation service: an HTTP daemon
// that accepts sweep cells (core.Config JSON), executes them on a bounded
// worker pool, and serves repeated cells from a content-addressed result
// cache — the simulator is deterministic, so a cached result is
// byte-identical to re-running the cell. With -store DIR the cache is
// backed by a persistent on-disk store (internal/store): results survive
// restarts, and a warm daemon serves them from disk without re-simulating.
//
// Endpoints:
//
//	POST /v1/sweeps           submit cells, returns a job ID
//	GET  /v1/jobs/{id}        poll job status and results
//	GET  /v1/jobs/{id}/stream NDJSON per-cell results as they resolve
//	GET  /v1/tenants          tenant quotas and usage (with -tenants)
//	GET  /healthz             liveness
//	GET  /metrics/prom        Prometheus text metrics: job, cell, cache and
//	                          store counters plus queue-wait/simulate/
//	                          cache-serve histograms
//
// Logging is structured (-log-format text|json, -log-level debug|info|...);
// every line about a job carries the submission's sweep correlation ID
// (the X-Visasim-Sweep header, minted server-side when absent), so client,
// coordinator and daemon logs of one sweep grep together.
//
// Quickstart:
//
//	visasimd -addr :8080 &
//	curl -s localhost:8080/v1/sweeps -d '{"cells":[{"key":"demo",
//	  "config":{"Benchmarks":["gcc","mcf","vpr","perlbmk"],"Scheme":1,
//	  "MaxInstructions":100000}}]}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -s localhost:8080/metrics/prom
//
// Cluster mode: with -register URL the daemon joins a visasimcoord pool at
// startup (advertising -advertise, or a loopback URL derived from -addr)
// and deregisters at shutdown — no static backend lists. With -tenants FILE
// submissions must carry a known X-Visasim-Key API key; unknown keys get
// 401 and rate/quota rejections get 429 with Retry-After hints (the Go
// client backs off on them automatically).
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight jobs finish, queued
// jobs are canceled, new submissions get 503.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"visasim/internal/cluster"
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
		jobHistory = flag.Int("job-history", 256, "terminal jobs retained for polling; older ones are evicted")
		drainWait  = flag.Duration("drain", 10*time.Minute, "shutdown grace period for in-flight jobs")
		storeDir   = flag.String("store", "", "persist results to this directory; warm restarts serve from disk")
		storeMax   = flag.Int64("store-max-bytes", 0, "evict oldest store entries beyond this size (0 = unbounded)")
		cacheMax   = flag.Int("cache-entries", 0, "resolved results kept in memory, LRU-evicted beyond it (0 = default 4096, negative = unbounded)")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat  = flag.String("log-format", "text", "log line format: text or json")
		tenants    = flag.String("tenants", "", "tenant registry JSON; turns on per-tenant admission control (X-Visasim-Key auth, 429 on quota)")
		register   = flag.String("register", "", "visasimcoord base URL to self-register with at startup (and deregister from at shutdown)")
		advertise  = flag.String("advertise", "", "URL the coordinator should dial this daemon at (default derived from -addr on 127.0.0.1)")
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

	var reg *cluster.Registry
	if *tenants != "" {
		var err error
		if reg, err = cluster.LoadRegistry(*tenants); err != nil {
			logger.Error("loading tenant registry failed", "path", *tenants, "err", err)
			os.Exit(1)
		}
		logger.Info("admission control on", "tenants", reg.Len(), "path", *tenants)
	}

	srv := server.New(server.Options{
		JobWorkers:   *jobWorkers,
		SimWorkers:   *simWorkers,
		QueueDepth:   *queueDepth,
		JobHistory:   *jobHistory,
		CacheEntries: *cacheMax,
		Store:        st,
		Tenants:      reg,
		Logger:       logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr,
		"job_workers", *jobWorkers, "queue_depth", *queueDepth)

	// Dynamic membership: hand our URL to the coordinator once we're
	// serving, and take it back at shutdown so the pool never routes to a
	// daemon that is gone. Registration retries briefly — daemon and
	// coordinator usually boot together.
	selfURL := *advertise
	if selfURL == "" {
		selfURL = deriveAdvertise(*addr)
	}
	if *register != "" {
		go func() {
			if err := postMembership(ctx, *register, "register", selfURL, 30*time.Second); err != nil {
				logger.Error("registering with coordinator failed",
					"coordinator", *register, "advertise", selfURL, "err", err)
				return
			}
			logger.Info("registered with coordinator",
				"coordinator", *register, "advertise", selfURL)
		}()
	}

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", *drainWait)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if *register != "" {
		// Best effort: a dead coordinator should not block our own drain.
		if err := postMembership(shutdownCtx, *register, "deregister", selfURL, 5*time.Second); err != nil {
			logger.Warn("deregistering from coordinator failed",
				"coordinator", *register, "err", err)
		} else {
			logger.Info("deregistered from coordinator", "coordinator", *register)
		}
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Warn("http shutdown", "err", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("drain failed", "err", err)
		os.Exit(1)
	}
}

// deriveAdvertise turns a listen address into a dialable loopback URL: a
// bare ":8080" (or a wildcard host) advertises 127.0.0.1. Daemons reachable
// on another interface pass -advertise explicitly.
func deriveAdvertise(addr string) string {
	host, port, err := splitHostPort(addr)
	if err != nil || host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + host + ":" + port
}

func splitHostPort(addr string) (host, port string, err error) {
	i := strings.LastIndex(addr, ":")
	if i < 0 {
		return "", "", fmt.Errorf("no port in %q", addr)
	}
	return strings.Trim(addr[:i], "[]"), addr[i+1:], nil
}

// postMembership POSTs {"url": selfURL} to the coordinator's
// /v1/backends/{op} endpoint, retrying until the deadline — at boot the
// coordinator may come up moments after the daemon.
func postMembership(ctx context.Context, coordURL, op, selfURL string, window time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, window)
	defer cancel()
	body, err := json.Marshal(map[string]string{"url": selfURL})
	if err != nil {
		return err
	}
	target := strings.TrimRight(coordURL, "/") + "/v1/backends/" + op
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
		if rerr != nil {
			return rerr
		}
		req.Header.Set("Content-Type", "application/json")
		resp, derr := client.Do(req)
		if derr == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			derr = fmt.Errorf("coordinator answered HTTP %d", resp.StatusCode)
		}
		select {
		case <-ctx.Done():
			return derr
		case <-time.After(500 * time.Millisecond):
		}
	}
}
