// Command visasimcoord is the cluster control plane: a long-running
// coordinator daemon that schedules sweeps across a pool of visasimd
// backends with SLO-aware priority queuing, multi-tenant admission control,
// dynamic membership, and cache-affinity routing (internal/dispatch +
// internal/cluster).
//
// Unlike linking the coordinator into a client process, visasimcoord owns a
// registration-based pool: backends join by POSTing their URL (visasimd
// does this itself with -register), operators drain them out gracefully
// (`visasimctl drain`), and -backends merely seeds the pool. Scheduling and
// routing never change results — the simulator is deterministic, so a sweep
// dispatched through any policy is byte-identical to a local harness run.
//
// Endpoints (see dispatch.Coordinator.Control):
//
//	GET  /healthz                 liveness
//	GET  /v1/backends             pool membership and health
//	POST /v1/backends/register    {"url": ...} join after a handshake probe
//	POST /v1/backends/deregister  {"url": ...} leave immediately
//	POST /v1/backends/drain       {"url": ...} finish in-flight work, then leave
//	GET  /v1/tenants              tenant quotas and usage (with -tenants)
//	POST /v1/dispatch             run a sweep through the scheduler
//	GET  /metrics/prom            coordinator metrics (Prometheus text)
//
// With -tenants FILE every dispatch must carry a known X-Visasim-Key; rate
// or quota rejections answer 429 with Retry-After hints. The scheduler
// serves priority classes in order, first-come-first-served within a class.
//
// Quickstart:
//
//	visasimcoord -addr :9090 &
//	visasimd -addr :8081 -register http://localhost:9090 &
//	visasimd -addr :8082 -register http://localhost:9090 &
//	visasimctl sweep -coord http://localhost:9090 -cells cells.json
package main

import (
	"context"
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
	"visasim/internal/dispatch"
	"visasim/internal/obs"
	"visasim/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":9090", "listen address")
		backendsCSV = flag.String("backends", "", "comma-separated visasimd URLs seeding the pool (may be empty: backends register themselves)")
		tenantsPath = flag.String("tenants", "", "tenant registry JSON; turns on admission control")
		routing     = flag.String("routing", "least-loaded", "backend routing: least-loaded, affinity, or random")
		workers     = flag.Int("workers", 0, "concurrently in-flight dispatch groups (0 = 4 per seed backend, floor 8)")
		cellTimeout = flag.Duration("timeout", 10*time.Minute, "per-cell dispatch attempt deadline")
		storeDir    = flag.String("store", "", "checkpoint completed cells to this directory")
		seed        = flag.Int64("seed", 0, "backoff-jitter RNG seed (0 = from the clock)")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log line format: text or json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "visasimcoord: %v\n", err)
		os.Exit(2)
	}

	opt := dispatch.Options{
		Backends:    splitCSV(*backendsCSV),
		Dynamic:     true, // registration-based membership is the point
		Workers:     *workers,
		CellTimeout: *cellTimeout,
		Seed:        *seed,
		Logger:      logger,
	}
	if opt.Routing, err = dispatch.ParseRouting(*routing); err != nil {
		logger.Error("bad -routing", "err", err)
		os.Exit(2)
	}
	if *tenantsPath != "" {
		reg, lerr := cluster.LoadRegistry(*tenantsPath)
		if lerr != nil {
			logger.Error("loading tenant registry failed", "path", *tenantsPath, "err", lerr)
			os.Exit(1)
		}
		opt.Admission = cluster.NewAdmission(reg)
		logger.Info("admission control on", "tenants", reg.Len(), "path", *tenantsPath)
	}
	if *storeDir != "" {
		st, serr := store.Open(*storeDir, store.Options{})
		if serr != nil {
			logger.Error("opening store failed", "dir", *storeDir, "err", serr)
			os.Exit(1)
		}
		opt.Store = st
	}

	coord, err := dispatch.New(opt)
	if err != nil {
		logger.Error("starting coordinator failed", "err", err)
		os.Exit(1)
	}
	defer coord.Close()
	httpSrv := &http.Server{Addr: *addr, Handler: coord.Control()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "seed_backends", len(opt.Backends),
		"routing", *routing)

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Warn("http shutdown", "err", err)
	}
}

// splitCSV splits a comma-separated flag into trimmed, non-empty parts.
func splitCSV(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
