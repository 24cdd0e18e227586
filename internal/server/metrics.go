package server

import (
	"visasim/internal/harness"
	"visasim/internal/obs"
)

// metrics is the daemon's one metrics store: an obs.Registry rendered at
// GET /metrics/prom. Events are counted where they happen; cache and store
// occupancy are read from those structures at scrape time. The registry is
// per-Server, so several Servers in one process (tests) never collide on
// names. Metric names follow Prometheus conventions: *_total for counters,
// base units (seconds, bytes) in the name.
type metrics struct {
	prom *obs.Registry

	jobsSubmitted *obs.Counter // accepted by POST /v1/sweeps
	jobsRunning   *obs.Gauge   // admitted and not yet finished
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsRejected  *obs.Counter // refused at submit (busy / shutdown)

	cellsTotal     *obs.Counter // resolved cells, hits + misses
	cacheHits      *obs.Counter // resolved without a fresh simulation
	simsRun        *obs.Counter // fresh simulations executed
	storeHits      *obs.Counter // cells served from the persistent store
	storeMisses    *obs.Counter // store lookups that fell through to a run
	storePutErrors *obs.Counter // failed write-throughs (daemon kept going)
	simCycles      *obs.Counter // simulated cycles across all fresh runs
	simInstrs      *obs.Counter // committed instructions across all fresh runs

	histQueueWait *obs.Histogram // fresh cell: FIFO enqueue → simulation start
	histSimulate  *obs.Histogram // harness wall-clock per fresh cell
	histCacheHit  *obs.Histogram // resolved-without-simulating serve time
}

// newMetrics builds s's registry. It reads s.cache and s.store at
// scrape time, so s must have them set first.
func newMetrics(s *Server) *metrics {
	p := obs.NewRegistry()
	m := &metrics{
		prom:           p,
		jobsSubmitted:  p.NewCounter("visasimd_jobs_submitted_total", "Sweep jobs accepted by POST /v1/sweeps."),
		jobsRunning:    p.NewGauge("visasimd_jobs_running", "Jobs admitted and not yet finished."),
		jobsDone:       p.NewCounter("visasimd_jobs_done_total", "Jobs that completed with every cell resolved."),
		jobsFailed:     p.NewCounter("visasimd_jobs_failed_total", "Jobs that finished with at least one failed cell."),
		jobsRejected:   p.NewCounter("visasimd_jobs_rejected_total", "Submissions refused (too many unfinished jobs, or shutting down)."),
		cellsTotal:     p.NewCounter("visasimd_cells_total", "Cells resolved, cache hits plus fresh simulations."),
		cacheHits:      p.NewCounter("visasimd_cache_hits_total", "Cells resolved without a fresh simulation."),
		simsRun:        p.NewCounter("visasimd_sims_run_total", "Fresh simulations executed."),
		storeHits:      p.NewCounter("visasimd_store_hits_total", "Cells served from the persistent store."),
		storeMisses:    p.NewCounter("visasimd_store_misses_total", "Store lookups that fell through to a simulation."),
		storePutErrors: p.NewCounter("visasimd_store_put_errors_total", "Failed store write-throughs (daemon kept going)."),
		simCycles:      p.NewCounter("visasimd_sim_cycles_total", "Simulated cycles across all fresh runs."),
		simInstrs:      p.NewCounter("visasimd_sim_instructions_total", "Committed instructions across all fresh runs."),
		histQueueWait: p.NewHistogram("visasimd_queue_wait_seconds",
			"Time a fresh cell waited in the FIFO before a worker started simulating it.", nil),
		histSimulate: p.NewHistogram("visasimd_simulate_seconds",
			"Wall-clock of one fresh cell simulation (queue wait excluded).", nil),
		histCacheHit: p.NewHistogram("visasimd_cache_serve_seconds",
			"Time to serve a cell from the in-memory cache or the store.", nil),
	}

	p.NewGaugeFunc("visasimd_cache_entries", "Result-cache entries resident in memory.",
		func() float64 { return float64(s.cache.size()) })
	p.NewCounterFunc("visasimd_cache_evictions_total", "Resolved entries dropped by the in-memory LRU cap.",
		func() float64 { return float64(s.cache.evicted()) })
	p.NewGaugeFunc("visasimd_store_entries", "Entries resident in the persistent store.", func() float64 {
		if s.store == nil {
			return 0
		}
		return float64(s.store.Len())
	})
	p.NewGaugeFunc("visasimd_store_bytes", "Bytes resident in the persistent store.", func() float64 {
		if s.store == nil {
			return 0
		}
		return float64(s.store.Bytes())
	})

	return m
}

// recordCell accounts one resolved cell, hit or miss.
func (m *metrics) recordCell(hit bool) {
	m.cellsTotal.Inc()
	if hit {
		m.cacheHits.Inc()
	}
}

// recordSim accounts one fresh simulation's cost.
func (m *metrics) recordSim(st harness.CellStats) {
	m.simsRun.Inc()
	m.simCycles.Add(int64(st.Cycles))
	m.simInstrs.Add(int64(st.Instructions))
}
