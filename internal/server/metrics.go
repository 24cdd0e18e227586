package server

import (
	"visasim/internal/cluster"
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
	jobsQueued    *obs.Gauge   // waiting in the queue
	jobsRunning   *obs.Gauge   // being executed now
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsCanceled  *obs.Counter // rejected at shutdown while queued
	jobsRejected  *obs.Counter // refused at submit (queue full / shutdown)

	admissionRejects *obs.Counter // submissions bounced by the admission gate

	cellsTotal     *obs.Counter // resolved cells, hits + misses
	cacheHits      *obs.Counter // resolved without a fresh simulation
	simsRun        *obs.Counter // fresh simulations executed
	storeHits      *obs.Counter // cells served from the persistent store
	storeMisses    *obs.Counter // store lookups that fell through to a run
	storePutErrors *obs.Counter // failed write-throughs (daemon kept going)
	simCycles      *obs.Counter // simulated cycles across all fresh runs
	simInstrs      *obs.Counter // committed instructions across all fresh runs

	histQueueWait *obs.Histogram // submit → job start
	histSimulate  *obs.Histogram // harness wall-clock per fresh cell
	histCacheHit  *obs.Histogram // resolved-without-simulating serve time
}

// newMetrics builds s's registry. It reads s.cache, s.store and s.adm at
// scrape time, so s must have them set first.
func newMetrics(s *Server) *metrics {
	p := obs.NewRegistry()
	m := &metrics{
		prom:             p,
		jobsSubmitted:    p.NewCounter("visasimd_jobs_submitted_total", "Sweep jobs accepted by POST /v1/sweeps."),
		jobsQueued:       p.NewGauge("visasimd_jobs_queued", "Jobs waiting in the bounded queue."),
		jobsRunning:      p.NewGauge("visasimd_jobs_running", "Jobs currently executing."),
		jobsDone:         p.NewCounter("visasimd_jobs_done_total", "Jobs that completed with every cell resolved."),
		jobsFailed:       p.NewCounter("visasimd_jobs_failed_total", "Jobs that finished with at least one failed cell."),
		jobsCanceled:     p.NewCounter("visasimd_jobs_canceled_total", "Queued jobs canceled by shutdown."),
		jobsRejected:     p.NewCounter("visasimd_jobs_rejected_total", "Submissions refused (queue full or shutting down)."),
		admissionRejects: p.NewCounter("visasimd_admission_rejected_jobs_total", "Submissions bounced by the tenant admission gate (401 or 429)."),
		cellsTotal:       p.NewCounter("visasimd_cells_total", "Cells resolved, cache hits plus fresh simulations."),
		cacheHits:        p.NewCounter("visasimd_cache_hits_total", "Cells resolved without a fresh simulation."),
		simsRun:          p.NewCounter("visasimd_sims_run_total", "Fresh simulations executed."),
		storeHits:        p.NewCounter("visasimd_store_hits_total", "Cells served from the persistent store."),
		storeMisses:      p.NewCounter("visasimd_store_misses_total", "Store lookups that fell through to a simulation."),
		storePutErrors:   p.NewCounter("visasimd_store_put_errors_total", "Failed store write-throughs (daemon kept going)."),
		simCycles:        p.NewCounter("visasimd_sim_cycles_total", "Simulated cycles across all fresh runs."),
		simInstrs:        p.NewCounter("visasimd_sim_instructions_total", "Committed instructions across all fresh runs."),
		histQueueWait: p.NewHistogram("visasimd_queue_wait_seconds",
			"Time a job spent queued before a worker started it.", nil),
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

	if adm := s.adm; adm != nil {
		// Per-tenant families are snapshots of the admission state, so the
		// label set always matches the registry and no key material leaves
		// it.
		tenantSamples := func(value func(cluster.TenantStatus) float64) func() []obs.Sample {
			return func() []obs.Sample {
				snap := adm.Snapshot()
				out := make([]obs.Sample, len(snap))
				for i, ts := range snap {
					out[i] = obs.Sample{
						Labels: map[string]string{"tenant": ts.ID},
						Value:  value(ts),
					}
				}
				return out
			}
		}
		p.NewCounterSnapshotVec("visasimd_tenant_admitted_cells_total",
			"Cells admitted per tenant.",
			tenantSamples(func(ts cluster.TenantStatus) float64 { return float64(ts.Admitted) }))
		p.NewCounterSnapshotVec("visasimd_tenant_rejected_cells_total",
			"Cells rejected per tenant (rate or quota).",
			tenantSamples(func(ts cluster.TenantStatus) float64 { return float64(ts.Rejected) }))
		p.NewGaugeSnapshotVec("visasimd_tenant_queued_cells",
			"Outstanding admitted cells per tenant (the quota in use).",
			tenantSamples(func(ts cluster.TenantStatus) float64 { return float64(ts.Queued) }))
	}
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
