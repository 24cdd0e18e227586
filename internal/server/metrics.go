package server

import (
	"encoding/json"
	"expvar"
	"sync"

	"visasim/internal/cluster"
	"visasim/internal/harness"
	"visasim/internal/obs"
)

// maxCellStatRecords bounds the per-cell stats map in /metrics; beyond it,
// new cells still simulate and cache but stop adding metric rows.
const maxCellStatRecords = 512

// jsonVar renders any JSON-marshalable value as an expvar.Var.
type jsonVar struct{ v any }

func (j jsonVar) String() string {
	b, err := json.Marshal(j.v)
	if err != nil {
		return `"unmarshalable"`
	}
	return string(b)
}

// metrics aggregates the daemon's counters in a private expvar.Map — expvar
// types for atomicity and rendering, but deliberately not published to the
// process-global expvar registry so multiple Servers (tests!) never collide
// on names. cmd/visasimd publishes the root map once under "visasimd".
type metrics struct {
	root expvar.Map

	jobsSubmitted expvar.Int // accepted by POST /v1/sweeps
	jobsQueued    expvar.Int // gauge: waiting in the queue
	jobsRunning   expvar.Int // gauge: being executed now
	jobsDone      expvar.Int
	jobsFailed    expvar.Int
	jobsCanceled  expvar.Int // rejected at shutdown while queued
	jobsRejected  expvar.Int // refused at submit (queue full / shutdown)

	admissionRejects expvar.Int // submissions bounced by the admission gate

	cellsTotal     expvar.Int // resolved cells, hits + misses
	cacheHits      expvar.Int // resolved without a fresh simulation
	simsRun        expvar.Int // fresh simulations executed
	hitRatio       expvar.Float
	cacheSize      expvar.Int
	cacheEvictions expvar.Int   // resolved entries dropped by the LRU cap
	storeHits      expvar.Int   // cells served from the persistent store
	storeMisses    expvar.Int   // store lookups that fell through to a run
	storePutErrors expvar.Int   // failed write-throughs (daemon kept going)
	storeEntries   expvar.Int   // gauge: entries resident on disk
	storeBytes     expvar.Int   // gauge: bytes resident on disk
	simCycles      expvar.Int   // simulated cycles across all fresh runs
	simInstrs      expvar.Int   // committed instructions across all fresh runs
	simSeconds     expvar.Float // summed core.Run wall-clock (overlaps under parallelism)
	cellsPerSec    expvar.Float // fresh cells per summed simulation second
	cyclesPerSec   expvar.Float

	statsMu    sync.Mutex
	cellStats  expvar.Map // per-cell CellStats, keyed by hash prefix
	statsCount int

	// prom is the Prometheus text-format view served at /metrics/prom:
	// scrape-time readers over the expvar counters above (one source of
	// truth, two renderings) plus real latency histograms, which expvar
	// cannot express.
	prom          *obs.Registry
	histQueueWait *obs.Histogram // submit → job start
	histSimulate  *obs.Histogram // harness.RunStats wall-clock per fresh cell
	histCacheHit  *obs.Histogram // resolved-without-simulating serve time
}

func newMetrics() *metrics {
	m := &metrics{}
	m.root.Init()
	m.cellStats.Init()
	for name, v := range map[string]expvar.Var{
		"jobs_submitted":    &m.jobsSubmitted,
		"jobs_queued":       &m.jobsQueued,
		"jobs_running":      &m.jobsRunning,
		"jobs_done":         &m.jobsDone,
		"jobs_failed":       &m.jobsFailed,
		"jobs_canceled":     &m.jobsCanceled,
		"jobs_rejected":     &m.jobsRejected,
		"admission_rejects": &m.admissionRejects,
		"cells_total":       &m.cellsTotal,
		"cache_hits":        &m.cacheHits,
		"sims_run":          &m.simsRun,
		"cache_hit_ratio":   &m.hitRatio,
		"cache_size":        &m.cacheSize,
		"cache_evictions":   &m.cacheEvictions,
		"store_hits":        &m.storeHits,
		"store_misses":      &m.storeMisses,
		"store_put_errors":  &m.storePutErrors,
		"store_entries":     &m.storeEntries,
		"store_bytes":       &m.storeBytes,
		"sim_cycles":        &m.simCycles,
		"sim_instructions":  &m.simInstrs,
		"sim_seconds":       &m.simSeconds,
		"cells_per_sec":     &m.cellsPerSec,
		"cycles_per_sec":    &m.cyclesPerSec,
		"cells":             &m.cellStats,
	} {
		m.root.Set(name, v)
	}
	m.initProm()
	return m
}

// intFn adapts an expvar.Int into a scrape-time Prometheus reader.
func intFn(v *expvar.Int) func() float64 {
	return func() float64 { return float64(v.Value()) }
}

// floatFn adapts an expvar.Float likewise.
func floatFn(v *expvar.Float) func() float64 {
	return func() float64 { return v.Value() }
}

// initProm builds the Prometheus registry over the expvar counters (the
// single source of truth) and creates the latency histograms. Metric names
// follow Prometheus conventions: *_total for counters, base units
// (seconds, bytes) in the name.
func (m *metrics) initProm() {
	m.prom = obs.NewRegistry()
	p := m.prom
	p.NewCounterFunc("visasimd_jobs_submitted_total", "Sweep jobs accepted by POST /v1/sweeps.", intFn(&m.jobsSubmitted))
	p.NewGaugeFunc("visasimd_jobs_queued", "Jobs waiting in the bounded queue.", intFn(&m.jobsQueued))
	p.NewGaugeFunc("visasimd_jobs_running", "Jobs currently executing.", intFn(&m.jobsRunning))
	p.NewCounterFunc("visasimd_jobs_done_total", "Jobs that completed with every cell resolved.", intFn(&m.jobsDone))
	p.NewCounterFunc("visasimd_jobs_failed_total", "Jobs that finished with at least one failed cell.", intFn(&m.jobsFailed))
	p.NewCounterFunc("visasimd_jobs_canceled_total", "Queued jobs canceled by shutdown.", intFn(&m.jobsCanceled))
	p.NewCounterFunc("visasimd_jobs_rejected_total", "Submissions refused (queue full or shutting down).", intFn(&m.jobsRejected))
	p.NewCounterFunc("visasimd_admission_rejected_jobs_total", "Submissions bounced by the tenant admission gate (401 or 429).", intFn(&m.admissionRejects))
	p.NewCounterFunc("visasimd_cells_total", "Cells resolved, cache hits plus fresh simulations.", intFn(&m.cellsTotal))
	p.NewCounterFunc("visasimd_cache_hits_total", "Cells resolved without a fresh simulation.", intFn(&m.cacheHits))
	p.NewCounterFunc("visasimd_sims_run_total", "Fresh simulations executed.", intFn(&m.simsRun))
	p.NewGaugeFunc("visasimd_cache_hit_ratio", "Lifetime cache hit ratio over resolved cells.", floatFn(&m.hitRatio))
	p.NewGaugeFunc("visasimd_cache_entries", "Result-cache entries resident in memory.", intFn(&m.cacheSize))
	p.NewCounterFunc("visasimd_cache_evictions_total", "Resolved entries dropped by the in-memory LRU cap.", intFn(&m.cacheEvictions))
	p.NewCounterFunc("visasimd_store_hits_total", "Cells served from the persistent store.", intFn(&m.storeHits))
	p.NewCounterFunc("visasimd_store_misses_total", "Store lookups that fell through to a simulation.", intFn(&m.storeMisses))
	p.NewCounterFunc("visasimd_store_put_errors_total", "Failed store write-throughs (daemon kept going).", intFn(&m.storePutErrors))
	p.NewGaugeFunc("visasimd_store_entries", "Entries resident in the persistent store.", intFn(&m.storeEntries))
	p.NewGaugeFunc("visasimd_store_bytes", "Bytes resident in the persistent store.", intFn(&m.storeBytes))
	p.NewCounterFunc("visasimd_sim_cycles_total", "Simulated cycles across all fresh runs.", intFn(&m.simCycles))
	p.NewCounterFunc("visasimd_sim_instructions_total", "Committed instructions across all fresh runs.", intFn(&m.simInstrs))
	p.NewCounterFunc("visasimd_sim_seconds_total", "Summed simulation wall-clock seconds (overlaps under parallelism).", floatFn(&m.simSeconds))
	p.NewGaugeFunc("visasimd_sim_cycles_per_sec", "Simulated cycles per summed simulation second.", floatFn(&m.cyclesPerSec))
	m.histQueueWait = p.NewHistogram("visasimd_queue_wait_seconds",
		"Time a job spent queued before a worker started it.", nil)
	m.histSimulate = p.NewHistogram("visasimd_simulate_seconds",
		"Wall-clock of one fresh cell simulation (queue wait excluded).", nil)
	m.histCacheHit = p.NewHistogram("visasimd_cache_serve_seconds",
		"Time to serve a cell from the in-memory cache or the store.", nil)
}

// initTenantProm adds the per-tenant Prometheus families when admission
// control is on. They are obs.SnapshotVec readers over the admission
// snapshot — one source of truth, recomputed at scrape time — so the label
// set always matches the registry and no key material ever leaves it.
func (m *metrics) initTenantProm(adm *cluster.Admission) {
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
	m.prom.NewCounterSnapshotVec("visasimd_tenant_admitted_cells_total",
		"Cells admitted per tenant.",
		tenantSamples(func(ts cluster.TenantStatus) float64 { return float64(ts.Admitted) }))
	m.prom.NewCounterSnapshotVec("visasimd_tenant_rejected_cells_total",
		"Cells rejected per tenant (rate or quota).",
		tenantSamples(func(ts cluster.TenantStatus) float64 { return float64(ts.Rejected) }))
	m.prom.NewGaugeSnapshotVec("visasimd_tenant_queued_cells",
		"Outstanding admitted cells per tenant (the quota in use).",
		tenantSamples(func(ts cluster.TenantStatus) float64 { return float64(ts.Queued) }))
}

// recordCell accounts one resolved cell (hit or miss) and refreshes the
// derived hit ratio.
func (m *metrics) recordCell(hit bool) {
	m.cellsTotal.Add(1)
	if hit {
		m.cacheHits.Add(1)
	}
	if total := m.cellsTotal.Value(); total > 0 {
		m.hitRatio.Set(float64(m.cacheHits.Value()) / float64(total))
	}
}

// recordSim accounts one fresh simulation's cost and publishes its
// CellStats row under the cell's hash prefix.
func (m *metrics) recordSim(hash string, st harness.CellStats) {
	m.simsRun.Add(1)
	m.simCycles.Add(int64(st.Cycles))
	m.simInstrs.Add(int64(st.Instructions))
	m.simSeconds.Add(st.Seconds)
	if secs := m.simSeconds.Value(); secs > 0 {
		m.cellsPerSec.Set(float64(m.simsRun.Value()) / secs)
		m.cyclesPerSec.Set(float64(m.simCycles.Value()) / secs)
	}
	m.statsMu.Lock()
	if m.statsCount < maxCellStatRecords {
		m.statsCount++
		m.cellStats.Set(hash[:12], jsonVar{st})
	}
	m.statsMu.Unlock()
}
