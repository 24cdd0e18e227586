package dispatch

import (
	"expvar"
	"io"
	"sort"
	"sync"

	"visasim/internal/cluster"
	"visasim/internal/obs"
)

// metrics aggregates the coordinator's counters in a private expvar.Map —
// like the server's, deliberately not published to the process-global
// registry so multiple coordinators (tests!) never collide; binaries
// publish MetricsVar once.
type metrics struct {
	root expvar.Map

	cellsTotal  expvar.Int // cells accepted across all sweeps
	dedupShares expvar.Int // cells folded into another cell's dispatch
	retries     expvar.Int // re-dispatches after a retryable failure
	failovers   expvar.Int // retries that moved to a different backend

	storeHits      expvar.Int // groups served from the durable store
	storeMisses    expvar.Int // resume lookups that fell through
	storePutErrors expvar.Int // failed checkpoint writes (sweep kept going)
	resumeSkips    expvar.Int // cells not dispatched thanks to the store

	joins            expvar.Int // backends that joined (or rejoined) the pool
	leaves           expvar.Int // backends removed from the pool
	drains           expvar.Int // graceful drains started
	admissionRejects expvar.Int // sweeps bounced by the admission gate

	backends expvar.Map // per-backend: dispatched, failures, healthy, inflight

	// admittedByClass counts cells accepted per priority class; the class
	// set is fixed so a plain array works where tenants need snapshots.
	admittedByClass [cluster.NumClasses]expvar.Int

	// served tracks resolved cells per tenant — the service shares the
	// Jain fairness gauge is computed over.
	servedMu sync.Mutex
	served   map[string]int64

	// prom is the Prometheus rendering of the counters above (same
	// sources, second format) plus the latency histograms, which expvar
	// cannot express. Per-backend and per-tenant families are
	// obs.SnapshotVec — membership is dynamic, so the child set is
	// recomputed at scrape time instead of registered up front. Rendered
	// by Coordinator.WritePrometheus and `visasimctl metrics -prom`.
	prom         *obs.Registry
	histAttempt  *obs.Histogram    // one dispatch attempt: submit → cell resolved
	queueWait    *obs.HistogramVec // scheduling-queue wait by priority class
	classLatency *obs.HistogramVec // enqueue → resolved latency by priority class
}

func newMetrics(c *Coordinator) *metrics {
	m := &metrics{served: map[string]int64{}}
	m.root.Init()
	m.backends.Init()
	for name, v := range map[string]expvar.Var{
		"cells_total":       &m.cellsTotal,
		"dedup_shares":      &m.dedupShares,
		"retries":           &m.retries,
		"failovers":         &m.failovers,
		"store_hits":        &m.storeHits,
		"store_misses":      &m.storeMisses,
		"store_put_errors":  &m.storePutErrors,
		"resume_skips":      &m.resumeSkips,
		"joins":             &m.joins,
		"leaves":            &m.leaves,
		"drains":            &m.drains,
		"admission_rejects": &m.admissionRejects,
		"backends":          &m.backends,
	} {
		m.root.Set(name, v)
	}
	m.initProm(c)
	return m
}

// addBackendVar registers a backend's expvar children when it joins; Set
// replaces any previous incarnation, so a rejoin cannot duplicate.
func (m *metrics) addBackendVar(b *backend) {
	per := &expvar.Map{}
	per.Init()
	per.Set("dispatched", &b.dispatched)
	per.Set("failures", &b.failures)
	per.Set("healthy", expvar.Func(func() any { return b.healthy.Load() }))
	per.Set("inflight", expvar.Func(func() any { return b.inflight.Load() }))
	m.backends.Set(b.url, per)
}

// removeBackendVar drops a departed backend's expvar children.
func (m *metrics) removeBackendVar(url string) {
	m.backends.Delete(url)
}

// addAdmitted records cells entering the scheduler under a class.
func (m *metrics) addAdmitted(_ string, class cluster.PriorityClass, cells int) {
	if int(class) < len(m.admittedByClass) {
		m.admittedByClass[class].Add(int64(cells))
	}
}

// addServed records resolved cells against a tenant's service share.
func (m *metrics) addServed(tenant string, cells int) {
	m.servedMu.Lock()
	m.served[tenant] += int64(cells)
	m.servedMu.Unlock()
}

// serviceShares returns the per-tenant resolved-cell counts, tenant-sorted.
func (m *metrics) serviceShares() ([]string, []float64) {
	m.servedMu.Lock()
	defer m.servedMu.Unlock()
	tenants := make([]string, 0, len(m.served))
	for t := range m.served {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	shares := make([]float64, len(tenants))
	for i, t := range tenants {
		shares[i] = float64(m.served[t])
	}
	return tenants, shares
}

// intFn adapts an expvar.Int into a scrape-time Prometheus reader.
func intFn(v *expvar.Int) func() float64 {
	return func() float64 { return float64(v.Value()) }
}

// initProm builds the Prometheus view over the same sources.
func (m *metrics) initProm(c *Coordinator) {
	m.prom = obs.NewRegistry()
	p := m.prom
	p.NewCounterFunc("visasim_dispatch_cells_total", "Cells accepted across all sweeps.", intFn(&m.cellsTotal))
	p.NewCounterFunc("visasim_dispatch_dedup_shares_total", "Cells folded into another cell's dispatch.", intFn(&m.dedupShares))
	p.NewCounterFunc("visasim_dispatch_retries_total", "Re-dispatches after a retryable failure.", intFn(&m.retries))
	p.NewCounterFunc("visasim_dispatch_failovers_total", "Retries that moved to a different backend.", intFn(&m.failovers))
	p.NewCounterFunc("visasim_dispatch_store_hits_total", "Groups served from the durable store.", intFn(&m.storeHits))
	p.NewCounterFunc("visasim_dispatch_store_misses_total", "Resume lookups that fell through to a dispatch.", intFn(&m.storeMisses))
	p.NewCounterFunc("visasim_dispatch_store_put_errors_total", "Failed checkpoint writes (sweep kept going).", intFn(&m.storePutErrors))
	p.NewCounterFunc("visasim_dispatch_resume_skips_total", "Cells not dispatched thanks to the store.", intFn(&m.resumeSkips))
	p.NewCounterFunc("visasim_dispatch_membership_joins_total", "Backends that joined or rejoined the pool.", intFn(&m.joins))
	p.NewCounterFunc("visasim_dispatch_membership_leaves_total", "Backends removed from the pool.", intFn(&m.leaves))
	p.NewCounterFunc("visasim_dispatch_membership_drains_total", "Graceful backend drains started.", intFn(&m.drains))
	p.NewCounterFunc("visasim_dispatch_admission_rejected_sweeps_total", "Sweeps bounced by the admission gate.", intFn(&m.admissionRejects))

	// Per-backend families reflect the live pool at scrape time.
	backendSamples := func(value func(b *backend) float64) func() []obs.Sample {
		return func() []obs.Sample {
			backends := c.snapshot()
			out := make([]obs.Sample, 0, len(backends))
			for _, b := range backends {
				out = append(out, obs.Sample{
					Labels: map[string]string{"backend": b.url},
					Value:  value(b),
				})
			}
			return out
		}
	}
	bool01 := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	p.NewCounterSnapshotVec("visasim_dispatch_backend_dispatched_total",
		"Attempts sent to the backend.",
		backendSamples(func(b *backend) float64 { return float64(b.dispatched.Value()) }))
	p.NewCounterSnapshotVec("visasim_dispatch_backend_failures_total",
		"Attempts the backend failed retryably.",
		backendSamples(func(b *backend) float64 { return float64(b.failures.Value()) }))
	p.NewGaugeSnapshotVec("visasim_dispatch_backend_healthy",
		"1 when the backend's last probe or dispatch succeeded.",
		backendSamples(func(b *backend) float64 { return bool01(b.healthy.Load()) }))
	p.NewGaugeSnapshotVec("visasim_dispatch_backend_draining",
		"1 while the backend is draining out of the pool.",
		backendSamples(func(b *backend) float64 { return bool01(b.draining.Load()) }))
	p.NewGaugeSnapshotVec("visasim_dispatch_backend_inflight",
		"Cells currently dispatched to the backend.",
		backendSamples(func(b *backend) float64 { return float64(b.inflight.Load()) }))

	// Per-class families: the class set is fixed, so FuncVec children work.
	admitted := p.NewCounterFuncVec("visasim_dispatch_class_admitted_cells_total",
		"Cells accepted into the scheduler per priority class.")
	queued := p.NewGaugeFuncVec("visasim_dispatch_class_queued_groups",
		"Dispatch groups waiting in the scheduling queue per priority class.")
	for _, class := range cluster.Classes() {
		class := class
		lbl := map[string]string{"class": class.String()}
		admitted.With(lbl, intFn(&m.admittedByClass[class]))
		queued.With(lbl, func() float64 { return float64(c.sched.LenByClass(class)) })
	}
	m.queueWait = p.NewHistogramVec("visasim_dispatch_queue_wait_seconds",
		"Time a dispatch group waited in the scheduling queue, by priority class.", "class", nil)
	m.classLatency = p.NewHistogramVec("visasim_dispatch_class_latency_seconds",
		"Enqueue-to-resolution latency of a dispatch group, by priority class.", "class", nil)

	p.NewGaugeFunc("visasim_dispatch_jain_fairness",
		"Jain fairness index over per-tenant resolved-cell shares (1 = perfectly fair).",
		func() float64 {
			_, shares := m.serviceShares()
			return cluster.Jain(shares)
		})
	p.NewCounterSnapshotVec("visasim_dispatch_served_cells_total",
		"Cells resolved per tenant.", func() []obs.Sample {
			tenants, shares := m.serviceShares()
			out := make([]obs.Sample, len(tenants))
			for i, t := range tenants {
				out[i] = obs.Sample{Labels: map[string]string{"tenant": t}, Value: shares[i]}
			}
			return out
		})

	if adm := c.opt.Admission; adm != nil {
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
		p.NewCounterSnapshotVec("visasim_dispatch_tenant_admitted_cells_total",
			"Cells admitted per tenant.",
			tenantSamples(func(ts cluster.TenantStatus) float64 { return float64(ts.Admitted) }))
		p.NewCounterSnapshotVec("visasim_dispatch_tenant_rejected_cells_total",
			"Cells rejected per tenant (rate or quota).",
			tenantSamples(func(ts cluster.TenantStatus) float64 { return float64(ts.Rejected) }))
		p.NewGaugeSnapshotVec("visasim_dispatch_tenant_queued_cells",
			"Outstanding admitted cells per tenant (the quota in use).",
			tenantSamples(func(ts cluster.TenantStatus) float64 { return float64(ts.Queued) }))
	}

	m.histAttempt = p.NewHistogram("visasim_dispatch_attempt_seconds",
		"One dispatch attempt end to end: submit through cell resolution.", nil)
}

// WritePrometheus renders the coordinator's metrics in Prometheus text
// exposition format 0.0.4 — the coordinator-side twin of the daemon's
// GET /metrics/prom.
func (c *Coordinator) WritePrometheus(w io.Writer) {
	c.met.prom.WritePrometheus(w)
}
