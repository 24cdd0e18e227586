package dispatch

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"visasim/internal/cluster"
	"visasim/internal/obs"
)

// metrics is the coordinator's one metrics store: an obs.Registry rendered
// by WritePrometheus (GET /metrics/prom on the control plane). It is
// per-Coordinator, so several coordinators in one process (tests) never
// collide. Families whose series come and go — backends, tenants — are
// obs.SnapshotVec, recomputed at scrape time instead of registered per
// series.
type metrics struct {
	prom *obs.Registry

	cellsTotal  *obs.Counter // cells accepted across all sweeps
	dedupShares *obs.Counter // cells folded into another cell's dispatch
	retries     *obs.Counter // re-dispatches after a retryable failure
	failovers   *obs.Counter // retries that moved to a different backend

	storeHits      *obs.Counter // groups served from the durable store
	storeMisses    *obs.Counter // resume lookups that fell through
	storePutErrors *obs.Counter // failed checkpoint writes (sweep kept going)
	resumeSkips    *obs.Counter // cells not dispatched thanks to the store

	joins            *obs.Counter // backends that joined (or rejoined) the pool
	leaves           *obs.Counter // backends removed from the pool
	drains           *obs.Counter // graceful drains started
	admissionRejects *obs.Counter // sweeps bounced by the admission gate

	// admittedByClass counts cells accepted per priority class.
	admittedByClass [cluster.NumClasses]atomic.Int64

	// served tracks resolved cells per tenant — the service shares the
	// Jain fairness gauge is computed over.
	servedMu sync.Mutex
	served   map[string]int64

	histAttempt  *obs.Histogram    // one dispatch attempt: submit → cell resolved
	queueWait    *obs.HistogramVec // scheduling-queue wait by priority class
	classLatency *obs.HistogramVec // enqueue → resolved latency by priority class
}

func newMetrics(c *Coordinator) *metrics {
	p := obs.NewRegistry()
	m := &metrics{
		prom:             p,
		served:           map[string]int64{},
		cellsTotal:       p.NewCounter("visasim_dispatch_cells_total", "Cells accepted across all sweeps."),
		dedupShares:      p.NewCounter("visasim_dispatch_dedup_shares_total", "Cells folded into another cell's dispatch."),
		retries:          p.NewCounter("visasim_dispatch_retries_total", "Re-dispatches after a retryable failure."),
		failovers:        p.NewCounter("visasim_dispatch_failovers_total", "Retries that moved to a different backend."),
		storeHits:        p.NewCounter("visasim_dispatch_store_hits_total", "Groups served from the durable store."),
		storeMisses:      p.NewCounter("visasim_dispatch_store_misses_total", "Resume lookups that fell through to a dispatch."),
		storePutErrors:   p.NewCounter("visasim_dispatch_store_put_errors_total", "Failed checkpoint writes (sweep kept going)."),
		resumeSkips:      p.NewCounter("visasim_dispatch_resume_skips_total", "Cells not dispatched thanks to the store."),
		joins:            p.NewCounter("visasim_dispatch_membership_joins_total", "Backends that joined or rejoined the pool."),
		leaves:           p.NewCounter("visasim_dispatch_membership_leaves_total", "Backends removed from the pool."),
		drains:           p.NewCounter("visasim_dispatch_membership_drains_total", "Graceful backend drains started."),
		admissionRejects: p.NewCounter("visasim_dispatch_admission_rejected_sweeps_total", "Sweeps bounced by the admission gate."),
		histAttempt: p.NewHistogram("visasim_dispatch_attempt_seconds",
			"One dispatch attempt end to end: submit through cell resolution.", nil),
		queueWait: p.NewHistogramVec("visasim_dispatch_queue_wait_seconds",
			"Time a dispatch group waited in the scheduling queue, by priority class.", "class", nil),
		classLatency: p.NewHistogramVec("visasim_dispatch_class_latency_seconds",
			"Enqueue-to-resolution latency of a dispatch group, by priority class.", "class", nil),
	}

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
		backendSamples(func(b *backend) float64 { return float64(b.dispatched.Load()) }))
	p.NewCounterSnapshotVec("visasim_dispatch_backend_failures_total",
		"Attempts the backend failed retryably.",
		backendSamples(func(b *backend) float64 { return float64(b.failures.Load()) }))
	p.NewGaugeSnapshotVec("visasim_dispatch_backend_healthy",
		"1 when the backend's last probe or dispatch succeeded.",
		backendSamples(func(b *backend) float64 { return bool01(b.healthy.Load()) }))
	p.NewGaugeSnapshotVec("visasim_dispatch_backend_draining",
		"1 while the backend is draining out of the pool.",
		backendSamples(func(b *backend) float64 { return bool01(b.draining.Load()) }))
	p.NewGaugeSnapshotVec("visasim_dispatch_backend_inflight",
		"Cells currently dispatched to the backend.",
		backendSamples(func(b *backend) float64 { return float64(b.inflight.Load()) }))

	// Per-class families: one series per priority class.
	classSamples := func(value func(cluster.PriorityClass) float64) func() []obs.Sample {
		return func() []obs.Sample {
			out := make([]obs.Sample, 0, cluster.NumClasses)
			for _, class := range cluster.Classes() {
				out = append(out, obs.Sample{
					Labels: map[string]string{"class": class.String()},
					Value:  value(class),
				})
			}
			return out
		}
	}
	p.NewCounterSnapshotVec("visasim_dispatch_class_admitted_cells_total",
		"Cells accepted into the scheduler per priority class.",
		classSamples(func(class cluster.PriorityClass) float64 { return float64(m.admittedByClass[class].Load()) }))
	p.NewGaugeSnapshotVec("visasim_dispatch_class_queued_groups",
		"Dispatch groups waiting in the scheduling queue per priority class.",
		classSamples(func(class cluster.PriorityClass) float64 { return float64(c.sched.LenByClass(class)) }))

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
	return m
}

// addAdmitted records cells entering the scheduler under a class.
func (m *metrics) addAdmitted(class cluster.PriorityClass, cells int) {
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

// WritePrometheus renders the coordinator's metrics in Prometheus text
// exposition format 0.0.4 — the coordinator-side twin of the daemon's
// GET /metrics/prom.
func (c *Coordinator) WritePrometheus(w io.Writer) {
	c.met.prom.WritePrometheus(w)
}
