package dispatch

import (
	"io"

	"visasim/internal/obs"
)

// metrics is the coordinator's one metrics store: an obs.Registry rendered
// by WritePrometheus (`visasimctl sweep -v`). It is per-Coordinator, so
// several coordinators in one process (tests) never collide. The
// per-backend families are obs.SnapshotVec, read from the pool at scrape
// time.
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

	histAttempt *obs.Histogram // one dispatch attempt: submit → cell resolved
	queueWait   *obs.Histogram // time a group waited in the queue
}

func newMetrics(c *Coordinator) *metrics {
	p := obs.NewRegistry()
	m := &metrics{
		prom:           p,
		cellsTotal:     p.NewCounter("visasim_dispatch_cells_total", "Cells accepted across all sweeps."),
		dedupShares:    p.NewCounter("visasim_dispatch_dedup_shares_total", "Cells folded into another cell's dispatch."),
		retries:        p.NewCounter("visasim_dispatch_retries_total", "Re-dispatches after a retryable failure."),
		failovers:      p.NewCounter("visasim_dispatch_failovers_total", "Retries that moved to a different backend."),
		storeHits:      p.NewCounter("visasim_dispatch_store_hits_total", "Groups served from the durable store."),
		storeMisses:    p.NewCounter("visasim_dispatch_store_misses_total", "Resume lookups that fell through to a dispatch."),
		storePutErrors: p.NewCounter("visasim_dispatch_store_put_errors_total", "Failed checkpoint writes (sweep kept going)."),
		resumeSkips:    p.NewCounter("visasim_dispatch_resume_skips_total", "Cells not dispatched thanks to the store."),
		histAttempt: p.NewHistogram("visasim_dispatch_attempt_seconds",
			"One dispatch attempt end to end: submit through cell resolution.", nil),
		queueWait: p.NewHistogram("visasim_dispatch_queue_wait_seconds",
			"Time a dispatch group waited in the queue.", nil),
	}

	backendSamples := func(value func(b *backend) float64) func() []obs.Sample {
		return func() []obs.Sample {
			out := make([]obs.Sample, 0, len(c.backends))
			for _, b := range c.backends {
				out = append(out, obs.Sample{
					Labels: map[string]string{"backend": b.url},
					Value:  value(b),
				})
			}
			return out
		}
	}
	p.NewCounterSnapshotVec("visasim_dispatch_backend_dispatched_total",
		"Attempts sent to the backend.",
		backendSamples(func(b *backend) float64 { return float64(b.dispatched.Load()) }))
	p.NewCounterSnapshotVec("visasim_dispatch_backend_failures_total",
		"Attempts the backend failed retryably.",
		backendSamples(func(b *backend) float64 { return float64(b.failures.Load()) }))
	p.NewGaugeSnapshotVec("visasim_dispatch_backend_healthy",
		"1 when the backend's last probe or dispatch succeeded.",
		backendSamples(func(b *backend) float64 {
			if b.healthy.Load() {
				return 1
			}
			return 0
		}))
	p.NewGaugeSnapshotVec("visasim_dispatch_backend_inflight",
		"Cells currently dispatched to the backend.",
		backendSamples(func(b *backend) float64 { return float64(b.inflight.Load()) }))
	return m
}

// WritePrometheus renders the coordinator's metrics in Prometheus text
// exposition format 0.0.4 — the coordinator-side twin of the daemon's
// GET /metrics/prom.
func (c *Coordinator) WritePrometheus(w io.Writer) {
	c.met.prom.WritePrometheus(w)
}
