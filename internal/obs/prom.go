package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is a deliberately small Prometheus text-exposition (version
// 0.0.4) implementation: counters, gauges, function-backed gauges and
// cumulative histograms, rendered in deterministic order. The module takes
// no third-party dependencies, and the subset here — TYPE/HELP comments,
// monotone counters, +Inf-terminated cumulative buckets, _sum and _count —
// is everything a Prometheus or VictoriaMetrics scraper needs from us.

// Collector is one named metric family that can render itself.
type Collector interface {
	// Name returns the metric family name (used for ordering and
	// duplicate detection).
	Name() string
	write(w io.Writer)
}

// Registry holds metric families and renders them with WritePrometheus.
// Register-time panics on duplicate names keep wiring mistakes loud; all
// other operations are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	cols []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector; duplicate family names panic (a wiring bug,
// not a runtime condition).
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.cols {
		if have.Name() == c.Name() {
			panic("obs: duplicate metric " + c.Name())
		}
	}
	r.cols = append(r.cols, c)
}

// WritePrometheus renders every registered family in name order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	cols := make([]Collector, len(r.cols))
	copy(cols, r.cols)
	r.mu.Unlock()
	sort.Slice(cols, func(i, j int) bool { return cols[i].Name() < cols[j].Name() })
	for _, c := range cols {
		c.write(w)
	}
}

// header writes the family's # HELP / # TYPE preamble.
func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotone int64 counter.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// NewCounter creates and registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.Register(c)
	return c
}

// Name returns the metric family name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by d (d must be >= 0 to keep it monotone).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// Gauge is a settable int64 gauge.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// NewGauge creates and registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.Register(g)
	return g
}

// Name returns the metric family name.
func (g *Gauge) Name() string { return g.name }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.v.Load())
}

// GaugeFunc renders a value computed at scrape time, for quantities the
// owner already tracks (a cache's size, a store's bytes) so no second copy
// has to be kept in step.
type GaugeFunc struct {
	name string
	help string
	typ  string // "gauge" or "counter" (a fn-backed monotone source)
	fn   func() float64
}

// NewGaugeFunc creates and registers a scrape-time gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, typ: "gauge", fn: fn}
	r.Register(g)
	return g
}

// NewCounterFunc creates and registers a scrape-time counter whose value
// comes from fn; fn must be monotone (e.g. a count that only ever grows).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, typ: "counter", fn: fn}
	r.Register(g)
	return g
}

// Name returns the metric family name.
func (g *GaugeFunc) Name() string { return g.name }

func (g *GaugeFunc) write(w io.Writer) {
	header(w, g.name, g.help, g.typ)
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// DefBuckets is the default histogram bucketing for service latencies in
// seconds: sub-millisecond cache serves through multi-minute simulations.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// Histogram is a cumulative-bucket histogram (Prometheus semantics: each
// bucket counts observations <= its upper bound, and an implicit +Inf
// bucket equals _count).
type Histogram struct {
	name   string
	help   string
	bounds []float64

	mu     sync.Mutex
	counts []uint64
	sum    float64
	total  uint64
}

// NewHistogram creates and registers a histogram with the given upper
// bounds (nil selects DefBuckets). Bounds must be strictly increasing.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not increasing: " + name)
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)),
	}
	r.Register(h)
	return h
}

// Name returns the metric family name.
func (h *Histogram) Name() string { return h.name }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.total++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
}

// Count returns how many samples have been observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

func (h *Histogram) write(w io.Writer) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()

	header(w, h.name, h.help, "histogram")
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, total)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", h.name, total)
}
