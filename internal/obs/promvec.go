package obs

import (
	"fmt"
	"io"
	"sort"
)

// This file adds a vector collector beyond prom.go's fixed families:
// SnapshotVec, whose labeled samples are produced wholesale at scrape time
// (the dispatch coordinator's per-backend families read the pool this way,
// so nothing is ever registered per series).

// Sample is one labeled measurement returned by a SnapshotVec's snapshot
// function.
type Sample struct {
	// Labels are the sample's label pairs; keys render sorted.
	Labels map[string]string
	// Value is the sample's value at snapshot time.
	Value float64
}

// SnapshotVec is a metric family whose entire child set is recomputed by
// one function at scrape time. Use it when the series are read from
// another structure: the function reflects exactly the members that exist
// right now.
type SnapshotVec struct {
	name string
	help string
	typ  string
	fn   func() []Sample
}

// NewGaugeSnapshotVec creates and registers a snapshot-backed gauge family.
func (r *Registry) NewGaugeSnapshotVec(name, help string, fn func() []Sample) *SnapshotVec {
	v := &SnapshotVec{name: name, help: help, typ: "gauge", fn: fn}
	r.Register(v)
	return v
}

// NewCounterSnapshotVec creates and registers a snapshot-backed counter
// family; every series the function reports must be monotone over time.
func (r *Registry) NewCounterSnapshotVec(name, help string, fn func() []Sample) *SnapshotVec {
	v := &SnapshotVec{name: name, help: help, typ: "counter", fn: fn}
	r.Register(v)
	return v
}

// Name returns the metric family name.
func (v *SnapshotVec) Name() string { return v.name }

func (v *SnapshotVec) write(w io.Writer) {
	header(w, v.name, v.help, v.typ)
	samples := v.fn()
	lines := make([]string, 0, len(samples))
	for _, s := range samples {
		lines = append(lines, fmt.Sprintf("%s%s %s", v.name, renderLabels(s.Labels), formatFloat(s.Value)))
	}
	// Deterministic output regardless of snapshot order.
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// renderLabels renders {k="v",...} with sorted keys; "" when empty.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += k + "=\"" + escapeLabel(labels[k]) + "\""
	}
	return s + "}"
}
