package obs

import (
	"strings"
	"testing"
)

// TestSnapshotVecGolden pins the snapshot-backed family rendering: one
// HELP/TYPE preamble, sorted deterministic series, label escaping, and a
// child set that tracks the snapshot function call-by-call (a departed
// member stops appearing).
func TestSnapshotVecGolden(t *testing.T) {
	r := NewRegistry()
	members := []string{"http://b:9090", "http://a:9090"}
	r.NewGaugeSnapshotVec("demo_backend_inflight", "In-flight cells per backend.", func() []Sample {
		out := make([]Sample, 0, len(members))
		for i, m := range members {
			out = append(out, Sample{Labels: map[string]string{"backend": m}, Value: float64(i + 1)})
		}
		return out
	})

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP demo_backend_inflight In-flight cells per backend.
# TYPE demo_backend_inflight gauge
demo_backend_inflight{backend="http://a:9090"} 2
demo_backend_inflight{backend="http://b:9090"} 1
`
	if b.String() != want {
		t.Errorf("rendering drifted\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}

	// Membership change: the next scrape reflects it with no duplicates.
	members = []string{"http://a:9090"}
	b.Reset()
	r.WritePrometheus(&b)
	if strings.Count(b.String(), "demo_backend_inflight{") != 1 {
		t.Errorf("departed member still rendered:\n%s", b.String())
	}
}

func TestSnapshotVecCounterTypeAndEmpty(t *testing.T) {
	r := NewRegistry()
	r.NewCounterSnapshotVec("demo_admitted_total", "Admitted cells per tenant.", func() []Sample { return nil })
	var b strings.Builder
	r.WritePrometheus(&b)
	want := "# HELP demo_admitted_total Admitted cells per tenant.\n# TYPE demo_admitted_total counter\n"
	if b.String() != want {
		t.Errorf("empty snapshot rendering = %q, want %q", b.String(), want)
	}
}

// TestHistogramVecGolden pins the labeled-histogram rendering: per-child
// cumulative buckets under one preamble, children sorted by label value.
func TestHistogramVecGolden(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("demo_latency_seconds", "Sweep latency by class.", "class", []float64{0.1, 1})
	h.Observe("interactive", 0.05)
	h.Observe("interactive", 0.5)
	h.Observe("bulk", 30)

	if h.Count("interactive") != 2 || h.Count("bulk") != 1 || h.Count("missing") != 0 {
		t.Fatalf("counts = %d/%d/%d", h.Count("interactive"), h.Count("bulk"), h.Count("missing"))
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP demo_latency_seconds Sweep latency by class.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{class="bulk",le="0.1"} 0
demo_latency_seconds_bucket{class="bulk",le="1"} 0
demo_latency_seconds_bucket{class="bulk",le="+Inf"} 1
demo_latency_seconds_sum{class="bulk"} 30
demo_latency_seconds_count{class="bulk"} 1
demo_latency_seconds_bucket{class="interactive",le="0.1"} 1
demo_latency_seconds_bucket{class="interactive",le="1"} 2
demo_latency_seconds_bucket{class="interactive",le="+Inf"} 2
demo_latency_seconds_sum{class="interactive"} 0.55
demo_latency_seconds_count{class="interactive"} 2
`
	if b.String() != want {
		t.Errorf("rendering drifted\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestHistogramVecValidation(t *testing.T) {
	r := NewRegistry()
	for name, fn := range map[string]func(){
		"bad bounds": func() { r.NewHistogramVec("v1", "x", "class", []float64{1, 1}) },
		"no label":   func() { r.NewHistogramVec("v2", "x", "", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
