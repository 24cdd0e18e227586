// Command perfbench is visasim's repository benchmark. It drives the
// simulator only through public entry points — core.ProfileFor,
// harness.RunStats (which calls core.RunTraced with RunOptions.SimTime) and
// a real visasimd over HTTP — and reports what an experiment pays, end to
// end and layer by layer. See README.md in this directory for the workloads,
// the metric definitions and how the numbers relate to the repository's
// other throughput figures.
//
// Usage (normally through run.py, which builds this binary and visasimd):
//
//	perfbench --workload figs|mem-long|service --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 the run also records spans and CPU
// profiles and the metrics are the per-layer ones. The line before it is
// the full record: host stamp, workload parameters and every metric's
// median, quartiles and sample count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics a --trace 0 run reports, in BENCHMARK.json
// order. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"cells_per_s", "1/s"},
	{"sweep_p50_ms", "ms"},
	{"sweep_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports, in BENCHMARK.json
// order. A metric that does not apply to a workload (for example a daemon
// counter on an in-process workload) reads 0.
var perLayer = []metricDef{
	{"ace.profile_s", "s"},
	{"ace.profile_minstr_per_s", "Minstr/s"},
	{"core.cell_setup_ms", "ms"},
	{"pipeline.sim_s", "s"},
	{"pipeline.ns_per_instr", "ns"},
	{"pipeline.ns_per_cycle.cpu", "ns"},
	{"pipeline.ns_per_cycle.mix", "ns"},
	{"pipeline.ns_per_cycle.mem", "ns"},
	{"pipeline.skipped_cycle_frac", "fraction"},
	{"pipeline.stage.commit_share", "fraction"},
	{"pipeline.stage.complete_share", "fraction"},
	{"pipeline.stage.issue_share", "fraction"},
	{"pipeline.stage.dispatch_share", "fraction"},
	{"pipeline.stage.fetch_share", "fraction"},
	{"pipeline.stage.account_share", "fraction"},
	{"pipeline.stage.control_share", "fraction"},
	{"pipeline.stage.skip_share", "fraction"},
	{"pipeline.self_share", "fraction"},
	{"uarch.self_share", "fraction"},
	{"cache.self_share", "fraction"},
	{"branch.self_share", "fraction"},
	{"iqorg.self_share", "fraction"},
	{"avf.self_share", "fraction"},
	{"trace.self_share", "fraction"},
	{"ace.self_share", "fraction"},
	{"core.self_share", "fraction"},
	{"synthesis.self_share", "fraction"},
	{"harness.self_share", "fraction"},
	{"go.gc_share", "fraction"},
	{"go.alloc_mb_per_minstr", "MB/Minstr"},
	{"go.gc_cycles", "count"},
	{"server.queue_wait_ms", "ms"},
	{"server.simulate_ms", "ms"},
	{"server.hit_sweep_ms", "ms"},
	{"server.cache_hit_ratio", "fraction"},
	{"store.hit_ratio", "fraction"},
	{"server.response_kb_per_cell", "KB"},
	{"obs.scrape_ms", "ms"},
	{"trace.attributed_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// shippedSeed is the seed whose per-cell result digests are recorded in
// digests.json.
const shippedSeed = 1

// summary is one metric in the full record: the reported value plus the
// distribution of the samples it was taken from.
type summary struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Note   string  `json:"note,omitempty"`
}

// report is what a workload run produces.
type report struct {
	metrics   map[string]summary
	attempted int
	failed    int
	failures  []string
	params    map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]summary{}, params: map[string]any{}}
}

// set records a metric taken from samples: the value is their median.
func (r *report) set(name, unit string, samples []float64, note string) {
	q1, med, q3 := quartiles(samples)
	r.metrics[name] = summary{Value: med, Unit: unit, Q1: q1, Median: med, Q3: q3, N: len(samples), Note: note}
}

// setValue records a metric measured once over the whole region.
func (r *report) setValue(name, unit string, v float64, note string) {
	r.metrics[name] = summary{Value: v, Unit: unit, Q1: v, Median: v, Q3: v, N: 1, Note: note}
}

// fail counts one failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	build    string // .bench_build directory
	root     string // repository root
	record   string // when set, write the run's cell digests here
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func main() {
	var (
		o       options
		seconds int
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: figs, mem-long or service")
	flag.Int64Var(&o.seed, "seed", shippedSeed, "seed that picks the workload's cells")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed region in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and profiles and reports per-layer metrics")
	flag.StringVar(&o.record, "record-digests", "", "write the digests of every cell run to this file")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.build = os.Getenv("PERFBENCH_BUILD")
	o.root = os.Getenv("PERFBENCH_ROOT")
	if o.build == "" || o.root == "" {
		fatalf("PERFBENCH_BUILD and PERFBENCH_ROOT are unset; run through perfbench/run.py")
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}

	var (
		rep *report
		err error
	)
	switch o.workload {
	case "figs":
		rep, err = runInProc(o, figsSpec())
	case "mem-long":
		rep, err = runInProc(o, memLongSpec())
	case "service":
		rep, err = runService(o)
	default:
		fatalf("unknown workload %q (figs, mem-long, service)", o.workload)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out := outcome{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]outMetric{},
	}
	for _, d := range defs {
		s, ok := rep.metrics[d.name]
		switch {
		case ok:
			out.Metrics[d.name] = outMetric{Value: s.Value, Unit: d.unit}
		case o.trace:
			// Absent layer (not exercised by this workload, or a daemon
			// family missing from /metrics/prom).
			out.Metrics[d.name] = outMetric{Value: 0, Unit: d.unit}
		default:
			fatalf("end-to-end metric %s was not measured", d.name)
		}
	}
	if out.Attempted < 1 {
		fatalf("no operation was attempted")
	}

	rec := map[string]any{
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  seconds,
		"trace":    trace,
		"host":     hostStamp(o.root),
		"params":   rep.params,
		"metrics":  rep.metrics,
		"failures": rep.failures,
	}
	recJSON, _ := json.Marshal(rec) // only plain values; cannot fail
	writeFile(filepath.Join(o.build, "records",
		fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)), recJSON)
	fmt.Println(string(recJSON))
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// writeFile writes an artifact under the build directory; a failure is
// reported but does not fail the run.
func writeFile(path string, data []byte) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = os.WriteFile(path, data, 0o644)
		if err == nil {
			return
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: writing %s failed\n", path)
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same method as Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	return quantileExcl(s, 0.25), quantileExcl(s, 0.5), quantileExcl(s, 0.75)
}

func quantileExcl(s []float64, p float64) float64 {
	n := len(s)
	m := n + 1
	j := int(p * float64(m))
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	delta := p*float64(m) - float64(j)
	return s[j-1] + (s[j]-s[j-1])*delta
}

// tailPercentile returns the highest whole percentile with at least ten
// samples beyond it, and the sample value there (nearest rank). It never
// goes below the median: with fewer than twenty samples the tail is the
// 50th percentile.
func tailPercentile(xs []float64) (pct int, v float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	pct = 100 * (n - 10) / n
	// Nearest-rank value at pct: at least ten samples lie above it.
	idx := (pct*n+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	if med := median(s); pct < 50 || s[idx] < med {
		return 50, med
	}
	return pct, s[idx]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
