package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// sweep share a trace ID (for the service, the X-Visasim-Sweep correlation
// ID); Parent is 0 for a root span.
type span struct {
	Trace  string            `json:"trace"`
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  float64           `json:"start_s"`
	End    float64           `json:"end_s"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	child  float64           // summed duration of direct children
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(trace, name string, parent int, start, end time.Time, attrs map[string]string) int {
	s := span{
		Trace:  trace,
		ID:     len(t.spans) + 1,
		Parent: parent,
		Name:   name,
		Start:  start.Sub(t.t0).Seconds(),
		End:    end.Sub(t.t0).Seconds(),
		Attrs:  attrs,
	}
	if parent > 0 {
		t.spans[parent-1].child += s.End - s.Start
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes sums each layer's self time — span duration minus the time its
// children cover — by layer, the span name's part before the first dot.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		self := s.End - s.Start - s.child
		if self < 0 {
			self = 0
		}
		out[layer] += self
	}
	return out
}

// write saves the spans and the per-layer self times.
func (t *tracer) write(path string, wall float64) {
	b, err := json.Marshal(map[string]any{
		"timed_wall_s": wall,
		"self_s":       t.selfTimes(),
		"spans":        t.spans,
	})
	if err == nil {
		writeFile(path, b)
	}
}

// pprofRow is one function of a `go tool pprof -top` listing, in seconds.
type pprofRow struct {
	flat, cum float64
}

// showSimulator makes pprof keep only the simulator's frames: time in the
// Go runtime and standard library (allocation, GC assists, copying, maps)
// goes to the simulator function that called it.
const showSimulator = "-show=^visasim/internal/"

// pprofTop runs `go tool pprof -top` with the given options over the given
// profiles (merged) and returns every function's flat and cumulative time
// and the total.
func pprofTop(opts []string, files ...string) (map[string]pprofRow, float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, opts...)
	args = append(args, files...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	rows := map[string]pprofRow{}
	var total float64
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if strings.HasPrefix(line, "Showing nodes accounting for") {
			// "... for 1.20s, 100% of 1.20s total"
			for i := range f {
				if f[i] == "total" && i > 0 {
					total, _ = parsePprofDur(f[i-1])
				}
			}
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err1 := parsePprofDur(f[0])
		cum, err2 := parsePprofDur(f[3])
		if err1 != nil || err2 != nil {
			continue
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		r := rows[name]
		r.flat += flat
		r.cum += cum
		rows[name] = r
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof: no samples in %v", files)
	}
	return rows, total, nil
}

// parsePprofDur parses pprof's scaled durations ("10ms", "1.20s", "2mins").
func parsePprofDur(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"mins", 60}, {"hrs", 3600}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err
}

// pkgOf returns the import path of a pprof function name
// ("visasim/internal/uarch.(*IQ).Census" → "visasim/internal/uarch").
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// packageLayers maps the simulator's packages onto the layers the
// self-share metrics report.
var packageLayers = map[string]string{
	"visasim/internal/pipeline": "pipeline",
	"visasim/internal/alloc":    "pipeline", // VISA opt1/opt2 controllers
	"visasim/internal/dvm":      "pipeline", // DVM controllers
	"visasim/internal/uarch":    "uarch",
	"visasim/internal/cache":    "cache",
	"visasim/internal/branch":   "branch",
	"visasim/internal/iqorg":    "iqorg",
	"visasim/internal/avf":      "avf",
	"visasim/internal/trace":    "trace",
	"visasim/internal/ace":      "ace",
	"visasim/internal/core":     "core",
	"visasim/internal/workload": "synthesis",
	"visasim/internal/program":  "synthesis",
	"visasim/internal/isa":      "synthesis",
	"visasim/internal/rng":      "synthesis",
	"visasim/internal/harness":  "harness",
}

// selfShareLayers are the layers whose profile self time is reported as
// <layer>.self_share (harness.self_share comes from spans instead).
var selfShareLayers = []string{"pipeline", "uarch", "cache", "branch", "iqorg", "avf", "trace", "ace", "core", "synthesis"}

// stageFuncs maps pipeline stages to the Processor methods whose
// cumulative time they are.
var stageFuncs = map[string][]string{
	"commit":   {"commit"},
	"complete": {"complete"},
	"issue":    {"issue", "processFlushes"},
	"dispatch": {"dispatch"},
	"fetch":    {"fetch"},
	"account":  {"account"},
	"control":  {"view", "noteDecision", "applyForced"},
	"skip":     {"skipAhead"},
}

// summarizeProfiles turns the traced run's CPU profiles into stage shares
// of the core loop and the attributed share of the timed region, and
// package self shares over setup plus timed region. wall is the traced
// half's timed wall time and harnessSelf the harness spans' self time in it.
func summarizeProfiles(rep *report, dir, stem string, wall, harnessSelf float64) error {
	setup := filepath.Join(dir, stem+"-setup.pprof")
	region := filepath.Join(dir, stem+"-region.pprof")

	// The timed region's simulation goroutines only: the benchmark's own
	// output checks and the runtime's background GC workers drop out.
	rows, _, err := pprofTop([]string{"-tagfocus=perfbench=timed", showSimulator}, region)
	if err != nil {
		return err
	}
	const proc = "visasim/internal/pipeline.(*Processor)."
	if run := rows[proc+"Run"].cum; run > 0 {
		for stage, fns := range stageFuncs {
			var cum float64
			for _, fn := range fns {
				cum += rows[proc+fn].cum
			}
			if stage == "control" {
				// The controllers' Decide methods (alloc, dvm).
				for name, r := range rows {
					p := pkgOf(name)
					if (p == "visasim/internal/alloc" || p == "visasim/internal/dvm") && strings.HasSuffix(name, ".Decide") {
						cum += r.cum
					}
				}
			}
			rep.setValue("pipeline.stage."+stage+"_share", "fraction", cum/run,
				"cumulative profile time over pipeline.(*Processor).Run")
		}
	}
	named := harnessSelf
	for name, r := range rows {
		if _, ok := packageLayers[pkgOf(name)]; ok {
			named += r.flat
		}
	}
	rep.setValue("trace.attributed_frac", "fraction", named/wall,
		"named layers' self CPU time on the simulation goroutines plus harness span self time, over the traced half's timed wall time")

	rows, total, err := pprofTop([]string{showSimulator}, setup, region)
	if err != nil {
		return err
	}
	self := map[string]float64{}
	for name, r := range rows {
		if layer, ok := packageLayers[pkgOf(name)]; ok {
			self[layer] += r.flat
		}
	}
	for _, l := range selfShareLayers {
		rep.setValue(l+".self_share", "fraction", self[l]/total,
			"self CPU time, runtime and library callees included, over all samples of setup plus timed region")
	}
	return nil
}

//go:embed digests.json
var digestsJSON []byte

// digestLen is how many hex digits of each digest digests.json keeps.
const digestLen = 16

// recordedDigests returns the shipped seed's per-cell result digests for a
// workload (cell key → SHA-256 of the result's JSON).
func recordedDigests(workload string) map[string]string {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		fatalf("digests.json: %v", err)
	}
	return all[workload]
}

// writeDigests merges a run's digests into the digest file under workload.
func writeDigests(path, workload string, cells []cellRecord) error {
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	m := map[string]string{}
	for _, c := range cells {
		m[c.key] = c.digest[:digestLen]
	}
	all[workload] = m
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
