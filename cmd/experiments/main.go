// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index) and runs batches of cells.
//
// Usage:
//
//	experiments [-n budget] [-workers N] [targets...]
//	experiments [-workers N] [-backends URL,...] cells <cells.json
//	experiments -backends URL,... health
//
// Targets: fig1 fig2 fig5 fig6 fig8 fig9 fig10 table1 table2 table3
// iqmatrix ablations ext-rob, or all (the default: the tables, the figures
// and iqmatrix). The shapes — not the absolute values — are the
// reproduction target; EXPERIMENTS.md records the comparison against the
// paper. Simulator throughput is measured by perfbench, not here (see
// perfbench/README.md).
//
// The cells target reads a batch from stdin in the JSON shape POST
// /v1/sweeps accepts,
//
//	{"cells":[{"key":"demo","config":{"Benchmarks":["gcc"],
//	  "Scheme":1,"MaxInstructions":100000}}]}
//
// and prints {"cells":[{"key":…,"result":…}]} in submission order. The
// simulator is deterministic, so the bytes are the same whether the cells
// ran here or on daemons. The health target probes every -backends URL
// once, prints one line each (healthy, or DOWN: and the reason) and exits 1
// if any is down. cells and health run alone, and neither takes -n or -csv.
//
// With -backends URL,URL,... every sweep runs on visasimd daemons instead
// of in-process, sharded across the static list by the in-process dispatch
// coordinator (least-loaded assignment, retry/failover), so repeated
// regenerations (and overlapping figures) hit the daemons' content-addressed
// result caches. One URL is enough for a single daemon, and -workers bounds
// the cells in flight across all of them. After each target, one line per
// backend (its health and dispatch count) goes to stderr. Add -store DIR
// to checkpoint completed cells to disk and -resume to skip cells already
// checkpointed by an earlier (possibly killed) run. -trace-level records
// decision traces (gzip'd NDJSON, one DIR/<key>.ndjson.gz per cell) on
// local sweeps only: the simulator is deterministic, so a local traced run
// yields the same results a daemon would. Flags that would do nothing
// (-trace-level with -backends, -store or -resume without -backends, the
// sweep flags with health) and unknown targets are rejected before any
// target runs, with exit status 2. A failing target, a trace that cannot
// be written included, exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"visasim/internal/core"
	"visasim/internal/decision"
	"visasim/internal/dispatch"
	"visasim/internal/experiments"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/server"
	"visasim/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command: it parses argv, runs the targets and returns
// the exit status.
func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		budget      = fs.Uint64("n", experiments.DefaultBudget, "instructions per simulation")
		workers     = fs.Int("workers", 0, "parallel simulations, or with -backends cells in flight (0 = GOMAXPROCS, or the coordinator's default)")
		csvDir      = fs.String("csv", "", "also write machine-readable CSVs into this directory")
		backendsCSV = fs.String("backends", "", "comma-separated visasimd base URLs (e.g. http://localhost:8080); sweeps shard across them via the dispatch coordinator")
		storeDir    = fs.String("store", "", "with -backends: checkpoint completed cells to this directory")
		resume      = fs.Bool("resume", false, "with -backends and -store: skip cells already checkpointed")
		logLevel    = fs.String("log-level", "warn", "minimum log level for -backends sweeps: debug, info, warn, error")
		logFormat   = fs.String("log-format", "text", "log line format: text or json")
		traceLevel  = fs.Int("trace-level", 0, "record per-cell decision traces: 0 off, 1 decision edges, 2 adds per-sample observations (local sweeps only)")
		traceDir    = fs.String("trace-dir", "", "with -trace-level: write each cell's trace to DIR/<key>.ndjson.gz (default decision-traces)")
	)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, format string, a ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", a...)
		return status
	}

	targets := fs.Args()
	if len(targets) == 0 || (len(targets) == 1 && targets[0] == "all") {
		targets = []string{"table2", "table3", "fig1", "fig2", "table1",
			"fig5", "fig6", "fig8", "fig9", "fig10", "iqmatrix"}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkArgs(args{
		traceLevel: *traceLevel,
		backends:   *backendsCSV,
		store:      *storeDir,
		resume:     *resume,
		targets:    targets,
		set:        set,
	}); err != nil {
		return fail(2, "%v", err)
	}

	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return fail(2, "%v", err)
	}
	// Ctrl-C aborts a remote sweep mid-flight (cells not yet dispatched
	// are skipped, in-flight dispatches canceled) instead of letting it run
	// on; local in-process sweeps are unaffected.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	p := experiments.Params{Budget: *budget, Workers: *workers}
	if *traceLevel > 0 {
		dir := *traceDir
		if dir == "" {
			dir = "decision-traces"
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(1, "%v", err)
		}
		p.TraceLevel = *traceLevel
		p.TraceSink = func(key string, tr *decision.Trace) error {
			// Cell keys embed "/" separators; flatten for the filesystem.
			return decision.WriteFile(filepath.Join(dir, strings.ReplaceAll(key, "/", "_")+".ndjson.gz"), tr)
		}
	}
	var coord *dispatch.Coordinator
	if *backendsCSV != "" {
		var st *store.Store
		if *storeDir != "" {
			if st, err = store.Open(*storeDir, store.Options{}); err != nil {
				return fail(1, "opening store: %v", err)
			}
		}
		coord, err = dispatch.New(dispatch.Options{
			Backends: strings.Split(*backendsCSV, ","),
			Workers:  *workers, // 0 keeps the coordinator's default
			Store:    st,
			Resume:   *resume,
			Logger:   logger,
		})
		if err != nil {
			return fail(1, "%v", err)
		}
		p.Runner = func(cells []harness.Cell) (harness.Results, error) {
			res, _, err := coord.Run(ctx, cells)
			return res, err
		}
	}
	if targets[0] == "health" {
		return health(ctx, coord, stdout)
	}

	for _, tgt := range targets {
		start := time.Now()
		do := figures[tgt]
		if tgt == "cells" {
			do = cellsTarget(stdin)
		}
		out, csv, err := do(p)
		if coord != nil {
			for _, m := range coord.Members() {
				state := "healthy"
				if !m.Healthy {
					state = "demoted"
				}
				fmt.Fprintf(stderr, "experiments: backend %s %s, %d dispatched\n", m.URL, state, m.Dispatched)
			}
		}
		if err != nil {
			return fail(1, "%s: %v", tgt, err)
		}
		fmt.Fprintln(stdout, out)
		if *csvDir != "" && csv != nil {
			if err := writeCSV(*csvDir, tgt, csv); err != nil {
				return fail(1, "%s: %v", tgt, err)
			}
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n\n", tgt, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// cellsTarget is the cells target: it runs the batch on stdin through the
// Params seam, so -workers, -backends, -store/-resume and -trace-level
// apply to it as to any figure, and renders the keyed results.
func cellsTarget(stdin io.Reader) target {
	return func(p experiments.Params) (string, csvWriter, error) {
		valid, err := server.DecodeSubmit(stdin)
		if err != nil {
			return "", nil, err
		}
		batch := make([]harness.Cell, len(valid))
		for i, c := range valid {
			batch[i] = harness.Cell{Key: c.Key, Cfg: c.Config}
		}
		res, err := p.Run(batch)
		if err != nil {
			return "", nil, err
		}
		type keyed struct {
			Key    string       `json:"key"`
			Result *core.Result `json:"result"`
		}
		out := struct {
			Cells []keyed `json:"cells"`
		}{Cells: make([]keyed, len(batch))}
		for i, c := range batch { // submission order, not map order
			out.Cells[i] = keyed{Key: c.Key, Result: res[c.Key]}
		}
		blob, err := json.MarshalIndent(out, "", "  ")
		return string(blob), nil, err
	}
}

// healthTimeout bounds the health target's probes.
const healthTimeout = 10 * time.Second

// health is the health target: it probes every backend once, prints one
// line each and returns exit status 1 when any is down.
func health(ctx context.Context, coord *dispatch.Coordinator, stdout io.Writer) int {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	status := 0
	for _, st := range coord.Probe(ctx) {
		if st.Healthy {
			fmt.Fprintf(stdout, "%-40s healthy\n", st.URL)
		} else {
			status = 1
			fmt.Fprintf(stdout, "%-40s DOWN: %s\n", st.URL, st.Error)
		}
	}
	return status
}

// csvWriter is satisfied by the figure results that have flat CSV forms.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

func writeCSV(dir, target string, c csvWriter) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, target+".csv"))
	if err != nil {
		return err
	}
	if err := c.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// args is the part of the command line checkArgs validates.
type args struct {
	traceLevel      int
	backends, store string
	resume          bool
	targets         []string
	set             map[string]bool // flags named on the command line
}

// checkArgs rejects, before any target runs, command lines that would
// silently do nothing or fail only midway: traces are recorded on the
// local harness path alone, -store and -resume only configure the
// dispatch coordinator, cells and health run alone and take no budget or
// CSV directory, health only probes -backends, and an unknown target would
// otherwise surface only once every target before it had run.
func checkArgs(a args) error {
	switch {
	case a.traceLevel > 0 && a.backends != "":
		return errors.New("-trace-level records local sweeps only; drop -backends or -trace-level")
	case (a.store != "" || a.resume) && a.backends == "":
		return errors.New("-store and -resume need -backends")
	case a.resume && a.store == "":
		return errors.New("-resume needs -store")
	}
	for _, t := range a.targets {
		if _, ok := figures[t]; !ok && t != "cells" && t != "health" {
			return fmt.Errorf("unknown target %q", t)
		}
	}
	for _, t := range []string{"cells", "health"} {
		if !slices.Contains(a.targets, t) {
			continue
		}
		if len(a.targets) > 1 {
			return fmt.Errorf("%s runs alone; give it no other target", t)
		}
		for _, f := range []string{"n", "csv"} {
			if a.set[f] {
				return fmt.Errorf("-%s does nothing with %s", f, t)
			}
		}
	}
	if slices.Contains(a.targets, "health") {
		if a.backends == "" {
			return errors.New("health probes -backends; name at least one")
		}
		for _, f := range []string{"store", "resume", "trace-level", "workers"} {
			if a.set[f] {
				return fmt.Errorf("-%s does nothing with health", f)
			}
		}
	}
	return nil
}

// figure adapts an experiment whose result prints and has a CSV form.
func figure[R interface {
	fmt.Stringer
	csvWriter
}](f func(experiments.Params) (R, error)) target {
	return func(p experiments.Params) (string, csvWriter, error) {
		r, err := f(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	}
}

// target runs one experiment and returns its report and, where the result
// has one, its CSV form.
type target func(experiments.Params) (string, csvWriter, error)

// figures maps every target name to its experiment.
var figures = map[string]target{
	"fig1":     figure(experiments.Fig1),
	"fig2":     figure(experiments.Fig2),
	"fig5":     figure(experiments.Fig5),
	"fig6":     figure(experiments.Fig6),
	"fig8":     figure(experiments.Fig8),
	"fig9":     figure(experiments.Fig9),
	"fig10":    figure(experiments.Fig10),
	"table1":   figure(experiments.Table1),
	"iqmatrix": figure(experiments.IQMatrix),
	"table2": func(experiments.Params) (string, csvWriter, error) {
		return experiments.Table2(), nil, nil
	},
	"table3": func(experiments.Params) (string, csvWriter, error) {
		return experiments.Table3(), nil, nil
	},
	"ext-rob": func(p experiments.Params) (string, csvWriter, error) {
		r, err := experiments.ExtensionROBDVM(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), nil, nil
	},
	"ablations": ablations,
}

func ablations(p experiments.Params) (string, csvWriter, error) {
	var b strings.Builder
	or, err := experiments.AblationOracleTags(p)
	if err != nil {
		return "", nil, err
	}
	b.WriteString(or.String() + "\n")
	tc, err := experiments.AblationTcache(p)
	if err != nil {
		return "", nil, err
	}
	b.WriteString(tc.String() + "\n")
	iq, err := experiments.AblationIQSize(p)
	if err != nil {
		return "", nil, err
	}
	b.WriteString(iq.String() + "\n")
	iv, err := experiments.AblationInterval(p)
	if err != nil {
		return "", nil, err
	}
	b.WriteString(iv.String() + "\n")
	w, err := experiments.AblationWindow(p)
	if err != nil {
		return "", nil, err
	}
	b.WriteString(w.String() + "\n")
	wd, err := experiments.AblationWidth(p)
	if err != nil {
		return "", nil, err
	}
	b.WriteString(wd.String() + "\n")
	pr, err := experiments.AblationPredictor(p)
	if err != nil {
		return "", nil, err
	}
	b.WriteString(pr.String())
	return b.String(), nil, nil
}
