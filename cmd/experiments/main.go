// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index).
//
// Usage:
//
//	experiments [-n budget] [-workers N] [targets...]
//
// Targets: fig1 fig2 fig5 fig6 fig8 fig9 fig10 table1 table2 table3
// iqmatrix ablations ext-rob, or all (the default: the tables, the figures
// and iqmatrix). The shapes — not the absolute values — are the
// reproduction target; EXPERIMENTS.md records the comparison against the
// paper. Simulator throughput is measured by perfbench, not here (see
// perfbench/README.md).
//
// With -backends URL,URL,... every sweep runs on visasimd daemons instead
// of in-process, sharded across the static list by the in-process dispatch
// coordinator (least-loaded assignment, retry/failover), so repeated
// regenerations (and overlapping figures) hit the daemons' content-addressed
// result caches. One URL is enough for a single daemon, and -workers bounds
// the cells in flight across all of them. Add -store DIR to checkpoint
// completed cells to disk and -resume to skip cells already checkpointed by
// an earlier (possibly killed) run. -trace-level records decision traces on
// local sweeps only: the simulator is deterministic, so a local traced run
// yields the same results a daemon would. Flags that would do nothing
// (-trace-level with -backends, -store or -resume without -backends) and
// unknown targets are rejected before any target runs, with exit status 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"visasim/internal/decision"
	"visasim/internal/dispatch"
	"visasim/internal/experiments"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/store"
)

func main() {
	var (
		budget      = flag.Uint64("n", experiments.DefaultBudget, "instructions per simulation")
		workers     = flag.Int("workers", 0, "parallel simulations, or with -backends cells in flight (0 = GOMAXPROCS, or the coordinator's default)")
		csvDir      = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		backendsCSV = flag.String("backends", "", "comma-separated visasimd base URLs (e.g. http://localhost:8080); sweeps shard across them via the dispatch coordinator")
		storeDir    = flag.String("store", "", "with -backends: checkpoint completed cells to this directory")
		resume      = flag.Bool("resume", false, "with -backends and -store: skip cells already checkpointed")
		logLevel    = flag.String("log-level", "warn", "minimum log level for -backends sweeps: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log line format: text or json")
		traceLevel  = flag.Int("trace-level", 0, "record per-cell decision traces: 0 off, 1 decision edges, 2 adds per-sample observations (local sweeps only)")
		traceDir    = flag.String("trace-dir", "", "with -trace-level: write each cell's trace to DIR/<key>.vdt (default decision-traces)")
	)
	flag.Parse()

	targets := flag.Args()
	if len(targets) == 0 || (len(targets) == 1 && targets[0] == "all") {
		targets = []string{"table2", "table3", "fig1", "fig2", "table1",
			"fig5", "fig6", "fig8", "fig9", "fig10", "iqmatrix"}
	}
	if err := checkArgs(args{
		traceLevel: *traceLevel,
		backends:   *backendsCSV,
		store:      *storeDir,
		resume:     *resume,
		targets:    targets,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
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
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		p.TraceLevel = *traceLevel
		p.TraceSink = func(key string, tr *decision.Trace) {
			// Cell keys embed "/" separators; flatten for the filesystem.
			path := filepath.Join(dir, strings.ReplaceAll(key, "/", "_")+".vdt")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: trace %s: %v\n", key, err)
				return
			}
			if err := tr.Encode(f); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "experiments: trace %s: %v\n", key, err)
				return
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: trace %s: %v\n", key, err)
			}
		}
	}
	if *backendsCSV != "" {
		var st *store.Store
		if *storeDir != "" {
			var err error
			st, err = store.Open(*storeDir, store.Options{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: opening store: %v\n", err)
				os.Exit(1)
			}
		}
		p.Runner, err = remoteRunner(ctx, *backendsCSV, *workers, st, *resume, logger)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	for _, tgt := range targets {
		start := time.Now()
		out, csv, err := figures[tgt](p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", tgt, err)
			os.Exit(1)
		}
		fmt.Println(out)
		if *csvDir != "" && csv != nil {
			if err := writeCSV(*csvDir, tgt, csv); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", tgt, err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", tgt, time.Since(start).Round(time.Millisecond))
	}
}

// remoteRunner returns the sweep runner behind -backends: a dispatch
// coordinator over the comma-separated URLs with at most workers cells in
// flight (0 keeps the coordinator's default), run under ctx so Ctrl-C
// aborts a sweep.
func remoteRunner(ctx context.Context, backends string, workers int, st *store.Store, resume bool, logger *slog.Logger) (func([]harness.Cell) (harness.Results, error), error) {
	coord, err := dispatch.New(dispatch.Options{
		Backends: strings.Split(backends, ","),
		Workers:  workers,
		Store:    st,
		Resume:   resume,
		Logger:   logger,
	})
	if err != nil {
		return nil, err
	}
	return func(cells []harness.Cell) (harness.Results, error) {
		res, _, err := coord.Run(ctx, cells)
		return res, err
	}, nil
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
}

// checkArgs rejects, before any target runs, command lines that would
// silently do nothing or fail only midway: traces are recorded on the
// local harness path alone, -store and -resume only configure the
// dispatch coordinator, and an unknown target would otherwise surface
// only once every target before it had run.
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
		if _, ok := figures[t]; !ok {
			return fmt.Errorf("unknown target %q", t)
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
