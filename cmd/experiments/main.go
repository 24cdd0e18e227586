// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index).
//
// Usage:
//
//	experiments [-n budget] [-workers N] [targets...]
//
// Targets: fig1 fig2 fig5 fig6 fig8 fig9 fig10 table1 table2 table3
// iqmatrix ablations ext-rob, or all (the default: the tables, the figures
// and iqmatrix). `explore` screens the design space through the
// analytical twin (internal/twin) and verifies the Pareto frontier through
// the simulator (see -explore-samples, -explore-seed, -explore-verify,
// -explore-json and DESIGN.md §11). The shapes — not the absolute values — are the
// reproduction target; EXPERIMENTS.md records the comparison against the
// paper. Simulator throughput is measured by perfbench, not here (see
// perfbench/README.md).
//
// With -server, every sweep runs through a visasimd daemon instead of
// in-process, so repeated regenerations (and overlapping figures) hit the
// daemon's content-addressed result cache. With -backends URL,URL,... the
// sweeps instead shard across a cluster of daemons via the dispatch
// coordinator (least-loaded assignment, retry/failover);
// add -store DIR to checkpoint completed cells to disk and -resume to skip
// cells already checkpointed by an earlier (possibly killed) run.
// -trace-level records decision traces on local sweeps only. Flags that
// would do nothing (-trace-level with -server or -backends, -store or
// -resume without -backends) and unknown targets are rejected before any
// target runs, with exit status 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"visasim/internal/server"
	"visasim/internal/store"
)

func main() {
	var (
		budget        = flag.Uint64("n", experiments.DefaultBudget, "instructions per simulation")
		workers       = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		csvDir        = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		serverURL     = flag.String("server", "", "run sweeps through a visasimd daemon at this base URL (e.g. http://localhost:8080)")
		serverTimeout = flag.Duration("server-timeout", time.Hour, "per-sweep deadline when using -server (0 disables)")
		backendsCSV   = flag.String("backends", "", "comma-separated visasimd base URLs; sweeps shard across them via the dispatch coordinator")
		storeDir      = flag.String("store", "", "with -backends: checkpoint completed cells to this directory")
		resume        = flag.Bool("resume", false, "with -backends and -store: skip cells already checkpointed")
		logLevel      = flag.String("log-level", "warn", "minimum log level for -server/-backends sweeps: debug, info, warn, error")
		logFormat     = flag.String("log-format", "text", "log line format: text or json")
		traceLevel    = flag.Int("trace-level", 0, "record per-cell decision traces: 0 off, 1 decision edges, 2 adds per-sample observations (local sweeps only)")
		traceDir      = flag.String("trace-dir", "", "with -trace-level: write each cell's trace to DIR/<key>.vdt (default decision-traces)")

		exploreSamples = flag.Uint64("explore-samples", 0, "explore target: screen this many seeded samples instead of the full space (0 = exhaustive)")
		exploreSeed    = flag.Uint64("explore-seed", 1, "explore target: sampling seed")
		exploreVerify  = flag.Int("explore-verify", 8, "explore target: frontier points to verify through the simulator (0 = screen only)")
		exploreJSON    = flag.String("explore-json", "", "explore target: also write the full frontier report as JSON to this file")
		exploreOrgs    = flag.String("explore-orgs", "", "explore target: comma-separated IQ organizations to sweep (default all: unified-age,swque,partitioned)")
		exploreProts   = flag.String("explore-prots", "", "explore target: comma-separated IQ protection modes to sweep (default all: none,parity,ecc,partial-replication)")
	)
	flag.Parse()

	targets := flag.Args()
	if len(targets) == 0 || (len(targets) == 1 && targets[0] == "all") {
		targets = []string{"table2", "table3", "fig1", "fig2", "table1",
			"fig5", "fig6", "fig8", "fig9", "fig10", "iqmatrix"}
	}
	if err := checkArgs(args{
		traceLevel: *traceLevel,
		server:     *serverURL,
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
	// Ctrl-C aborts a remote sweep mid-flight (queued cells are skipped,
	// in-flight dispatches canceled) instead of letting it poll on; local
	// in-process sweeps are unaffected.
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
	switch {
	case *backendsCSV != "":
		var st *store.Store
		if *storeDir != "" {
			var err error
			st, err = store.Open(*storeDir, store.Options{})
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: opening store: %v\n", err)
				os.Exit(1)
			}
		}
		coord, err := dispatch.New(dispatch.Options{
			Backends: strings.Split(*backendsCSV, ","),
			Store:    st,
			Resume:   *resume,
			Logger:   logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer coord.Close()
		p.Runner = func(cells []harness.Cell, opt harness.Options) (harness.Results, error) {
			return coord.RunContext(ctx, cells, opt)
		}
	case *serverURL != "":
		cli := &server.Client{BaseURL: strings.TrimRight(*serverURL, "/"),
			Timeout: *serverTimeout, Logger: logger}
		p.Runner = func(cells []harness.Cell, opt harness.Options) (harness.Results, error) {
			return cli.RunContext(ctx, cells, opt)
		}
	}
	for _, tgt := range targets {
		start := time.Now()
		if tgt == "explore" {
			out, err := runExplore(p, exploreParams{
				Samples: *exploreSamples,
				Seed:    *exploreSeed,
				Verify:  *exploreVerify,
				JSON:    *exploreJSON,
				Orgs:    *exploreOrgs,
				Prots:   *exploreProts,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: explore: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(out)
			fmt.Fprintf(os.Stderr, "[explore done in %v]\n\n", time.Since(start).Round(time.Millisecond))
			continue
		}
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
	traceLevel              int
	server, backends, store string
	resume                  bool
	targets                 []string
}

// checkArgs rejects, before any target runs, command lines that would
// silently do nothing or fail only midway: traces are recorded on the
// local harness path alone, -store and -resume only configure the
// dispatch coordinator, and an unknown target would otherwise surface
// only once every target before it had run.
func checkArgs(a args) error {
	switch {
	case a.traceLevel > 0 && (a.server != "" || a.backends != ""):
		return errors.New("-trace-level records local sweeps only; drop -server/-backends or -trace-level")
	case (a.store != "" || a.resume) && a.backends == "":
		return errors.New("-store and -resume need -backends")
	case a.resume && a.store == "":
		return errors.New("-resume needs -store")
	}
	for _, t := range a.targets {
		if _, ok := figures[t]; !ok && t != "explore" {
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

// figures maps every target name except explore, which main runs with its
// own flags, to its experiment.
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
