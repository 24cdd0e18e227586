// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index).
//
// Usage:
//
//	experiments [-n budget] [-workers N] [targets...]
//
// Targets: fig1 fig2 fig5 fig6 fig8 fig9 fig10 table1 table2 table3 all
// (default: all), plus `bench`, which measures simulator throughput and
// writes machine-readable records (see -bench-json, -cpuprofile, and
// -bench-min, which turns the run into a CI throughput-floor gate), and
// `explore`, which screens the design space through the analytical twin
// (internal/twin) and verifies the Pareto frontier through the simulator
// (see -explore-samples, -explore-seed, -explore-verify, -explore-json and
// DESIGN.md §11). The shapes — not the absolute values — are the
// reproduction target; EXPERIMENTS.md records the comparison against the
// paper.
//
// With -server, every sweep runs through a visasimd daemon instead of
// in-process, so repeated regenerations (and overlapping figures) hit the
// daemon's content-addressed result cache. With -backends URL,URL,... the
// sweeps instead shard across a cluster of daemons via the dispatch
// coordinator (least-loaded assignment, retry/failover);
// add -store DIR to checkpoint completed cells to disk and -resume to skip
// cells already checkpointed by an earlier (possibly killed) run. `bench`
// always measures the local simulator and ignores all of these.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"visasim/internal/core"
	"visasim/internal/decision"
	"visasim/internal/dispatch"
	"visasim/internal/experiments"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/pipeline"
	"visasim/internal/server"
	"visasim/internal/store"
	"visasim/internal/workload"
)

func main() {
	var (
		budget        = flag.Uint64("n", experiments.DefaultBudget, "instructions per simulation")
		workers       = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		csvDir        = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		benchJSON     = flag.String("bench-json", "BENCH_pr1.json", "where the bench target writes throughput records")
		benchMin      = flag.Float64("bench-min", 0, "bench target: exit nonzero if the batch total's core-loop cycles/sec (all cells' cycles over their summed core-loop seconds) falls below this floor (0 disables)")
		cpuProf       = flag.String("cpuprofile", "", "write a pprof CPU profile of the bench target to this file")
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
		} else if *resume {
			fmt.Fprintln(os.Stderr, "experiments: -resume needs -store")
			os.Exit(1)
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
	targets := flag.Args()
	if len(targets) == 0 || (len(targets) == 1 && targets[0] == "all") {
		targets = []string{"table2", "table3", "fig1", "fig2", "table1",
			"fig5", "fig6", "fig8", "fig9", "fig10", "iqmatrix"}
	}

	for _, tgt := range targets {
		start := time.Now()
		if tgt == "bench" {
			out, err := runBench(p, *benchJSON, *cpuProf, *benchMin)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(out)
			fmt.Fprintf(os.Stderr, "[bench done in %v]\n\n", time.Since(start).Round(time.Millisecond))
			continue
		}
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
		out, csv, err := run(tgt, p)
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

func run(target string, p experiments.Params) (string, csvWriter, error) {
	switch target {
	case "fig1":
		r, err := experiments.Fig1(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	case "fig2":
		r, err := experiments.Fig2(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	case "fig5":
		r, err := experiments.Fig5(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	case "fig6":
		r, err := experiments.Fig6(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	case "fig8":
		r, err := experiments.Fig8(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	case "fig9":
		r, err := experiments.Fig9(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	case "fig10":
		r, err := experiments.Fig10(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	case "table1":
		r, err := experiments.Table1(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	case "table2":
		return experiments.Table2(), nil, nil
	case "table3":
		return experiments.Table3(), nil, nil
	case "iqmatrix":
		r, err := experiments.IQMatrix(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), r, nil
	case "ext-rob":
		r, err := experiments.ExtensionROBDVM(p)
		if err != nil {
			return "", nil, err
		}
		return r.String(), nil, err
	case "ablations":
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
	default:
		return "", nil, fmt.Errorf("unknown target %q", target)
	}
}

// runBench measures simulator throughput (not simulated-machine behaviour):
// one baseline cell per workload category, run through the harness so the
// numbers include everything an experiment pays for. Records are written to
// jsonPath in the same schema as `make bench-throughput` (BENCH_pr1.json),
// keyed "throughput/<mix>", plus a "total" row covering the whole batch.
//
// A nonzero minCPS is a throughput floor on the batch's core-loop rate
// (the total row's SimCyclesPerSec — pipeline run time alone, excluding the
// one-time ACE profiling pass and workload synthesis, matching what the
// go-test BenchmarkSimulatorThroughput measures): if the batch falls below
// it, runBench returns an error so CI fails the build on a performance
// regression. Sim seconds accumulate per worker, so the figure is per-core
// whatever the worker count; the error lists per-cell rates for triage.
func runBench(p experiments.Params, jsonPath, cpuProfile string, minCPS float64) (string, error) {
	var cells []harness.Cell
	for _, name := range []string{"CPU-A", "MIX-A", "MEM-A"} {
		for _, m := range workload.Mixes() {
			if m.Name != name {
				continue
			}
			cells = append(cells, harness.Cell{
				Key: "throughput/" + m.Name,
				Cfg: core.Config{
					Benchmarks:      m.Benchmarks[:],
					Scheme:          core.SchemeBase,
					Policy:          pipeline.PolicyICOUNT,
					MaxInstructions: p.Budget,
				},
			})
		}
	}
	t0 := time.Now()
	_, stats, err := harness.RunStats(cells, harness.Options{
		Workers:    p.Workers,
		CPUProfile: cpuProfile,
	})
	if err != nil {
		return "", err
	}
	wall := time.Since(t0).Seconds()

	total := harness.CellStats{Seconds: wall}
	for _, st := range stats {
		total.Cycles += st.Cycles
		total.Instructions += st.Instructions
		total.SimSeconds += st.SimSeconds
	}
	if wall > 0 {
		total.CyclesPerSec = float64(total.Cycles) / wall
		total.InstrsPerSec = float64(total.Instructions) / wall
	}
	// Total sim seconds accumulate per-worker CPU time, so the total row's
	// sim rate stays a per-core figure whatever the worker count.
	if total.SimSeconds > 0 {
		total.SimCyclesPerSec = float64(total.Cycles) / total.SimSeconds
	}
	records := map[string]harness.CellStats{"total": total}
	for k, st := range stats {
		records[k] = st
	}
	if minCPS > 0 && total.SimCyclesPerSec < minCPS {
		return "", fmt.Errorf("throughput floor %.0f sim cycles/sec not met: total %.0f (per-cell: %s)",
			minCPS, total.SimCyclesPerSec, func() string {
				var parts []string
				for k, st := range stats {
					parts = append(parts, fmt.Sprintf("%s %.0f", k, st.SimCyclesPerSec))
				}
				sort.Strings(parts)
				return strings.Join(parts, ", ")
			}())
	}
	blob, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
		return "", err
	}

	keys := make([]string, 0, len(records))
	for k := range records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "Simulator throughput (budget %d, written to %s):\n", p.Budget, jsonPath)
	fmt.Fprintf(&b, "%-20s %12s %12s %10s %14s %14s\n", "cell", "cycles", "instrs", "seconds", "cycles/sec", "sim-cyc/sec")
	for _, k := range keys {
		st := records[k]
		fmt.Fprintf(&b, "%-20s %12d %12d %10.3f %14.0f %14.0f\n",
			k, st.Cycles, st.Instructions, st.Seconds, st.CyclesPerSec, st.SimCyclesPerSec)
	}
	return b.String(), nil
}
