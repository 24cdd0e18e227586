// Command visasimctl operates a set of visasimd daemons from the shell:
// probe backend health, dump their metrics, or dispatch a sweep across all
// of them through the coordinator (internal/dispatch) — with the same
// retry/failover and checkpointed-resume behaviour the experiments
// binary gets via -backends. sweep -local runs the same cells in-process,
// and because the simulator is deterministic the two outputs diff
// byte-identically with -results-only.
//
// Usage:
//
//	visasimctl health  -backends URL,URL,...
//	visasimctl metrics -backends URL,URL,...
//	visasimctl sweep   (-backends URL,... | -local) [-cells FILE]
//	                   [-results-only] [-store DIR] [-resume] [-workers N]
//	                   [-timeout 10m] [-log-level info] [-log-format text] [-seed N] [-v]
//
// The sweep subcommand reads cells from FILE (or stdin when "-", the
// default) in the same JSON shape POST /v1/sweeps accepts:
//
//	{"cells":[{"key":"demo","config":{"Benchmarks":["gcc"],
//	  "Scheme":1,"MaxInstructions":100000}}]}
//
// and writes keyed results as JSON on stdout. With -store the completed
// cells are checkpointed to disk as they finish; re-running with -resume
// re-dispatches only the cells not yet checkpointed, so a killed sweep
// continues where it stopped. -workers bounds the sweep's in-flight cells;
// -v prints the elapsed time and one line per backend (health and dispatch
// count) to stderr after the sweep. -local takes none of the coordinator's
// flags (-backends, -store, -resume, -seed, -timeout, -v), and -resume
// needs -store; such command lines are refused before any cell is read.
// Exit status is 2 for a refused command line, and 1 when any backend is
// unhealthy (health) or the sweep fails (sweep).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"visasim/internal/dispatch"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/server"
	"visasim/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "health":
		err = cmdHealth(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "visasimctl: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "visasimctl: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command line refused before any work starts; main exits
// 2 on it, as it does for a flag the flag package cannot parse.
type usageError struct{ error }

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  visasimctl health  -backends URL,URL,...
  visasimctl metrics -backends URL,URL,...
  visasimctl sweep   (-backends URL,... | -local) [-cells FILE]
                     [-results-only] [-store DIR] [-resume]
                     [-workers N] [-timeout D]
                     [-log-level L] [-log-format F] [-seed N] [-v]`)
}

// backendList splits and validates the -backends flag value.
func backendList(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, fmt.Errorf("-backends is required (comma-separated visasimd base URLs)")
	}
	return strings.Split(csv, ","), nil
}

// cmdHealth probes every backend once and prints one line each; the exit
// status reports whether every backend is serviceable.
func cmdHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	backendsCSV := fs.String("backends", "", "comma-separated visasimd base URLs")
	timeout := fs.Duration("timeout", 10*time.Second, "probe deadline")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	urls, err := backendList(*backendsCSV)
	if err != nil {
		return err
	}
	c, err := dispatch.New(dispatch.Options{Backends: urls})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	down := 0
	for _, st := range c.Probe(ctx) {
		if st.Healthy {
			fmt.Printf("%-40s healthy\n", st.URL)
		} else {
			down++
			fmt.Printf("%-40s DOWN: %s\n", st.URL, st.Error)
		}
	}
	if down > 0 {
		return fmt.Errorf("%d of %d backends down", down, len(urls))
	}
	return nil
}

// cmdMetrics fetches every backend's /metrics/prom and prints the
// Prometheus text blocks, each after a "# == URL ==" banner. An unreachable
// backend prints an "# error:" line in its place and makes the command
// fail once every backend has been tried.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	backendsCSV := fs.String("backends", "", "comma-separated visasimd base URLs")
	timeout := fs.Duration("timeout", 10*time.Second, "fetch deadline per backend")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	urls, err := backendList(*backendsCSV)
	if err != nil {
		return err
	}
	var firstErr error
	for _, raw := range urls {
		url := strings.TrimRight(strings.TrimSpace(raw), "/")
		fmt.Printf("# == %s ==\n", url)
		blob, err := fetchBody(url+"/metrics/prom", *timeout)
		if err != nil {
			fmt.Printf("# error: %v\n", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", url, err)
			}
			continue
		}
		os.Stdout.Write(blob) //nolint:errcheck
	}
	return firstErr
}

func fetchBody(url string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 4<<20))
}

// cmdSweep runs one sweep and prints keyed results on stdout. Two modes
// share one output shape, so results can be diffed byte for byte — the
// simulator is deterministic, so they must match:
//
//   - -backends runs the in-process coordinator over a static pool
//   - -local runs the cells through internal/harness in this process
func cmdSweep(args []string) error {
	f, err := parseSweepFlags(args)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, f.logLevel, f.logFormat)
	if err != nil {
		return err
	}
	cells, err := readCells(f.cells)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel the sweep: groups not yet started are skipped
	// and every in-flight dispatch attempt is aborted, instead of waiting on
	// the backends to completion after the operator gave up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var results map[string]json.RawMessage
	var stats harness.Stats
	if f.local {
		results, stats, err = sweepLocal(cells, f.workers)
	} else {
		results, stats, err = sweepViaBackends(ctx, cells, f, logger)
	}
	if err != nil {
		return err
	}

	type outCell struct {
		Key    string             `json:"key"`
		Result json.RawMessage    `json:"result"`
		Stats  *harness.CellStats `json:"stats,omitempty"`
	}
	out := struct {
		Cells []outCell `json:"cells"`
	}{Cells: make([]outCell, 0, len(cells))}
	for _, c := range cells { // submission order, not map order
		oc := outCell{Key: c.Key, Result: results[c.Key]}
		if !f.resultsOnly {
			st := stats[c.Key]
			oc.Stats = &st
		}
		out.Cells = append(out.Cells, oc)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// sweepFlags is the sweep subcommand's command line.
type sweepFlags struct {
	backends, cells, store, logLevel, logFormat string
	local, resultsOnly, resume, verbose         bool
	workers                                     int
	timeout                                     time.Duration
	seed                                        int64
}

// localIgnored names the flags only the coordinator reads; -local runs the
// cells in-process, where they would do nothing.
var localIgnored = []string{"backends", "store", "resume", "seed", "timeout", "v"}

// parseSweepFlags parses the sweep command line and refuses, before any
// cell is read, one that would silently do nothing or fail only midway: a
// coordinator flag with -local, no backends without -local, or -resume
// without -store.
func parseSweepFlags(args []string) (*sweepFlags, error) {
	f := &sweepFlags{}
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	fs.StringVar(&f.backends, "backends", "", "comma-separated visasimd base URLs")
	fs.BoolVar(&f.local, "local", false, "run the cells locally through the harness (no backends)")
	fs.BoolVar(&f.resultsOnly, "results-only", false, "omit per-cell cost stats (deterministic output, diffable across modes)")
	fs.StringVar(&f.cells, "cells", "-", `cells JSON file ("-" = stdin; same shape as POST /v1/sweeps)`)
	fs.StringVar(&f.store, "store", "", "checkpoint completed cells to this directory")
	fs.BoolVar(&f.resume, "resume", false, "skip cells already checkpointed in -store")
	fs.IntVar(&f.workers, "workers", 0, "concurrently in-flight cells of the sweep (0 = 4 per backend, at least 8; with -local, parallel simulations)")
	fs.DurationVar(&f.timeout, "timeout", 10*time.Minute, "per-cell dispatch attempt deadline")
	fs.BoolVar(&f.verbose, "v", false, "print the elapsed time and each backend's health and dispatch count to stderr after the sweep")
	fs.StringVar(&f.logLevel, "log-level", "warn", "minimum log level: debug, info, warn, error")
	fs.StringVar(&f.logFormat, "log-format", "text", "log line format: text or json")
	fs.Int64Var(&f.seed, "seed", 0, "backoff-jitter RNG seed (0 = from the clock)")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if f.local {
		for _, name := range localIgnored {
			if set[name] {
				return nil, usageError{fmt.Errorf("-%s does nothing with -local", name)}
			}
		}
		return f, nil
	}
	if _, err := backendList(f.backends); err != nil {
		return nil, usageError{fmt.Errorf("%w, or -local", err)}
	}
	if f.resume && f.store == "" {
		return nil, usageError{errors.New("-resume needs -store")}
	}
	return f, nil
}

// rawResults marshals keyed results once, so every sweep mode emits the
// identical result bytes.
func rawResults(cells []harness.Cell, res harness.Results) (map[string]json.RawMessage, error) {
	out := make(map[string]json.RawMessage, len(cells))
	for _, c := range cells {
		blob, err := json.Marshal(res[c.Key])
		if err != nil {
			return nil, fmt.Errorf("encoding result for cell %s: %w", c.Key, err)
		}
		out[c.Key] = blob
	}
	return out, nil
}

// sweepLocal runs the cells in-process — the ground truth the -backends mode
// must match byte for byte.
func sweepLocal(cells []harness.Cell, workers int) (map[string]json.RawMessage, harness.Stats, error) {
	res, stats, err := harness.RunStats(cells, harness.Options{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	raw, err := rawResults(cells, res)
	return raw, stats, err
}

// sweepViaBackends runs the in-process coordinator over a static pool.
func sweepViaBackends(ctx context.Context, cells []harness.Cell, f *sweepFlags, logger *slog.Logger) (map[string]json.RawMessage, harness.Stats, error) {
	var st *store.Store
	if f.store != "" {
		var err error
		if st, err = store.Open(f.store, store.Options{}); err != nil {
			return nil, nil, err
		}
	}
	coord, err := dispatch.New(dispatch.Options{
		Backends:    strings.Split(f.backends, ","),
		Workers:     f.workers,
		CellTimeout: f.timeout,
		Store:       st,
		Resume:      f.resume,
		Seed:        f.seed,
		Logger:      logger,
	})
	if err != nil {
		return nil, nil, err
	}

	start := time.Now()
	results, stats, err := coord.Run(ctx, cells)
	if f.verbose {
		fmt.Fprintf(os.Stderr, "visasimctl: %d cells in %v\n",
			len(cells), time.Since(start).Round(time.Millisecond))
		for _, m := range coord.Members() {
			state := "healthy"
			if !m.Healthy {
				state = "demoted"
			}
			fmt.Fprintf(os.Stderr, "visasimctl: backend %s %s, %d dispatched\n", m.URL, state, m.Dispatched)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	raw, err := rawResults(cells, results)
	return raw, stats, err
}

// readCells decodes a sweep request in the daemon's submit shape.
func readCells(path string) ([]harness.Cell, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var req server.SubmitRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding cells: %w", err)
	}
	if len(req.Cells) == 0 {
		return nil, fmt.Errorf("no cells in %s", path)
	}
	cells := make([]harness.Cell, len(req.Cells))
	for i, c := range req.Cells {
		cells[i] = harness.Cell{Key: c.Key, Cfg: c.Config}
	}
	return cells, nil
}
