// Command visasimctl operates a visasimd cluster from the shell: probe
// backend health, dump their metrics, or dispatch a sweep across all of
// them through the coordinator (internal/dispatch) — with the same
// retry/failover and checkpointed-resume behaviour the experiments
// binary gets via -backends. Against a visasimcoord control plane it also
// lists tenants and pool membership, drains backends gracefully, and
// submits sweeps with a tenant API key and priority class (sweep -coord);
// sweep -local runs the same cells in-process, and because the simulator is
// deterministic the two outputs diff byte-identically with -results-only.
//
// Usage:
//
//	visasimctl health  -backends URL,URL,...
//	visasimctl metrics -backends URL,URL,...
//	visasimctl sweep   (-backends URL,... | -coord URL | -local) [-cells FILE]
//	                   [-key API_KEY] [-priority CLASS] [-results-only]
//	                   [-store DIR] [-resume] [-workers N]
//	                   [-timeout 10m] [-log-level info] [-log-format text] [-seed N]
//	visasimctl explore -backends URL,URL,... [-samples N] [-seed N] [-verify K]
//	                   [-workers N] [-timeout 10m] [-json FILE]
//	visasimctl tenants  -server URL [-json]
//	visasimctl backends -coord URL
//	visasimctl drain    -coord URL BACKEND_URL
//
// The explore subcommand screens the SMT design space through the
// analytical twin (internal/twin) locally, then verifies a spread of the
// Pareto frontier across the cluster and prints the frontier report table
// (DESIGN.md §11). With -verify 0 it screens only and needs no backends.
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
// continues where it stopped. Exit status is non-zero when any backend is
// unhealthy (health) or the sweep fails (sweep).
package main

import (
	"bytes"
	"context"
	"encoding/json"
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

	"visasim/internal/cluster"
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
	case "explore":
		err = cmdExplore(os.Args[2:])
	case "tenants":
		err = cmdTenants(os.Args[2:])
	case "drain":
		err = cmdDrain(os.Args[2:])
	case "backends":
		err = cmdBackends(os.Args[2:])
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
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  visasimctl health  -backends URL,URL,...
  visasimctl metrics -backends URL,URL,...
  visasimctl sweep   (-backends URL,... | -coord URL | -local) [-cells FILE]
                     [-key API_KEY] [-priority interactive|standard|bulk]
                     [-results-only] [-store DIR] [-resume]
                     [-workers N] [-timeout D]
                     [-log-level L] [-log-format F] [-seed N]
  visasimctl explore -backends URL,URL,... [-samples N] [-seed N] [-verify K]
                     [-workers N] [-timeout D] [-json FILE]
                     [-log-level L] [-log-format F]
  visasimctl tenants  -server URL
  visasimctl backends -coord URL
  visasimctl drain    -coord URL BACKEND_URL`)
}

// backendList splits and validates the -backends flag value.
func backendList(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, fmt.Errorf("-backends is required (comma-separated visasimd base URLs)")
	}
	return strings.Split(csv, ","), nil
}

// cmdHealth probes every backend once and prints one line each; the exit
// status reports whether the whole cluster is serviceable.
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
	defer c.Close()

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

// cmdSweep runs one sweep and prints keyed results on stdout. Three modes
// share one output shape, so results can be diffed byte for byte — the
// simulator is deterministic, so they must match:
//
//   - -backends runs the in-process coordinator over a static pool
//   - -coord posts the sweep to a visasimcoord control plane (tenant key
//     and priority class travel as headers)
//   - -local runs the cells through internal/harness in this process
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	backendsCSV := fs.String("backends", "", "comma-separated visasimd base URLs")
	coordURL := fs.String("coord", "", "visasimcoord base URL to dispatch through (instead of -backends)")
	local := fs.Bool("local", false, "run the cells locally through the harness (no cluster)")
	apiKey := fs.String("key", "", "tenant API key (X-Visasim-Key) for admission-controlled clusters")
	priority := fs.String("priority", "", "priority class: interactive, standard, or bulk")
	resultsOnly := fs.Bool("results-only", false, "omit per-cell cost stats (deterministic output, diffable across modes)")
	cellsPath := fs.String("cells", "-", `cells JSON file ("-" = stdin; same shape as POST /v1/sweeps)`)
	storeDir := fs.String("store", "", "checkpoint completed cells to this directory")
	resume := fs.Bool("resume", false, "skip cells already checkpointed in -store")
	workers := fs.Int("workers", 0, "concurrently in-flight cells (0 = 4 per backend)")
	cellTimeout := fs.Duration("timeout", 10*time.Minute, "per-cell dispatch attempt deadline")
	verbose := fs.Bool("v", false, "print coordinator metrics (Prometheus text) to stderr after the sweep")
	logLevel := fs.String("log-level", "warn", "minimum log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log line format: text or json")
	seed := fs.Int64("seed", 0, "backoff-jitter RNG seed (0 = from the clock)")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	cells, err := readCells(*cellsPath)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel the sweep: queued groups are skipped and every
	// in-flight dispatch attempt is aborted, instead of the old behaviour
	// of polling the cluster to completion after the operator gave up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *priority != "" {
		class, cerr := cluster.ParseClass(*priority)
		if cerr != nil {
			return cerr
		}
		ctx = cluster.WithClass(ctx, class)
	}
	if *apiKey != "" {
		ctx = cluster.WithAPIKey(ctx, *apiKey)
	}

	var results map[string]json.RawMessage
	var stats harness.Stats
	switch {
	case *local:
		results, stats, err = sweepLocal(cells, *workers)
	case *coordURL != "":
		results, stats, err = sweepViaCoord(ctx, *coordURL, cells, *apiKey, *priority)
	default:
		results, stats, err = sweepViaBackends(ctx, cells, sweepDispatchOptions{
			backendsCSV: *backendsCSV, storeDir: *storeDir, resume: *resume,
			workers: *workers, cellTimeout: *cellTimeout,
			seed: *seed, verbose: *verbose, logger: logger,
		})
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
		if !*resultsOnly {
			st := stats[c.Key]
			oc.Stats = &st
		}
		out.Cells = append(out.Cells, oc)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
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

// sweepLocal runs the cells in-process — the ground truth the cluster modes
// must match byte for byte.
func sweepLocal(cells []harness.Cell, workers int) (map[string]json.RawMessage, harness.Stats, error) {
	res, stats, err := harness.RunStats(cells, harness.Options{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	raw, err := rawResults(cells, res)
	return raw, stats, err
}

// sweepDispatchOptions carries the static-pool mode's flags.
type sweepDispatchOptions struct {
	backendsCSV string
	storeDir    string
	resume      bool
	workers     int
	cellTimeout time.Duration
	seed        int64
	verbose     bool
	logger      *slog.Logger
}

// sweepViaBackends runs the in-process coordinator over a static pool.
func sweepViaBackends(ctx context.Context, cells []harness.Cell, o sweepDispatchOptions) (map[string]json.RawMessage, harness.Stats, error) {
	urls, err := backendList(o.backendsCSV)
	if err != nil {
		return nil, nil, err
	}
	var st *store.Store
	if o.storeDir != "" {
		if st, err = store.Open(o.storeDir, store.Options{}); err != nil {
			return nil, nil, err
		}
	} else if o.resume {
		return nil, nil, fmt.Errorf("-resume needs -store")
	}
	coord, err := dispatch.New(dispatch.Options{
		Backends:    urls,
		Workers:     o.workers,
		CellTimeout: o.cellTimeout,
		Store:       st,
		Resume:      o.resume,
		Seed:        o.seed,
		Logger:      o.logger,
	})
	if err != nil {
		return nil, nil, err
	}
	defer coord.Close()

	start := time.Now()
	results, stats, err := coord.RunStatsContext(ctx, cells, harness.Options{})
	if o.verbose {
		fmt.Fprintf(os.Stderr, "visasimctl: %d cells in %v\n",
			len(cells), time.Since(start).Round(time.Millisecond))
		coord.WritePrometheus(os.Stderr)
	}
	if err != nil {
		return nil, nil, err
	}
	raw, err := rawResults(cells, results)
	return raw, stats, err
}

// sweepViaCoord posts the whole sweep to a visasimcoord control plane and
// lets its scheduler run it.
func sweepViaCoord(ctx context.Context, coordURL string, cells []harness.Cell, apiKey, priority string) (map[string]json.RawMessage, harness.Stats, error) {
	req := server.SubmitRequest{Cells: make([]server.SubmitCell, len(cells))}
	for i, c := range cells {
		req.Cells[i] = server.SubmitCell{Key: c.Key, Config: c.Cfg}
	}
	blob, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	target := strings.TrimRight(coordURL, "/") + "/v1/dispatch"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, target, strings.NewReader(string(blob)))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		hreq.Header.Set(cluster.KeyHeader, apiKey)
	}
	if priority != "" {
		hreq.Header.Set(cluster.ClassHeader, priority)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, nil, fmt.Errorf("coordinator answered HTTP %d: %s",
			resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var dr dispatch.DispatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return nil, nil, fmt.Errorf("decoding dispatch response: %w", err)
	}
	results := make(map[string]json.RawMessage, len(dr.Cells))
	stats := make(harness.Stats, len(dr.Cells))
	for _, c := range dr.Cells {
		// The control plane indents its response; re-compact so the result
		// bytes are identical to a local json.Marshal of the same Result.
		var compact bytes.Buffer
		if err := json.Compact(&compact, c.Result); err != nil {
			return nil, nil, fmt.Errorf("cell %s: %w", c.Key, err)
		}
		results[c.Key] = compact.Bytes()
		stats[c.Key] = c.Stats
	}
	return results, stats, nil
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
