package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"visasim/internal/dispatch"
	"visasim/internal/explore"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/twin"
)

// cmdExplore screens the default design space through the analytical twin
// locally (screening is microseconds per point — there is nothing to
// distribute) and verifies the Pareto frontier across the visasimd cluster
// via the dispatch coordinator, printing the frontier report table.
func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	backendsCSV := fs.String("backends", "", "comma-separated visasimd base URLs")
	samples := fs.Uint64("samples", 0, "screen this many seeded samples instead of the full space (0 = exhaustive)")
	seed := fs.Uint64("seed", 1, "sampling seed")
	verify := fs.Int("verify", 8, "frontier points to verify across the cluster (0 = screen only, no backends needed)")
	workers := fs.Int("workers", 0, "screening parallelism and in-flight verify cells (0 = defaults)")
	cellTimeout := fs.Duration("timeout", 10*time.Minute, "per-cell dispatch attempt deadline")
	jsonPath := fs.String("json", "", "also write the full frontier report as JSON to this file")
	orgsCSV := fs.String("orgs", "", "comma-separated IQ organizations to sweep (default all: unified-age,swque,partitioned)")
	protsCSV := fs.String("prots", "", "comma-separated IQ protection modes to sweep (default all: none,parity,ecc,partial-replication)")
	logLevel := fs.String("log-level", "warn", "minimum log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log line format: text or json")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	model, err := twin.Default()
	if err != nil {
		return fmt.Errorf("loading twin model: %w", err)
	}
	space := explore.DefaultSpace()
	if orgs, err := explore.ParseOrgs(*orgsCSV); err != nil {
		return err
	} else if orgs != nil {
		space.Orgs = orgs
	}
	if prots, err := explore.ParseProts(*protsCSV); err != nil {
		return err
	} else if prots != nil {
		space.Prots = prots
	}
	enum, err := space.Compile(model)
	if err != nil {
		return err
	}
	res, err := explore.Screen(model, enum, explore.Options{
		Workers: *workers,
		Samples: int64(*samples),
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "visasimctl: "+explore.Summary(res))

	var verified []explore.Verified
	sel := explore.Select(res.Frontier, *verify)
	if *verify == 0 {
		// Screen-only: show a spread of the frontier rather than every point.
		const tableCap = 40
		sel = explore.Select(res.Frontier, tableCap)
	}
	if *verify > 0 {
		urls, err := backendList(*backendsCSV)
		if err != nil {
			return fmt.Errorf("verification needs a cluster (or use -verify 0): %w", err)
		}
		logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
		if err != nil {
			return err
		}
		coord, err := dispatch.New(dispatch.Options{
			Backends:    urls,
			Workers:     *workers,
			CellTimeout: *cellTimeout,
			Logger:      logger,
		})
		if err != nil {
			return err
		}
		defer coord.Close()

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		runner := func(cells []harness.Cell, opt harness.Options) (harness.Results, error) {
			return coord.RunContext(ctx, cells, opt)
		}
		verified, err = explore.Verify(model, sel, runner, *workers)
		if err != nil {
			return err
		}
	}

	if *jsonPath != "" {
		blob, err := explore.MarshalReport(&explore.RunReport{
			Model:      model.Version,
			Budget:     model.Budget,
			SpaceSize:  res.Size,
			Screened:   res.Screened,
			ElapsedSec: res.Elapsed.Seconds(),
			Frontier:   res.Frontier,
			Verified:   verified,
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			return err
		}
	}
	return explore.WriteFrontier(os.Stdout, sel, verified)
}
