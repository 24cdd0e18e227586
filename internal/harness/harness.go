// Package harness runs batches of independent simulations across a worker
// pool. Experiment sweeps (scheme × policy × workload × threshold) are
// embarrassingly parallel; every cell is deterministic on its own, so the
// parallel schedule never affects results.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"visasim/internal/core"
	"visasim/internal/decision"
)

// Cell is one simulation in a sweep.
type Cell struct {
	// Key identifies the cell in the result map; it must be unique
	// within a batch.
	Key string
	Cfg core.Config
}

// Results maps cell keys to simulation results.
type Results map[string]*core.Result

// Traces maps cell keys to recorded decision traces (present only for
// batches run with Options.TraceLevel > 0).
type Traces map[string]*decision.Trace

// CellStats records one cell's simulator cost: how long the simulation
// took and how far the simulated machine advanced. Seconds covers only
// core.Run (workload generation, profiling and simulation), not queueing;
// SimSeconds narrows further to the pipeline run alone, so the core loop's
// rate (Instructions/SimSeconds) is separable from one-time per-cell setup
// such as the ACE profiling pass.
type CellStats struct {
	Seconds      float64
	Cycles       uint64
	Instructions uint64
	SimSeconds   float64 `json:",omitempty"`

	// Telemetry summarises the cell's per-stage simulator behaviour, so a
	// hot cell is explainable from its cost record alone — without
	// decoding the full Result — wherever the record travels (the
	// daemon's metrics, the dispatch coordinator, the persistent store).
	Telemetry StageTelemetry
}

// StageTelemetry is the per-stage summary carried alongside a cell's cost
// record. All fields are deterministic functions of the cell's Config (they
// come from the simulated machine, not the wall clock), so identical cells
// carry identical telemetry wherever they were run.
type StageTelemetry struct {
	// MeanIQOccupancy and IQHighWater describe issue-queue pressure;
	// MeanReadyLen is the mean ready-queue depth (the paper's Figure 2
	// x-axis).
	MeanIQOccupancy float64
	IQHighWater     int
	MeanReadyLen    float64
	// PolicySwitches counts controller-driven fetch-policy mode changes;
	// DVMTriggers counts waiting-queue throttle engagements.
	PolicySwitches uint64
	DVMTriggers    uint64
}

// Stats maps cell keys to their cost records.
type Stats map[string]CellStats

// DefaultWorkers returns the worker count used when Options.Workers is 0
// (GOMAXPROCS), so other pools — e.g. the simulation service — can share
// the default.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Options tunes batch execution.
type Options struct {
	// Workers bounds concurrent simulations (GOMAXPROCS when 0).
	Workers int
	// Labels are extra pprof labels applied to every cell's simulation
	// goroutine alongside the always-present "cell" label (e.g. the
	// daemon attaches the sweep correlation ID), so profiles attribute
	// CPU time per sweep and per cell.
	Labels map[string]string
	// TraceLevel enables per-cell decision recording (see
	// core.RunOptions.TraceLevel). It never affects results: tracing is
	// observation only, and the field is not part of any cell's
	// content-address hash.
	TraceLevel int
}

// CellError reports which cell of a batch failed and why. It is the
// concrete type of the error RunStats and RunTraced return when a simulation
// fails, so callers sweeping many cells can recover the failing cell's key
// with errors.As instead of parsing the message.
type CellError struct {
	// Key is the failing cell's key.
	Key string
	// Err is the underlying simulation error.
	Err error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %s: %v", e.Key, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// ValidateKeys rejects batches with duplicate cell keys. Every runner that
// accepts a []Cell — RunStats here, the simulation service's submit path,
// the dispatch coordinator — applies the same rule, so a batch that one
// accepts is never rejected by another over its keys.
func ValidateKeys(cells []Cell) error {
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if seen[c.Key] {
			return fmt.Errorf("harness: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = true
	}
	return nil
}

// RunStats executes every cell and returns the keyed results plus per-cell
// wall-clock and throughput records, so sweeps can report where the
// simulation budget went. The first error aborts the batch (outstanding
// cells finish; queued ones are skipped) and is returned as a *CellError
// naming the cell that failed.
func RunStats(cells []Cell, opt Options) (Results, Stats, error) {
	res, stats, _, err := RunTraced(cells, opt)
	return res, stats, err
}

// RunTraced is RunStats plus the per-cell decision traces recorded when
// opt.TraceLevel > 0 (the Traces map is empty otherwise). The parallel
// schedule never affects traces: every cell records in its own goroutine
// from its own deterministic simulation.
func RunTraced(cells []Cell, opt Options) (Results, Stats, Traces, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if err := ValidateKeys(cells); err != nil {
		return nil, nil, nil, err
	}

	var (
		mu       sync.Mutex
		results  = make(Results, len(cells))
		stats    = make(Stats, len(cells))
		traces   = make(Traces)
		firstErr error
	)
	// Stable extra-label ordering so profiles of identical batches carry
	// identically ordered label sets.
	extraKeys := make([]string, 0, len(opt.Labels))
	for k := range opt.Labels {
		extraKeys = append(extraKeys, k)
	}
	sort.Strings(extraKeys)

	jobs := make(chan Cell)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					continue
				}
				kv := make([]string, 0, 2+2*len(extraKeys))
				kv = append(kv, "cell", c.Key)
				for _, k := range extraKeys {
					kv = append(kv, k, opt.Labels[k])
				}
				var res *core.Result
				var tr *decision.Trace
				var err error
				var simTime time.Duration
				t0 := time.Now()
				// Label the simulation goroutine so a CPU profile of the
				// process attributes samples to the cell — and, through
				// opt.Labels, to the sweep — that spent them.
				pprof.Do(context.Background(), pprof.Labels(kv...), func(context.Context) {
					res, tr, err = core.RunTraced(c.Cfg, core.RunOptions{
						TraceLevel: opt.TraceLevel,
						CellKey:    c.Key,
						SimTime:    &simTime,
					})
				})
				elapsed := time.Since(t0)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = &CellError{Key: c.Key, Err: err}
					}
				} else {
					results[c.Key] = res
					if tr != nil {
						traces[c.Key] = tr
					}
					stats[c.Key] = CellStats{
						Seconds:      elapsed.Seconds(),
						Cycles:       res.Cycles,
						Instructions: res.TotalCommits(),
						SimSeconds:   simTime.Seconds(),
						Telemetry: StageTelemetry{
							MeanIQOccupancy: res.MeanIQOccupancy,
							IQHighWater:     res.IQHighWater,
							MeanReadyLen:    res.MeanReadyLen,
							PolicySwitches:  res.PolicySwitches,
							DVMTriggers:     res.DVMTriggers,
						},
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, nil, nil, firstErr
	}
	return results, stats, traces, nil
}
