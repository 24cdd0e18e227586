package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/server"
)

// group is one unit of dispatch: all cells of a sweep that share a content
// hash. Only keys[0] is sent to a backend; the others share its result —
// the coordinator-side analogue of the daemon's single-flight cache.
type group struct {
	hash  string
	cfg   core.Config // canonical
	keys  []string
	res   *core.Result
	stats harness.CellStats
}

// Run dispatches the cells across the backends, bounded by ctx, and
// returns keyed results plus the per-cell cost records the winning backend
// measured, with harness.RunStats's semantics: the first failing cell
// aborts the sweep and is returned as a *harness.CellError naming the
// cell. The abort, like canceling ctx, skips groups not yet started and
// cancels every in-flight dispatch attempt. Run re-probes demoted backends
// once before its first dispatch, then drains its groups with at most
// Options.Workers goroutines, all of which have exited when it returns.
// When ctx does not already carry a sweep correlation ID one is minted
// here, so a sweep entering at the coordinator is correlated end to end
// exactly like one entering at a client.
func (c *Coordinator) Run(ctx context.Context, cells []harness.Cell) (harness.Results, harness.Stats, error) {
	if len(cells) == 0 {
		return harness.Results{}, harness.Stats{}, nil
	}
	if err := harness.ValidateKeys(cells); err != nil {
		return nil, nil, err
	}
	ctx, sweep := obs.EnsureSweep(ctx)

	// Content-address every cell up front and fold duplicates into one
	// dispatch group each.
	var groups []*group
	byHash := make(map[string]*group, len(cells))
	for _, cell := range cells {
		canon, err := cell.Cfg.Canonical()
		if err != nil {
			return nil, nil, &harness.CellError{Key: cell.Key, Err: err}
		}
		hash, err := canon.Hash()
		if err != nil {
			return nil, nil, &harness.CellError{Key: cell.Key, Err: err}
		}
		g := byHash[hash]
		if g == nil {
			g = &group{hash: hash, cfg: canon}
			byHash[hash] = g
			groups = append(groups, g)
		}
		g.keys = append(g.keys, cell.Key)
	}

	// Resume: anything already checkpointed in the store is complete —
	// its address fully determines its result — so serve it from disk and
	// dispatch only the missing hashes.
	pending := groups[:0:0]
	for _, g := range groups {
		if c.opt.Resume && c.opt.Store != nil {
			if res, st, ok := c.opt.Store.Get(g.hash); ok {
				g.res, g.stats = res, st
				continue
			}
		}
		pending = append(pending, g)
	}
	c.log.Info("sweep dispatching", "sweep", sweep,
		"cells", len(cells), "groups", len(groups),
		"pending", len(pending), "resumed", len(groups)-len(pending),
		"backends", len(c.backends))

	if err := c.dispatchAll(ctx, pending); err != nil {
		c.log.Error("sweep failed", "sweep", sweep, "err", err)
		return nil, nil, err
	}
	c.log.Info("sweep dispatched", "sweep", sweep,
		"cells", len(cells), "dispatched_groups", len(pending))

	results := make(harness.Results, len(cells))
	stats := make(harness.Stats, len(cells))
	for _, g := range groups {
		for _, k := range g.keys {
			results[k] = g.res
			stats[k] = g.stats
		}
	}
	return results, stats, nil
}

// dispatchAll runs every pending group to completion on a pool of at most
// Options.Workers goroutines, checkpointing each result as it lands, and
// returns the first failure keyed to its group's first cell. The first
// failure cancels the rest; dispatchAll returns only after every worker
// has exited.
func (c *Coordinator) dispatchAll(ctx context.Context, pending []*group) error {
	if len(pending) == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.reprobe(ctx)

	work := make(chan *group, len(pending))
	for _, g := range pending {
		work <- g
	}
	close(work)

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(g *group, err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = keyedError(g.keys[0], err)
			cancel()
		}
		mu.Unlock()
	}
	for i := 0; i < min(c.opt.Workers, len(pending)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				if err := ctx.Err(); err != nil {
					// The sweep already failed or was canceled; don't
					// burn a backend on a result nobody collects.
					fail(g, err)
					continue
				}
				res, st, err := c.dispatchGroup(ctx, g)
				if err != nil {
					fail(g, err)
					continue
				}
				if c.opt.Store != nil {
					// Checkpoint as cells complete: a killed coordinator
					// resumes from exactly this set. Best-effort — a full
					// disk costs durability, not the sweep.
					if perr := c.opt.Store.Put(g.hash, res, st); perr != nil {
						c.log.Warn("checkpoint write failed", "sweep", obs.SweepID(ctx),
							"hash", g.hash[:12], "err", perr)
					}
				}
				g.res, g.stats = res, st
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// keyedError guarantees the sweep's abort error is a *harness.CellError
// naming the failing cell, whatever layer produced the cause.
func keyedError(key string, err error) error {
	var ce *harness.CellError
	if errors.As(err, &ce) {
		return ce
	}
	return &harness.CellError{Key: key, Err: err}
}

// permanent reports whether retrying err elsewhere is pointless: the
// backend executed the cell and the simulation itself failed (determinism
// means every backend fails it identically), or the request was rejected
// as malformed. Transport errors, timeouts, 5xx, shutdown races and cut
// job streams (server.ErrIncompleteStream) are all retryable.
func permanent(err error) bool {
	var ce *harness.CellError
	if errors.As(err, &ce) {
		return true
	}
	var he *server.HTTPError
	if errors.As(err, &he) {
		return !he.Temporary()
	}
	return false
}

// dispatchGroup runs one group to completion: up to MaxAttempts dispatch
// attempts, exponential backoff with jitter between them, each attempt
// sent to the least-loaded backend — preferring one the group has not just
// failed on (failover).
func (c *Coordinator) dispatchGroup(ctx context.Context, g *group) (*core.Result, harness.CellStats, error) {
	sweep := obs.SweepID(ctx)
	var lastErr error
	avoid := ""
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := c.backoff(attempt)
			c.log.Warn("cell retrying", "sweep", sweep, "cell", g.keys[0],
				"attempt", attempt+1, "backoff", delay, "err", lastErr)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, harness.CellStats{}, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, harness.CellStats{}, err
		}
		b := c.pick(avoid)
		if avoid != "" && b.url != avoid {
			c.log.Warn("cell failing over", "sweep", sweep, "cell", g.keys[0],
				"from", avoid, "to", b.url)
		}
		res, st, err := c.runOn(ctx, b, g)
		if err == nil {
			return res, st, nil
		}
		if permanent(err) || ctx.Err() != nil {
			return nil, harness.CellStats{}, err
		}
		avoid = b.url
		lastErr = err
	}
	c.log.Error("cell exhausted attempts", "sweep", sweep, "cell", g.keys[0],
		"attempts", c.opt.MaxAttempts, "err", lastErr)
	return nil, harness.CellStats{}, fmt.Errorf(
		"dispatch: cell %s failed after %d attempts: %w", g.keys[0], c.opt.MaxAttempts, lastErr)
}

// backoff returns the pre-attempt delay: BaseBackoff doubled per retry,
// capped at MaxBackoff, jittered uniformly over [0.5, 1.5)× so the
// retries of many concurrently failing cells decorrelate instead of
// stampeding the next backend together. The jitter comes from the
// coordinator's own seedable RNG (Options.Seed), never the process-global
// math/rand.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.opt.BaseBackoff << (attempt - 1)
	if d > c.opt.MaxBackoff || d <= 0 { // <=0: shift overflow
		d = c.opt.MaxBackoff
	}
	c.rngMu.Lock()
	j := c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * (0.5 + j))
}

// runOn executes g's representative cell on backend b as a single-cell
// job, reads the job's stream to its end and decodes the one result. The
// attempt is bounded by CellTimeout, so a wedged backend fails it (and is
// marked unhealthy) rather than stalling the sweep. runOn releases the
// inflight reservation pick took on b when the attempt resolves.
func (c *Coordinator) runOn(ctx context.Context, b *backend, g *group) (*core.Result, harness.CellStats, error) {
	defer b.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, c.opt.CellTimeout)
	defer cancel()
	b.dispatched.Add(1)

	fail := func(err error) (*core.Result, harness.CellStats, error) {
		// A canceled sweep is not the backend's fault; a retryable failure
		// demotes it until the next sweep's re-probe.
		if !errors.Is(err, context.Canceled) && !permanent(err) && b.healthy.Swap(false) {
			c.log.Warn("backend marked unhealthy",
				"sweep", obs.SweepID(ctx), "backend", b.url, "err", err)
		}
		return nil, harness.CellStats{}, err
	}

	ack, err := b.cli.Submit(ctx, []harness.Cell{{Key: g.keys[0], Cfg: g.cfg}})
	if err != nil {
		return fail(err)
	}
	// Wait fails a canceled job or a cut or short stream; only a stream
	// that reached its end event with the one cell comes back here.
	cells, err := b.cli.Wait(ctx, ack)
	if err != nil {
		return fail(err)
	}
	cell := cells[0]
	if cell.Hash != g.hash {
		return fail(fmt.Errorf("dispatch: backend %s answered job %s with cell %.12s, want %.12s",
			b.url, ack.ID, cell.Hash, g.hash))
	}
	if cell.Error != "" {
		// The simulation itself failed — permanent, and keyed like a
		// local harness failure so callers' errors.As handling works
		// unchanged through the coordinator.
		return nil, harness.CellStats{}, &harness.CellError{Key: cell.Key, Err: errors.New(cell.Error)}
	}
	var res core.Result
	if err := json.Unmarshal(cell.Result, &res); err != nil {
		return fail(fmt.Errorf("dispatch: decoding result from %s: %w", b.url, err))
	}
	return &res, cell.Stats, nil
}
