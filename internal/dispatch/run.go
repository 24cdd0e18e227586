package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"visasim/internal/cluster"
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

// schedJob is one group waiting in the scheduling queue, with the channel
// its Run collects the outcome on.
type schedJob struct {
	ctx    context.Context
	g      *group
	tenant string
	ch     chan<- schedOutcome
}

// schedOutcome is a dispatcher's verdict on one group.
type schedOutcome struct {
	g   *group
	res *core.Result
	st  harness.CellStats
	err error
}

// Run dispatches the cells across the cluster and returns keyed results
// with harness.Run's semantics: the first failing cell aborts the sweep
// (in-flight cells finish, queued ones are skipped) and is returned as a
// *harness.CellError naming the cell. It ignores caller cancellation;
// interactive callers use RunContext.
func (c *Coordinator) Run(cells []harness.Cell, opt harness.Options) (harness.Results, error) {
	res, _, err := c.RunStats(cells, opt)
	return res, err
}

// RunContext is Run bounded by ctx: canceling ctx aborts queued groups and
// every in-flight dispatch attempt.
func (c *Coordinator) RunContext(ctx context.Context, cells []harness.Cell, opt harness.Options) (harness.Results, error) {
	res, _, err := c.RunStatsContext(ctx, cells, opt)
	return res, err
}

// RunStats is RunStatsContext with a background context — it returns only
// when the sweep resolves or fails.
func (c *Coordinator) RunStats(cells []harness.Cell, opt harness.Options) (harness.Results, harness.Stats, error) {
	return c.RunStatsContext(context.Background(), cells, opt)
}

// classOf resolves the priority class a sweep schedules under: the class
// the context asks for, clamped to the tenant's own class (a bulk tenant
// cannot ask for interactive service), defaulting to the tenant's class,
// then Standard.
func classOf(ctx context.Context, tenant *cluster.Tenant) cluster.PriorityClass {
	cls := cluster.Standard
	if tenant != nil {
		cls = tenant.DefaultClass()
	}
	if want, ok := cluster.ClassFrom(ctx); ok {
		if tenant != nil && want < tenant.DefaultClass() {
			want = tenant.DefaultClass()
		}
		cls = want
	}
	return cls
}

// RunStatsContext is Run plus the per-cell cost records the winning backend
// measured, bounded by ctx. The opt.Workers bound is ignored — concurrency
// is Options.Workers across the whole cluster, shared by all concurrent
// sweeps through the priority scheduler. When ctx does not already carry a
// sweep correlation ID one is minted here, so a sweep entering the cluster
// at the coordinator is correlated end to end exactly like one entering at
// a client. With Options.Admission set, ctx must carry an admitted
// tenant's API key (cluster.WithAPIKey); rejections surface unwrapped as
// cluster.ErrUnknownKey or *cluster.AdmissionError before any cell
// dispatches.
func (c *Coordinator) RunStatsContext(ctx context.Context, cells []harness.Cell, _ harness.Options) (harness.Results, harness.Stats, error) {
	if len(cells) == 0 {
		return harness.Results{}, harness.Stats{}, nil
	}
	if err := harness.ValidateKeys(cells); err != nil {
		return nil, nil, err
	}
	ctx, sweep := obs.EnsureSweep(ctx)

	var tenant *cluster.Tenant
	tenantID := "default"
	if c.opt.Admission != nil {
		t, err := c.opt.Admission.Admit(cluster.APIKeyFrom(ctx), len(cells))
		if err != nil {
			c.met.admissionRejects.Inc()
			c.log.Warn("sweep rejected at admission", "sweep", sweep,
				"cells", len(cells), "err", err)
			return nil, nil, err
		}
		tenant = t
		tenantID = t.ID
		defer c.opt.Admission.Release(t.ID, len(cells))
	}
	class := classOf(ctx, tenant)

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
	c.met.cellsTotal.Add(int64(len(cells)))
	c.met.addAdmitted(class, len(cells))
	if shared := len(cells) - len(groups); shared > 0 {
		c.met.dedupShares.Add(int64(shared))
	}

	// Resume: anything already checkpointed in the store is complete —
	// its address fully determines its result — so serve it from disk and
	// dispatch only the missing hashes.
	pending := groups[:0:0]
	for _, g := range groups {
		if c.opt.Resume && c.opt.Store != nil {
			if res, st, ok := c.opt.Store.Get(g.hash); ok {
				g.res, g.stats = res, st
				c.met.storeHits.Add(1)
				c.met.resumeSkips.Add(int64(len(g.keys)))
				continue
			}
			c.met.storeMisses.Add(1)
		}
		pending = append(pending, g)
	}
	c.log.Info("sweep dispatching", "sweep", sweep,
		"cells", len(cells), "groups", len(groups),
		"pending", len(pending), "resumed", len(groups)-len(pending),
		"tenant", tenantID, "class", class.String(),
		"backends", c.BackendCount())

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outcomes := make(chan schedOutcome, len(pending))
	queued := 0
	var firstErr error
	for _, g := range pending {
		item := &cluster.Item{
			Class:   class,
			Payload: &schedJob{ctx: ctx, g: g, tenant: tenantID, ch: outcomes},
		}
		if !c.sched.Push(item) {
			firstErr = keyedError(g.keys[0], errors.New("dispatch: coordinator closed"))
			cancel()
			break
		}
		queued++
	}
	for i := 0; i < queued; i++ {
		out := <-outcomes
		if out.err != nil {
			if firstErr == nil {
				firstErr = keyedError(out.g.keys[0], out.err)
				cancel()
			}
			continue
		}
		out.g.res, out.g.stats = out.res, out.st
	}
	if firstErr != nil {
		c.log.Error("sweep failed", "sweep", sweep, "err", firstErr)
		return nil, nil, firstErr
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

// dispatcher is one worker of the shared pool: it drains the scheduling
// queue in priority order, runs each group to completion, checkpoints the
// result, and reports back to the owning Run. The pool — not the number of
// concurrent Runs — bounds cluster-wide in-flight cells.
func (c *Coordinator) dispatcher() {
	defer c.wg.Done()
	for {
		it, ok := c.sched.Pop()
		if !ok {
			return
		}
		j := it.Payload.(*schedJob)
		cls := it.Class.String()
		c.met.queueWait.Observe(cls, time.Since(it.Enqueued).Seconds())
		if err := j.ctx.Err(); err != nil {
			// The owning Run already failed or was canceled; don't burn a
			// backend on a result nobody collects.
			j.ch <- schedOutcome{g: j.g, err: err}
			continue
		}
		res, st, err := c.dispatchGroup(j.ctx, j.g)
		if err == nil {
			c.met.classLatency.Observe(cls, time.Since(it.Enqueued).Seconds())
			c.met.addServed(j.tenant, len(j.g.keys))
			if c.opt.Store != nil {
				// Checkpoint as cells complete: a killed coordinator
				// resumes from exactly this set. Best-effort — a full
				// disk costs durability, not the sweep.
				if perr := c.opt.Store.Put(j.g.hash, res, st); perr != nil {
					c.met.storePutErrors.Add(1)
					c.log.Warn("checkpoint write failed", "sweep", obs.SweepID(j.ctx),
						"hash", j.g.hash[:12], "err", perr)
				}
			}
		}
		j.ch <- schedOutcome{g: j.g, res: res, st: st, err: err}
	}
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
// as malformed. Transport errors, timeouts, 5xx and shutdown races are all
// retryable.
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
// routed by Options.Routing — preferring a backend the group has not just
// failed on (failover).
func (c *Coordinator) dispatchGroup(ctx context.Context, g *group) (*core.Result, harness.CellStats, error) {
	sweep := obs.SweepID(ctx)
	var lastErr error
	avoid := ""
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.met.retries.Add(1)
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
		b, err := c.pickWait(ctx, avoid, g.hash)
		if err != nil {
			return nil, harness.CellStats{}, err
		}
		if b == nil {
			lastErr = errors.New("dispatch: no backend available")
			continue
		}
		if avoid != "" && b.url != avoid {
			c.met.failovers.Add(1)
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
// job and decodes the one result. The attempt is bounded by CellTimeout,
// so a wedged backend fails it (and is marked unhealthy) rather than
// stalling the sweep. runOn releases the inflight reservation pick took
// on b when the attempt resolves.
func (c *Coordinator) runOn(ctx context.Context, b *backend, g *group) (*core.Result, harness.CellStats, error) {
	defer b.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, c.opt.CellTimeout)
	defer cancel()
	b.dispatched.Add(1)
	t0 := time.Now()
	defer func() { c.met.histAttempt.Observe(time.Since(t0).Seconds()) }()

	fail := func(err error) (*core.Result, harness.CellStats, error) {
		if !errors.Is(err, context.Canceled) { // a canceled sweep is not the backend's fault
			b.failures.Add(1)
			if !permanent(err) {
				// Don't wait for the next probe to stop routing here.
				if b.healthy.Swap(false) {
					c.log.Warn("backend marked unhealthy",
						"sweep", obs.SweepID(ctx), "backend", b.url, "err", err)
				}
			}
		}
		return nil, harness.CellStats{}, err
	}

	ack, err := b.cli.Submit(ctx, []harness.Cell{{Key: g.keys[0], Cfg: g.cfg}})
	if err != nil {
		return fail(err)
	}
	st, err := b.cli.Wait(ctx, ack.ID)
	if err != nil {
		return fail(err)
	}
	switch st.State {
	case server.StateDone, server.StateFailed:
	default: // canceled: the backend shut down under the job
		return fail(fmt.Errorf("dispatch: backend %s canceled job %s: %s", b.url, ack.ID, st.Error))
	}
	if len(st.Cells) != 1 {
		return fail(fmt.Errorf("dispatch: backend %s returned %d cells for a 1-cell job", b.url, len(st.Cells)))
	}
	cell := st.Cells[0]
	if cell.Error != "" {
		// The simulation itself failed — permanent, and keyed like a
		// local harness failure so callers' errors.As handling works
		// unchanged through the cluster.
		return nil, harness.CellStats{}, &harness.CellError{Key: cell.Key, Err: errors.New(cell.Error)}
	}
	var res core.Result
	if err := json.Unmarshal(cell.Result, &res); err != nil {
		return fail(fmt.Errorf("dispatch: decoding result from %s: %w", b.url, err))
	}
	return &res, cell.Stats, nil
}
