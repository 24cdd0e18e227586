// Package dispatch fans experiment sweeps out across a static list of
// visasimd backends: a coordinator that shards a sweep's cells over the
// pool least-loaded first, with a per-attempt deadline, per-cell retry
// with exponential backoff and jitter, and failover after repeated
// failures. The backend list is fixed at New. Each Run owns its
// concurrency: it starts a bounded worker pool for its own dispatch
// groups, and every goroutine it starts has exited when it returns, so
// nothing runs between sweeps.
//
// The coordinator's Run mirrors harness.RunStats (keyed results and cost
// records, first failing cell aborts with a *harness.CellError), so it
// drops into the experiments.Params.Runner seam: every paper table and
// figure regenerates across the pool unchanged. Determinism makes the
// distribution invisible — a cell's core.Config fully determines its
// core.Result, so which backend ran it or how many times it was retried
// cannot change the bytes that come back.
//
// With a persistent store attached (internal/store), completed cells are
// checkpointed to disk as they finish and — in resume mode — cells whose
// content address is already stored are served without dispatching at all.
// A coordinator killed mid-sweep therefore re-dispatches only the missing
// hashes on the next run. See DESIGN.md §8.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"visasim/internal/obs"
	"visasim/internal/server"
	"visasim/internal/store"
)

// Options tunes a Coordinator.
type Options struct {
	// Backends lists the visasimd base URLs the sweep shards across, e.g.
	// "http://host:8080" (trailing slashes are trimmed). Required; the
	// list is fixed for the coordinator's lifetime.
	Backends []string
	// HTTP is the transport shared by all backend clients and health
	// probes (http.DefaultClient when nil).
	HTTP *http.Client
	// MaxAttempts bounds how many times one cell is dispatched before the
	// sweep fails (3 when 0). Attempts after the first prefer a different
	// backend (failover) and are spaced by exponential backoff.
	MaxAttempts int
	// BaseBackoff is the first retry delay (100ms when 0); each further
	// retry doubles it up to MaxBackoff (5s when 0). Both are jittered by
	// a uniform ±50% so synchronized retries from many cells spread out.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// CellTimeout bounds one dispatch attempt end to end — submit plus
	// the wait for the backend to finish the cell (10m when 0). A wedged
	// backend costs one timeout, not the sweep: the attempt fails, the
	// backend is marked unhealthy and the cell fails over.
	CellTimeout time.Duration
	// Workers bounds one sweep's concurrently in-flight cells across all
	// backends: Run starts at most this many goroutines, all gone when it
	// returns (4×len(Backends) when 0, with a floor of 8).
	Workers int
	// Store, when non-nil, is the durable checkpoint tier: every
	// completed cell is written through to it keyed by content hash.
	Store *store.Store
	// Resume, with Store set, serves cells whose content address is
	// already stored without dispatching them — which is also the
	// cross-sweep dedup path. Sound because the address fully determines
	// the result (DESIGN.md §8).
	Resume bool
	// Seed seeds the coordinator's backoff-jitter RNG; 0 seeds from the
	// clock. A fixed seed makes retry timing reproducible
	// in tests without touching the process-global math/rand state.
	Seed int64
	// Logger receives the coordinator's structured log lines — every
	// retry and failover decision, tagged with a
	// correlation ID so one grep follows a sweep through client,
	// coordinator and daemon. It is also handed to the per-backend
	// clients. Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 10 * time.Minute
	}
	if o.Workers <= 0 {
		o.Workers = 4 * len(o.Backends)
		if o.Workers < 8 {
			o.Workers = 8
		}
	}
	return o
}

// reprobeTimeout bounds the /healthz probes Run sends demoted backends
// before a sweep's first dispatch.
const reprobeTimeout = 2 * time.Second

// backend is one visasimd instance the coordinator dispatches to.
type backend struct {
	url string
	cli *server.Client

	healthy  atomic.Bool  // last known probe/dispatch outcome
	inflight atomic.Int64 // cells currently dispatched here

	dispatched atomic.Int64 // attempts sent here
}

// Coordinator shards sweeps across backends. Create with New; it runs no
// goroutine between sweeps, so there is nothing to close (idle keep-alive
// connections belong to Options.HTTP). Run is safe to call concurrently,
// though each call bounds only its own sweep by Workers.
type Coordinator struct {
	opt Options
	log *slog.Logger

	// backends is the pool, fixed at New.
	backends []*backend

	// rng jitters retry backoff. Per-instance and mutex-guarded rather
	// than the global math/rand: seedable for reproducible tests, and no
	// cross-talk with anything else in the process drawing randomness.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// New validates the backend list. Backends start out presumed healthy; a
// failed dispatch demotes one, and the next Run re-probes it, so a
// coordinator is usable immediately and starts no goroutine.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Backends) == 0 {
		return nil, errors.New("dispatch: no backends")
	}
	opt = opt.withDefaults()
	seed := opt.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Coordinator{
		opt: opt,
		log: obs.Logger(opt.Logger),
		rng: rand.New(rand.NewSource(seed)), //nolint:gosec // jitter, not crypto
	}
	seen := map[string]bool{}
	for _, raw := range opt.Backends {
		url := strings.TrimRight(strings.TrimSpace(raw), "/")
		if url == "" {
			return nil, fmt.Errorf("dispatch: empty backend URL in %q", strings.Join(opt.Backends, ","))
		}
		if seen[url] {
			return nil, fmt.Errorf("dispatch: duplicate backend %s", url)
		}
		seen[url] = true
		b := &backend{
			url: url,
			cli: &server.Client{BaseURL: url, HTTP: opt.HTTP, Logger: opt.Logger},
		}
		b.healthy.Store(true)
		c.backends = append(c.backends, b)
	}
	return c, nil
}

// BackendStatus is one backend's state as seen by Probe/Members.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Error is the probe failure, when unhealthy.
	Error string `json:"error,omitempty"`
	// Inflight is how many cells the coordinator currently has dispatched
	// to this backend.
	Inflight int64 `json:"inflight"`
	// Dispatched counts attempts sent here.
	Dispatched int64 `json:"dispatched"`
}

// Members returns every pool member's last-known state without probing.
func (c *Coordinator) Members() []BackendStatus {
	out := make([]BackendStatus, len(c.backends))
	for i, b := range c.backends {
		out[i] = BackendStatus{
			URL:        b.url,
			Healthy:    b.healthy.Load(),
			Inflight:   b.inflight.Load(),
			Dispatched: b.dispatched.Load(),
		}
	}
	return out
}

// Probe checks every backend's /healthz once, updates the coordinator's
// health view, and returns the statuses in pool order.
func (c *Coordinator) Probe(ctx context.Context) []BackendStatus {
	out := make([]BackendStatus, len(c.backends))
	var wg sync.WaitGroup
	for i, b := range c.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			err := b.probe(ctx, c.httpClient())
			st := BackendStatus{URL: b.url, Healthy: err == nil,
				Inflight: b.inflight.Load(), Dispatched: b.dispatched.Load()}
			if err != nil {
				st.Error = err.Error()
			}
			out[i] = st
		}(i, b)
	}
	wg.Wait()
	return out
}

func (c *Coordinator) httpClient() *http.Client {
	if c.opt.HTTP != nil {
		return c.opt.HTTP
	}
	return http.DefaultClient
}

// reprobe sends one /healthz probe, bounded by reprobeTimeout, to every
// backend currently demoted, and waits for them all. Run calls it before a
// sweep's first dispatch, so a backend demoted in one sweep rejoins the
// next once it answers again; healthy backends are not probed.
func (c *Coordinator) reprobe(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, reprobeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, b := range c.backends {
		if b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			if err := b.probe(ctx, c.httpClient()); err == nil {
				c.log.Info("backend rejoined", "sweep", obs.SweepID(ctx), "backend", b.url)
			}
		}(b)
	}
	wg.Wait()
}

// probe hits the backend's /healthz and records the outcome.
func (b *backend) probe(ctx context.Context, hc *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		b.healthy.Store(false)
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.healthy.Store(false)
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	b.healthy.Store(true)
	return nil
}

// --- routing --------------------------------------------------------------

// pick chooses the least-loaded backend for the next dispatch attempt,
// avoiding `avoid` (the backend a previous attempt of the same cell just
// failed on) when any alternative exists. With no healthy candidate it
// falls back to unhealthy ones — a sweep should limp through a window where
// every backend was demoted rather than spin, and the per-attempt timeout bounds
// the cost of being wrong. The pool is never empty, so pick always returns
// a backend.
//
// The return carries an inflight reservation: the slot is claimed with a
// CAS at selection, so concurrent pickers observe each other and spread,
// and runOn releases it when the attempt resolves.
func (c *Coordinator) pick(avoid string) *backend {
	if b := c.pickFrom(avoid, true); b != nil {
		return b
	}
	return c.pickFrom(avoid, false)
}

func (c *Coordinator) pickFrom(avoid string, healthyOnly bool) *backend {
	cands := make([]*backend, 0, len(c.backends))
	for _, b := range c.backends {
		if healthyOnly && !b.healthy.Load() {
			continue
		}
		if b.url == avoid {
			continue
		}
		cands = append(cands, b)
	}
	if len(cands) == 0 {
		// avoid was the only candidate; better it than nothing.
		for _, b := range c.backends {
			if b.url == avoid && (!healthyOnly || b.healthy.Load()) {
				b.inflight.Add(1)
				return b
			}
		}
		return nil
	}
	// The read-choose-claim sequence is not atomic across backends, so
	// claim the slot with a CAS on the chosen backend's count: if another
	// picker (or a finishing attempt) moved it first, re-run the selection
	// with the fresh counts instead of piling onto a stale choice.
	for {
		best := cands[0]
		for _, b := range cands[1:] {
			if b.inflight.Load() < best.inflight.Load() {
				best = b
			}
		}
		n := best.inflight.Load()
		if best.inflight.CompareAndSwap(n, n+1) {
			return best
		}
	}
}
