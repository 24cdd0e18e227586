// Package dispatch fans experiment sweeps out across a cluster of
// visasimd backends: a coordinator that shards a sweep's cells over the
// backend pool with pluggable routing (least-loaded, cache-affinity
// rendezvous hashing, or seeded random), health probing, a per-attempt
// deadline, per-cell retry with exponential backoff and jitter, and
// failover after repeated failures.
//
// Since PR 8 the coordinator is also the cluster's control plane: the
// backend pool may be dynamic (backends register, drain and deregister at
// runtime — see Join, Drain, Leave and the Control HTTP surface), every
// sweep passes through an SLO-aware scheduler (a cluster.Queue serving
// priority classes in order, first-come-first-served within a class), and
// an optional cluster.Admission gate enforces per-tenant rate limits and
// quotas at sweep entry.
//
// The coordinator's Run and RunStats mirror harness.Run / harness.RunStats
// (keyed results, first failing cell aborts with a *harness.CellError), so
// it drops into the experiments.Params.Runner seam: every paper table and
// figure regenerates through the cluster unchanged. Determinism makes the
// distribution invisible — a cell's core.Config fully determines its
// core.Result, so which backend ran it, what priority class it queued
// under, or how many times it was retried cannot change the bytes that
// come back.
//
// With a persistent store attached (internal/store), completed cells are
// checkpointed to disk as they finish and — in resume mode — cells whose
// content address is already stored are served without dispatching at all.
// A coordinator killed mid-sweep therefore re-dispatches only the missing
// hashes on the next run. See DESIGN.md §8 and §12.
package dispatch

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/obs"
	"visasim/internal/server"
	"visasim/internal/store"
)

// Routing selects how the coordinator maps a dispatch attempt to a backend.
type Routing uint8

const (
	// RouteLeastLoaded sends each attempt to the healthy backend with the
	// fewest in-flight cells — the default, and the best pick when backends
	// are symmetric and caches don't matter.
	RouteLeastLoaded Routing = iota
	// RouteAffinity routes by rendezvous-hashing the cell's content address
	// over the live members, so re-submissions of a cell keep landing on
	// the backend whose result cache already holds it. Failover still moves
	// a cell elsewhere when its home backend fails.
	RouteAffinity
	// RouteRandom picks uniformly among healthy backends — the control arm
	// affinity is measured against.
	RouteRandom
)

// String returns the routing's flag name.
func (r Routing) String() string {
	switch r {
	case RouteAffinity:
		return "affinity"
	case RouteRandom:
		return "random"
	}
	return "least-loaded"
}

// ParseRouting parses a routing flag value; "" is RouteLeastLoaded.
func ParseRouting(s string) (Routing, error) {
	switch s {
	case "least-loaded", "":
		return RouteLeastLoaded, nil
	case "affinity":
		return RouteAffinity, nil
	case "random":
		return RouteRandom, nil
	}
	return RouteLeastLoaded, fmt.Errorf("dispatch: unknown routing %q (least-loaded, affinity, random)", s)
}

// Options tunes a Coordinator.
type Options struct {
	// Backends lists the visasimd base URLs the sweep shards across, e.g.
	// "http://host:8080" (trailing slashes are trimmed). Required unless
	// Dynamic is set; with Dynamic it seeds the pool, which may be empty.
	Backends []string
	// Dynamic allows runtime membership: the pool may start empty, and
	// backends Join/Drain/Leave while sweeps run. Dispatch waits for a
	// member instead of failing when the pool is momentarily empty.
	Dynamic bool
	// Routing picks the backend-selection policy (RouteLeastLoaded when
	// zero).
	Routing Routing
	// Admission, when non-nil, gates every Run at entry: the sweep's
	// context must carry a tenant API key (cluster.WithAPIKey) that admits
	// len(cells) cells, and the tenant's quota is held until the sweep
	// resolves.
	Admission *cluster.Admission
	// HTTP is the transport shared by all backend clients and health
	// probes (http.DefaultClient when nil).
	HTTP *http.Client
	// PollInterval spaces job polls against a backend (the client's 50ms
	// default when 0).
	PollInterval time.Duration
	// ProbeInterval spaces /healthz probes of every backend (2s when 0).
	// A backend that fails a probe — or a dispatch — is deprioritized
	// until a probe succeeds again; it is never removed.
	ProbeInterval time.Duration
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
	// Workers is the size of the dispatcher pool draining the scheduling
	// queue — the bound on concurrently in-flight cells across all
	// backends and all concurrent sweeps (4×len(Backends) when 0, with a
	// floor of 8 so a dynamic pool that starts empty still dispatches).
	Workers int
	// Store, when non-nil, is the durable checkpoint tier: every
	// completed cell is written through to it keyed by content hash.
	Store *store.Store
	// Resume, with Store set, serves cells whose content address is
	// already stored without dispatching them — which is also the
	// cross-sweep dedup path. Sound because the address fully determines
	// the result (DESIGN.md §8).
	Resume bool
	// Seed seeds the coordinator's backoff-jitter (and RouteRandom) RNG;
	// 0 seeds from the clock. A fixed seed makes retry timing reproducible
	// in tests without touching the process-global math/rand state.
	Seed int64
	// Logger receives the coordinator's structured log lines — every
	// retry, failover and membership decision, tagged with a
	// correlation ID so one grep follows a sweep through client,
	// coordinator and daemon. It is also handed to the per-backend
	// clients. Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
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

// backend is one visasimd instance the coordinator dispatches to.
type backend struct {
	url string
	cli *server.Client

	healthy  atomic.Bool  // last known probe/dispatch outcome
	draining atomic.Bool  // excluded from routing; finishing in-flight work
	inflight atomic.Int64 // cells currently dispatched here

	dispatched expvar.Int // attempts sent here
	failures   expvar.Int // attempts that came back retryable-failed
}

// Coordinator shards sweeps across backends. Create with New, release the
// dispatcher pool and health prober with Close. Safe for concurrent
// Run/RunStats calls — the scheduler, worker bound and metrics are shared
// across them.
type Coordinator struct {
	opt   Options
	met   *metrics
	log   *slog.Logger
	scope string // membership-event correlation ID (one per coordinator)

	// bmu guards the member list; memberCh is closed and replaced on every
	// membership change so pickWait can block on "the pool changed".
	bmu      sync.RWMutex
	backends []*backend
	memberCh chan struct{}

	// sched is the shared scheduling queue every Run feeds; the dispatcher
	// pool drains it best-class-first.
	sched *cluster.Queue

	// rng jitters retry backoff and drives RouteRandom. Per-instance and
	// mutex-guarded rather than the global math/rand: seedable for
	// reproducible tests, and no cross-talk with anything else in the
	// process drawing randomness.
	rngMu sync.Mutex
	rng   *rand.Rand

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New validates the backend list, starts the dispatcher pool and the
// health prober. Backends start out presumed healthy; the first probe (or
// failed dispatch) corrects that, so a coordinator is usable immediately.
// With Options.Dynamic the initial list may be empty and backends join
// later.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Backends) == 0 && !opt.Dynamic {
		return nil, errors.New("dispatch: no backends")
	}
	opt = opt.withDefaults()
	seed := opt.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Coordinator{
		opt:      opt,
		log:      obs.Logger(opt.Logger),
		scope:    "cluster-" + strings.TrimPrefix(obs.NewSweepID(), "sweep-"),
		memberCh: make(chan struct{}),
		sched:    cluster.NewQueue(),
		rng:      rand.New(rand.NewSource(seed)), //nolint:gosec // jitter, not crypto
		quit:     make(chan struct{}),
	}
	c.met = newMetrics(c)
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
		c.join(url, "seed")
	}
	c.wg.Add(1)
	go c.probeLoop()
	for i := 0; i < opt.Workers; i++ {
		c.wg.Add(1)
		go c.dispatcher()
	}
	return c, nil
}

// Close stops accepting new sweeps, lets queued and in-flight work drain,
// and releases the dispatcher pool and health prober.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.quit)
		c.sched.Close()
	})
	c.wg.Wait()
}

// MetricsVar exposes the coordinator's metrics map (dispatch counts per
// backend, retries, failovers, store hits/misses, resume skips,
// membership transitions), e.g. for expvar.Publish in a binary. Never
// touches the global registry.
func (c *Coordinator) MetricsVar() expvar.Var { return &c.met.root }

// --- membership -----------------------------------------------------------

// Join adds a backend to the pool (or revives a draining one). The URL is
// normalized like Options.Backends entries; joining a member that is
// already present and serving is a no-op.
func (c *Coordinator) Join(rawURL string) error {
	url := strings.TrimRight(strings.TrimSpace(rawURL), "/")
	if url == "" {
		return errors.New("dispatch: empty backend URL")
	}
	c.join(url, "join")
	return nil
}

// join adds or revives url. reason tags the membership log line.
func (c *Coordinator) join(url, reason string) {
	c.bmu.Lock()
	for _, b := range c.backends {
		if b.url == url {
			revived := b.draining.Swap(false)
			c.notifyLocked()
			c.bmu.Unlock()
			if revived {
				c.met.joins.Add(1)
				c.log.Info("backend rejoined", "scope", c.scope, "backend", url)
			}
			return
		}
	}
	b := &backend{
		url: url,
		cli: &server.Client{BaseURL: url, HTTP: c.opt.HTTP, PollInterval: c.opt.PollInterval,
			Logger: c.opt.Logger},
	}
	b.healthy.Store(true)
	c.backends = append(c.backends, b)
	c.met.addBackendVar(b)
	c.notifyLocked()
	n := len(c.backends)
	c.bmu.Unlock()
	c.met.joins.Add(1)
	c.log.Info("backend joined", "scope", c.scope, "backend", url,
		"reason", reason, "members", n)
}

// Leave removes a backend immediately. Cells in flight on it fail their
// current attempt and retry elsewhere — with Dynamic pools the sweep loses
// time, never cells.
func (c *Coordinator) Leave(rawURL string) error {
	url := strings.TrimRight(strings.TrimSpace(rawURL), "/")
	c.bmu.Lock()
	idx := -1
	for i, b := range c.backends {
		if b.url == url {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.bmu.Unlock()
		return fmt.Errorf("dispatch: unknown backend %s", url)
	}
	c.backends = append(c.backends[:idx], c.backends[idx+1:]...)
	c.met.removeBackendVar(url)
	c.notifyLocked()
	n := len(c.backends)
	c.bmu.Unlock()
	c.met.leaves.Add(1)
	c.log.Info("backend left", "scope", c.scope, "backend", url, "members", n)
	return nil
}

// Drain gracefully removes a backend: it stops receiving new dispatches
// immediately, Drain blocks until its in-flight cells resolve (or ctx
// cancels), then it leaves the pool. Queued cells simply route to the
// remaining members — a drain mid-sweep loses zero cells.
func (c *Coordinator) Drain(ctx context.Context, rawURL string) error {
	url := strings.TrimRight(strings.TrimSpace(rawURL), "/")
	c.bmu.RLock()
	var target *backend
	for _, b := range c.backends {
		if b.url == url {
			target = b
			break
		}
	}
	c.bmu.RUnlock()
	if target == nil {
		return fmt.Errorf("dispatch: unknown backend %s", url)
	}
	if !target.draining.Swap(true) {
		c.met.drains.Add(1)
		c.log.Info("backend draining", "scope", c.scope, "backend", url,
			"inflight", target.inflight.Load())
	}
	c.notify()
	for target.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	err := c.Leave(url)
	c.log.Info("backend drained", "scope", c.scope, "backend", url)
	return err
}

// notifyLocked wakes pickWait blockers; callers hold bmu.
func (c *Coordinator) notifyLocked() {
	close(c.memberCh)
	c.memberCh = make(chan struct{})
}

func (c *Coordinator) notify() {
	c.bmu.Lock()
	c.notifyLocked()
	c.bmu.Unlock()
}

// snapshot returns the current member list.
func (c *Coordinator) snapshot() []*backend {
	c.bmu.RLock()
	defer c.bmu.RUnlock()
	return append([]*backend(nil), c.backends...)
}

// BackendCount reports the non-draining pool size.
func (c *Coordinator) BackendCount() int {
	n := 0
	for _, b := range c.snapshot() {
		if !b.draining.Load() {
			n++
		}
	}
	return n
}

// BackendStatus is one backend's state as seen by Probe/Members.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Draining reports the backend is leaving: it finishes in-flight cells
	// but receives no new ones.
	Draining bool `json:"draining,omitempty"`
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
	backends := c.snapshot()
	out := make([]BackendStatus, len(backends))
	for i, b := range backends {
		out[i] = BackendStatus{
			URL:        b.url,
			Healthy:    b.healthy.Load(),
			Draining:   b.draining.Load(),
			Inflight:   b.inflight.Load(),
			Dispatched: b.dispatched.Value(),
		}
	}
	return out
}

// Probe checks every backend's /healthz once, updates the coordinator's
// health view, and returns the statuses in pool order.
func (c *Coordinator) Probe(ctx context.Context) []BackendStatus {
	backends := c.snapshot()
	out := make([]BackendStatus, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			err := b.probe(ctx, c.httpClient())
			st := BackendStatus{URL: b.url, Healthy: err == nil,
				Draining: b.draining.Load(), Inflight: b.inflight.Load(),
				Dispatched: b.dispatched.Value()}
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

func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), c.opt.ProbeInterval)
			c.Probe(ctx)
			cancel()
		}
	}
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

// pick chooses the backend for the next dispatch attempt of the group with
// content address hash, avoiding `avoid` (the backend a previous attempt
// of the same cell just failed on) when any alternative exists. Draining
// members never receive new work. With no healthy candidate it falls back
// to unhealthy ones — a sweep should limp through a window where every
// probe failed rather than spin, and the per-attempt timeout bounds the
// cost of being wrong. Returns nil only when the pool is empty (or all
// draining).
//
// A non-nil return carries an inflight reservation: the slot is claimed
// atomically at selection (CAS under least-loaded, so concurrent pickers
// observe each other and spread), and runOn releases it when the attempt
// resolves.
func (c *Coordinator) pick(avoid, hash string) *backend {
	backends := c.snapshot()
	if b := c.pickFrom(backends, avoid, hash, true); b != nil {
		return b
	}
	return c.pickFrom(backends, avoid, hash, false)
}

func (c *Coordinator) pickFrom(backends []*backend, avoid, hash string, healthyOnly bool) *backend {
	cands := make([]*backend, 0, len(backends))
	for _, b := range backends {
		if b.draining.Load() {
			continue
		}
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
		for _, b := range backends {
			if b.url == avoid && !b.draining.Load() && (!healthyOnly || b.healthy.Load()) {
				b.inflight.Add(1)
				return b
			}
		}
		return nil
	}
	switch c.opt.Routing {
	case RouteAffinity:
		urls := make([]string, len(cands))
		for i, b := range cands {
			urls[i] = b.url
		}
		home := cluster.RendezvousPick(hash, urls)
		for _, b := range cands {
			if b.url == home {
				b.inflight.Add(1)
				return b
			}
		}
	case RouteRandom:
		c.rngMu.Lock()
		b := cands[c.rng.Intn(len(cands))]
		c.rngMu.Unlock()
		b.inflight.Add(1)
		return b
	}
	// Least-loaded, and the fallback for the impossible affinity miss. The
	// read-choose-claim sequence is not atomic across backends, so claim
	// the slot with a CAS on the chosen backend's count: if another picker
	// (or a finishing attempt) moved it first, re-run the selection with the
	// fresh counts instead of piling onto a stale choice.
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

// pickWait is pick, but in a Dynamic pool it blocks until a member exists
// rather than failing the attempt: a sweep submitted before the first
// backend registers — or while the whole pool drains away — waits instead
// of dying.
func (c *Coordinator) pickWait(ctx context.Context, avoid, hash string) (*backend, error) {
	for {
		if b := c.pick(avoid, hash); b != nil {
			return b, nil
		}
		if !c.opt.Dynamic {
			return nil, errors.New("dispatch: no backend available")
		}
		c.bmu.RLock()
		ch := c.memberCh
		c.bmu.RUnlock()
		c.log.Warn("dispatch waiting for a backend", "scope", c.scope)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.quit:
			return nil, errors.New("dispatch: coordinator closed")
		case <-ch:
		}
	}
}
