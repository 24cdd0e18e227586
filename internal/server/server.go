// Package server is the visasimd simulation service: an HTTP front end over
// the deterministic simulator with bounded admission, a content-addressed
// result cache, and Prometheus text-format metrics.
//
// Clients POST sweep cells (core.Config values, the same shape the harness
// runs) to /v1/sweeps, receive a job ID, and read the NDJSON event stream
// at /v1/jobs/{id}/stream for results — the one way to wait for a job.
// Each cell is content-addressed by core.Config.Hash — the SHA-256 of its
// canonical configuration — and the simulator is deterministic, so a cached
// core.Result is byte-identical to a fresh run and can be served without
// re-simulating. Concurrent identical cells share a single simulation
// (single-flight); see DESIGN.md §7 for the soundness argument.
//
// Execution is one FIFO of fresh cells — cells neither cached, in flight
// nor stored — drained by Options.SimWorkers workers, each simulation
// executed through internal/harness.RunStats so the daemon reports the same
// per-cell cost records the CLI tools do.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/store"
)

const (
	// maxUnfinished bounds admitted jobs that have not yet finished; a
	// submission past it gets 503 instead of growing the daemon's memory.
	maxUnfinished = 64
	// jobHistory bounds how many finished jobs the server keeps
	// streamable. Older ones are evicted oldest-first and their streams
	// 404; their results stay reachable through the content-addressed
	// cache, so a long-running daemon does not grow with every submission.
	jobHistory = 256
)

// Options tunes the service.
type Options struct {
	// SimWorkers is the number of cell workers, and so the bound on
	// concurrently running simulations across all jobs (GOMAXPROCS when
	// 0, as in harness.Options).
	SimWorkers int
	// CacheEntries bounds resolved results resident in memory (4096 when
	// not positive). Past it the least-recently-used entries are evicted
	// — re-served from Store when one is configured, re-simulated
	// otherwise.
	CacheEntries int
	// Store, when non-nil, is the durable result tier: every fresh
	// simulation is written through to it, and a cache miss consults it
	// before simulating, so a restarted daemon serves previously computed
	// cells from disk (see DESIGN.md §8).
	Store *store.Store
	// Logger receives the service's structured log lines. Every line
	// about a job or cell carries the job's sweep correlation ID (taken
	// from the obs.SweepHeader request header, or minted at submit), so
	// one grep correlates daemon activity with the submitting client's
	// and coordinator's logs. Nil discards.
	Logger *slog.Logger
}

// jobCell is the server-side state of one submitted cell.
type jobCell struct {
	key  string
	hash string
	cfg  core.Config // canonical form

	done  bool
	hit   bool
	res   *core.Result
	err   error
	stats harness.CellStats
}

// job is one admitted sweep submission.
type job struct {
	id string
	// sweep is the correlation ID the submission carried (or was minted
	// at accept); immutable after creation.
	sweep string

	mu      sync.Mutex
	state   string
	cells   []jobCell
	pending int           // cells not yet resolved
	changed chan struct{} // closed and replaced on every state change
}

// bump signals watchers that the job changed. Callers hold j.mu.
func (j *job) bump() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// freshCell is a job cell leading a cache entry that no tier could serve,
// waiting in the FIFO for a cell worker to simulate it.
type freshCell struct {
	j        *job
	i        int // index into j.cells
	e        *cacheEntry
	enqueued time.Time
}

// Server is the simulation service. Create with New, mount Handler on an
// http.Server, and stop with Shutdown.
type Server struct {
	cache *resultCache
	store *store.Store // durable tier; nil when not configured
	met   *metrics
	log   *slog.Logger

	mu         sync.Mutex
	wake       *sync.Cond // on mu: the FIFO grew, or shutdown may be complete
	closed     bool
	jobs       map[string]*job
	hist       []string // finished job IDs, oldest first, capped at jobHistory
	seq        int
	unfinished int         // admitted jobs not yet finished
	fifo       []freshCell // fresh cells in arrival order

	wg sync.WaitGroup // cell workers
}

// New starts a Server's cell workers and returns it ready to serve.
func New(opt Options) *Server {
	if opt.SimWorkers <= 0 {
		opt.SimWorkers = harness.DefaultWorkers()
	}
	if opt.CacheEntries <= 0 {
		opt.CacheEntries = 4096
	}
	s := &Server{
		cache: newResultCache(opt.CacheEntries),
		store: opt.Store,
		log:   obs.Logger(opt.Logger),
		jobs:  map[string]*job{},
	}
	s.wake = sync.NewCond(&s.mu)
	s.met = newMetrics(s)
	s.wg.Add(opt.SimWorkers)
	for i := 0; i < opt.SimWorkers; i++ {
		go s.cellWorker()
	}
	return s
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics/prom", s.handleMetricsProm)
	return mux
}

// Shutdown stops the service gracefully: new submissions are rejected and
// every admitted job runs to completion. It returns once the cell workers
// have exited, or ctx's error if that takes too long (the workers keep
// draining in the background either way). Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.wake.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errBusy and errClosed refuse a submission (HTTP 503).
var (
	errBusy   = fmt.Errorf("server busy (%d jobs unfinished)", maxUnfinished)
	errClosed = errors.New("server is shutting down")
)

// admit registers a job of cells under sweep and starts resolving it, or
// refuses it when the server is closed or maxUnfinished jobs are
// unfinished.
func (s *Server) admit(sweep string, cells []jobCell) (*job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	if s.unfinished >= maxUnfinished {
		s.mu.Unlock()
		return nil, errBusy
	}
	s.seq++
	s.unfinished++
	j := &job{
		id:      fmt.Sprintf("job-%d", s.seq),
		sweep:   sweep,
		state:   StateRunning,
		cells:   cells,
		pending: len(cells),
		changed: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.mu.Unlock()

	s.met.jobsSubmitted.Add(1)
	s.met.jobsRunning.Add(1)
	s.log.Info("job accepted", "sweep", sweep, "job", j.id, "cells", len(cells))
	go s.resolve(j)
	return j, nil
}

// resolve routes each cell of j through the cache: a resolved address
// finishes the cell at once, an address in flight takes the cell as a
// waiter, and for an address j leads the store is consulted before the
// cell joins the FIFO, so a stored hit never queues behind a simulation.
func (s *Server) resolve(j *job) {
	for i := range j.cells {
		c := &j.cells[i]
		e, leader := s.cache.claim(c.hash, func(e *cacheEntry) {
			// Shared-flight follower: its wait is the leader's
			// simulation, so it belongs to neither the cache-serve nor
			// the simulate histogram.
			s.finishCell(j, i, e, true)
		})
		if e == nil {
			continue // the follow callback finishes it
		}
		if !leader {
			t0 := time.Now()
			s.finishCell(j, i, e, true)
			s.met.histCacheHit.Observe(time.Since(t0).Seconds())
			continue
		}
		// The durable tier first: a previous process — or an evicted
		// in-memory entry — may already hold this address on disk, in
		// which case the cell is a hit without simulating.
		if s.store != nil {
			t0 := time.Now()
			if res, st, ok := s.store.Get(c.hash); ok {
				s.met.storeHits.Add(1)
				s.cache.fill(e, res, st)
				s.finishCell(j, i, e, true)
				s.met.histCacheHit.Observe(time.Since(t0).Seconds())
				s.log.Debug("cell served from store", "sweep", j.sweep,
					"job", j.id, "cell", c.key, "hash", c.hash[:12])
				continue
			}
			s.met.storeMisses.Add(1)
		}
		s.mu.Lock()
		s.fifo = append(s.fifo, freshCell{j: j, i: i, e: e, enqueued: time.Now()})
		s.wake.Signal()
		s.mu.Unlock()
	}
}

// cellWorker simulates fresh cells in arrival order. It exits once the
// server is closed and every admitted job has finished.
func (s *Server) cellWorker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.fifo) == 0 {
			if s.closed && s.unfinished == 0 {
				s.mu.Unlock()
				return
			}
			s.wake.Wait()
		}
		f := s.fifo[0]
		s.fifo[0] = freshCell{}
		s.fifo = s.fifo[1:]
		s.mu.Unlock()
		s.simulate(f)
	}
}

// simulate runs a fresh cell through harness.RunStats, publishes the
// result to its cache entry — finishing every cell waiting on it — writes
// it through to the store and finishes the cell itself.
func (s *Server) simulate(f freshCell) {
	j, c := f.j, &f.j.cells[f.i]
	s.met.histQueueWait.Observe(time.Since(f.enqueued).Seconds())
	t0 := time.Now()
	res, stats, err := harness.RunStats(
		[]harness.Cell{{Key: c.hash, Cfg: c.cfg}},
		harness.Options{Workers: 1, Labels: map[string]string{"sweep": j.sweep}})
	s.met.histSimulate.Observe(time.Since(t0).Seconds())
	if err != nil {
		s.cache.fail(f.e, err)
		s.log.Error("cell simulation failed", "sweep", j.sweep,
			"job", j.id, "cell", c.key, "hash", c.hash[:12], "err", err)
	} else {
		st := stats[c.hash]
		s.met.recordSim(st)
		s.cache.fill(f.e, res[c.hash], st)
		if s.store != nil {
			// Best-effort write-through: a full disk degrades the
			// daemon to memory-only instead of failing the cell.
			if perr := s.store.Put(c.hash, res[c.hash], st); perr != nil {
				s.met.storePutErrors.Add(1)
				s.log.Warn("store write-through failed", "sweep", j.sweep,
					"job", j.id, "hash", c.hash[:12], "err", perr)
			}
		}
		s.log.Debug("cell simulated", "sweep", j.sweep, "job", j.id,
			"cell", c.key, "hash", c.hash[:12],
			"seconds", st.Seconds, "cycles", st.Cycles,
			"iq_high_water", st.Telemetry.IQHighWater,
			"policy_switches", st.Telemetry.PolicySwitches,
			"dvm_triggers", st.Telemetry.DVMTriggers)
	}
	s.finishCell(j, f.i, f.e, false)
}

// finishCell records a resolved cache entry into the job's cell i, and
// finishes the job when it was the last cell pending.
func (s *Server) finishCell(j *job, i int, e *cacheEntry, hit bool) {
	j.mu.Lock()
	c := &j.cells[i]
	c.done = true
	c.hit = hit
	if e.err != nil {
		// Followers of a failed leader report the shared cause; the
		// CellError key (the leader's hash) is not this cell's key, so
		// unwrap to the cause.
		err := e.err
		var ce *harness.CellError
		if errors.As(err, &ce) {
			err = ce.Err
		}
		c.err = err
	} else {
		c.res = e.res
		c.stats = e.stats
	}
	j.pending--
	last := j.pending == 0
	j.bump()
	j.mu.Unlock()
	s.met.recordCell(hit)
	if last {
		s.finishJob(j)
	}
}

// finishJob publishes j's terminal state and retires it: it frees j's
// admission slot and evicts finished jobs beyond jobHistory, oldest first,
// so the jobs map (and the per-cell Results it pins) stays bounded on a
// long-running daemon.
func (s *Server) finishJob(j *job) {
	failed := false
	hits := 0
	j.mu.Lock()
	for i := range j.cells {
		if j.cells[i].err != nil {
			failed = true
		}
		if j.cells[i].hit {
			hits++
		}
	}
	j.mu.Unlock()

	state := StateDone
	s.met.jobsRunning.Add(-1)
	if failed {
		state = StateFailed
		s.met.jobsFailed.Add(1)
	} else {
		s.met.jobsDone.Add(1)
	}
	// Log before publishing the terminal state: a client that streams the
	// job to its end may tear down its log sink the moment the state flips,
	// so the write has to land first.
	s.log.Info("job finished", "sweep", j.sweep, "job", j.id,
		"state", state, "cells", len(j.cells), "cache_hits", hits)

	// Publish and retire under s.mu, so a client that has read the end
	// event can be admitted again at once.
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	j.state = state
	j.bump()
	j.mu.Unlock()
	s.unfinished--
	s.hist = append(s.hist, j.id)
	for len(s.hist) > jobHistory {
		delete(s.jobs, s.hist[0])
		s.hist = s.hist[1:]
	}
	if s.closed && s.unfinished == 0 {
		s.wake.Broadcast()
	}
}

// --- HTTP handlers ---

// writeJSON responds compactly — deliberately un-indented, so embedded
// json.RawMessage result bytes pass through exactly as json.Marshal
// produced them (the byte-identical cache guarantee covers the wire form).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	valid, err := DecodeSubmit(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells := make([]jobCell, len(valid))
	for i, vc := range valid {
		cells[i] = jobCell{key: vc.Key, hash: vc.Hash, cfg: vc.Config}
	}

	// Adopt the caller's sweep correlation ID (obs.SweepHeader) when it is
	// present and well formed — so daemon log lines grep together with the
	// submitting client's — and mint one otherwise, so every job is
	// correlatable even from bare-curl submissions.
	sweep := r.Header.Get(obs.SweepHeader)
	if !obs.ValidSweepID(sweep) {
		sweep = obs.NewSweepID()
	}

	j, err := s.admit(sweep, cells)
	if err != nil {
		s.met.jobsRejected.Add(1)
		s.log.Warn("job rejected", "sweep", sweep, "reason", err)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:     j.id,
		Sweep:  sweep,
		Cells:  len(j.cells),
		Stream: "/v1/jobs/" + j.id + "/stream",
	})
}

func cellStatus(c *jobCell) CellStatus {
	cs := CellStatus{
		Key:      c.key,
		Hash:     c.hash,
		Done:     c.done,
		CacheHit: c.hit,
		Stats:    c.stats,
	}
	if c.err != nil {
		cs.Error = c.err.Error()
	} else if c.res != nil {
		// Marshal the cached *core.Result directly: encoding/json is
		// deterministic for it, so these bytes are identical to a fresh
		// run's encoding (pinned by TestCachedResultByteIdentical).
		blob, err := json.Marshal(c.res)
		if err != nil {
			cs.Error = fmt.Sprintf("encoding result: %v", err)
		} else {
			cs.Result = blob
		}
	}
	return cs
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleStream writes NDJSON StreamEvents: one "cell" event as each cell
// resolves (cache hits arrive immediately, fresh runs as they finish), then
// an "end" event with the job's terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	j.mu.Lock()
	sent := make([]bool, len(j.cells))
	j.mu.Unlock()
	for {
		j.mu.Lock()
		state := j.state
		changed := j.changed
		var fresh []jobCell
		for i := range j.cells {
			if j.cells[i].done && !sent[i] {
				sent[i] = true
				fresh = append(fresh, j.cells[i])
			}
		}
		j.mu.Unlock()

		for k := range fresh {
			cs := cellStatus(&fresh[k])
			if err := enc.Encode(StreamEvent{Type: "cell", Cell: &cs}); err != nil {
				return
			}
		}
		if state == StateDone || state == StateFailed {
			enc.Encode(StreamEvent{Type: "end", State: state}) //nolint:errcheck
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetricsProm renders the daemon's metrics in Prometheus text
// exposition format 0.0.4.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.prom.WritePrometheus(w) //nolint:errcheck // scraper went away; nothing to do
}
