// Package server is the visasimd simulation service: an HTTP front end over
// the deterministic simulator with a bounded job queue, a content-addressed
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
// Execution is a two-level bounded pool: Options.JobWorkers jobs run
// concurrently, and across all of them Options.SimWorkers simulations may be
// in flight, each executed through internal/harness.RunStats so the daemon
// reports the same per-cell cost records the CLI tools do.
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

// Options tunes the service.
type Options struct {
	// JobWorkers bounds concurrently executing jobs (2 when 0).
	JobWorkers int
	// SimWorkers bounds concurrently running simulations across all jobs
	// (GOMAXPROCS when 0, as in harness.Options).
	SimWorkers int
	// QueueDepth bounds the job queue; submissions beyond it are rejected
	// with 503 (64 when 0).
	QueueDepth int
	// JobHistory bounds how many terminal (done/failed/canceled) jobs the
	// server keeps streamable (256 when 0). Older terminal jobs are
	// evicted oldest-first and their streams 404; their results stay
	// reachable through the content-addressed cache, so a long-running
	// daemon does not grow with every submission.
	JobHistory int
	// CacheEntries bounds resolved results resident in memory (4096 when
	// 0; negative means unbounded). Past it the least-recently-used
	// entries are evicted — re-served from Store when one is configured,
	// re-simulated otherwise.
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

func (o Options) withDefaults() Options {
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.SimWorkers <= 0 {
		o.SimWorkers = harness.DefaultWorkers()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.JobHistory <= 0 {
		o.JobHistory = 256
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	return o
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

// job is one accepted sweep submission.
type job struct {
	id string
	// sweep is the correlation ID the submission carried (or was minted
	// at accept); immutable after creation.
	sweep string
	// queuedAt is when the submission was accepted, for the queue-wait
	// histogram.
	queuedAt time.Time

	mu      sync.Mutex
	state   string
	err     string
	cells   []jobCell
	changed chan struct{} // closed and replaced on every state change
}

// bump signals watchers that the job changed. Callers hold j.mu.
func (j *job) bump() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// Server is the simulation service. Create with New, mount Handler on an
// http.Server, and stop with Shutdown.
type Server struct {
	opt   Options
	cache *resultCache
	store *store.Store // durable tier; nil when not configured
	met   *metrics
	log   *slog.Logger

	mu     sync.Mutex
	closed bool
	jobs   map[string]*job
	hist   []string // terminal job IDs, oldest first, capped at JobHistory
	seq    int

	queue chan *job
	quit  chan struct{}
	sem   chan struct{} // simulation slots
	wg    sync.WaitGroup
}

// New starts a Server's worker pool and returns it ready to serve.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:   opt,
		cache: newResultCache(opt.CacheEntries),
		store: opt.Store,
		log:   obs.Logger(opt.Logger),
		jobs:  map[string]*job{},
		queue: make(chan *job, opt.QueueDepth),
		quit:  make(chan struct{}),
		sem:   make(chan struct{}, opt.SimWorkers),
	}
	s.met = newMetrics(s)
	s.wg.Add(opt.JobWorkers)
	for i := 0; i < opt.JobWorkers; i++ {
		go s.worker()
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

// Shutdown stops the service gracefully: new submissions are rejected,
// in-flight jobs run to completion, and still-queued jobs are canceled. It
// returns once every worker has exited, or ctx's error if that takes too
// long (workers keep draining in the background either way). Shutdown is
// idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
		close(s.queue)
	}
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

// worker executes queued jobs until the queue closes. After Shutdown it
// keeps draining the queue but cancels instead of running.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.met.jobsQueued.Add(-1)
		select {
		case <-s.quit:
			s.cancelJob(j)
			continue
		default:
		}
		s.runJob(j)
	}
}

func (s *Server) cancelJob(j *job) {
	// Log before publishing the terminal state: a client that streams the
	// job to its end may tear down its log sink the moment the state flips,
	// so the write has to land first.
	s.met.jobsCanceled.Add(1)
	s.log.Warn("job canceled", "sweep", j.sweep, "job", j.id,
		"reason", "shutdown before the job ran")
	j.mu.Lock()
	j.state = StateCanceled
	j.err = "server shutting down before the job ran"
	j.bump()
	j.mu.Unlock()
	s.retireJob(j)
}

// retireJob records j as terminal and evicts terminal jobs beyond the
// JobHistory cap, oldest first, so the jobs map (and the per-cell Results
// it pins) stays bounded on a long-running daemon.
func (s *Server) retireJob(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hist = append(s.hist, j.id)
	for len(s.hist) > s.opt.JobHistory {
		delete(s.jobs, s.hist[0])
		s.hist = s.hist[1:]
	}
}

// runJob resolves every cell of j through the cache: the single-flight
// leader of each content hash simulates (through harness.RunStats, bounded
// by the server-wide simulation semaphore) and everyone else — later cells
// of this job, or cells of concurrent jobs — shares the leader's result.
func (s *Server) runJob(j *job) {
	queueWait := time.Since(j.queuedAt)
	s.met.histQueueWait.Observe(queueWait.Seconds())
	j.mu.Lock()
	j.state = StateRunning
	j.bump()
	j.mu.Unlock()
	s.met.jobsRunning.Add(1)
	s.log.Info("job running", "sweep", j.sweep, "job", j.id,
		"cells", len(j.cells), "queue_wait", queueWait)

	var wg sync.WaitGroup
	for i := range j.cells {
		c := &j.cells[i]
		e, leader := s.cache.claim(c.hash)
		if !leader {
			if e.resolved() {
				t0 := time.Now()
				s.finishCell(j, c, e, true)
				s.met.histCacheHit.Observe(time.Since(t0).Seconds())
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Shared-flight follower: the wait is dominated by the
				// leader's simulation, so it belongs to neither the
				// cache-serve nor the simulate histogram.
				<-e.done
				s.finishCell(j, c, e, true)
			}()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The durable tier first: a previous process — or an evicted
			// in-memory entry — may already hold this address on disk, in
			// which case the cell is a hit without simulating.
			if s.store != nil {
				t0 := time.Now()
				if res, st, ok := s.store.Get(c.hash); ok {
					s.met.storeHits.Add(1)
					s.cache.fill(e, res, st)
					s.finishCell(j, c, e, true)
					s.met.histCacheHit.Observe(time.Since(t0).Seconds())
					s.log.Debug("cell served from store", "sweep", j.sweep,
						"job", j.id, "cell", c.key, "hash", c.hash[:12])
					return
				}
				s.met.storeMisses.Add(1)
			}
			s.sem <- struct{}{}
			t0 := time.Now()
			res, stats, err := harness.RunStats(
				[]harness.Cell{{Key: c.hash, Cfg: c.cfg}},
				harness.Options{Workers: 1, Labels: map[string]string{"sweep": j.sweep}})
			s.met.histSimulate.Observe(time.Since(t0).Seconds())
			<-s.sem
			if err != nil {
				s.cache.fail(c.hash, e, err)
				s.log.Error("cell simulation failed", "sweep", j.sweep,
					"job", j.id, "cell", c.key, "hash", c.hash[:12], "err", err)
			} else {
				st := stats[c.hash]
				s.met.recordSim(st)
				s.cache.fill(e, res[c.hash], st)
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
			s.finishCell(j, c, e, false)
		}()
	}
	wg.Wait()

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
	if failed {
		state = StateFailed
	}
	s.met.jobsRunning.Add(-1)
	if failed {
		s.met.jobsFailed.Add(1)
	} else {
		s.met.jobsDone.Add(1)
	}
	// Log before publishing the terminal state: a client that streams the
	// job to its end may tear down its log sink the moment the state flips,
	// so the write has to land first.
	s.log.Info("job finished", "sweep", j.sweep, "job", j.id,
		"state", state, "cells", len(j.cells), "cache_hits", hits)

	j.mu.Lock()
	j.state = state
	j.bump()
	j.mu.Unlock()
	s.retireJob(j)
}

// finishCell records a resolved cache entry into the job's cell.
func (s *Server) finishCell(j *job, c *jobCell, e *cacheEntry, hit bool) {
	j.mu.Lock()
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
	j.bump()
	j.mu.Unlock()
	s.met.recordCell(hit)
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

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.met.jobsRejected.Add(1)
		s.log.Warn("job rejected", "sweep", sweep, "reason", "shutting down")
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("job-%d", s.seq),
		sweep:    sweep,
		queuedAt: time.Now(),
		state:    StateQueued,
		cells:    cells,
		changed:  make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.met.jobsRejected.Add(1)
		s.log.Warn("job rejected", "sweep", sweep, "reason", "queue full",
			"queue_depth", s.opt.QueueDepth)
		writeError(w, http.StatusServiceUnavailable, "job queue full (%d queued)", s.opt.QueueDepth)
		return
	}
	s.jobs[j.id] = j
	s.mu.Unlock()

	s.met.jobsSubmitted.Add(1)
	s.met.jobsQueued.Add(1)
	s.log.Info("job accepted", "sweep", sweep, "job", j.id, "cells", len(cells))
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:     j.id,
		Sweep:  sweep,
		Cells:  len(cells),
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
		jerr := j.err
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
		if state == StateDone || state == StateFailed || state == StateCanceled {
			enc.Encode(StreamEvent{Type: "end", State: state, Error: jerr}) //nolint:errcheck
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
