// Package server is the visasimd simulation service: an HTTP front end over
// the deterministic simulator with a bounded job queue, a content-addressed
// result cache, and Prometheus text-format metrics.
//
// Clients POST sweep cells (core.Config values, the same shape the harness
// runs) to /v1/sweeps, receive a job ID, and poll /v1/jobs/{id} or stream
// /v1/jobs/{id}/stream for results. Each cell is content-addressed by
// core.Config.Hash — the SHA-256 of its canonical configuration — and the
// simulator is deterministic, so a cached core.Result is byte-identical to
// a fresh run and can be served without re-simulating. Concurrent identical
// cells share a single simulation (single-flight); see DESIGN.md §7 for the
// soundness argument.
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
	"strconv"
	"sync"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/core"
	"visasim/internal/decision"
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
	// server keeps for polling (256 when 0). Older terminal jobs are
	// evicted oldest-first and their IDs 404; their results stay reachable
	// through the content-addressed cache, so a long-running daemon does
	// not grow with every submission.
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
	// Tenants, when non-nil, turns on multi-tenant admission control: every
	// submission must carry a known API key in the cluster.KeyHeader header
	// (unknown or missing keys answer 401), and each tenant's token-bucket
	// rate and outstanding-cell quota are enforced at submit. Rejections
	// answer 429 with Retry-After (whole seconds) and
	// cluster.RetryAfterMsHeader (millisecond precision) hints; the client
	// in this package backs off on them automatically. Quota is released
	// when the job retires — done, failed, or canceled alike. Nil keeps the
	// daemon single-tenant and unauthenticated.
	Tenants *cluster.Registry
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
	trace *decision.Trace // recorded when the job's traceLevel > 0
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
	// traceLevel is the submission's decision-trace level; traced jobs
	// bypass the result cache (see SubmitRequest.TraceLevel).
	traceLevel int
	// tenant is the admitted tenant's ID when admission control is on;
	// its quota is released when the job retires.
	tenant string

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
	adm   *cluster.Admission // nil when Options.Tenants is nil
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
	if opt.Tenants != nil {
		s.adm = cluster.NewAdmission(opt.Tenants)
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
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
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
	// Log before publishing the terminal state: a client that polls the job
	// to completion may tear down its log sink the moment the state flips,
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
// it pins) stays bounded on a long-running daemon. It is also the single
// admission-release point: every accepted job — done, failed, or canceled —
// retires exactly once, so its tenant's outstanding-cell quota frees here
// and nowhere else.
func (s *Server) retireJob(j *job) {
	if s.adm != nil && j.tenant != "" {
		s.adm.Release(j.tenant, len(j.cells))
	}
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
		if j.traceLevel > 0 {
			// Traced cells bypass the cache in both directions: a cached
			// result has no trace to serve, and filling the cache from here
			// would gain nothing (the result is byte-identical to an
			// untraced run's, but the single-flight entry has nowhere to
			// carry the trace).
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.runTracedCell(j, c)
			}()
			continue
		}
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
	// Log before publishing the terminal state: a client that polls the job
	// to completion may tear down its log sink the moment the state flips,
	// so the write has to land first.
	s.log.Info("job finished", "sweep", j.sweep, "job", j.id,
		"state", state, "cells", len(j.cells), "cache_hits", hits)

	j.mu.Lock()
	j.state = state
	j.bump()
	j.mu.Unlock()
	s.retireJob(j)
}

// runTracedCell simulates one cell of a traced job with decision recording,
// outside the single-flight cache.
func (s *Server) runTracedCell(j *job, c *jobCell) {
	s.sem <- struct{}{}
	t0 := time.Now()
	res, stats, traces, err := harness.RunTraced(
		[]harness.Cell{{Key: c.key, Cfg: c.cfg}},
		harness.Options{Workers: 1, TraceLevel: j.traceLevel,
			Labels: map[string]string{"sweep": j.sweep}})
	s.met.histSimulate.Observe(time.Since(t0).Seconds())
	<-s.sem

	j.mu.Lock()
	c.done = true
	if err != nil {
		var ce *harness.CellError
		if errors.As(err, &ce) {
			err = ce.Err
		}
		c.err = err
	} else {
		c.res = res[c.key]
		c.stats = stats[c.key]
		c.trace = traces[c.key]
	}
	j.bump()
	j.mu.Unlock()
	s.met.recordCell(false)
	if err != nil {
		s.log.Error("traced cell simulation failed", "sweep", j.sweep,
			"job", j.id, "cell", c.key, "hash", c.hash[:12], "err", err)
		return
	}
	s.met.recordSim(c.stats)
	s.log.Debug("traced cell simulated", "sweep", j.sweep, "job", j.id,
		"cell", c.key, "hash", c.hash[:12], "trace_level", j.traceLevel)
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
	valid, traceLevel, err := DecodeSubmit(r.Body)
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

	// The admission gate: authenticate the tenant key and charge the cells
	// against its rate and quota before the job can enter the queue. Every
	// rejection below this point must hand the charge back.
	tenant := ""
	if s.adm != nil {
		t, err := s.adm.Admit(r.Header.Get(cluster.KeyHeader), len(cells))
		if err != nil {
			s.rejectAdmission(w, sweep, err)
			return
		}
		tenant = t.ID
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.releaseAdmission(tenant, len(cells))
		s.met.jobsRejected.Add(1)
		s.log.Warn("job rejected", "sweep", sweep, "reason", "shutting down")
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.seq++
	j := &job{
		id:         fmt.Sprintf("job-%d", s.seq),
		sweep:      sweep,
		queuedAt:   time.Now(),
		traceLevel: traceLevel,
		tenant:     tenant,
		state:      StateQueued,
		cells:      cells,
		changed:    make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.releaseAdmission(tenant, len(cells))
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
	if tenant != "" {
		s.log.Info("job accepted", "sweep", sweep, "job", j.id, "cells", len(cells), "tenant", tenant)
	} else {
		s.log.Info("job accepted", "sweep", sweep, "job", j.id, "cells", len(cells))
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:     j.id,
		Sweep:  sweep,
		Cells:  len(cells),
		Job:    "/v1/jobs/" + j.id,
		Stream: "/v1/jobs/" + j.id + "/stream",
	})
}

// rejectAdmission answers an admission failure: 401 for an unknown (or
// missing) API key, 429 with both retry hints for a rate or quota bounce.
func (s *Server) rejectAdmission(w http.ResponseWriter, sweep string, err error) {
	s.met.jobsRejected.Add(1)
	s.met.admissionRejects.Add(1)
	var ae *cluster.AdmissionError
	switch {
	case errors.Is(err, cluster.ErrUnknownKey):
		s.log.Warn("job rejected", "sweep", sweep, "reason", "unknown API key")
		writeError(w, http.StatusUnauthorized, "%v", err)
	case errors.As(err, &ae):
		secs := int((ae.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.Header().Set(cluster.RetryAfterMsHeader,
			strconv.FormatInt(ae.RetryAfter.Milliseconds(), 10))
		s.log.Warn("job rejected", "sweep", sweep, "tenant", ae.Tenant,
			"reason", ae.Reason, "retry_after", ae.RetryAfter)
		writeError(w, http.StatusTooManyRequests, "%v", err)
	default:
		s.log.Error("admission failed", "sweep", sweep, "err", err)
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// releaseAdmission hands an admitted charge back when the job is rejected
// after the admission gate (queue full, shutdown race).
func (s *Server) releaseAdmission(tenant string, cells int) {
	if s.adm != nil && tenant != "" {
		s.adm.Release(tenant, cells)
	}
}

// snapshot renders the job's current state. It marshals results outside the
// critical section; a resolved cell's Result is immutable.
func (s *Server) snapshot(j *job) JobStatus {
	j.mu.Lock()
	st := JobStatus{ID: j.id, State: j.state, Error: j.err}
	cells := make([]jobCell, len(j.cells))
	copy(cells, j.cells)
	j.mu.Unlock()

	st.Cells = make([]CellStatus, len(cells))
	for i := range cells {
		st.Cells[i] = cellStatus(&cells[i])
		if cells[i].done && cells[i].hit {
			st.CacheHits++
		}
	}
	return st
}

func cellStatus(c *jobCell) CellStatus {
	cs := CellStatus{
		Key:      c.key,
		Hash:     c.hash,
		Done:     c.done,
		CacheHit: c.hit,
		Stats:    c.stats,
		HasTrace: c.trace != nil,
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

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.snapshot(j))
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

// handleTrace serves one cell's recorded decision trace as NDJSON (header
// line, one line per event, summary line — decision.Trace.WriteNDJSON's
// format). The cell is selected with ?cell=KEY; a single-cell job needs no
// parameter.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	key := r.URL.Query().Get("cell")

	j.mu.Lock()
	traceLevel := j.traceLevel
	var c *jobCell
	switch {
	case key != "":
		for i := range j.cells {
			if j.cells[i].key == key {
				c = &j.cells[i]
				break
			}
		}
	case len(j.cells) == 1:
		c = &j.cells[0]
	}
	var (
		done bool
		tr   *decision.Trace
	)
	if c != nil {
		done, tr = c.done, c.trace
	}
	j.mu.Unlock()

	switch {
	case traceLevel <= 0:
		writeError(w, http.StatusNotFound, "job %s was not submitted with trace_level > 0", j.id)
	case c == nil && key == "":
		writeError(w, http.StatusBadRequest, "job %s has several cells; select one with ?cell=KEY", j.id)
	case c == nil:
		writeError(w, http.StatusNotFound, "job %s has no cell %q", j.id, key)
	case !done:
		writeError(w, http.StatusConflict, "cell %q has not resolved yet", key)
	case tr == nil:
		writeError(w, http.StatusNotFound, "cell %q recorded no trace (simulation failed?)", key)
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		tr.WriteNDJSON(w) //nolint:errcheck // client went away; nothing to do
	}
}

// handleTenants reports tenant quotas and usage (never keys) — the same
// shape the coordinator's control plane serves, so `visasimctl tenants`
// works against either. An untenanted daemon answers an empty list.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if s.adm == nil {
		writeJSON(w, http.StatusOK, []cluster.TenantStatus{})
		return
	}
	writeJSON(w, http.StatusOK, s.adm.Snapshot())
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
