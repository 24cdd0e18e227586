package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/obs"
)

// Client runs sweeps against a visasimd daemon. Its Run and RunStats
// methods mirror harness.Run / harness.RunStats, so callers (notably
// experiments.Params.Runner) can swap local execution for the service —
// and its cache — without other changes.
type Client struct {
	// BaseURL locates the daemon, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// PollInterval spaces job polls (50ms when 0).
	PollInterval time.Duration
	// Timeout bounds one Run/RunStats call end to end — submit plus the
	// wait for the job to reach a terminal state. Zero means no deadline;
	// set one so a wedged daemon fails the sweep instead of hanging it.
	// Callers needing per-call control use Wait with their own context.
	Timeout time.Duration
	// Logger receives the client's structured log lines — every submit,
	// wait and failure, each carrying the sweep correlation ID (minted at
	// Submit when the context does not already carry one, and sent to the
	// daemon in the obs.SweepHeader header). Nil discards.
	Logger *slog.Logger
	// TraceLevel, when > 0, asks the daemon to record decision traces for
	// every submitted cell (see SubmitRequest.TraceLevel); download them
	// with Trace after the job resolves.
	TraceLevel int
}

func (c *Client) log() *slog.Logger { return obs.Logger(c.Logger) }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) poll() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 50 * time.Millisecond
}

// HTTPError is a non-2xx daemon response. Carrying the status code lets
// callers key policy on it — the dispatch coordinator treats 4xx (the
// request itself was rejected) as permanent and everything else (5xx,
// overload, shutdown races) as retryable on another backend.
type HTTPError struct {
	// StatusCode is the HTTP status the daemon answered with.
	StatusCode int
	// Msg is the daemon's error body (or raw bytes when not JSON).
	Msg string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d)", e.Msg, e.StatusCode)
}

// Temporary reports whether retrying the identical request could succeed:
// false for 4xx, true for everything else (notably the 503 a full queue or
// a shutting-down daemon answers).
func (e *HTTPError) Temporary() bool {
	return e.StatusCode < 400 || e.StatusCode >= 500
}

// decodeError surfaces the server's JSON error body as an *HTTPError.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	he := &HTTPError{StatusCode: resp.StatusCode, Msg: string(bytes.TrimSpace(body))}
	var er errorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		he.Msg = er.Error
	}
	return he
}

// Submit posts one sweep and returns the job acknowledgement. The request
// is canceled when ctx expires. Submit is the correlation origin: when ctx
// does not already carry a sweep ID (a coordinator minted one upstream),
// one is minted here, and either way it travels to the daemon in the
// obs.SweepHeader header so client, daemon and coordinator logs of the
// same sweep grep together.
func (c *Client) Submit(ctx context.Context, cells []harness.Cell) (SubmitResponse, error) {
	ctx, sweep := obs.EnsureSweep(ctx)
	req := SubmitRequest{Cells: make([]SubmitCell, len(cells)), TraceLevel: c.TraceLevel}
	for i, cell := range cells {
		req.Cells[i] = SubmitCell{Key: cell.Key, Config: cell.Cfg}
	}
	blob, err := json.Marshal(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/sweeps", bytes.NewReader(blob))
	if err != nil {
		return SubmitResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.SweepHeader, sweep)
	resp, err := c.http().Do(hreq)
	if err != nil {
		c.log().Error("sweep submit failed", "sweep", sweep, "server", c.BaseURL, "err", err)
		return SubmitResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		err := decodeError(resp)
		c.log().Error("sweep submit rejected", "sweep", sweep, "server", c.BaseURL, "err", err)
		return SubmitResponse{}, err
	}
	var ack SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return SubmitResponse{}, fmt.Errorf("decoding submit response: %w", err)
	}
	c.log().Info("sweep submitted", "sweep", sweep, "server", c.BaseURL,
		"job", ack.ID, "cells", len(cells))
	return ack, nil
}

// Job fetches a job's current status. The request is canceled when ctx
// expires.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, decodeError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, fmt.Errorf("decoding job status: %w", err)
	}
	return st, nil
}

// Wait polls the job until it reaches a terminal state or ctx expires,
// whichever comes first; an expired context is returned as an error (and
// cancels any in-flight poll) rather than waiting forever on a job the
// daemon never finishes.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return JobStatus{}, err
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return JobStatus{}, fmt.Errorf("server: waiting for job %s: %w", id, ctx.Err())
		case <-time.After(c.poll()):
		}
	}
}

// Trace downloads one cell's recorded decision trace from a resolved traced
// job as NDJSON bytes (decision.Trace.WriteNDJSON's format: a header line,
// one line per event, a summary line). The job must have been submitted by a
// client with TraceLevel > 0.
func (c *Client) Trace(ctx context.Context, jobID, cellKey string) ([]byte, error) {
	u := c.BaseURL + "/v1/jobs/" + jobID + "/trace"
	if cellKey != "" {
		u += "?cell=" + url.QueryEscape(cellKey)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Run submits the cells, waits for the job, and returns keyed results with
// harness.Run's semantics: the first failing cell aborts with a *CellError.
// It ignores caller cancellation; interactive callers use RunContext.
func (c *Client) Run(cells []harness.Cell, opt harness.Options) (harness.Results, error) {
	res, _, err := c.RunStats(cells, opt)
	return res, err
}

// RunContext is Run bounded by ctx: canceling ctx aborts the submit or the
// poll loop immediately, so a coordinator or CLI abort actually stops the
// sweep instead of letting it poll to completion in the background.
func (c *Client) RunContext(ctx context.Context, cells []harness.Cell, opt harness.Options) (harness.Results, error) {
	res, _, err := c.RunStatsContext(ctx, cells, opt)
	return res, err
}

// RunStats is RunStatsContext with a background context — it returns only
// when the job resolves or c.Timeout expires.
func (c *Client) RunStats(cells []harness.Cell, opt harness.Options) (harness.Results, harness.Stats, error) {
	return c.RunStatsContext(context.Background(), cells, opt)
}

// RunStatsContext is Run plus the per-cell cost records the daemon measured
// (for cache hits these echo the original simulation, not the cached
// serve). The opt.Workers bound is ignored — concurrency is the daemon's to
// manage. The call ends at ctx's cancellation or after c.Timeout (when
// set), whichever comes first; the c.Timeout deadline stays a bound even
// for callers passing a never-canceled context.
func (c *Client) RunStatsContext(ctx context.Context, cells []harness.Cell, _ harness.Options) (harness.Results, harness.Stats, error) {
	if len(cells) == 0 {
		return harness.Results{}, harness.Stats{}, nil
	}
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	ctx, sweep := obs.EnsureSweep(ctx)
	ack, err := c.Submit(ctx, cells)
	if err != nil {
		return nil, nil, err
	}
	st, err := c.Wait(ctx, ack.ID)
	if err != nil {
		c.log().Error("sweep wait failed", "sweep", sweep, "server", c.BaseURL,
			"job", ack.ID, "err", err)
		return nil, nil, err
	}
	c.log().Info("sweep finished", "sweep", sweep, "server", c.BaseURL,
		"job", ack.ID, "state", st.State, "cache_hits", st.CacheHits)
	if st.State == StateCanceled {
		return nil, nil, errors.New("server: job canceled: " + st.Error)
	}
	results := make(harness.Results, len(st.Cells))
	stats := make(harness.Stats, len(st.Cells))
	for _, cell := range st.Cells {
		if cell.Error != "" {
			return nil, nil, &harness.CellError{Key: cell.Key, Err: errors.New(cell.Error)}
		}
		var res core.Result
		if err := json.Unmarshal(cell.Result, &res); err != nil {
			return nil, nil, fmt.Errorf("decoding result for cell %s: %w", cell.Key, err)
		}
		results[cell.Key] = &res
		stats[cell.Key] = cell.Stats
	}
	return results, stats, nil
}
