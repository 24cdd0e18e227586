package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/workload"
)

// SubmitCell is one sweep cell in a submission: a key naming the cell in
// the job's result set plus the full simulation configuration (the same
// core.Config shape cmd/visasim's -config machinery and the harness use).
type SubmitCell struct {
	// Key names the cell within the job; it must be unique in the
	// submission. When empty, the cell's content hash is used.
	Key string `json:"key,omitempty"`
	// Config describes the simulation. Defaults are filled in exactly as
	// core.Run fills them, so a partial configuration is fine.
	Config core.Config `json:"config"`
}

// MaxRequestBytes caps every submission body the daemon decodes; a longer
// body is cut off there and rejected as malformed.
const MaxRequestBytes = 16 << 20

// SubmitRequest is the body of POST /v1/sweeps.
type SubmitRequest struct {
	Cells []SubmitCell `json:"cells"`
}

// ValidCell is one cell of a submission that DecodeSubmit accepted.
type ValidCell struct {
	// Key is the submitted key, or Hash when the cell carried none.
	Key string
	// Hash is the cell's content address, Config.Hash().
	Hash string
	// Config is the canonical configuration.
	Config core.Config
}

// DecodeSubmit reads and checks a SubmitRequest body — the decoder behind
// POST /v1/sweeps, the one submission API. The body must fit in MaxRequestBytes, name no unknown
// field and carry at least one cell; every cell must canonicalise, pass
// Machine.Validate, name known benchmarks and have a unique key (defaulted
// to its hash). It returns the cells in submission order. Any error is the
// caller's fault (HTTP 400); nothing is simulated.
func DecodeSubmit(body io.Reader) ([]ValidCell, error) {
	var req SubmitRequest
	dec := json.NewDecoder(io.LimitReader(body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Cells) == 0 {
		return nil, errors.New("submission has no cells")
	}
	cells := make([]ValidCell, len(req.Cells))
	seen := map[string]int{}
	for i, sc := range req.Cells {
		canon, err := sc.Config.Canonical()
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		if err := canon.Machine.Validate(); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		for _, b := range canon.Benchmarks {
			if _, err := workload.Get(b); err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}
		}
		hash, err := canon.Hash()
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		key := sc.Key
		if key == "" {
			key = hash
		}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("cells %d and %d share key %q", prev, i, key)
		}
		seen[key] = i
		cells[i] = ValidCell{Key: key, Hash: hash, Config: canon}
	}
	return cells, nil
}

// SubmitResponse acknowledges an accepted sweep.
type SubmitResponse struct {
	// ID identifies the job.
	ID string `json:"id"`
	// Sweep is the correlation ID the job runs under: the submission's
	// obs.SweepHeader value when present and valid, otherwise minted at
	// accept. Grep it across client, daemon and coordinator logs.
	Sweep string `json:"sweep,omitempty"`
	// Cells echoes the number of accepted cells.
	Cells int `json:"cells"`
	// Stream is the NDJSON event-stream URL ("/v1/jobs/{id}/stream"), the
	// one way to wait for the job and collect its results.
	Stream string `json:"stream"`
}

// Job states, in lifecycle order: a job runs from admission until every
// cell has resolved, then ends done, or failed if any cell failed.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// CellStatus is one cell's progress within a job.
type CellStatus struct {
	Key string `json:"key"`
	// Hash is the cell's content address: core.Config.Hash() of the
	// canonical configuration, which is also its result-cache key.
	Hash string `json:"hash"`
	// Done reports whether the cell has resolved (result or error).
	Done bool `json:"done"`
	// CacheHit reports that the result came from the cache or was shared
	// with a concurrent identical cell rather than freshly simulated.
	CacheHit bool `json:"cache_hit"`
	// Result is the simulation outcome (exactly core.Result's JSON).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the simulation error, when the cell failed.
	Error string `json:"error,omitempty"`
	// Stats is the simulator cost of the run that produced the result;
	// for cache hits it echoes the original run's cost.
	Stats harness.CellStats `json:"stats"`
}

// StreamEvent is one NDJSON line of GET /v1/jobs/{id}/stream: a "cell"
// event per resolved cell as it resolves, then a final "end" event carrying
// the job's terminal state. A stream that stops before its "end" event was
// cut (the daemon died or the connection broke) and carries no result.
type StreamEvent struct {
	Type string `json:"type"` // "cell" or "end"
	// Cell is set on "cell" events.
	Cell *CellStatus `json:"cell,omitempty"`
	// State is set on the final "end" event.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}
