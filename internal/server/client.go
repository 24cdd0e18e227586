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

	"visasim/internal/harness"
	"visasim/internal/obs"
)

// Client submits sweeps to a visasimd daemon and waits for them by reading
// each job's event stream — the one way any client talks to the daemon.
// Its caller is the dispatch coordinator, which sends every cell through
// Submit and Wait.
type Client struct {
	// BaseURL locates the daemon, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// Logger receives the client's structured log lines — every submit,
	// wait and failure, each carrying the sweep correlation ID (minted at
	// Submit when the context does not already carry one, and sent to the
	// daemon in the obs.SweepHeader header). Nil discards.
	Logger *slog.Logger
}

func (c *Client) log() *slog.Logger { return obs.Logger(c.Logger) }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
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
	req := SubmitRequest{Cells: make([]SubmitCell, len(cells))}
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
	// Wait holds the stream to ack.Cells cell events, so the echo must be
	// the number submitted.
	if ack.Cells != len(cells) {
		return SubmitResponse{}, fmt.Errorf("server: job %s accepted %d cells, %d submitted", ack.ID, ack.Cells, len(cells))
	}
	c.log().Info("sweep submitted", "sweep", sweep, "server", c.BaseURL,
		"job", ack.ID, "cells", len(cells))
	return ack, nil
}

// ErrIncompleteStream marks a job stream that carried no result: it stopped
// before its "end" event (EOF or a broken connection — a killed daemon), or
// it ended done or failed with a different number of "cell" events than
// cells were submitted. Retrying elsewhere can succeed; the dispatch
// coordinator treats it as a backend failure and fails the cell over.
var ErrIncompleteStream = errors.New("incomplete job stream")

// Wait reads the job's event stream (ack.Stream) to its "end" event and
// returns the job's cells in the order they resolved. A job that ended
// done or failed is a result — failed cells carry their Error; any other
// end state is an error, and so is a stream that is cut or short
// (ErrIncompleteStream). Wait ends when ctx does, with ctx's error.
func (c *Client) Wait(ctx context.Context, ack SubmitResponse) ([]CellStatus, error) {
	cells, end, err := c.readJob(ctx, ack)
	if err == nil && end.State != StateDone && end.State != StateFailed {
		err = fmt.Errorf("server: job %s ended %s: %s", ack.ID, end.State, end.Error)
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && !errors.Is(err, cerr) {
			err = fmt.Errorf("server: waiting for job %s: %w", ack.ID, cerr)
		}
		c.log().Error("sweep wait failed", "sweep", ack.Sweep, "server", c.BaseURL,
			"job", ack.ID, "err", err)
		return nil, err
	}
	c.log().Info("sweep finished", "sweep", ack.Sweep, "server", c.BaseURL,
		"job", ack.ID, "state", end.State, "cells", len(cells))
	return cells, nil
}

// readJob opens the job's stream and reads it through readStream.
func (c *Client) readJob(ctx context.Context, ack SubmitResponse) ([]CellStatus, StreamEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+ack.Stream, nil)
	if err != nil {
		return nil, StreamEvent{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, StreamEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, StreamEvent{}, decodeError(resp)
	}
	cells, end, err := readStream(resp.Body, ack.Cells)
	if err != nil {
		return nil, StreamEvent{}, fmt.Errorf("server: job %s: %w", ack.ID, err)
	}
	return cells, end, nil
}

// readStream decodes NDJSON StreamEvents up to the "end" event and returns
// the cells of the "cell" events with the end event. Only a stream that
// reaches its end event counts; when that event reports done or failed,
// it must also have carried exactly want cell events. Anything else is an
// error wrapping ErrIncompleteStream.
func readStream(r io.Reader, want int) ([]CellStatus, StreamEvent, error) {
	dec := json.NewDecoder(r)
	var cells []CellStatus
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return nil, StreamEvent{}, fmt.Errorf("%w: ended after %d cell events without an end event",
					ErrIncompleteStream, len(cells))
			}
			return nil, StreamEvent{}, fmt.Errorf("%w after %d cell events: %w", ErrIncompleteStream, len(cells), err)
		}
		switch ev.Type {
		case "cell":
			if ev.Cell == nil {
				return nil, StreamEvent{}, fmt.Errorf("%w: cell event without a cell", ErrIncompleteStream)
			}
			cells = append(cells, *ev.Cell)
		case "end":
			if (ev.State == StateDone || ev.State == StateFailed) && len(cells) != want {
				return nil, StreamEvent{}, fmt.Errorf("%w: job %s with %d cell events for %d cells",
					ErrIncompleteStream, ev.State, len(cells), want)
			}
			return cells, ev, nil
		}
	}
}
