package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/server"
)

// This file is the coordinator's own HTTP surface — the control plane the
// cluster binaries speak. Backends register and deregister themselves here
// (dynamic membership: `visasimd -register`), operators drain them
// (`visasimctl drain`), and clients submit whole sweeps through the
// scheduler with tenant and priority headers (POST /v1/dispatch) instead
// of linking the coordinator in-process.

// registerRequest is the body of the membership POSTs.
type registerRequest struct {
	URL string `json:"url"`
}

// DispatchResponse is the body of a successful POST /v1/dispatch: every
// cell's result, keyed and key-sorted. Cells carry exactly the daemon's
// CellStatus shape so existing decoders work against either endpoint.
type DispatchResponse struct {
	Sweep string              `json:"sweep"`
	Cells []server.CellStatus `json:"cells"`
}

// Control returns the coordinator's control-plane handler:
//
//	GET  /healthz                 liveness
//	GET  /v1/backends             pool membership and health
//	POST /v1/backends/register    {"url": ...} join after a handshake probe
//	POST /v1/backends/deregister  {"url": ...} leave immediately
//	POST /v1/backends/drain       {"url": ...} drain gracefully, then leave
//	GET  /v1/tenants              tenant quotas and usage (admission mode)
//	POST /v1/dispatch             run a sweep synchronously through the scheduler
//	GET  /metrics/prom            Prometheus text exposition
func (c *Coordinator) Control() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, c.Members())
	})
	mux.HandleFunc("/v1/backends/register", c.membershipHandler(func(ctx context.Context, url string) error {
		if err := c.handshake(ctx, url); err != nil {
			return fmt.Errorf("handshake with %s failed: %w", url, err)
		}
		return c.Join(url)
	}))
	mux.HandleFunc("/v1/backends/deregister", c.membershipHandler(func(_ context.Context, url string) error {
		return c.Leave(url)
	}))
	mux.HandleFunc("/v1/backends/drain", c.membershipHandler(c.Drain))
	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		if c.opt.Admission == nil {
			writeJSON(w, []cluster.TenantStatus{})
			return
		}
		writeJSON(w, c.opt.Admission.Snapshot())
	})
	mux.HandleFunc("/v1/dispatch", c.handleDispatch)
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WritePrometheus(w)
	})
	return mux
}

// handshake verifies a registering backend actually answers /healthz
// before it enters the pool — a typo'd URL should bounce at registration,
// not poison routing.
func (c *Coordinator) handshake(ctx context.Context, url string) error {
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	b := &backend{url: url}
	return b.probe(hctx, c.httpClient())
}

// membershipHandler adapts a membership mutation into a POST handler.
func (c *Coordinator) membershipHandler(op func(ctx context.Context, url string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req registerRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, server.MaxRequestBytes)).Decode(&req); err != nil || req.URL == "" {
			httpErr(w, http.StatusBadRequest, "body must be {\"url\": \"http://host:port\"}")
			return
		}
		if err := op(r.Context(), req.URL); err != nil {
			status := http.StatusBadGateway
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
			httpErr(w, status, err.Error())
			return
		}
		writeJSON(w, c.Members())
	}
}

// handleDispatch runs a whole sweep synchronously through the scheduler:
// the daemon's SubmitRequest body, the tenant key in cluster.KeyHeader,
// the priority class in cluster.ClassHeader, the sweep correlation ID in
// obs.SweepHeader. Admission rejections return 401 (unknown key) or 429
// with Retry-After and cluster.RetryAfterMsHeader hints.
func (c *Coordinator) handleDispatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	valid, traceLevel, err := server.DecodeSubmit(r.Body)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if traceLevel > 0 {
		httpErr(w, http.StatusBadRequest, "tracing is per-daemon; submit traced sweeps to a backend directly")
		return
	}
	cells := make([]harness.Cell, len(valid))
	for i, vc := range valid {
		cells[i] = harness.Cell{Key: vc.Key, Cfg: vc.Config}
	}

	ctx := r.Context()
	if sweep := r.Header.Get(obs.SweepHeader); obs.ValidSweepID(sweep) {
		ctx = obs.WithSweep(ctx, sweep)
	}
	if key := r.Header.Get(cluster.KeyHeader); key != "" {
		ctx = cluster.WithAPIKey(ctx, key)
	}
	if name := r.Header.Get(cluster.ClassHeader); name != "" {
		class, err := cluster.ParseClass(name)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx = cluster.WithClass(ctx, class)
	}
	ctx, sweep := obs.EnsureSweep(ctx)

	results, stats, err := c.RunStatsContext(ctx, cells, harness.Options{})
	if err != nil {
		dispatchErr(w, err)
		return
	}
	resp := DispatchResponse{Sweep: sweep, Cells: make([]server.CellStatus, 0, len(cells))}
	for _, vc := range valid {
		blob, merr := json.Marshal(results[vc.Key])
		if merr != nil {
			httpErr(w, http.StatusInternalServerError, "encoding result: "+merr.Error())
			return
		}
		resp.Cells = append(resp.Cells, server.CellStatus{
			Key:    vc.Key,
			Hash:   vc.Hash,
			Done:   true,
			Result: blob,
			Stats:  stats[vc.Key],
		})
	}
	sort.Slice(resp.Cells, func(i, j int) bool { return resp.Cells[i].Key < resp.Cells[j].Key })
	writeJSON(w, resp)
}

// dispatchErr maps a Run failure onto the control plane's status codes.
func dispatchErr(w http.ResponseWriter, err error) {
	var ae *cluster.AdmissionError
	switch {
	case errors.Is(err, cluster.ErrUnknownKey):
		httpErr(w, http.StatusUnauthorized, err.Error())
	case errors.As(err, &ae):
		secs := int((ae.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.Header().Set(cluster.RetryAfterMsHeader,
			strconv.FormatInt(ae.RetryAfter.Milliseconds(), 10))
		httpErr(w, http.StatusTooManyRequests, err.Error())
	default:
		var ce *harness.CellError
		if errors.As(err, &ce) {
			httpErr(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		httpErr(w, http.StatusInternalServerError, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func httpErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck
}
