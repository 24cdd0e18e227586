// Package obs is the cluster's shared observability kit: sweep correlation
// IDs that tie one logical sweep's log lines together across the client,
// the dispatch coordinator and every visasimd daemon it touches, plus a
// dependency-free Prometheus text-format metric registry (prom.go) — the
// daemon's, the one registry in the system.
//
// A correlation ID is minted once — at server.Client.Submit, or at the
// coordinator's sweep entry point, whichever runs first — carried in a
// context.Context on the way down and in the SweepHeader HTTP header across
// process boundaries, and attached to every structured log line each layer
// emits. Grepping any one layer's logs for the ID therefore reconstructs
// the sweep's full path: submit, queue, simulate or cache-serve, retry,
// failover. See DESIGN.md §9.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
)

// SweepHeader is the HTTP header that carries a sweep's correlation ID
// between processes (client → daemon, coordinator → daemon).
const SweepHeader = "X-Visasim-Sweep"

// sweepKey is the context key the correlation ID travels under in-process.
type sweepKey struct{}

// NewSweepID mints a fresh correlation ID: "sweep-" plus 16 hex characters
// of crypto/rand entropy — short enough for log lines, long enough that
// concurrent sweeps never collide in practice.
func NewSweepID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// fixed ID rather than pulling in a time/counter fallback.
		return "sweep-0000000000000000"
	}
	return "sweep-" + hex.EncodeToString(b[:])
}

// WithSweep returns ctx carrying the correlation ID.
func WithSweep(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, sweepKey{}, id)
}

// SweepID returns the correlation ID carried by ctx, or "" when none is.
func SweepID(ctx context.Context) string {
	id, _ := ctx.Value(sweepKey{}).(string)
	return id
}

// EnsureSweep returns ctx guaranteed to carry a correlation ID, minting one
// when absent, plus the ID itself. The layer that mints is the sweep's
// origin; everyone downstream inherits.
func EnsureSweep(ctx context.Context) (context.Context, string) {
	if id := SweepID(ctx); id != "" {
		return ctx, id
	}
	id := NewSweepID()
	return WithSweep(ctx, id), id
}

// ValidSweepID bounds what the daemon accepts from the wire: IDs are
// operational metadata that end up verbatim in log lines, so reject
// anything long or outside a conservative character set (defence against
// log injection via header).
func ValidSweepID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}

// NopLogger returns a logger that discards everything — the default for
// libraries whose callers did not configure logging, so instrumented code
// never nil-checks.
func NopLogger() *slog.Logger {
	return slog.New(discardHandler{})
}

// discardHandler drops every record. slog.DiscardHandler exists from Go
// 1.24 on; this keeps the module buildable at its declared go 1.22.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// Logger returns l, or the nop logger when l is nil — the standard guard at
// every instrumented entry point.
func Logger(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return NopLogger()
}

// NewLogger builds a logger from the flag vocabulary the binaries share:
// level one of debug/info/warn/error, format one of text/json. Lines go to
// w (a daemon passes os.Stderr).
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (text, json)", format)
	}
}
