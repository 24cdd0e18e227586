// Package cluster holds the control-plane primitives the sweep service is
// built from: tenancy and token-bucket admission control, SLO priority
// classes with a priority-ordered scheduling queue, rendezvous-hash
// cache-affinity routing, and a Jain fairness index.
//
// The package is deliberately mechanism, not policy wiring: internal/server
// uses the tenant registry and admission controller to gate visasimd
// submissions (429 + Retry-After past a tenant's rate or quota), and
// internal/dispatch uses the queue, router and fairness pieces to turn the
// coordinator into an SLO-aware scheduler with dynamic membership.
// Nothing here touches simulation results: scheduling and routing only
// decide *where and when* a cell runs, and the simulator's determinism
// guarantees the bytes that come back are identical either way (the
// byte-parity property every dispatch test pins). See DESIGN.md §12.
package cluster

import (
	"context"
	"fmt"
)

// HTTP headers the control plane speaks across process boundaries.
const (
	// KeyHeader carries a tenant's API key on submissions (visasimd's
	// POST /v1/sweeps, the coordinator's POST /v1/dispatch).
	KeyHeader = "X-Visasim-Key"
	// ClassHeader carries the requested priority class name
	// ("interactive", "standard", "bulk") on coordinator submissions.
	ClassHeader = "X-Visasim-Priority"
	// RetryAfterMsHeader carries the admission controller's retry hint in
	// milliseconds alongside the standard (integer-second) Retry-After
	// header, so backoff loops don't have to round 20ms up to 1s.
	RetryAfterMsHeader = "X-Visasim-Retry-After-Ms"
)

// PriorityClass is an SLO service class. Lower values schedule first:
// a small interactive paper-reproduction sweep jumps a 14M-point bulk
// design-space scan, never the other way around.
type PriorityClass uint8

const (
	// Interactive is for small, latency-sensitive sweeps (a human waiting
	// on a table).
	Interactive PriorityClass = iota
	// Standard is the default when a submission names no class.
	Standard
	// Bulk is for throughput-bound background work (explore-verify scans).
	Bulk

	// NumClasses counts the classes above.
	NumClasses = 3
)

// Classes returns every priority class in scheduling order.
func Classes() []PriorityClass { return []PriorityClass{Interactive, Standard, Bulk} }

// String returns the class's wire name.
func (p PriorityClass) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Standard:
		return "standard"
	case Bulk:
		return "bulk"
	}
	return fmt.Sprintf("class-%d", uint8(p))
}

// ParseClass parses a wire name; "" is Standard so absent headers and flags
// need no special-casing at call sites.
func ParseClass(s string) (PriorityClass, error) {
	switch s {
	case "interactive":
		return Interactive, nil
	case "standard", "":
		return Standard, nil
	case "bulk":
		return Bulk, nil
	}
	return Standard, fmt.Errorf("cluster: unknown priority class %q (interactive, standard, bulk)", s)
}

// classKey and keyKey carry the scheduling context through a Run call.
type (
	classKey struct{}
	keyKey   struct{}
)

// WithClass returns ctx carrying the priority class a sweep should be
// scheduled under.
func WithClass(ctx context.Context, c PriorityClass) context.Context {
	return context.WithValue(ctx, classKey{}, c)
}

// ClassFrom returns the priority class carried by ctx and whether one was
// set; callers fall back to the tenant's default class, then Standard.
func ClassFrom(ctx context.Context) (PriorityClass, bool) {
	c, ok := ctx.Value(classKey{}).(PriorityClass)
	return c, ok
}

// WithAPIKey returns ctx carrying the tenant API key a sweep is submitted
// under; the coordinator's admission controller reads it at sweep entry.
func WithAPIKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, keyKey{}, key)
}

// APIKeyFrom returns the tenant API key carried by ctx, or "".
func APIKeyFrom(ctx context.Context) string {
	k, _ := ctx.Value(keyKey{}).(string)
	return k
}
