// Package iqorg makes the issue-queue organization a pluggable axis of the
// simulated machine. The paper studies a single design — one shared queue
// with oldest-first (AGE) selection — but the related work spans a space:
// SWQUE-style mode-switching circular/AGE queues, dynamically partitioned
// per-thread queues with dispatch watermarks as reverse-engineered on real
// SMT silicon (SMTcheck: 70 entries, watermark 17), and hardened queues
// trading area and wakeup latency for soft-error mitigation (parity, ECC,
// partial replication à la Elzar's partial TMR).
//
// An Organization wraps the policy layer of the queue — admission, candidate
// selection, end-of-cycle mode bookkeeping — around the storage layer, which
// remains *uarch.IQ for every organization. The pipeline routes its
// insert/wake/select/census traffic through the interface and keeps using the
// underlying queue directly for storage reads (occupancy, per-thread counts,
// slot walks), so the default organization stays byte-identical to the
// pre-interface pipeline.
package iqorg

import (
	"fmt"

	"visasim/internal/config"
	"visasim/internal/uarch"
)

// Kind enumerates the registered issue-queue organizations.
type Kind uint8

// Registered organizations, in canonical order. The zero value is the
// paper's baseline, so a zero-valued Kind means "unchanged".
const (
	UnifiedAGE Kind = iota
	SWQUE
	Partitioned

	// numKinds is the number of registered organizations.
	numKinds = 3
)

func (k Kind) String() string {
	switch k {
	case SWQUE:
		return config.OrgSWQUE
	case Partitioned:
		return config.OrgPartitioned
	default:
		return config.OrgUnifiedAGE
	}
}

// ParseKind maps a config.Machine.IQOrg spelling to its Kind. The empty
// string is the canonical default, unified-age.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", config.OrgUnifiedAGE:
		return UnifiedAGE, nil
	case config.OrgSWQUE:
		return SWQUE, nil
	case config.OrgPartitioned:
		return Partitioned, nil
	}
	return UnifiedAGE, fmt.Errorf("iqorg: unknown organization %q", s)
}

// Kinds returns every registered organization in canonical order.
func Kinds() []Kind { return []Kind{UnifiedAGE, SWQUE, Partitioned} }

// Organization is the policy layer of an issue queue. Storage is always the
// wrapped *uarch.IQ; implementations differ in admission (CanAccept),
// candidate ordering (Select), and per-cycle bookkeeping (EndCycle).
//
// The contract mirrors the pipeline's use exactly:
//
//   - Insert/Remove/Wake/Census delegate to the queue and must preserve its
//     semantics (Insert panics on a full queue — dispatch checks CanAccept
//     and occupancy first).
//   - Select returns the cycle's issue candidates as IQ slot indices in
//     priority order (resolve with Queue().At); the returned slice is valid
//     until the next Select call.
//   - CanAccept(thread) is the per-thread admission gate consulted by
//     dispatch in addition to the shared-occupancy check.
//   - EndCycle runs once per simulated cycle after issue and dispatch, and
//     is where mode-switching organizations re-decide.
//   - NextBoundary and EndCycleSpan let the pipeline's dead-cycle
//     skip-ahead jump over runs of cycles in which the machine provably
//     does nothing: NextBoundary bounds how far the clock may jump before
//     EndCycle could change policy state, and EndCycleSpan applies the
//     bookkeeping of the skipped cycles in one call.
type Organization interface {
	Kind() Kind
	Name() string
	// Queue exposes the storage layer for occupancy reads, slot walks,
	// invariant checks, and fault injection.
	Queue() *uarch.IQ

	// Insert, Remove, Wake and Census are storage operations every
	// organization forwards unchanged to Queue(). They complete the
	// interface so standalone drivers (tests, benchmarks) can treat an
	// Organization as a whole issue queue; the pipeline's hot path
	// calls the shared *uarch.IQ directly and dispatches only the
	// policy decisions below through the interface.
	Insert(u *uarch.Uop)
	Remove(u *uarch.Uop)
	Wake(u *uarch.Uop)
	Census() uarch.Census

	// CanAccept, Select and EndCycle are the policy seam — the three
	// decisions that actually differ between organizations: dispatch
	// admission, issue candidate ordering, and per-cycle mode
	// bookkeeping.
	CanAccept(thread int) bool
	Select(sched uarch.Scheduler) []int32
	EndCycle(now uint64)

	// NextBoundary returns the first cycle ≥ now at which EndCycle may
	// change the organization's externally visible policy state
	// (admission or selection behaviour), or NoBoundary for stateless
	// organizations. The pipeline's skip-ahead never jumps the clock
	// past this cycle: the boundary cycle itself is always simulated,
	// so EndCycle runs there exactly as in a cycle-by-cycle execution.
	NextBoundary(now uint64) uint64
	// EndCycleSpan replaces the per-cycle EndCycle calls for the skipped
	// dead cycles [from, until). The caller guarantees the queue did not
	// change during the span and until ≤ NextBoundary(from), so the
	// organization can apply the span's bookkeeping (e.g. an occupancy
	// high-water update against a constant occupancy) in O(1).
	EndCycleSpan(from, until uint64)
}

// NoBoundary is NextBoundary's "never" answer: the organization's EndCycle
// carries no policy state, so skip-ahead needs no cap on its account.
const NoBoundary = ^uint64(0)

// New builds the organization named by m.IQOrg over a fresh IQ of m.IQSize
// entries. The machine is canonicalized first, so empty spellings and a zero
// watermark get their defaults.
func New(m config.Machine) (Organization, error) {
	m = m.Canonical()
	k, err := ParseKind(m.IQOrg)
	if err != nil {
		return nil, err
	}
	return NewKind(k, uarch.NewIQ(m.IQSize), m.IQWatermark), nil
}

// NewKind wraps an existing queue in the organization k. watermark is only
// consulted by Partitioned; pass 0 for the SMTcheck default.
func NewKind(k Kind, q *uarch.IQ, watermark int) Organization {
	switch k {
	case SWQUE:
		return NewSWQUEOrg(q)
	case Partitioned:
		return NewPartitioned(q, watermark)
	default:
		return &Unified{q: q}
	}
}
