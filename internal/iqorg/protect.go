package iqorg

import (
	"fmt"

	"visasim/internal/config"
)

// Protection enumerates the issue-queue protection modes. Each mode carries
// a cost model (Cost): the fraction of IQ AVF it removes, the extra area per
// queue entry, and the wakeup-latency tax of sitting in the result-broadcast
// path. The zero value is unprotected, so zero-valued inputs mean "today's
// machine".
//
// Area is a relative unit, not silicon: an unprotected, CAM-heavy queue
// entry costs 4 units. It only has to order the modes against each other.
type Protection uint8

// Registered protection modes, in canonical order.
const (
	None Protection = iota
	Parity
	ECC
	PartialReplication

	// numProtections is the number of registered protection modes.
	numProtections = 4
)

func (p Protection) String() string {
	switch p {
	case Parity:
		return config.ProtParity
	case ECC:
		return config.ProtECC
	case PartialReplication:
		return config.ProtPartialRepl
	default:
		return config.ProtNone
	}
}

// ParseProtection maps a config.Machine.IQProtection spelling to its
// Protection. The empty string is the canonical default, none.
func ParseProtection(s string) (Protection, error) {
	switch s {
	case "", config.ProtNone:
		return None, nil
	case config.ProtParity:
		return Parity, nil
	case config.ProtECC:
		return ECC, nil
	case config.ProtPartialRepl:
		return PartialReplication, nil
	}
	return None, fmt.Errorf("iqorg: unknown protection %q", s)
}

// Protections returns every registered mode in canonical order.
func Protections() []Protection {
	return []Protection{None, Parity, ECC, PartialReplication}
}

// ProtCost is the reliability/area/latency tradeoff of one protection mode.
type ProtCost struct {
	// Mitigation is the fraction of unprotected issue-queue AVF the mode
	// removes; reported IQ AVF scales by (1 - Mitigation).
	Mitigation float64
	// AreaPerEntry is the added area per queue entry, in units where an
	// unprotected entry costs 4.
	AreaPerEntry float64
	// WakeupLatency is the extra cycles the mode adds to every result
	// broadcast (checkers/correctors sitting in the wakeup path).
	WakeupLatency int
}

// protCosts is the per-mode cost table, indexed by Protection.
//
//   - Parity: one interleaved parity group per entry (~6% storage, 0.25 of a
//     4-unit entry). Detection plus squash-and-refetch recovers strikes on
//     entries that have not issued; late-detected strikes still escape, so
//     mitigation is 70%, not full coverage. Checking overlaps issue, no
//     wakeup tax.
//   - ECC: SEC-DED check bits plus correction logic (~20% of the entry).
//     Single-bit upsets — essentially all soft errors at queue scale — are
//     corrected in place (99%), but the corrector sits in the broadcast
//     path and costs one wakeup cycle (Hardisc pays the same pipeline tax).
//   - Partial replication: duplicate the ACE-dense payload fields and vote,
//     Elzar-style partial TMR. Half the entry doubled is +2 units; fields
//     outside the replicated slice stay exposed, so mitigation is 85% with
//     no added wakeup latency.
var protCosts = [numProtections]ProtCost{
	None:               {Mitigation: 0, AreaPerEntry: 0, WakeupLatency: 0},
	Parity:             {Mitigation: 0.70, AreaPerEntry: 0.25, WakeupLatency: 0},
	ECC:                {Mitigation: 0.99, AreaPerEntry: 0.80, WakeupLatency: 1},
	PartialReplication: {Mitigation: 0.85, AreaPerEntry: 2.0, WakeupLatency: 0},
}

// Cost returns the mode's cost model. Unknown values cost nothing, like None.
func (p Protection) Cost() ProtCost {
	if int(p) < len(protCosts) {
		return protCosts[p]
	}
	return ProtCost{}
}

// AVFScale returns the factor reported IQ AVF is multiplied by under p.
func (p Protection) AVFScale() float64 { return 1 - p.Cost().Mitigation }

// AreaCost returns the total added area of protecting iqSize entries, in
// units where an unprotected entry costs 4.
func (p Protection) AreaCost(iqSize int) float64 {
	return p.Cost().AreaPerEntry * float64(iqSize)
}
